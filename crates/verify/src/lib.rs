//! Static schedule/allocation verification for the clustered-VLIW stack.
//!
//! Every correctness property the cycle-accurate simulator (`vliw-sim`)
//! observes dynamically is *statically decidable* from the schedule and its
//! initiation interval: dependence satisfaction is a per-edge inequality,
//! resource legality is a modulo reservation table, and steady-state queue
//! occupancy is the MaxLive watermark of per-use lifetimes.  This crate
//! proves all of them in `O(ops + edges)` — no iteration count, no event
//! loop — which makes verification of a whole corpus or a ≥100k-point design
//! sweep cheap enough to run in CI.
//!
//! Three pieces:
//!
//! * [`Violation`] — the stack's one defect vocabulary, defined next to the
//!   schedule in `vliw-sched` and re-exported here: the static schedule check,
//!   the simulator and this verifier all report stable lint codes
//!   (`V001-DEP-DISTANCE`, `V009-QUEUE-DEPTH`, ...) with whatever provenance
//!   they have, rendered as text (`[CODE] message`).
//! * [`verify`] / [`verify_with_allocation`] — the flow-sensitive static
//!   pass, returning a [`Verification`] that mirrors a `SimRun`: fault
//!   counters, per-pool and per-queue peaks, copy-bus utilisation.
//! * [`inject`] — the fault-injection framework ([`Fault`], [`Mutant`]) the
//!   differential harness uses to prove the verifier and the simulator agree
//!   not only on clean schedules but on every class of broken one, with
//!   matching lint codes.
//!
//! The decision rule for callers: reach for the verifier when you need a
//! *verdict* (is this schedule sound? does it fit this machine?), and for the
//! simulator when you need an *execution* (issue traces, prologue/epilogue
//! behaviour, observed peaks at a finite trip count).

pub mod check;
pub mod mutate;

pub use check::{dynamic_violations, queue_map_of, verify, verify_with_allocation, Verification};
pub use mutate::{inject, Fault, Mutant, ALL_FAULTS};
pub use vliw_sched::Violation;
