//! `vliw-bounds`: static lower bounds for the design-space sweep.
//!
//! The sweep asks, for every (config, loop) pair, three questions the compiler
//! answers by scheduling, allocating and simulating: *schedulable?  does the
//! allocation fit?  is the simulation clean?*  This crate bounds the answer
//! from DDG arithmetic alone, without compiling:
//!
//! * [`LoopBounds::mii`] — the resource and recurrence lower bounds of modulo
//!   scheduling, generalized to shape-only inputs so one analysis covers
//!   every storage config of a shape;
//! * [`LoopBounds::min_live`] — a lifetime pigeonhole: a config whose private
//!   and link pools hold fewer than this many values ([`value_slots`]) can
//!   neither fit the allocation nor simulate cleanly.  The pruned sweep
//!   counts those pairs under its `B004-STORAGE` code.
//!
//! The analyzer is *trusted because it is tested*, not assumed: its unit
//! tests pin the MII arithmetic to the partitioner's, and
//! `tests/bounds_soundness.rs` differentially tests every bound against both
//! schedulers on random loops.
//!
//! ```
//! use vliw_bounds::BoundsAnalyzer;
//! use vliw_ddg::{kernels, LatencyModel};
//! use vliw_machine::Machine;
//!
//! let lat = LatencyModel::default();
//! let machine = Machine::paper_clustered(4, lat);
//! let lp = kernels::daxpy(lat, 100);
//! let bounds = BoundsAnalyzer::new(lat).analyze(0, &lp, &machine);
//! assert!(bounds.mii() >= 1 && bounds.mii() <= bounds.ii_cap);
//! // Fewer values stay live at a larger II; `min_live` is the floor at the cap.
//! assert!(bounds.min_live_at(bounds.mii()) >= bounds.min_live);
//! assert_eq!(bounds.min_live_at(bounds.ii_cap), bounds.min_live);
//! ```

pub mod analyzer;

pub use analyzer::{value_slots, BoundsAnalyzer, LoopBounds};
