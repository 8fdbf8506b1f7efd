//! Loop unrolling for modulo-scheduled loops (Section 3 of the paper).
//!
//! Unrolling replicates the loop body `U` times so that a wide machine has enough
//! independent operations to fill its functional units.  For modulo scheduling the
//! interesting metric is the **II speedup**: the II of the original loop divided by
//! the per-original-iteration II of the unrolled loop (`II_unrolled / U`).  The paper
//! reports that a considerable fraction of loops gains from unrolling with no extra
//! hardware (Fig. 4).
//!
//! Loop-carried edges are redistributed in the standard way: an edge `(i → j)` with
//! distance `d` connects copy `k` of `i` to copy `(k + d) mod U` of `j` with new
//! distance `(k + d) / U`.

use vliw_ddg::{Ddg, Loop, OpClass};
use vliw_machine::Machine;
use vliw_sched::rec_mii;

pub mod transform;

pub use transform::{unroll_ddg, UnrolledLoop};

/// Default cap on the unroll factor (the paper's experiments use small factors: the
/// goal is to saturate a 12–18-FU machine, not to flatten the loop).
pub const DEFAULT_MAX_FACTOR: u32 = 4;

/// Cap on the number of operations in the unrolled body; very large loops do not
/// benefit from unrolling (they already saturate the machine) and would only slow
/// the scheduler down.
pub const MAX_UNROLLED_OPS: usize = 256;

/// Chooses an unroll factor for `ddg` on `machine`.
///
/// The predictor minimises the per-original-iteration resource bound
/// `ResMII(U·body) / U` (the recurrence bound is unaffected by unrolling), breaking
/// ties towards the smallest factor.  Loops that cannot improve (or that would grow
/// past [`MAX_UNROLLED_OPS`]) keep factor 1.
pub fn select_unroll_factor(ddg: &Ddg, machine: &Machine, max_factor: u32) -> u32 {
    let max_factor = max_factor.max(1);
    let rec = rec_mii(ddg) as f64;
    let counts = ddg.class_counts();
    let units = machine.class_counts();
    let mut best_factor = 1u32;
    let mut best_cost = f64::INFINITY;
    for factor in 1..=max_factor {
        if ddg.num_ops() * factor as usize > MAX_UNROLLED_OPS {
            break;
        }
        // ResMII of the factor-times-unrolled body, straight from the class
        // counts: the unrolled body holds exactly `factor` copies of every
        // operation, so there is no need to materialise the unrolled graph.
        let mut res = 1usize;
        let mut missing_unit = false;
        for class in OpClass::ALL {
            let ops = counts[class.index()] * factor as usize;
            if ops == 0 {
                continue;
            }
            if units[class.index()] == 0 {
                missing_unit = true;
                break;
            }
            res = res.max(ops.div_ceil(units[class.index()]));
        }
        if missing_unit {
            continue;
        }
        // Per-original-iteration initiation interval estimate.
        let cost = (res as f64 / factor as f64).max(rec);
        if cost + 1e-9 < best_cost {
            best_cost = cost;
            best_factor = factor;
        }
    }
    best_factor
}

/// Unrolls `lp` by the factor chosen by [`select_unroll_factor`].
pub fn unroll_for_machine(lp: &Loop, machine: &Machine, max_factor: u32) -> UnrolledLoop {
    let factor = select_unroll_factor(&lp.ddg, machine, max_factor);
    unroll_ddg(&lp.ddg, factor)
}

/// The II speedup achieved by unrolling: `II_original / (II_unrolled / U)`.
///
/// Values greater than 1 mean the unrolled schedule completes each original
/// iteration faster.
pub fn ii_speedup(original_ii: u32, unrolled_ii: u32, factor: u32) -> f64 {
    assert!(original_ii >= 1 && unrolled_ii >= 1 && factor >= 1);
    original_ii as f64 * factor as f64 / unrolled_ii as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ddg::{kernels, LatencyModel};
    use vliw_machine::LatencyModel as MachineLatency;
    use vliw_sched::{modulo_schedule, ImsOptions};

    fn machine(fus: usize) -> Machine {
        Machine::single_cluster(fus, 2, 32, MachineLatency::default())
    }

    #[test]
    fn small_loop_with_rounding_slack_wants_unrolling() {
        // On a 6-FU machine (2 L/S units) daxpy's 3 memory operations force II = 2
        // although only 1.5 cycles of L/S work exist per iteration; unrolling by 2
        // recovers the rounding slack (II 3 for 2 iterations).
        let l = kernels::daxpy(LatencyModel::default(), 100);
        let factor = select_unroll_factor(&l.ddg, &machine(6), 4);
        assert!(factor > 1, "daxpy on a 6-FU machine should unroll, got {factor}");
    }

    #[test]
    fn saturated_wide_machine_does_not_unroll() {
        // On a 12-FU machine daxpy already reaches II = 1, so no unroll factor can
        // improve the per-iteration II and the selector keeps factor 1.
        let l = kernels::daxpy(LatencyModel::default(), 100);
        let factor = select_unroll_factor(&l.ddg, &machine(12), 4);
        assert_eq!(factor, 1);
    }

    #[test]
    fn recurrence_bound_loop_does_not_unroll() {
        // The first-order recurrence is limited by RecMII, which unrolling cannot
        // improve, so the selector keeps factor 1 (ties go to the smallest factor).
        let l = kernels::first_order_recurrence(LatencyModel::default(), 100);
        let factor = select_unroll_factor(&l.ddg, &machine(12), 4);
        assert_eq!(factor, 1);
    }

    #[test]
    fn unrolling_improves_ii_per_iteration() {
        let l = kernels::daxpy(LatencyModel::default(), 100);
        let m = machine(6);
        let base = modulo_schedule(&l.ddg, &m, ImsOptions::default()).unwrap();
        let unrolled = unroll_for_machine(&l, &m, 4);
        assert!(unrolled.factor > 1);
        let after = modulo_schedule(&unrolled.ddg, &m, ImsOptions::default()).unwrap();
        let speedup = ii_speedup(base.schedule.ii, after.schedule.ii, unrolled.factor);
        assert!(speedup >= 1.0, "unrolling should never slow the loop down here: {speedup}");
        assert!(speedup > 1.2, "daxpy on 6 FUs should gain from unrolling, got {speedup}");
    }

    #[test]
    fn ii_speedup_formula() {
        assert!((ii_speedup(4, 4, 2) - 2.0).abs() < 1e-9);
        assert!((ii_speedup(4, 8, 2) - 1.0).abs() < 1e-9);
        assert!((ii_speedup(3, 7, 2) - 6.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn factor_never_exceeds_op_budget() {
        let l = kernels::wide_parallel(LatencyModel::default(), 100);
        let factor = select_unroll_factor(&l.ddg, &machine(18), 64);
        assert!(l.ddg.num_ops() * factor as usize <= MAX_UNROLLED_OPS);
    }

    #[test]
    #[should_panic]
    fn ii_speedup_rejects_zero() {
        let _ = ii_speedup(0, 1, 1);
    }
}
