//! The machine points (compiler configurations) each workload's drivers
//! intern, restated from the drivers so the benchmark can re-check and replay
//! every (point, loop) pair.  The workloads check the lists against the
//! session's own key count, so a driver that starts interning a new point
//! shows up as a failed check instead of silently leaving it unmeasured.

use std::collections::HashSet;

use vliw_bench::RESOURCE_CLUSTER_COUNTS;
use vliw_core::experiments::ipc::DEFAULT_WIDTHS;
use vliw_core::experiments::sim_machines;
use vliw_core::session::CompilationKey;
use vliw_core::{CompilerConfig, Machine, SweepGrid};

/// Drops configurations that intern to the same session key, keeping order.
fn dedup(configs: Vec<CompilerConfig>) -> Vec<CompilerConfig> {
    let mut seen = HashSet::new();
    configs.into_iter().filter(|c| seen.insert(CompilationKey::of(c))).collect()
}

fn fig6_points() -> Vec<CompilerConfig> {
    let mut out = Vec::new();
    for clusters in [4, 5, 6] {
        out.push(CompilerConfig::paper_defaults(Machine::paper_single_cluster_equivalent(
            clusters,
            Default::default(),
        )));
        out.push(CompilerConfig::paper_defaults(Machine::paper_clustered(
            clusters,
            Default::default(),
        )));
    }
    out
}

fn resources_points() -> Vec<CompilerConfig> {
    RESOURCE_CLUSTER_COUNTS
        .iter()
        .map(|&c| CompilerConfig::paper_defaults(Machine::paper_clustered(c, Default::default())))
        .collect()
}

/// Every point `figures all` (fig3, copy-cost, fig4, fig6, resources, fig8,
/// fig9) compiles, each over the whole corpus.
pub fn figures_points() -> Vec<CompilerConfig> {
    let mut out = Vec::new();
    for fus in [4, 6, 12] {
        let machine = Machine::paper_single(fus);
        out.push(CompilerConfig::paper_defaults(machine.clone()).no_unroll());
        out.push(CompilerConfig::without_copies(machine.clone()).no_unroll());
        out.push(CompilerConfig::paper_defaults(machine));
    }
    out.extend(fig6_points());
    out.extend(resources_points());
    for fus in DEFAULT_WIDTHS {
        out.push(CompilerConfig::paper_defaults(Machine::paper_single(fus)));
        if fus % 3 == 0 && fus >= 6 {
            out.push(CompilerConfig::paper_defaults(Machine::paper_clustered(
                fus / 3,
                Default::default(),
            )));
        }
    }
    dedup(out)
}

/// The probe point of every machine shape of `grid` (what the pruned sweep
/// compiles once per shape).
pub fn sweep_points(grid: SweepGrid) -> Vec<CompilerConfig> {
    let space = grid.space();
    let configs = space.configs();
    let per_shape = configs.len() / space.num_shapes().max(1);
    dedup(
        configs
            .chunks(per_shape.max(1))
            .map(|shape| CompilerConfig::paper_defaults(shape[0].probe_machine(Default::default())))
            .collect(),
    )
}

/// Every point the daemon's request mix (fig6, resources, verify, small
/// pruned sweep) compiles.
pub fn serve_points() -> Vec<CompilerConfig> {
    let mut out = fig6_points();
    out.extend(resources_points());
    out.extend(sim_machines().into_iter().map(CompilerConfig::paper_defaults));
    out.extend(sweep_points(SweepGrid::Small));
    dedup(out)
}
