//! Corpus-wide report: sweeps the synthetic Perfect-Club-like corpus through the
//! full pipeline on several machines and prints summary statistics.
//!
//! ```text
//! cargo run --release --example corpus_report            # 300 loops (quick)
//! cargo run --release --example corpus_report -- 1258    # the full paper-sized corpus
//! ```

use vliw_core::analysis::{mean, pct, TextTable};
use vliw_core::experiments::ExperimentConfig;
use vliw_core::machine::copy_units_for;
use vliw_core::session::par_map_indexed;
use vliw_core::{Compiler, CompilerConfig, LatencyModel, Machine};

fn main() {
    let loops: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(300);
    let cfg = ExperimentConfig::quick(loops, 1998);
    let corpus = cfg.corpus();
    println!(
        "corpus: {} loops, {:.1} operations per loop on average, {} with a recurrence circuit\n",
        corpus.len(),
        mean(&corpus.iter().map(|l| l.ddg.num_ops() as f64).collect::<Vec<_>>()),
        corpus.iter().filter(|l| l.ddg.has_recurrence()).count(),
    );

    let mut table = TextTable::new(vec![
        "machine",
        "mean II",
        "MII achieved",
        "mean stage count",
        "mean static IPC",
        "mean dynamic IPC",
        "mean queues",
        "mean copies",
    ]);

    let lat = LatencyModel::default();
    let machines: Vec<Machine> = vec![
        Machine::single_cluster(4, copy_units_for(4), 1024, lat),
        Machine::single_cluster(6, copy_units_for(6), 1024, lat),
        Machine::single_cluster(12, copy_units_for(12), 1024, lat),
        Machine::paper_clustered(4, lat),
        Machine::paper_clustered(6, lat),
    ];

    for machine in machines {
        let name = machine.name().to_string();
        let compiler = Compiler::new(CompilerConfig::paper_defaults(machine));
        let results: Vec<_> =
            par_map_indexed(corpus.len(), cfg.threads, |i| compiler.compile(&corpus[i]).ok())
                .into_iter()
                .flatten()
                .collect();
        let f = |extract: &dyn Fn(&vliw_core::Compilation) -> f64| {
            mean(&results.iter().map(extract).collect::<Vec<_>>())
        };
        table.row(vec![
            name,
            format!("{:.2}", f(&|c| c.ii() as f64)),
            pct(results.iter().filter(|c| c.achieved_mii()).count() as f64 / results.len() as f64),
            format!("{:.2}", f(&|c| c.stage_count as f64)),
            format!("{:.2}", f(&|c| c.ipc.static_ipc)),
            format!("{:.2}", f(&|c| c.ipc.dynamic_ipc)),
            format!("{:.1}", f(&|c| c.queues_required() as f64)),
            format!("{:.1}", f(&|c| c.num_copies as f64)),
        ]);
    }

    println!("{table}");
}
