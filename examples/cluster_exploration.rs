//! Design-space exploration: how far does the ring-connected clustered machine
//! scale before the partitioning penalty bites?
//!
//! ```text
//! cargo run --release --example cluster_exploration            # 200 loops
//! cargo run --release --example cluster_exploration -- 600     # larger sample
//! ```
//!
//! For 2–8 clusters the example compares the partitioned schedules against the
//! equivalent single-cluster machine (same FU mix, one big register file) and also
//! against the paper's proposed extension (transit moves between non-adjacent
//! clusters, modelled as the same clusters on a `Topology::Crossbar`), reproducing
//! the scalability discussion of Sections 4 and 5.

use vliw_core::analysis::{fraction, mean, pct, TextTable};
use vliw_core::experiments::ExperimentConfig;
use vliw_core::partition::comm_stats;
use vliw_core::qrf::insert_copies;
use vliw_core::sched::{modulo_schedule, ImsOptions};
use vliw_core::session::par_map_indexed;
use vliw_core::unroll::unroll_for_machine;
use vliw_core::{partition_schedule, LatencyModel, Machine, PartitionOptions, Topology};

fn main() {
    let loops: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(200);
    let cfg = ExperimentConfig::quick(loops, 77);
    let corpus = cfg.corpus();
    let lat = LatencyModel::default();

    let mut table = TextTable::new(vec![
        "clusters",
        "FUs",
        "same II as single",
        "same II with transit moves",
        "mean II ratio",
        "mean cross traffic",
    ]);

    for clusters in 2..=8usize {
        let clustered = Machine::paper_clustered(clusters, lat);
        let crossbar = clustered.clone().with_topology(Topology::Crossbar);
        let single = Machine::paper_single_cluster_equivalent(clusters, lat);

        #[derive(Clone, Copy)]
        struct Sample {
            single_ii: u32,
            ring_ii: u32,
            transit_ii: u32,
            cross_fraction: f64,
        }

        let samples: Vec<Sample> = par_map_indexed(corpus.len(), cfg.threads, |i| {
            // Same preparation for all machines: unroll for the clustered machine's
            // width, then insert copies.
            let unrolled = unroll_for_machine(&corpus[i], &clustered, 4);
            let body = insert_copies(&unrolled.ddg, &lat).ddg;
            let s = modulo_schedule(&body, &single, ImsOptions::default()).ok()?;
            let ring = partition_schedule(&body, &clustered, PartitionOptions::default()).ok()?;
            let transit = partition_schedule(&body, &crossbar, PartitionOptions::default()).ok()?;
            Some(Sample {
                single_ii: s.schedule.ii,
                ring_ii: ring.schedule.ii,
                transit_ii: transit.schedule.ii,
                cross_fraction: comm_stats(&body, &clustered, &ring.schedule).cross_fraction(),
            })
        })
        .into_iter()
        .flatten()
        .collect();

        table.row(vec![
            clusters.to_string(),
            (3 * clusters).to_string(),
            pct(fraction(&samples, |s| s.ring_ii == s.single_ii)),
            pct(fraction(&samples, |s| s.transit_ii == s.single_ii)),
            format!(
                "{:.3}",
                mean(
                    &samples
                        .iter()
                        .map(|s| s.ring_ii as f64 / s.single_ii as f64)
                        .collect::<Vec<_>>()
                )
            ),
            pct(mean(&samples.iter().map(|s| s.cross_fraction).collect::<Vec<_>>())),
        ]);
    }

    println!("{table}");
    println!(
        "\"same II with transit moves\" models the paper's future-work extension: values may\n\
         hop between non-adjacent clusters, removing the main cause of the degradation the\n\
         paper observes at 5 and 6 clusters."
    );
}
