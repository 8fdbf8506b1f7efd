//! The II search's outcome, pinned loop by loop.
//!
//! Every loop of the 32-loop golden corpus (seed 386) is transformed the way
//! the pipeline does it (unroll-factor selection, unrolling, copy insertion)
//! and scheduled by `partition_schedule` on the paper's 4-, 5- and 6-cluster
//! machines and by `modulo_schedule` on its 4-, 6- and 12-FU single-cluster
//! machines.  Each entry is `II/MII/attempts`, or the error of a refused loop.
//!
//! No golden baseline holds `attempts`, yet the attempt count is what tells a
//! collapsed loop apart: the ring window covers `start..=3·start + 64`, so a
//! partitioner result with more attempts than that window has IIs fell back to
//! the single-cluster collapse, whose MII is the collapse bound.  The table was
//! recorded before the two schedulers shared one II-search loop, and any
//! change to the search (windows, budgets, attempt counting, the collapse)
//! must keep it.
//!
//! A second table pins the partitioner's schedules themselves on every probe
//! machine of the huge sweep grid (2–16 clusters, both FU mixes, ring, torus
//! and crossbar): one digest per machine of every golden loop's II, start
//! times and units.  It was recorded before the ring policy read adjacency
//! from bitmasks, and any change to how clusters are ranked, filtered or
//! backtracked out of must keep it.

use vliw_repro::vliw_core::ddg::{Ddg, Loop};
use vliw_repro::vliw_core::sched::{modulo_schedule, ImsOptions, SchedError};
use vliw_repro::vliw_core::unroll::DEFAULT_MAX_FACTOR;
use vliw_repro::vliw_core::{
    generate_corpus, insert_copies, partition_schedule, select_unroll_factor, unroll_ddg,
    CorpusConfig, LatencyModel, Machine, MachineSpace, PartitionOptions,
};

/// The body the pipeline schedules for `lp` on `machine` under the paper's
/// defaults: unrolled by the selected factor, then copies inserted.
fn pipeline_body(lp: &Loop, machine: &Machine) -> Ddg {
    let factor = select_unroll_factor(&lp.ddg, machine, DEFAULT_MAX_FACTOR);
    insert_copies(&unroll_ddg(&lp.ddg, factor).ddg, machine.latencies()).ddg
}

/// `II/MII/attempts` of one search, or its error without spaces.
fn entry(result: Result<(u32, u32, u32), SchedError>) -> String {
    match result {
        Ok((ii, mii, attempts)) => format!("{ii}/{mii}/{attempts}"),
        Err(e) => format!("{e:?}").replace(' ', ""),
    }
}

/// One line per machine: the machine's name, then one entry per loop.
fn outcomes() -> Vec<String> {
    let corpus = generate_corpus(&CorpusConfig::small(32, 386));
    let mut lines = Vec::new();
    for clusters in [4, 5, 6] {
        let machine = Machine::paper_clustered(clusters, LatencyModel::default());
        let entries: Vec<String> = corpus
            .iter()
            .map(|lp| {
                let body = pipeline_body(lp, &machine);
                let r = partition_schedule(&body, &machine, PartitionOptions::default());
                entry(r.map(|r| (r.schedule.ii, r.mii, r.attempts)))
            })
            .collect();
        lines.push(format!("{} {}", machine.name(), entries.join(" ")));
    }
    for fus in [4, 6, 12] {
        let machine = Machine::paper_single(fus);
        let entries: Vec<String> = corpus
            .iter()
            .map(|lp| {
                let body = pipeline_body(lp, &machine);
                let r = modulo_schedule(&body, &machine, ImsOptions::default());
                entry(r.map(|r| (r.schedule.ii, r.mii, r.attempts)))
            })
            .collect();
        lines.push(format!("{} {}", machine.name(), entries.join(" ")));
    }
    lines
}

const PINNED: [&str; 6] = [
    "clustered-4x3fu \
     1/1/1 1/1/1 1/1/1 4/4/1 9/9/1 4/4/1 1/1/1 1/1/1 \
     16/16/1 2/2/1 5/5/1 1/1/1 8/8/1 11/11/1 3/3/1 3/3/1 \
     15/15/1 16/16/1 15/13/3 11/11/1 5/5/1 9/9/1 3/3/1 11/11/1 \
     5/5/1 4/4/1 2/1/2 10/10/1 8/8/1 2/1/2 1/1/1 15/15/1",
    "clustered-5x3fu \
     1/1/1 1/1/1 1/1/1 4/4/1 9/9/1 15/15/1 1/1/1 1/1/1 \
     16/16/1 1/1/1 1/1/1 2/1/2 8/8/1 5/5/1 3/3/1 5/5/1 \
     3/3/1 16/16/1 7/6/2 9/9/1 11/11/1 9/9/1 5/5/1 11/11/1 \
     4/2/3 6/6/1 2/1/2 10/10/1 8/8/1 2/1/2 1/1/1 30/30/78",
    "clustered-6x3fu \
     1/1/1 1/1/1 1/1/1 4/4/1 9/9/1 48/48/88 1/1/1 1/1/1 \
     16/16/1 1/1/1 1/1/1 2/1/2 8/8/1 36/36/88 3/3/1 3/1/3 \
     30/30/76 16/16/98 22/22/78 11/11/70 2/2/1 9/9/1 2/1/2 12/11/89 \
     30/30/78 3/2/2 2/1/2 10/10/1 8/8/1 2/1/2 1/1/1 30/30/76",
    "single-4fu \
     2/2/1 3/3/1 2/2/1 6/5/2 10/9/2 15/15/1 2/2/1 3/3/1 \
     16/16/1 5/5/1 5/5/1 3/3/1 8/8/1 9/9/1 3/3/1 6/6/1 \
     13/13/1 16/16/1 22/22/1 11/11/1 6/6/1 9/9/1 6/6/1 11/11/1 \
     8/8/1 7/7/1 4/4/1 10/10/1 8/8/1 4/4/1 3/3/1 29/29/1",
    "single-6fu \
     1/1/1 2/2/1 1/1/1 4/4/1 9/9/1 8/8/1 1/1/1 2/2/1 \
     16/16/1 3/3/1 5/5/1 3/3/1 8/8/1 9/9/1 3/3/1 3/3/1 \
     15/15/1 16/16/1 11/11/1 11/11/1 3/3/1 9/9/1 3/3/1 11/11/1 \
     5/5/1 4/4/1 4/4/1 10/10/1 8/8/1 2/2/1 3/3/1 15/15/1",
    "single-12fu \
     1/1/1 1/1/1 1/1/1 4/4/1 9/9/1 4/4/1 1/1/1 1/1/1 \
     16/16/1 2/2/1 5/5/1 1/1/1 8/8/1 11/11/1 3/3/1 3/3/1 \
     15/15/1 16/16/1 14/13/2 11/11/1 5/5/1 9/9/1 3/3/1 11/11/1 \
     5/5/1 4/4/1 1/1/1 10/10/1 8/8/1 1/1/1 1/1/1 15/15/1",
];

#[test]
fn ii_search_outcomes_match_the_pinned_table() {
    assert_eq!(outcomes(), PINNED);
}

/// FNV-1a, 64-bit, over `words` (each as 8 little-endian bytes).
fn fnv1a(hash: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(hash, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// One line per huge-grid probe machine: its name, then a digest of every
/// golden loop's partitioned schedule (II, start times, units), or of its
/// error.
fn huge_grid_schedules() -> Vec<String> {
    let corpus = generate_corpus(&CorpusConfig::small(32, 386));
    let mut configs = MachineSpace::huge().configs();
    configs.dedup_by_key(|c| c.shape());
    configs
        .iter()
        .map(|config| {
            let machine = config.probe_machine(LatencyModel::default());
            let digest = corpus.iter().fold(0xcbf2_9ce4_8422_2325, |h, lp| {
                let body = pipeline_body(lp, &machine);
                match partition_schedule(&body, &machine, PartitionOptions::default()) {
                    Ok(r) => {
                        let s = r.schedule;
                        let h = fnv1a(h, [s.ii as u64, s.start.len() as u64]);
                        let h = fnv1a(h, s.start.iter().map(|&t| t as u64));
                        fnv1a(h, s.fu.iter().map(|f| f.0 as u64))
                    }
                    Err(e) => fnv1a(h, format!("{e:?}").bytes().map(u64::from)),
                }
            });
            format!("{} {digest:016x}", machine.name())
        })
        .collect()
}

const PINNED_HUGE_GRID: [&str; 60] = [
    "sweep-probe-2x3fu-basic 6ef3ed6f7af80d4d",
    "sweep-probe-2x3fu-basic-torus 6ef3ed6f7af80d4d",
    "sweep-probe-2x3fu-basic-xbar 6ef3ed6f7af80d4d",
    "sweep-probe-2x6fu-wide b7a0b1fcd3bbec21",
    "sweep-probe-2x6fu-wide-torus b7a0b1fcd3bbec21",
    "sweep-probe-2x6fu-wide-xbar b7a0b1fcd3bbec21",
    "sweep-probe-3x3fu-basic 3f38918f8dc00867",
    "sweep-probe-3x3fu-basic-torus 3f38918f8dc00867",
    "sweep-probe-3x3fu-basic-xbar 3f38918f8dc00867",
    "sweep-probe-3x6fu-wide a92cd05b88128c91",
    "sweep-probe-3x6fu-wide-torus a92cd05b88128c91",
    "sweep-probe-3x6fu-wide-xbar a92cd05b88128c91",
    "sweep-probe-4x3fu-basic 3f96a012ac320306",
    "sweep-probe-4x3fu-basic-torus 8b0faafb5fd74f46",
    "sweep-probe-4x3fu-basic-xbar 3c2ec053779135b1",
    "sweep-probe-4x6fu-wide 892a9f7bcc0a8f90",
    "sweep-probe-4x6fu-wide-torus f7d043577d64889f",
    "sweep-probe-4x6fu-wide-xbar acc259a8df1e2c7c",
    "sweep-probe-5x3fu-basic 791055fb9adefff9",
    "sweep-probe-5x3fu-basic-torus 791055fb9adefff9",
    "sweep-probe-5x3fu-basic-xbar af1de4f874b1ce3c",
    "sweep-probe-5x6fu-wide c63a583de7344776",
    "sweep-probe-5x6fu-wide-torus c63a583de7344776",
    "sweep-probe-5x6fu-wide-xbar e5aad494b471ec53",
    "sweep-probe-6x3fu-basic b9adaa1d67b4ae2d",
    "sweep-probe-6x3fu-basic-torus 30e3d173042cb822",
    "sweep-probe-6x3fu-basic-xbar 4b05aab889631bb7",
    "sweep-probe-6x6fu-wide d5b4fe904dc31330",
    "sweep-probe-6x6fu-wide-torus c48586065b2b4d72",
    "sweep-probe-6x6fu-wide-xbar 33c9a3f4aac80587",
    "sweep-probe-8x3fu-basic d929a23a706a6fdd",
    "sweep-probe-8x3fu-basic-torus 9badc11423f2beb3",
    "sweep-probe-8x3fu-basic-xbar d0e90481c4ac1723",
    "sweep-probe-8x6fu-wide d7c96dada470a5b0",
    "sweep-probe-8x6fu-wide-torus 30a4c5f88b3a8db4",
    "sweep-probe-8x6fu-wide-xbar c6459fdb81d016e2",
    "sweep-probe-9x3fu-basic 2ab57b50eb00bde2",
    "sweep-probe-9x3fu-basic-torus 1c019ad88002bc97",
    "sweep-probe-9x3fu-basic-xbar bca11f07f97c205e",
    "sweep-probe-9x6fu-wide 5beda28a7570648e",
    "sweep-probe-9x6fu-wide-torus f3f6b3e4e8169e7e",
    "sweep-probe-9x6fu-wide-xbar 1b62ac6ebb94db59",
    "sweep-probe-10x3fu-basic ee508030633a849c",
    "sweep-probe-10x3fu-basic-torus d58923e816928232",
    "sweep-probe-10x3fu-basic-xbar 3ee32ccc96bc4a72",
    "sweep-probe-10x6fu-wide 686ced0f4348a847",
    "sweep-probe-10x6fu-wide-torus 6e59a849a310492f",
    "sweep-probe-10x6fu-wide-xbar e65dffadb491b5dc",
    "sweep-probe-12x3fu-basic 65ee4197b335a7ee",
    "sweep-probe-12x3fu-basic-torus 94ae899abed054f0",
    "sweep-probe-12x3fu-basic-xbar df82ee889edf304f",
    "sweep-probe-12x6fu-wide a1dd69fd688d9cc6",
    "sweep-probe-12x6fu-wide-torus 11c70ab7dd28bb55",
    "sweep-probe-12x6fu-wide-xbar 5c2733e8a4e79861",
    "sweep-probe-16x3fu-basic 0ae9364e8ed8cea6",
    "sweep-probe-16x3fu-basic-torus b88cdf7f2a883013",
    "sweep-probe-16x3fu-basic-xbar f80652674e04e9e4",
    "sweep-probe-16x6fu-wide c970bbf12838df30",
    "sweep-probe-16x6fu-wide-torus 577f41d3dda50de3",
    "sweep-probe-16x6fu-wide-xbar 0d37e7b72cc8b4e3",
];

#[test]
fn partitioned_schedules_on_the_huge_grid_match_the_pinned_digests() {
    assert_eq!(huge_grid_schedules(), PINNED_HUGE_GRID);
}
