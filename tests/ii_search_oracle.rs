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

use vliw_repro::vliw_core::ddg::{Ddg, Loop};
use vliw_repro::vliw_core::sched::{modulo_schedule, ImsOptions, SchedError};
use vliw_repro::vliw_core::unroll::DEFAULT_MAX_FACTOR;
use vliw_repro::vliw_core::{
    generate_corpus, insert_copies, partition_schedule, select_unroll_factor, unroll_ddg,
    CorpusConfig, LatencyModel, Machine, PartitionOptions,
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
