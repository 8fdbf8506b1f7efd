//! The design-space-sweep report row and its Pareto-frontier analysis.
//!
//! The `figures sweep` experiment classifies every (machine configuration,
//! loop) pair of a design-space grid as schedulable / allocation-fits /
//! simulation-clean and aggregates each grid point into one [`SweepRow`].
//! This module holds the row type plus the sizing analysis the paper's Fig. 7
//! conclusion rests on: which configurations are *Pareto-efficient* — no other
//! configuration of the same machine shape is simultaneously cheaper in queue
//! storage and at least as good at keeping the corpus capacity-clean.

use std::collections::HashMap;
use std::io;

use serde::{de, json, Deserialize, Serialize, Value};

/// One grid point of the design-space sweep, aggregated over the corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Number of clusters on the interconnect.
    pub clusters: usize,
    /// Cluster FU-mix tag (`basic`, `wide`).
    pub fu_mix: String,
    /// Interconnect-topology tag (`ring`, `torus`, `xbar`).  The paper's
    /// machines are all rings; the huge grid opens this axis.
    pub topology: String,
    /// Total compute FUs of the machine.
    pub fus: usize,
    /// Queues per cluster (private QRF; also ring queues per direction).
    pub queues_per_cluster: usize,
    /// Entries per private queue.
    pub queue_capacity: usize,
    /// Entries per ring communication queue.
    pub link_depth: usize,
    /// Total queue storage of the configuration, in bits.
    pub storage_bits: u64,
    /// Loops in the corpus (the denominator of every fraction below).
    pub loops: usize,
    /// Fraction of the corpus that schedules on the machine shape at all.
    pub frac_schedulable: f64,
    /// Fraction whose per-pool queue allocation fits the configured budgets
    /// (the corrected, pool-split Fig. 7 predicate).
    pub frac_alloc_fits: f64,
    /// Fraction whose cycle-accurate execution stays within the configured
    /// storage pools at every cycle (zero capacity faults).
    pub frac_sim_clean: f64,
    /// Fraction that passes the whole pipeline: schedulable, pool-split
    /// allocation fits, and execution capacity-clean.  This is the "fits the
    /// configuration" population of Fig. 7 and the quality axis of the Pareto
    /// analysis — a loop whose queues cannot be allocated is not served by the
    /// aggregate pools having spare entries.
    pub frac_clean: f64,
    /// True if no same-shape configuration has storage ≤ and `frac_clean` ≥
    /// with at least one strict — the sizing frontier of Fig. 7.
    pub pareto: bool,
    /// True for the paper's published sizing (8 queues × 8 entries, depth-8
    /// links, basic cluster).
    pub paper_point: bool,
}

impl SweepRow {
    /// The machine-shape key frontier membership is computed within.
    fn shape(&self) -> (usize, &str, &str) {
        (self.clusters, self.fu_mix.as_str(), self.topology.as_str())
    }
}

// ---------------------------------------------------------------------------
// Wire form, by hand so the topology axis stays backward-compatible: `topology`
// is emitted only when it differs from the paper's ring and defaults to
// `"ring"` on the way back in — every pre-topology baseline file parses and
// re-serializes byte-identically.
// ---------------------------------------------------------------------------

impl Serialize for SweepRow {
    fn write_json(&self, w: &mut json::Writer<'_>) -> io::Result<()> {
        w.object(|o| {
            o.field("clusters", &self.clusters)?;
            o.field("fu_mix", &self.fu_mix)?;
            if self.topology != "ring" {
                o.field("topology", &self.topology)?;
            }
            o.field("fus", &self.fus)?;
            o.field("queues_per_cluster", &self.queues_per_cluster)?;
            o.field("queue_capacity", &self.queue_capacity)?;
            o.field("link_depth", &self.link_depth)?;
            o.field("storage_bits", &self.storage_bits)?;
            o.field("loops", &self.loops)?;
            o.field("frac_schedulable", &self.frac_schedulable)?;
            o.field("frac_alloc_fits", &self.frac_alloc_fits)?;
            o.field("frac_sim_clean", &self.frac_sim_clean)?;
            o.field("frac_clean", &self.frac_clean)?;
            o.field("pareto", &self.pareto)?;
            o.field("paper_point", &self.paper_point)
        })
    }
}

impl Deserialize for SweepRow {
    fn deserialize(v: &Value) -> Result<Self, de::Error> {
        let entries = v.as_object().ok_or_else(|| de::Error::unexpected("object", v))?;
        Ok(SweepRow {
            clusters: de::field(entries, "clusters")?,
            fu_mix: de::field(entries, "fu_mix")?,
            topology: de::field::<Option<String>>(entries, "topology")?
                .unwrap_or_else(|| "ring".to_string()),
            fus: de::field(entries, "fus")?,
            queues_per_cluster: de::field(entries, "queues_per_cluster")?,
            queue_capacity: de::field(entries, "queue_capacity")?,
            link_depth: de::field(entries, "link_depth")?,
            storage_bits: de::field(entries, "storage_bits")?,
            loops: de::field(entries, "loops")?,
            frac_schedulable: de::field(entries, "frac_schedulable")?,
            frac_alloc_fits: de::field(entries, "frac_alloc_fits")?,
            frac_sim_clean: de::field(entries, "frac_sim_clean")?,
            frac_clean: de::field(entries, "frac_clean")?,
            pareto: de::field(entries, "pareto")?,
            paper_point: de::field(entries, "paper_point")?,
        })
    }
}

/// Recomputes the `pareto` flag of every row.
///
/// Frontier membership is decided *within each machine shape* (cluster count ×
/// FU mix × topology): configurations of different shapes trade storage against
/// compute performance, which the clean fraction alone cannot rank, whereas
/// within a shape the schedules are identical and only the storage sizing
/// varies — the exact comparison Fig. 7 makes.  A row is dominated if some
/// same-shape row has `storage_bits ≤` and `frac_clean ≥` with at least one
/// strict.
///
/// Computed as the maxima of a set of 2-D vectors (Kung, Luccio & Preparata
/// 1975) in `O(n log n)`: the rows are bucketed by shape (a shape is hashed
/// once per run of same-shape rows, and a sweep's rows come in one run per
/// shape), each bucket is sorted by storage ascending, then clean fraction
/// descending, and walked once, carrying the best clean fraction seen at
/// strictly smaller storage.  A row is dominated iff that best reaches its
/// fraction, or a row of equal storage (the first of its storage tier) has a
/// strictly higher one; equal rows never dominate each other.  Fractions are
/// finite (counts over the corpus size).
pub fn mark_pareto(rows: &mut [SweepRow]) {
    let mut shapes: Vec<Vec<(u64, f64, usize)>> = Vec::new();
    let mut shape_ids: HashMap<(usize, &str, &str), usize> = HashMap::new();
    let mut run = None;
    for (i, row) in rows.iter().enumerate() {
        let shape = row.shape();
        let id = match run {
            Some((prev, id)) if prev == shape => id,
            _ => *shape_ids.entry(shape).or_insert_with(|| {
                shapes.push(Vec::new());
                shapes.len() - 1
            }),
        };
        run = Some((shape, id));
        shapes[id].push((row.storage_bits, row.frac_clean, i));
    }
    for shape in &mut shapes {
        shape.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.total_cmp(&a.1)));
        let mut best_cheaper: Option<f64> = None;
        for tier in shape.chunk_by(|a, b| a.0 == b.0) {
            let top = tier[0].1;
            for &(_, frac, i) in tier {
                rows[i].pareto = !(best_cheaper.is_some_and(|best| best >= frac) || top > frac);
            }
            best_cheaper = Some(best_cheaper.map_or(top, |best| best.max(top)));
        }
    }
}

/// The quadratic definition [`mark_pareto`] is held to: every row against
/// every other.
#[cfg(test)]
fn mark_pareto_quadratic(rows: &mut [SweepRow]) {
    for i in 0..rows.len() {
        let dominated = rows.iter().enumerate().any(|(j, other)| {
            j != i
                && other.shape() == rows[i].shape()
                && other.storage_bits <= rows[i].storage_bits
                && other.frac_clean >= rows[i].frac_clean
                && (other.storage_bits < rows[i].storage_bits
                    || other.frac_clean > rows[i].frac_clean)
        });
        rows[i].pareto = !dominated;
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn row(bits: u64, clean: f64) -> SweepRow {
        SweepRow {
            clusters: 4,
            fu_mix: "basic".to_string(),
            topology: "ring".to_string(),
            fus: 12,
            queues_per_cluster: 8,
            queue_capacity: 8,
            link_depth: 8,
            storage_bits: bits,
            loops: 32,
            frac_schedulable: 1.0,
            frac_alloc_fits: clean,
            frac_sim_clean: clean,
            frac_clean: clean,
            pareto: false,
            paper_point: false,
        }
    }

    #[test]
    fn strictly_better_rows_dominate() {
        let mut rows = vec![row(100, 0.5), row(200, 0.5), row(200, 0.9), row(400, 0.9)];
        mark_pareto(&mut rows);
        assert!(rows[0].pareto, "cheapest at its level");
        assert!(!rows[1].pareto, "same clean fraction, more storage");
        assert!(rows[2].pareto, "cheapest at the higher level");
        assert!(!rows[3].pareto);
    }

    #[test]
    fn incomparable_rows_are_both_on_the_frontier() {
        let mut rows = vec![row(100, 0.5), row(200, 0.8)];
        mark_pareto(&mut rows);
        assert!(rows[0].pareto && rows[1].pareto);
    }

    #[test]
    fn equal_rows_do_not_dominate_each_other() {
        let mut rows = vec![row(100, 0.5), row(100, 0.5)];
        mark_pareto(&mut rows);
        assert!(rows[0].pareto && rows[1].pareto);
    }

    #[test]
    fn frontiers_are_computed_per_machine_shape() {
        let mut rows = vec![row(100, 0.5), row(400, 0.4)];
        rows[1].clusters = 6; // different shape: not comparable
        mark_pareto(&mut rows);
        assert!(rows[0].pareto && rows[1].pareto);
        // The same pair within one shape: the expensive-and-worse row falls off.
        let mut rows = vec![row(100, 0.5), row(400, 0.4)];
        mark_pareto(&mut rows);
        assert!(rows[0].pareto);
        assert!(!rows[1].pareto);
    }

    #[test]
    fn frontiers_split_on_the_topology_axis() {
        // Same clusters and mix, different topology: incomparable shapes.
        let mut rows = vec![row(100, 0.5), row(400, 0.4)];
        rows[1].topology = "xbar".to_string();
        mark_pareto(&mut rows);
        assert!(rows[0].pareto && rows[1].pareto);
    }

    #[test]
    fn rows_round_trip_through_serde() {
        let r = row(768 * 32, 0.875);
        let json = serde_json::to_string(&r).unwrap();
        let back: SweepRow = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn ring_rows_keep_the_pre_topology_wire_form() {
        // The paper's ring rows must serialize without a `topology` key so
        // committed baselines stay byte-identical, and rows written before the
        // topology axis existed must read back as rings.
        let r = row(100, 0.5);
        let json = serde_json::to_string(&r).unwrap();
        assert!(!json.contains("topology"), "{json}");
        let back: SweepRow = serde_json::from_str(&json).unwrap();
        assert_eq!(back.topology, "ring");
    }

    #[test]
    fn non_ring_rows_carry_their_topology_on_the_wire() {
        let mut r = row(100, 0.5);
        r.topology = "torus".to_string();
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"topology\":\"torus\""), "{json}");
        let back: SweepRow = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    /// Storage values of the proptest rows: few enough that storage ties are
    /// common.
    const STORAGE: [u64; 4] = [64, 96, 128, 512];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_sweep_marks_exactly_what_the_quadratic_scan_marks(
            shapes in proptest::collection::vec((0usize..3, 0usize..2, 0usize..3), 1..4),
            picks in proptest::collection::vec((0usize..3, 0usize..4, 0u32..9), 0..48),
            duplicates in proptest::collection::vec((0usize..64, 0usize..64), 0..16),
        ) {
            // Rows of up to three shapes, interleaved in random order, with
            // storage from a 4-value set and clean fractions k/8 (ties on
            // both axes), and some rows repeated verbatim.
            let mut rows: Vec<SweepRow> = picks
                .iter()
                .map(|&(shape, bits, k)| {
                    let (clusters, mix, topology) = shapes[shape % shapes.len()];
                    let mut r = row(STORAGE[bits], f64::from(k) / 8.0);
                    r.clusters = [2, 4, 6][clusters];
                    r.fu_mix = ["basic", "wide"][mix].to_string();
                    r.topology = ["ring", "torus", "xbar"][topology].to_string();
                    r
                })
                .collect();
            for &(from, at) in &duplicates {
                if !rows.is_empty() {
                    let copy = rows[from % rows.len()].clone();
                    rows.insert(at % (rows.len() + 1), copy);
                }
            }
            let mut expected = rows.clone();
            mark_pareto_quadratic(&mut expected);
            mark_pareto(&mut rows);
            prop_assert_eq!(rows, expected);
        }
    }
}
