//! Inter-cluster interconnect topologies of the design space.
//!
//! The paper's architecture connects its clusters with a bidirectional ring
//! (Fig. 5b); Section 4 notes the ring is a *choice*, not a consequence of the
//! queue model — any interconnect whose adjacency relation the partitioner can
//! consult would do, because the partitioning algorithm only ever asks "may a
//! value flow directly from cluster A to cluster B?".  This module answers
//! that question for the bidirectional ring, a 2-D torus and a full crossbar,
//! which opens the topology axis of the `figures sweep --grid huge` design
//! space.  It also supplies the links themselves: [`Topology::links`]
//! enumerates the directed links a value occupies on its way, in the order
//! the simulator and the verifier index their per-link peaks by.
//!
//! Every topology reuses the ring's link sizing (`queues_per_direction` ×
//! `queue_capacity` per directed link): richer topologies buy reachability by
//! paying for more directed links, which the sweep's storage-bits cost axis
//! charges for.

/// The inter-cluster interconnect of a clustered machine.
///
/// Adjacency is what the partitioner, the simulator and the verifier consult
/// (the simulator and the verifier through
/// [`crate::Machine::clusters_communicate`], the partitioner as
/// [`Topology::neighbour_masks`]); the directed links
/// ([`crate::Machine::link_table`]) are the storage pools a cross-cluster value
/// occupies, and their number is what the sweep's storage accounting charges
/// for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Topology {
    /// The paper's bidirectional ring: each cluster talks to its two
    /// neighbours (Fig. 5b).
    #[default]
    Ring,
    /// A 2-D torus over the most square factorisation `rows × cols` of the
    /// cluster count (wrap-around in both dimensions).  Degenerates to the
    /// ring when the cluster count is prime (`1 × n`).
    Torus,
    /// A full crossbar: every cluster talks directly to every other.
    Crossbar,
}

impl Topology {
    /// Every topology of the design space, in sweep order.
    pub const ALL: [Topology; 3] = [Topology::Ring, Topology::Torus, Topology::Crossbar];

    /// Short name used in machine names, report rows and on the wire.
    pub fn tag(self) -> &'static str {
        match self {
            Topology::Ring => "ring",
            Topology::Torus => "torus",
            Topology::Crossbar => "xbar",
        }
    }

    /// True if a value may flow directly from cluster `a` to cluster `b` on an
    /// `n`-cluster machine of this topology (`a != b`; same-cluster flow never
    /// consults the interconnect).
    pub fn adjacent(self, a: usize, b: usize, n: usize) -> bool {
        if a == b || n <= 1 {
            return a == b;
        }
        match self {
            Topology::Ring => {
                let diff = (a + n - b) % n;
                diff == 1 || diff == n - 1
            }
            Topology::Torus => {
                let cols = n / torus_rows(n);
                let (ar, ac) = (a / cols, a % cols);
                let (br, bc) = (b / cols, b % cols);
                let ring1d = |x: usize, y: usize, m: usize| {
                    let diff = (x + m - y) % m;
                    diff == 1 || diff == m - 1
                };
                (ar == br && ring1d(ac, bc, cols)) || (ac == bc && ring1d(ar, br, torus_rows(n)))
            }
            Topology::Crossbar => true,
        }
    }

    /// The adjacency relation of an `n`-cluster machine of this topology as
    /// bit rows: bit `b` of row `a` is set iff `a == b` or
    /// [`Topology::adjacent`]`(a, b, n)`, i.e. iff a value made in `a` may be
    /// read in `b`.
    ///
    /// Built from each topology's closed form (the torus factorised once), not
    /// from one `adjacent` call per pair: the partitioner builds the masks on
    /// every call, and a typical call places a loop in a few microseconds.
    pub fn neighbour_masks(self, n: usize) -> NeighbourMasks {
        let words = n.div_ceil(64);
        let mut masks = NeighbourMasks { words, bits: vec![0; n * words] };
        match self {
            Topology::Ring => {
                for a in 0..n {
                    masks.insert(a, a);
                    masks.insert(a, (a + 1) % n);
                    masks.insert(a, (a + n - 1) % n);
                }
            }
            Topology::Torus => {
                let rows = torus_rows(n);
                let cols = n / rows;
                for a in 0..n {
                    let (r, c) = (a / cols, a % cols);
                    masks.insert(a, a);
                    masks.insert(a, r * cols + (c + 1) % cols);
                    masks.insert(a, r * cols + (c + cols - 1) % cols);
                    masks.insert(a, (r + 1) % rows * cols + c);
                    masks.insert(a, (r + rows - 1) % rows * cols + c);
                }
            }
            Topology::Crossbar => {
                for a in 0..n {
                    for b in 0..n {
                        masks.insert(a, b);
                    }
                }
            }
        }
        masks
    }

    /// Number of directed links of an `n`-cluster machine of this topology —
    /// the ordered adjacent pairs, each sized like one directed ring link.
    ///
    /// In closed form, because the sweep charges for links at every one of its
    /// grid points (twice: the storage cost axis and the `B004-STORAGE`
    /// pigeonhole), where enumerating the `n²` cluster pairs — each torus
    /// pair re-factorising `n` — would cost more than the rest of the row.
    /// With `deg(m)` the out-degree of one node of an `m`-node ring (0 alone,
    /// 1 for a pair whose two directions meet the same neighbour, 2 otherwise):
    /// a ring has `n·deg(n)` links, a `rows × cols` torus `n·(deg(rows) +
    /// deg(cols))` (row and column neighbours are disjoint), a crossbar
    /// `n·(n−1)`.  The tests hold the form to the enumeration.
    pub fn directed_links(self, n: usize) -> usize {
        match self {
            Topology::Ring => n * ring_degree(n),
            Topology::Torus => {
                let rows = torus_rows(n);
                n * (ring_degree(rows) + ring_degree(n / rows))
            }
            Topology::Crossbar => n * n.saturating_sub(1),
        }
    }

    /// The directed links of an `n`-cluster machine of this topology: every
    /// ordered adjacent pair `(from, to)`, `from` ascending and, per `from`,
    /// the neighbours nearest around the ring first, the successor before the
    /// predecessor.  On the ring that is `(c, c+1)` then `(c, c−1)` per
    /// cluster, the order persisted per-link peaks are indexed by.  Its length
    /// is [`Topology::directed_links`].
    pub fn links(self, n: usize) -> Vec<(usize, usize)> {
        let mut links = Vec::with_capacity(self.directed_links(n));
        for from in 0..n {
            for d in 1..=n / 2 {
                let (next, prev) = ((from + d) % n, (from + n - d) % n);
                if self.adjacent(from, next, n) {
                    links.push((from, next));
                }
                if prev != next && self.adjacent(from, prev, n) {
                    links.push((from, prev));
                }
            }
        }
        links
    }

    /// [`Topology::directed_links`] by definition: the ordered adjacent pairs,
    /// enumerated.
    #[cfg(test)]
    fn directed_links_by_enumeration(self, n: usize) -> usize {
        (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .filter(|&(a, b)| a != b && self.adjacent(a, b, n))
            .count()
    }
}

/// An interconnect's adjacency relation as one bit row per cluster, built by
/// [`Topology::neighbour_masks`]: `⌈n/64⌉` words per row, bit `b` of row `a`
/// set iff a value made in cluster `a` may be read in cluster `b` (`a` itself
/// included).  The relation is symmetric, so row `a` is also the set of
/// clusters whose values `a` may read: ANDing the rows of an operation's placed
/// producers and consumers gives the clusters that may host it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighbourMasks {
    words: usize,
    bits: Vec<u64>,
}

impl NeighbourMasks {
    /// Words per row: `⌈n/64⌉`.
    pub fn words(&self) -> usize {
        self.words
    }

    /// The row of cluster `a`: bit `b` of word `b / 64` is set iff a value
    /// made in `a` may be read in `b`.
    pub fn row(&self, a: usize) -> &[u64] {
        &self.bits[a * self.words..(a + 1) * self.words]
    }

    /// True if a value made in cluster `a` may be read in cluster `b`.
    pub fn contains(&self, a: usize, b: usize) -> bool {
        self.bits[a * self.words + b / 64] >> (b % 64) & 1 == 1
    }

    fn insert(&mut self, a: usize, b: usize) {
        self.bits[a * self.words + b / 64] |= 1 << (b % 64);
    }
}

/// Out-degree of one node of an `m`-node bidirectional ring: none alone, one
/// for a pair (both directions reach the same neighbour), two otherwise.
fn ring_degree(m: usize) -> usize {
    match m {
        0 | 1 => 0,
        2 => 1,
        _ => 2,
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

impl std::str::FromStr for Topology {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ring" => Ok(Topology::Ring),
            "torus" => Ok(Topology::Torus),
            "xbar" => Ok(Topology::Crossbar),
            other => {
                Err(format!("unknown topology `{other}` (expected `ring`, `torus` or `xbar`)"))
            }
        }
    }
}

/// The row count of the most square `rows × cols` torus factorisation of `n`:
/// the largest divisor of `n` not exceeding `√n` (so `rows <= cols`).
pub fn torus_rows(n: usize) -> usize {
    if n == 0 {
        return 1;
    }
    let mut rows = 1;
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            rows = d;
        }
        d += 1;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_matches_the_paper_adjacency() {
        // 4 clusters: neighbours wrap, the diagonal does not communicate.
        let t = Topology::Ring;
        assert!(t.adjacent(0, 1, 4));
        assert!(t.adjacent(1, 0, 4));
        assert!(t.adjacent(0, 3, 4));
        assert!(!t.adjacent(0, 2, 4));
        assert_eq!(t.directed_links(4), 8);
        assert_eq!(t.directed_links(2), 2);
        assert_eq!(t.directed_links(1), 0);
    }

    #[test]
    fn torus_factorisation_is_most_square() {
        assert_eq!(torus_rows(4), 2);
        assert_eq!(torus_rows(6), 2);
        assert_eq!(torus_rows(8), 2);
        assert_eq!(torus_rows(9), 3);
        assert_eq!(torus_rows(12), 3);
        assert_eq!(torus_rows(16), 4);
        // Primes degenerate to a 1 × n ring.
        assert_eq!(torus_rows(5), 1);
        assert_eq!(torus_rows(7), 1);
    }

    #[test]
    fn torus_on_primes_equals_the_ring() {
        for n in [2usize, 3, 5, 7] {
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(
                        Topology::Torus.adjacent(a, b, n),
                        Topology::Ring.adjacent(a, b, n),
                        "n={n} a={a} b={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn torus_9_is_the_3x3_grid() {
        // Cluster 4 is the centre of the 3×3 torus: adjacent to 1, 7 (column)
        // and 3, 5 (row), not to the corners.
        let t = Topology::Torus;
        for b in [1usize, 3, 5, 7] {
            assert!(t.adjacent(4, b, 9), "centre to {b}");
        }
        for b in [0usize, 2, 6, 8] {
            assert!(!t.adjacent(4, b, 9), "centre to corner {b}");
        }
        // Every node of a 3×3 torus has 4 neighbours.
        assert_eq!(t.directed_links(9), 9 * 4);
    }

    #[test]
    fn crossbar_connects_everything() {
        let t = Topology::Crossbar;
        for a in 0..6 {
            for b in 0..6 {
                assert!(t.adjacent(a, b, 6));
            }
        }
        assert_eq!(t.directed_links(6), 30);
    }

    #[test]
    fn adjacency_is_symmetric() {
        for t in Topology::ALL {
            for n in 2..=16usize {
                for a in 0..n {
                    for b in 0..n {
                        assert_eq!(t.adjacent(a, b, n), t.adjacent(b, a, n), "{t} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn link_counts_order_by_richness() {
        // The crossbar dominates the torus dominates (or equals) the ring.
        for n in 2..=16usize {
            let ring = Topology::Ring.directed_links(n);
            let torus = Topology::Torus.directed_links(n);
            let xbar = Topology::Crossbar.directed_links(n);
            assert!(ring <= torus, "n={n}");
            assert!(torus <= xbar, "n={n}");
            assert_eq!(xbar, n * (n - 1));
        }
    }

    #[test]
    fn link_counts_match_the_enumeration() {
        for t in Topology::ALL {
            for n in 0..=64usize {
                assert_eq!(t.directed_links(n), t.directed_links_by_enumeration(n), "{t} n={n}");
                assert_eq!(t.links(n).len(), t.directed_links(n), "{t} n={n}");
            }
        }
    }

    #[test]
    fn ring_links_keep_the_successor_then_predecessor_order() {
        for n in 0..=64usize {
            let mut expected = Vec::new();
            for c in 0..n {
                let (next, prev) = ((c + 1) % n, (c + n - 1) % n);
                if next != c {
                    expected.push((c, next));
                }
                if prev != next {
                    expected.push((c, prev));
                }
            }
            assert_eq!(Topology::Ring.links(n), expected, "n={n}");
        }
        // The 2×2 torus: cluster 0 reaches 1 (its row) and 2 (its column).
        assert_eq!(Topology::Torus.links(4)[..2], [(0, 1), (0, 2)]);
        assert_eq!(Topology::Crossbar.links(4)[..3], [(0, 1), (0, 3), (0, 2)]);
    }

    #[test]
    fn neighbour_masks_are_the_adjacency_relation() {
        // Past one and two words per row, so every word boundary is crossed.
        for t in Topology::ALL {
            for n in 0..=130usize {
                let masks = t.neighbour_masks(n);
                assert_eq!(masks.words(), n.div_ceil(64), "{t} n={n}");
                for a in 0..n {
                    assert_eq!(masks.row(a).len(), masks.words(), "{t} n={n} a={a}");
                    // No bit past the last cluster.
                    let set: u32 = masks.row(a).iter().map(|w| w.count_ones()).sum();
                    let expected = (0..n).filter(|&b| masks.contains(a, b)).count();
                    assert_eq!(set as usize, expected, "{t} n={n} a={a}");
                    for b in 0..n {
                        assert_eq!(
                            masks.contains(a, b),
                            a == b || t.adjacent(a, b, n),
                            "{t} n={n} a={a} b={b}"
                        );
                        // The partitioner ANDs producers' and consumers' rows
                        // alike, which holds only for a symmetric relation.
                        assert_eq!(masks.contains(a, b), masks.contains(b, a), "{t} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for t in Topology::ALL {
            assert_eq!(t.tag().parse::<Topology>(), Ok(t));
            assert_eq!(format!("{t}"), t.tag());
        }
        assert!("mesh".parse::<Topology>().is_err());
        assert_eq!(Topology::default(), Topology::Ring);
    }
}
