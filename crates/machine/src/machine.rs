//! The machine model: a set of clusters, their functional units, their queue
//! register files and the inter-cluster ring.

use vliw_ddg::{LatencyModel, OpClass};

use crate::cluster::{ClusterConfig, RingConfig};
use crate::fu::{ClusterId, Fu, FuId};
use crate::topology::Topology;

/// A complete VLIW machine configuration.
///
/// A machine is either *single-cluster* (one cluster holding all functional units and
/// one register file, possibly very wide — the paper's baseline) or *clustered*
/// (several identical clusters connected by a bidirectional ring of communication
/// queues — the paper's proposal).
#[derive(Debug, Clone)]
pub struct Machine {
    name: String,
    clusters: Vec<ClusterConfig>,
    ring: Option<RingConfig>,
    /// Inter-cluster interconnect consulted by [`Machine::clusters_communicate`].
    /// Every topology reuses the ring's per-link sizing (`ring`); the paper's
    /// machines are all [`Topology::Ring`].
    topology: Topology,
    fus: Vec<Fu>,
    latencies: LatencyModel,
    /// Unit ids of each class machine-wide, ascending; indexed by [`OpClass::index`].
    /// Built once at construction so the schedulers' inner loops (MRT probes, victim
    /// selection) touch only candidate units instead of filtering the full FU list.
    class_index: Vec<Vec<FuId>>,
    /// Unit ids of each (cluster, class) pair, ascending; indexed by
    /// `cluster · OpClass::COUNT + class`.
    cluster_class_index: Vec<Vec<FuId>>,
    /// `u64` words per FU bitmask (`⌈num_fus / 64⌉`).
    fu_mask_words: usize,
    /// Bitmask form of [`Machine::fu_ids_of_class`]: bit `fu.index()` of word
    /// `fu.index() / 64`, one `fu_mask_words`-wide row per class.  The MRT's
    /// word-parallel `free_fu` ANDs these against its per-slot busy words.
    class_mask: Vec<u64>,
    /// Bitmask form of [`Machine::fu_ids_of_class_in_cluster`], one row per
    /// `cluster · OpClass::COUNT + class`.
    cluster_class_mask: Vec<u64>,
}

// Equality and hashing deliberately skip the index and mask tables: they are
// pure functions of `fus`, and `Machine` is hashed on every compilation-session
// key lookup — hashing the caches would triple the FuId traffic for zero added
// discrimination.
impl PartialEq for Machine {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.clusters == other.clusters
            && self.ring == other.ring
            && self.topology == other.topology
            && self.fus == other.fus
            && self.latencies == other.latencies
    }
}

impl Eq for Machine {}

impl std::hash::Hash for Machine {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name.hash(state);
        self.clusters.hash(state);
        self.ring.hash(state);
        self.topology.hash(state);
        self.fus.hash(state);
        self.latencies.hash(state);
    }
}

impl Machine {
    /// Builds a machine from explicit cluster configurations.
    ///
    /// `ring` must be `Some` when there is more than one cluster.
    pub fn new(
        name: impl Into<String>,
        clusters: Vec<ClusterConfig>,
        ring: Option<RingConfig>,
        latencies: LatencyModel,
    ) -> Self {
        assert!(!clusters.is_empty(), "a machine needs at least one cluster");
        assert!(
            clusters.len() == 1 || ring.is_some(),
            "a clustered machine needs a ring configuration"
        );
        let mut fus = Vec::new();
        for (ci, cluster) in clusters.iter().enumerate() {
            let cid = ClusterId(ci as u32);
            for &class in &cluster.fu_classes {
                fus.push(Fu::new(FuId(fus.len() as u32), class, cid));
            }
            for _ in 0..cluster.copy_units {
                fus.push(Fu::new(FuId(fus.len() as u32), OpClass::Copy, cid));
            }
        }
        let mut class_index = vec![Vec::new(); OpClass::COUNT];
        let mut cluster_class_index = vec![Vec::new(); clusters.len() * OpClass::COUNT];
        let fu_mask_words = fus.len().div_ceil(64);
        let mut class_mask = vec![0u64; OpClass::COUNT * fu_mask_words];
        let mut cluster_class_mask = vec![0u64; clusters.len() * OpClass::COUNT * fu_mask_words];
        for fu in &fus {
            let cc = fu.cluster.index() * OpClass::COUNT + fu.class.index();
            class_index[fu.class.index()].push(fu.id);
            cluster_class_index[cc].push(fu.id);
            let (w, b) = (fu.id.index() / 64, fu.id.index() % 64);
            class_mask[fu.class.index() * fu_mask_words + w] |= 1 << b;
            cluster_class_mask[cc * fu_mask_words + w] |= 1 << b;
        }
        Machine {
            name: name.into(),
            clusters,
            ring,
            topology: Topology::Ring,
            fus,
            latencies,
            class_index,
            cluster_class_index,
            fu_mask_words,
            class_mask,
            cluster_class_mask,
        }
    }

    /// A single-cluster machine with `num_compute_fus` compute units split evenly
    /// between L/S, ADD and MUL, `copy_units` copy units and `queues` private queues.
    ///
    /// This is the configuration used for the 4/6/12-FU experiments of Sections 2
    /// and 3 and for the single-cluster curves of Figs. 8 and 9.
    pub fn single_cluster(
        num_compute_fus: usize,
        copy_units: usize,
        queues: usize,
        latencies: LatencyModel,
    ) -> Self {
        let cluster = ClusterConfig {
            queue_capacity: 8,
            ..ClusterConfig::balanced(num_compute_fus, copy_units, queues)
        };
        Machine::new(format!("single-{num_compute_fus}fu"), vec![cluster], None, latencies)
    }

    /// The single-cluster machine the paper's Sections 2 and 3 experiments run on:
    /// `fus` compute units split evenly between L/S, ADD and MUL, one copy unit per
    /// paper cluster (see [`copy_units_for`]), an effectively unbounded QRF (1024
    /// queues, so queue demand can be *measured* rather than constrained) and the
    /// default latency model.
    pub fn paper_single(fus: usize) -> Self {
        Machine::single_cluster(fus, copy_units_for(fus), 1024, LatencyModel::default())
    }

    /// The paper's clustered machine: `n_clusters` copies of the basic cluster
    /// (1 L/S + 1 ADD + 1 MUL + 1 copy unit, 8 private queues) connected by the
    /// 8-queues-per-direction ring (Figs. 5 and 7).
    pub fn paper_clustered(n_clusters: usize, latencies: LatencyModel) -> Self {
        assert!(n_clusters >= 1);
        let clusters = vec![ClusterConfig::paper_basic(); n_clusters];
        let ring = if n_clusters > 1 { Some(RingConfig::paper_basic()) } else { None };
        Machine::new(format!("clustered-{n_clusters}x3fu"), clusters, ring, latencies)
    }

    /// The single-cluster machine equivalent in total compute width to
    /// [`Machine::paper_clustered`] with the same number of clusters: `3 · n_clusters`
    /// compute FUs and a single large register file.  Used as the baseline of Fig. 6.
    pub fn paper_single_cluster_equivalent(n_clusters: usize, latencies: LatencyModel) -> Self {
        let mut m = Machine::single_cluster(3 * n_clusters, n_clusters, 32, latencies);
        m.name = format!("single-{}fu-equiv", 3 * n_clusters);
        m
    }

    /// Replaces the inter-cluster interconnect (the default is the paper's
    /// bidirectional ring).  The per-link sizing stays whatever `ring` holds:
    /// a torus or crossbar machine pays for more directed links of the same
    /// width, which the design-space storage accounting charges for.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// The inter-cluster interconnect.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Machine name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The latency model of the machine.
    pub fn latencies(&self) -> &LatencyModel {
        &self.latencies
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// True if the machine has more than one cluster.
    pub fn is_clustered(&self) -> bool {
        self.clusters.len() > 1
    }

    /// The ring configuration, if the machine is clustered.
    pub fn ring(&self) -> Option<&RingConfig> {
        self.ring.as_ref()
    }

    /// Configuration of cluster `c`.
    pub fn cluster(&self, c: ClusterId) -> &ClusterConfig {
        &self.clusters[c.index()]
    }

    /// Iterator over all cluster ids.
    pub fn cluster_ids(&self) -> impl Iterator<Item = ClusterId> + 'static {
        (0..self.clusters.len() as u32).map(ClusterId)
    }

    /// All functional units of the machine, including copy units.
    pub fn fus(&self) -> &[Fu] {
        &self.fus
    }

    /// Total number of functional units, including copy units.
    pub fn num_fus(&self) -> usize {
        self.fus.len()
    }

    /// Total number of compute functional units (excluding copy units) — the number
    /// the paper quotes as the machine's width ("12 FUs", "15 FUs", ...).
    pub fn num_compute_fus(&self) -> usize {
        self.fus.iter().filter(|fu| !fu.is_copy_unit()).count()
    }

    /// The functional unit with the given id.
    pub fn fu(&self, id: FuId) -> &Fu {
        &self.fus[id.index()]
    }

    /// Functional units of a given class across the whole machine.
    pub fn fus_of_class(&self, class: OpClass) -> impl Iterator<Item = &Fu> + '_ {
        self.fu_ids_of_class(class).iter().map(move |&id| self.fu(id))
    }

    /// Number of functional units of a given class across the whole machine.
    pub fn num_fus_of_class(&self, class: OpClass) -> usize {
        self.fu_ids_of_class(class).len()
    }

    /// Functional units of a given class inside one cluster.
    pub fn fus_of_class_in_cluster(
        &self,
        cluster: ClusterId,
        class: OpClass,
    ) -> impl Iterator<Item = &Fu> + '_ {
        self.fu_ids_of_class_in_cluster(cluster, class).iter().map(move |&id| self.fu(id))
    }

    /// Unit ids of a given class across the whole machine, in ascending id order —
    /// the pre-built index the schedulers' placement loops probe.
    #[inline]
    pub fn fu_ids_of_class(&self, class: OpClass) -> &[FuId] {
        &self.class_index[class.index()]
    }

    /// Unit ids of a given class inside one cluster, in ascending id order.
    #[inline]
    pub fn fu_ids_of_class_in_cluster(&self, cluster: ClusterId, class: OpClass) -> &[FuId] {
        &self.cluster_class_index[cluster.index() * OpClass::COUNT + class.index()]
    }

    /// `u64` words per FU bitmask row (`⌈num_fus / 64⌉`).
    #[inline]
    pub fn fu_mask_words(&self) -> usize {
        self.fu_mask_words
    }

    /// Bitmask of the units of `class` machine-wide: bit `id` of word `id / 64`
    /// is set iff unit `id` has that class.  The word-parallel MRT probe ANDs
    /// this row against its busy words so one `trailing_zeros` replaces a
    /// per-unit occupancy scan.
    #[inline]
    pub fn fu_mask_of_class(&self, class: OpClass) -> &[u64] {
        let w = self.fu_mask_words;
        &self.class_mask[class.index() * w..(class.index() + 1) * w]
    }

    /// Bitmask of the units of `class` inside `cluster` (same layout as
    /// [`Machine::fu_mask_of_class`]).
    #[inline]
    pub fn fu_mask_of_class_in_cluster(&self, cluster: ClusterId, class: OpClass) -> &[u64] {
        let w = self.fu_mask_words;
        let cc = cluster.index() * OpClass::COUNT + class.index();
        &self.cluster_class_mask[cc * w..(cc + 1) * w]
    }

    /// Per-class FU counts (machine-wide), indexed by [`OpClass::index`]; used by the
    /// resource-constrained MII computation.
    pub fn class_counts(&self) -> [usize; OpClass::COUNT] {
        let mut counts = [0usize; OpClass::COUNT];
        for fu in &self.fus {
            counts[fu.class.index()] += 1;
        }
        counts
    }

    /// True if values may flow directly from `producer_cluster` to
    /// `consumer_cluster`.
    ///
    /// On the ring a value can stay inside its own cluster (through the private QRF)
    /// or move to one of the two neighbouring clusters (through a communication
    /// queue).  The paper's partitioning algorithm does **not** insert transit moves,
    /// so non-adjacent communication is impossible (this is exactly the limitation
    /// discussed in Section 4).  On a torus or crossbar machine the same rule
    /// applies over that topology's adjacency relation — the partitioner, the
    /// simulator and the verifier all consult this one predicate, so swapping
    /// the interconnect needs no change anywhere else.
    pub fn clusters_communicate(
        &self,
        producer_cluster: ClusterId,
        consumer_cluster: ClusterId,
    ) -> bool {
        if producer_cluster == consumer_cluster {
            return true;
        }
        let n = self.clusters.len();
        if n <= 1 {
            return false;
        }
        self.topology.adjacent(producer_cluster.index(), consumer_cluster.index(), n)
    }

    /// The directed links of the interconnect: every ordered pair of distinct
    /// clusters that [`Machine::clusters_communicate`] admits, in
    /// [`Topology::links`] order (on the ring, `(c, c+1)` then `(c, c−1)` per
    /// cluster), with an O(1) index.  Each link is a storage pool of its own,
    /// sized by `ring`; the simulator's and the verifier's per-link peaks are
    /// indexed by this table.  Empty for a single-cluster machine.
    ///
    /// Built on demand: only the simulator and the verifier need it, once per
    /// run, while the experiment drivers build machines on every request.
    pub fn link_table(&self) -> LinkTable {
        let n = self.clusters.len();
        let mut index = vec![None; n * n];
        let links = self
            .topology
            .links(n)
            .into_iter()
            .enumerate()
            .map(|(l, (from, to))| {
                index[from * n + to] = Some(l as u32);
                (ClusterId(from as u32), ClusterId(to as u32))
            })
            .collect();
        LinkTable { links, index, num_clusters: n }
    }

    /// The ring distance (minimum number of hops) between two clusters.
    pub fn ring_distance(&self, a: ClusterId, b: ClusterId) -> usize {
        let n = self.clusters.len();
        if n == 0 {
            return 0;
        }
        let d = (a.index() + n - b.index()) % n;
        d.min(n - d)
    }

    /// Total number of private queues across all clusters.
    pub fn total_private_queues(&self) -> usize {
        self.clusters.iter().map(|c| c.private_queues).sum()
    }

    /// Number of communication queues between one ordered pair of adjacent clusters
    /// (i.e. per direction), or 0 for a single-cluster machine.
    pub fn comm_queues_per_direction(&self) -> usize {
        self.ring.map(|r| r.queues_per_direction).unwrap_or(0)
    }
}

/// A machine's directed interconnect links and their index
/// ([`Machine::link_table`]).
#[derive(Debug, Clone)]
pub struct LinkTable {
    /// The directed links, in [`Topology::links`] order.
    links: Vec<(ClusterId, ClusterId)>,
    /// `index[from · num_clusters + to]`: the position of `(from, to)` in
    /// `links`, `None` when the pair has no direct link.
    index: Vec<Option<u32>>,
    num_clusters: usize,
}

impl LinkTable {
    /// The directed links, `(from, to)`, in table order.
    pub fn links(&self) -> &[(ClusterId, ClusterId)] {
        &self.links
    }

    /// The position of the directed link `from -> to` in
    /// [`LinkTable::links`], or `None` when the clusters are the same, do not
    /// communicate directly, or do not exist.
    pub fn index_of(&self, from: ClusterId, to: ClusterId) -> Option<usize> {
        let n = self.num_clusters;
        if from.index() >= n || to.index() >= n {
            return None;
        }
        self.index[from.index() * n + to.index()].map(|l| l as usize)
    }
}

/// Number of copy units paired with a machine of `fus` compute units: one per three
/// compute units (one per paper cluster), at least one.
pub fn copy_units_for(fus: usize) -> usize {
    (fus / 3).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cluster_machine_shape() {
        let m = Machine::single_cluster(12, 4, 32, LatencyModel::default());
        assert_eq!(m.num_clusters(), 1);
        assert!(!m.is_clustered());
        assert_eq!(m.num_compute_fus(), 12);
        assert_eq!(m.num_fus(), 16); // 12 compute + 4 copy units
        assert_eq!(m.num_fus_of_class(OpClass::Memory), 4);
        assert_eq!(m.num_fus_of_class(OpClass::Adder), 4);
        assert_eq!(m.num_fus_of_class(OpClass::Multiplier), 4);
        assert_eq!(m.num_fus_of_class(OpClass::Copy), 4);
        assert!(m.ring().is_none());
        assert_eq!(m.comm_queues_per_direction(), 0);
    }

    #[test]
    fn paper_clustered_machine_shape() {
        let m = Machine::paper_clustered(4, LatencyModel::default());
        assert_eq!(m.num_clusters(), 4);
        assert!(m.is_clustered());
        assert_eq!(m.num_compute_fus(), 12);
        assert_eq!(m.num_fus(), 16);
        assert_eq!(m.comm_queues_per_direction(), 8);
        assert_eq!(m.total_private_queues(), 32);
        for c in m.cluster_ids() {
            assert_eq!(m.fus_of_class_in_cluster(c, OpClass::Memory).count(), 1);
            assert_eq!(m.fus_of_class_in_cluster(c, OpClass::Adder).count(), 1);
            assert_eq!(m.fus_of_class_in_cluster(c, OpClass::Multiplier).count(), 1);
            assert_eq!(m.fus_of_class_in_cluster(c, OpClass::Copy).count(), 1);
        }
    }

    #[test]
    fn equivalent_single_cluster_has_same_width() {
        for n in [4, 5, 6] {
            let clustered = Machine::paper_clustered(n, LatencyModel::default());
            let single = Machine::paper_single_cluster_equivalent(n, LatencyModel::default());
            assert_eq!(clustered.num_compute_fus(), single.num_compute_fus());
            assert_eq!(single.num_clusters(), 1);
        }
    }

    #[test]
    fn ring_adjacency_wraps_around() {
        let m = Machine::paper_clustered(4, LatencyModel::default());
        let c = |i| ClusterId(i);
        assert!(m.clusters_communicate(c(0), c(0)));
        assert!(m.clusters_communicate(c(0), c(1)));
        assert!(m.clusters_communicate(c(1), c(0)));
        assert!(m.clusters_communicate(c(0), c(3))); // wrap-around neighbour
        assert!(!m.clusters_communicate(c(0), c(2))); // across the ring
        assert!(!m.clusters_communicate(c(1), c(3)));
    }

    #[test]
    fn ring_distance_is_symmetric_and_bounded() {
        let m = Machine::paper_clustered(6, LatencyModel::default());
        for a in m.cluster_ids() {
            for b in m.cluster_ids() {
                let d = m.ring_distance(a, b);
                assert_eq!(d, m.ring_distance(b, a));
                assert!(d <= 3);
                assert_eq!(d == 0, a == b);
                assert_eq!(d <= 1, m.clusters_communicate(a, b));
            }
        }
    }

    #[test]
    fn two_cluster_ring_everything_adjacent() {
        let m = Machine::paper_clustered(2, LatencyModel::default());
        assert!(m.clusters_communicate(ClusterId(0), ClusterId(1)));
        assert!(m.clusters_communicate(ClusterId(1), ClusterId(0)));
    }

    #[test]
    fn paper_single_matches_the_experiment_incantation() {
        for fus in [4usize, 6, 12] {
            let m = Machine::paper_single(fus);
            let explicit =
                Machine::single_cluster(fus, copy_units_for(fus), 1024, LatencyModel::default());
            assert_eq!(m, explicit);
            assert_eq!(m.num_compute_fus(), fus);
        }
    }

    #[test]
    fn copy_units_scale_with_width() {
        assert_eq!(copy_units_for(4), 1);
        assert_eq!(copy_units_for(6), 2);
        assert_eq!(copy_units_for(12), 4);
        assert_eq!(copy_units_for(2), 1);
    }

    #[test]
    fn equal_machines_hash_equally() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Machine::paper_single(6));
        set.insert(Machine::paper_single(6));
        set.insert(Machine::paper_clustered(4, LatencyModel::default()));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn single_cluster_cannot_communicate_externally() {
        let m = Machine::single_cluster(4, 1, 32, LatencyModel::default());
        assert!(m.clusters_communicate(ClusterId(0), ClusterId(0)));
    }

    #[test]
    fn fu_ids_are_dense_and_ordered_by_cluster() {
        let m = Machine::paper_clustered(3, LatencyModel::default());
        for (i, fu) in m.fus().iter().enumerate() {
            assert_eq!(fu.id.index(), i);
        }
        // Cluster ids are non-decreasing over the FU list.
        let clusters: Vec<usize> = m.fus().iter().map(|fu| fu.cluster.index()).collect();
        let mut sorted = clusters.clone();
        sorted.sort_unstable();
        assert_eq!(clusters, sorted);
    }

    #[test]
    fn fu_index_tables_match_the_filtered_views() {
        for m in [
            Machine::paper_clustered(5, LatencyModel::default()),
            Machine::single_cluster(7, 2, 32, LatencyModel::default()),
        ] {
            for class in OpClass::ALL {
                let by_filter: Vec<FuId> =
                    m.fus().iter().filter(|f| f.class == class).map(|f| f.id).collect();
                assert_eq!(m.fu_ids_of_class(class), &by_filter[..]);
                assert_eq!(m.num_fus_of_class(class), by_filter.len());
                for c in m.cluster_ids() {
                    let per_cluster: Vec<FuId> = m
                        .fus()
                        .iter()
                        .filter(|f| f.class == class && f.cluster == c)
                        .map(|f| f.id)
                        .collect();
                    assert_eq!(m.fu_ids_of_class_in_cluster(c, class), &per_cluster[..]);
                }
            }
        }
    }

    #[test]
    fn fu_mask_tables_match_the_index_tables() {
        for m in [
            Machine::paper_clustered(5, LatencyModel::default()),
            Machine::single_cluster(7, 2, 32, LatencyModel::default()),
        ] {
            assert_eq!(m.fu_mask_words(), m.num_fus().div_ceil(64));
            let bits = |mask: &[u64]| -> Vec<FuId> {
                (0..m.num_fus())
                    .filter(|&i| mask[i / 64] >> (i % 64) & 1 == 1)
                    .map(|i| FuId(i as u32))
                    .collect()
            };
            for class in OpClass::ALL {
                assert_eq!(bits(m.fu_mask_of_class(class)), m.fu_ids_of_class(class));
                for c in m.cluster_ids() {
                    assert_eq!(
                        bits(m.fu_mask_of_class_in_cluster(c, class)),
                        m.fu_ids_of_class_in_cluster(c, class)
                    );
                }
            }
        }
    }

    #[test]
    fn class_counts_sum_to_num_fus() {
        let m = Machine::paper_clustered(5, LatencyModel::default());
        let counts = m.class_counts();
        assert_eq!(counts.iter().sum::<usize>(), m.num_fus());
        assert_eq!(counts[OpClass::Memory.index()], 5);
        assert_eq!(counts[OpClass::Copy.index()], 5);
    }

    #[test]
    fn topology_swaps_the_adjacency_relation() {
        use crate::topology::Topology;
        let ring = Machine::paper_clustered(4, LatencyModel::default());
        let xbar = ring.clone().with_topology(Topology::Crossbar);
        assert_eq!(ring.topology(), Topology::Ring);
        assert_eq!(xbar.topology(), Topology::Crossbar);
        // The diagonal opens up on the crossbar...
        assert!(!ring.clusters_communicate(ClusterId(0), ClusterId(2)));
        assert!(xbar.clusters_communicate(ClusterId(0), ClusterId(2)));
        // ...and the two machines are distinct cache keys.
        assert_ne!(ring, xbar);
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(ring);
        set.insert(xbar);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn link_table_holds_every_communicating_pair_in_topology_order() {
        use crate::topology::Topology;
        let ring = RingConfig::paper_basic();
        for n in 1..=64usize {
            let clusters = vec![ClusterConfig::paper_basic(); n];
            let base =
                Machine::new("links", clusters, (n > 1).then_some(ring), LatencyModel::default());
            for t in Topology::ALL {
                let m = base.clone().with_topology(t);
                let table = m.link_table();
                assert_eq!(table.links().len(), t.directed_links(n), "{t} n={n}");
                let order: Vec<(usize, usize)> =
                    table.links().iter().map(|&(a, b)| (a.index(), b.index())).collect();
                assert_eq!(order, t.links(n), "{t} n={n}");
                for a in m.cluster_ids() {
                    for b in m.cluster_ids() {
                        let l = table.index_of(a, b);
                        assert_eq!(l.is_some(), a != b && m.clusters_communicate(a, b));
                        if let Some(l) = l {
                            assert_eq!(table.links()[l], (a, b), "{t} n={n}");
                        }
                    }
                }
            }
        }
        let four = Machine::paper_clustered(4, LatencyModel::default()).link_table();
        assert_eq!(four.links()[..2], [(ClusterId(0), ClusterId(1)), (ClusterId(0), ClusterId(3))]);
        assert_eq!(four.index_of(ClusterId(0), ClusterId(2)), None);
        assert_eq!(four.index_of(ClusterId(0), ClusterId(9)), None);
        assert!(Machine::paper_single(6).link_table().links().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn empty_machine_panics() {
        let _ = Machine::new("bad", vec![], None, LatencyModel::default());
    }

    #[test]
    #[should_panic(expected = "ring configuration")]
    fn clustered_machine_without_ring_panics() {
        let _ = Machine::new(
            "bad",
            vec![ClusterConfig::paper_basic(), ClusterConfig::paper_basic()],
            None,
            LatencyModel::default(),
        );
    }
}
