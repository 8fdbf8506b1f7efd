//! The machine design space behind the Fig. 7 sizing sweep.
//!
//! Fig. 7 is a *sizing* claim: the paper settles on a basic cluster of 3 compute
//! FUs with 8 private queues of 8 entries, connected by ring links of 8
//! communication queues per direction, because that is the smallest clustered
//! configuration that still fits nearly all loops of the workload.  This module
//! parameterises that claim: a [`MachineSpace`] is a cartesian grid over cluster
//! count, queues per cluster, entries per queue, ring-link depth and FU mix, and
//! every grid point ([`MachineConfig`]) can be materialised both as the actual
//! machine (real storage budgets) and as a *probe* machine whose storage is
//! effectively unbounded.
//!
//! The probe machine is the memoisation lever of the sweep: scheduling and
//! simulation depend only on the machine *shape* (cluster count and FU mix) —
//! queue budgets constrain what fits, never where operations are placed — so
//! every grid point sharing a shape produces the identical probe machine, hence
//! the identical compilation-session key, and the whole storage sub-grid reuses
//! one compile and one simulation per loop.

use vliw_ddg::{LatencyModel, OpClass};

use crate::cluster::{ClusterConfig, RingConfig};
use crate::machine::Machine;
use crate::topology::Topology;

/// Storage cost of one queue entry, in bits (one 32-bit value).  Used for the
/// sweep's storage axis; only ratios matter for the Pareto analysis.
pub const VALUE_BITS: u64 = 32;

/// Queue count/capacity of the probe machines: large enough that no synthetic
/// loop ever touches the budget, so probe runs measure demand instead of
/// clipping it.
const PROBE_STORAGE: usize = 1024;

/// The compute classes every cluster of the design space carries.
const COMPUTE_CLASSES: [OpClass; 3] = [OpClass::Memory, OpClass::Adder, OpClass::Multiplier];

/// Functional-unit mix of one cluster of the design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuMix {
    /// The paper's basic cluster: 1 L/S + 1 ADD + 1 MUL (plus one copy unit).
    Basic,
    /// A double-width cluster: 2 L/S + 2 ADD + 2 MUL (plus one copy unit).
    Wide,
}

impl FuMix {
    /// Every mix of the design space.
    pub const ALL: [FuMix; 2] = [FuMix::Basic, FuMix::Wide];

    /// Short name used in machine names and report rows.
    pub fn tag(self) -> &'static str {
        match self {
            FuMix::Basic => "basic",
            FuMix::Wide => "wide",
        }
    }

    /// Units of each compute class per cluster.
    fn units_per_class(self) -> usize {
        match self {
            FuMix::Basic => 1,
            FuMix::Wide => 2,
        }
    }

    /// The compute units of one cluster with this mix.
    pub fn classes(self) -> Vec<OpClass> {
        let mut classes = Vec::with_capacity(self.compute_fus());
        for class in COMPUTE_CLASSES {
            classes.extend(std::iter::repeat_n(class, self.units_per_class()));
        }
        classes
    }

    /// Number of compute FUs per cluster: `classes().len()`, without building
    /// the list (the sweep asks once per grid point).
    pub fn compute_fus(self) -> usize {
        COMPUTE_CLASSES.len() * self.units_per_class()
    }
}

/// One grid point of the design space: a complete clustered-machine sizing.
///
/// `queues_per_cluster` sizes both the private QRF and the ring links (the
/// paper's 8 private + 8 + 8 communication queues tie the two counts together);
/// `queue_capacity` is the depth of a private queue and `link_depth` the depth
/// of a communication queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MachineConfig {
    /// Number of clusters on the ring.
    pub clusters: usize,
    /// Queues in each cluster's private QRF, and communication queues per
    /// directed ring link.
    pub queues_per_cluster: usize,
    /// Entries per private queue.
    pub queue_capacity: usize,
    /// Entries per ring communication queue.
    pub link_depth: usize,
    /// Compute-unit mix of every cluster.
    pub fu_mix: FuMix,
    /// Inter-cluster interconnect (the paper's machines are all
    /// [`Topology::Ring`]; the huge grid opens the axis).
    pub topology: Topology,
}

impl MachineConfig {
    /// The scheduling-relevant shape of this configuration: everything the
    /// compiler and simulator can observe.  Grid points sharing a shape share
    /// one probe machine, hence one compilation-session key.  The topology is
    /// part of the shape — it changes which clusters may communicate, hence
    /// where the partitioner places operations.
    pub fn shape(&self) -> (usize, FuMix, Topology) {
        (self.clusters, self.fu_mix, self.topology)
    }

    /// Machine-name suffix of the topology: empty for the paper's ring (so
    /// every pre-topology machine name — and with it every persisted
    /// compilation key and committed baseline — stays byte-identical), the
    /// topology tag otherwise.
    fn topology_suffix(&self) -> String {
        match self.topology {
            Topology::Ring => String::new(),
            t => format!("-{}", t.tag()),
        }
    }

    /// The machine with this configuration's actual storage budgets.
    pub fn machine(&self, latencies: LatencyModel) -> Machine {
        let cluster = ClusterConfig {
            fu_classes: self.fu_mix.classes(),
            copy_units: 1,
            private_queues: self.queues_per_cluster,
            queue_capacity: self.queue_capacity,
        };
        let ring = (self.clusters > 1).then_some(RingConfig {
            queues_per_direction: self.queues_per_cluster,
            queue_capacity: self.link_depth,
        });
        Machine::new(
            format!(
                "sweep-{}x{}fu-{}-q{}c{}d{}{}",
                self.clusters,
                self.fu_mix.compute_fus(),
                self.fu_mix.tag(),
                self.queues_per_cluster,
                self.queue_capacity,
                self.link_depth,
                self.topology_suffix()
            ),
            vec![cluster; self.clusters],
            ring,
            latencies,
        )
        .with_topology(self.topology)
    }

    /// The probe machine of this configuration's shape: identical FU structure,
    /// storage budgets so large no loop ever reaches them.  Identical for every
    /// grid point with the same [`MachineConfig::shape`], including the name —
    /// the property the sweep's memoisation rests on.
    pub fn probe_machine(&self, latencies: LatencyModel) -> Machine {
        let cluster = ClusterConfig {
            fu_classes: self.fu_mix.classes(),
            copy_units: 1,
            private_queues: PROBE_STORAGE,
            queue_capacity: PROBE_STORAGE,
        };
        let ring = (self.clusters > 1).then_some(RingConfig {
            queues_per_direction: PROBE_STORAGE,
            queue_capacity: PROBE_STORAGE,
        });
        Machine::new(
            format!(
                "sweep-probe-{}x{}fu-{}{}",
                self.clusters,
                self.fu_mix.compute_fus(),
                self.fu_mix.tag(),
                self.topology_suffix()
            ),
            vec![cluster; self.clusters],
            ring,
            latencies,
        )
        .with_topology(self.topology)
    }

    /// Number of directed interconnect links (each sized `queues_per_cluster ×
    /// link_depth`).  On the ring: two clusters share one physical pair of
    /// links, three or more have two outgoing links per cluster; richer
    /// topologies pay for more links (see [`Topology::directed_links`]).
    pub fn directed_links(&self) -> usize {
        self.topology.directed_links(self.clusters)
    }

    /// Total queue storage of the configuration in bits — the cost axis of the
    /// sweep's Pareto analysis.
    pub fn storage_bits(&self) -> u64 {
        let private = (self.clusters * self.queues_per_cluster * self.queue_capacity) as u64;
        let comm = (self.directed_links() * self.queues_per_cluster * self.link_depth) as u64;
        (private + comm) * VALUE_BITS
    }

    /// True for the paper's published sizing: 8 queues × 8 entries per cluster
    /// with depth-8 ring links on the basic cluster (Fig. 7).
    pub fn is_paper_point(&self) -> bool {
        self.queues_per_cluster == 8
            && self.queue_capacity == 8
            && self.link_depth == 8
            && self.fu_mix == FuMix::Basic
            && self.topology == Topology::Ring
    }
}

/// A cartesian grid of [`MachineConfig`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSpace {
    /// Cluster counts to sweep.
    pub cluster_counts: Vec<usize>,
    /// Queue counts (private queues per cluster = ring queues per direction).
    pub queues_per_cluster: Vec<usize>,
    /// Private-queue depths.
    pub queue_capacities: Vec<usize>,
    /// Ring-queue depths.
    pub link_depths: Vec<usize>,
    /// Cluster FU mixes.
    pub fu_mixes: Vec<FuMix>,
    /// Interconnect topologies.
    pub topologies: Vec<Topology>,
}

impl MachineSpace {
    /// The CI-sized grid: the 4-cluster basic machine with queue counts, queue
    /// depths and link depths each swept over {4, 8} — 8 configurations, one
    /// machine shape, paper point included.
    pub fn small() -> Self {
        MachineSpace {
            cluster_counts: vec![4],
            queues_per_cluster: vec![4, 8],
            queue_capacities: vec![4, 8],
            link_depths: vec![4, 8],
            fu_mixes: vec![FuMix::Basic],
            topologies: vec![Topology::Ring],
        }
    }

    /// The paper's Fig. 7 neighbourhood: its 4/5/6-cluster basic machines with
    /// every storage dimension swept over {2, 4, 8, 16} — 192 configurations,
    /// three machine shapes.
    pub fn paper() -> Self {
        MachineSpace {
            cluster_counts: vec![4, 5, 6],
            queues_per_cluster: vec![2, 4, 8, 16],
            queue_capacities: vec![2, 4, 8, 16],
            link_depths: vec![2, 4, 8, 16],
            fu_mixes: vec![FuMix::Basic],
            topologies: vec![Topology::Ring],
        }
    }

    /// The exploratory grid: 2–8 clusters, both FU mixes, storage dimensions up
    /// to 32 — 1200 configurations, twelve machine shapes.
    pub fn full() -> Self {
        MachineSpace {
            cluster_counts: vec![2, 3, 4, 5, 6, 8],
            queues_per_cluster: vec![2, 4, 8, 16, 32],
            queue_capacities: vec![2, 4, 8, 16, 32],
            link_depths: vec![2, 4, 8, 16],
            fu_mixes: vec![FuMix::Basic, FuMix::Wide],
            topologies: vec![Topology::Ring],
        }
    }

    /// The huge grid behind the bound-pruned sweep: 10 cluster counts up to 16,
    /// both FU mixes, all three topologies, and twelve values per storage
    /// dimension — 103 680 configurations over 60 machine shapes.  Enumerating
    /// it is cheap; *classifying* it is what the pruned sweep driver makes
    /// affordable (one witness compile per shape and loop, every other grid
    /// point recovered by threshold transfer).
    pub fn huge() -> Self {
        let storage_axis = vec![1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 32];
        MachineSpace {
            cluster_counts: vec![2, 3, 4, 5, 6, 8, 9, 10, 12, 16],
            queues_per_cluster: storage_axis.clone(),
            queue_capacities: storage_axis.clone(),
            link_depths: storage_axis,
            fu_mixes: vec![FuMix::Basic, FuMix::Wide],
            topologies: vec![Topology::Ring, Topology::Torus, Topology::Crossbar],
        }
    }

    /// Every grid point, in deterministic order (clusters, then mix, then
    /// topology, then queues, then capacity, then link depth) — configurations
    /// sharing a machine shape are contiguous, so the session cache warms once
    /// per shape.
    pub fn configs(&self) -> Vec<MachineConfig> {
        let mut out = Vec::with_capacity(self.num_configs());
        for &clusters in &self.cluster_counts {
            for &fu_mix in &self.fu_mixes {
                for &topology in &self.topologies {
                    for &queues_per_cluster in &self.queues_per_cluster {
                        for &queue_capacity in &self.queue_capacities {
                            for &link_depth in &self.link_depths {
                                out.push(MachineConfig {
                                    clusters,
                                    queues_per_cluster,
                                    queue_capacity,
                                    link_depth,
                                    fu_mix,
                                    topology,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Number of grid points.
    pub fn num_configs(&self) -> usize {
        self.cluster_counts.len()
            * self.queues_per_cluster.len()
            * self.queue_capacities.len()
            * self.link_depths.len()
            * self.fu_mixes.len()
            * self.topologies.len()
    }

    /// Number of distinct machine shapes (probe machines) in the grid — the
    /// number of compiles the memo store pays for, regardless of grid size.
    pub fn num_shapes(&self) -> usize {
        self.cluster_counts.len() * self.fu_mixes.len() * self.topologies.len()
    }
}

/// A named preset of the design space, selectable as `figures sweep --grid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepGrid {
    /// [`MachineSpace::small`].
    #[default]
    Small,
    /// [`MachineSpace::paper`].
    Paper,
    /// [`MachineSpace::full`].
    Full,
    /// [`MachineSpace::huge`] — the 100k-config grid the bound-pruned sweep
    /// exists for.
    Huge,
}

impl SweepGrid {
    /// The grid's name, as written on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            SweepGrid::Small => "small",
            SweepGrid::Paper => "paper",
            SweepGrid::Full => "full",
            SweepGrid::Huge => "huge",
        }
    }

    /// Materialises the preset.
    pub fn space(self) -> MachineSpace {
        match self {
            SweepGrid::Small => MachineSpace::small(),
            SweepGrid::Paper => MachineSpace::paper(),
            SweepGrid::Full => MachineSpace::full(),
            SweepGrid::Huge => MachineSpace::huge(),
        }
    }
}

impl std::str::FromStr for SweepGrid {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "small" => Ok(SweepGrid::Small),
            "paper" => Ok(SweepGrid::Paper),
            "full" => Ok(SweepGrid::Full),
            "huge" => Ok(SweepGrid::Huge),
            other => {
                Err(format!("unknown grid `{other}` (expected `small`, `paper`, `full` or `huge`)"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_point_in(space: &MachineSpace) -> Option<MachineConfig> {
        space.configs().into_iter().find(MachineConfig::is_paper_point)
    }

    #[test]
    fn grid_sizes_match_the_cartesian_product() {
        for space in [
            MachineSpace::small(),
            MachineSpace::paper(),
            MachineSpace::full(),
            MachineSpace::huge(),
        ] {
            let configs = space.configs();
            assert_eq!(configs.len(), space.num_configs());
            let mut shapes: Vec<_> = configs.iter().map(|c| c.shape()).collect();
            shapes.sort_by_key(|&(n, m, t)| (n, m.tag(), t.tag()));
            shapes.dedup();
            assert_eq!(shapes.len(), space.num_shapes());
        }
        assert_eq!(MachineSpace::small().num_configs(), 8);
        assert_eq!(MachineSpace::paper().num_configs(), 192);
        assert_eq!(MachineSpace::full().num_configs(), 1200);
        // The huge grid is the 100k-config acceptance bar of the pruned sweep.
        assert!(MachineSpace::huge().num_configs() >= 100_000);
        assert_eq!(MachineSpace::huge().num_shapes(), 60);
    }

    #[test]
    fn every_preset_contains_the_paper_point() {
        for space in [
            MachineSpace::small(),
            MachineSpace::paper(),
            MachineSpace::full(),
            MachineSpace::huge(),
        ] {
            let p = paper_point_in(&space).expect("paper point in grid");
            assert_eq!(
                (p.queues_per_cluster, p.queue_capacity, p.link_depth),
                (8, 8, 8),
                "Fig. 7's 8×8 + depth-8 links"
            );
        }
    }

    #[test]
    fn real_machine_carries_the_configured_budgets() {
        let config = MachineConfig {
            clusters: 4,
            queues_per_cluster: 8,
            queue_capacity: 8,
            link_depth: 8,
            fu_mix: FuMix::Basic,
            topology: Topology::Ring,
        };
        let m = config.machine(LatencyModel::default());
        assert_eq!(m.num_clusters(), 4);
        assert_eq!(m.num_compute_fus(), 12);
        for c in m.cluster_ids() {
            assert_eq!(m.cluster(c).private_queues, 8);
            assert_eq!(m.cluster(c).queue_capacity, 8);
        }
        let ring = m.ring().expect("clustered");
        assert_eq!(ring.queues_per_direction, 8);
        assert_eq!(ring.queue_capacity, 8);
        // The paper point materialises the same storage shape as
        // `Machine::paper_clustered` (only the name differs).
        let paper = Machine::paper_clustered(4, LatencyModel::default());
        assert_eq!(m.cluster(crate::ClusterId(0)), paper.cluster(crate::ClusterId(0)));
        assert_eq!(m.ring(), paper.ring());
    }

    #[test]
    fn probe_machines_are_identical_across_a_storage_subgrid() {
        let space = MachineSpace::small();
        let probes: Vec<Machine> =
            space.configs().iter().map(|c| c.probe_machine(LatencyModel::default())).collect();
        for probe in &probes[1..] {
            assert_eq!(probe, &probes[0], "one shape must produce one probe machine");
        }
        // ...and a different shape produces a different probe.
        let other = MachineConfig {
            clusters: 5,
            queues_per_cluster: 8,
            queue_capacity: 8,
            link_depth: 8,
            fu_mix: FuMix::Basic,
            topology: Topology::Ring,
        };
        assert_ne!(other.probe_machine(LatencyModel::default()), probes[0]);
    }

    #[test]
    fn storage_bits_scale_with_every_dimension() {
        let base = MachineConfig {
            clusters: 4,
            queues_per_cluster: 8,
            queue_capacity: 8,
            link_depth: 8,
            fu_mix: FuMix::Basic,
            topology: Topology::Ring,
        };
        // 4 clusters × 8×8 private + 8 directed links × 8×8 comm = 768 values.
        assert_eq!(base.storage_bits(), 768 * VALUE_BITS);
        let grow = |f: &dyn Fn(&mut MachineConfig)| {
            let mut c = base;
            f(&mut c);
            c
        };
        assert!(grow(&|c| c.clusters = 5).storage_bits() > base.storage_bits());
        assert!(grow(&|c| c.queues_per_cluster = 16).storage_bits() > base.storage_bits());
        assert!(grow(&|c| c.queue_capacity = 16).storage_bits() > base.storage_bits());
        assert!(grow(&|c| c.link_depth = 16).storage_bits() > base.storage_bits());
    }

    #[test]
    fn two_cluster_rings_have_two_directed_links() {
        let mut c = MachineConfig {
            clusters: 2,
            queues_per_cluster: 8,
            queue_capacity: 8,
            link_depth: 8,
            fu_mix: FuMix::Basic,
            topology: Topology::Ring,
        };
        assert_eq!(c.directed_links(), 2);
        c.clusters = 6;
        assert_eq!(c.directed_links(), 12);
        c.clusters = 1;
        assert_eq!(c.directed_links(), 0);
    }

    #[test]
    fn wide_mix_doubles_the_compute_units() {
        assert_eq!(FuMix::Basic.compute_fus(), 3);
        assert_eq!(FuMix::Wide.compute_fus(), 6);
        for mix in FuMix::ALL {
            assert_eq!(mix.compute_fus(), mix.classes().len(), "{}", mix.tag());
        }
        let config = MachineConfig {
            clusters: 3,
            queues_per_cluster: 8,
            queue_capacity: 8,
            link_depth: 8,
            fu_mix: FuMix::Wide,
            topology: Topology::Ring,
        };
        let m = config.machine(LatencyModel::default());
        assert_eq!(m.num_compute_fus(), 18);
        assert!(!config.is_paper_point(), "the paper cluster is the basic mix");
    }

    #[test]
    fn sweep_grid_names_round_trip() {
        for grid in [SweepGrid::Small, SweepGrid::Paper, SweepGrid::Full, SweepGrid::Huge] {
            assert_eq!(grid.name().parse::<SweepGrid>(), Ok(grid));
        }
        assert!("tiny".parse::<SweepGrid>().is_err());
        assert_eq!(SweepGrid::default(), SweepGrid::Small);
    }

    #[test]
    fn topology_is_part_of_the_shape_and_the_name() {
        let ring = MachineConfig {
            clusters: 4,
            queues_per_cluster: 8,
            queue_capacity: 8,
            link_depth: 8,
            fu_mix: FuMix::Basic,
            topology: Topology::Ring,
        };
        let torus = MachineConfig { topology: Topology::Torus, ..ring };
        let xbar = MachineConfig { topology: Topology::Crossbar, ..ring };
        assert_ne!(ring.shape(), torus.shape());
        assert_ne!(torus.shape(), xbar.shape());
        // Ring names stay byte-identical to the pre-topology scheme; the new
        // topologies tag themselves.
        let lat = LatencyModel::default;
        assert_eq!(ring.machine(lat()).name(), "sweep-4x3fu-basic-q8c8d8");
        assert_eq!(ring.probe_machine(lat()).name(), "sweep-probe-4x3fu-basic");
        assert_eq!(torus.machine(lat()).name(), "sweep-4x3fu-basic-q8c8d8-torus");
        assert_eq!(torus.probe_machine(lat()).name(), "sweep-probe-4x3fu-basic-torus");
        assert_eq!(xbar.probe_machine(lat()).name(), "sweep-probe-4x3fu-basic-xbar");
        // Distinct probe machines mean distinct compilation-session keys.
        assert_ne!(torus.probe_machine(lat()), ring.probe_machine(lat()));
        assert_eq!(torus.probe_machine(lat()).topology(), Topology::Torus);
        // The paper's published point is a ring machine by definition.
        assert!(ring.is_paper_point());
        assert!(!torus.is_paper_point());
        assert!(!xbar.is_paper_point());
    }

    #[test]
    fn richer_topologies_cost_more_storage() {
        let base = MachineConfig {
            clusters: 6,
            queues_per_cluster: 8,
            queue_capacity: 8,
            link_depth: 8,
            fu_mix: FuMix::Basic,
            topology: Topology::Ring,
        };
        let torus = MachineConfig { topology: Topology::Torus, ..base };
        let xbar = MachineConfig { topology: Topology::Crossbar, ..base };
        assert!(base.storage_bits() <= torus.storage_bits());
        assert!(torus.storage_bits() < xbar.storage_bits());
        assert_eq!(xbar.directed_links(), 30);
    }
}
