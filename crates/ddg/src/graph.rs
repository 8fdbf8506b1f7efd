//! The data dependence graph container and the [`Loop`] wrapper.

use std::fmt;

use crate::edge::{DepKind, Edge, EdgeId};
use crate::op::{OpClass, OpId, OpKind, Operation};

/// Errors reported by [`Ddg::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DdgError {
    /// An edge refers to an operation id outside the graph.
    DanglingEdge {
        /// Offending edge.
        edge: EdgeId,
    },
    /// The intra-iteration (distance-0) subgraph contains a cycle, which no schedule
    /// could ever satisfy.
    IntraIterationCycle,
    /// A flow edge leaves a store, which produces no value.
    FlowFromStore {
        /// Offending edge.
        edge: EdgeId,
    },
    /// An edge connects an operation to itself with distance 0.
    ZeroDistanceSelfLoop {
        /// Offending edge.
        edge: EdgeId,
    },
}

impl fmt::Display for DdgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DdgError::DanglingEdge { edge } => {
                write!(f, "edge {edge} refers to a missing operation")
            }
            DdgError::IntraIterationCycle => {
                write!(f, "the distance-0 subgraph contains a cycle; no schedule can satisfy it")
            }
            DdgError::FlowFromStore { edge } => {
                write!(f, "flow edge {edge} originates at a store, which produces no value")
            }
            DdgError::ZeroDistanceSelfLoop { edge } => {
                write!(f, "edge {edge} is a self-loop with distance 0")
            }
        }
    }
}

impl std::error::Error for DdgError {}

/// Reusable work buffers for [`Ddg::validate_with`].
#[derive(Debug, Default)]
pub struct ValidateScratch {
    indeg: Vec<usize>,
    stack: Vec<OpId>,
}

/// Sentinel for "no edge" in the intrusive adjacency lists below.
const NO_EDGE: u32 = u32::MAX;

/// A data dependence graph for one innermost-loop body.
///
/// Adjacency is stored as intrusive singly linked lists threaded through the
/// edge array (`*_head`/`*_tail` per operation, `*_next` per edge) instead of a
/// `Vec<EdgeId>` per operation: building, cloning, and dropping a graph then
/// costs a handful of flat allocations rather than two per operation, which is
/// what the compile pipeline spends most of its allocator traffic on.  Edges are
/// appended at the tail, so iteration still yields edges in insertion (id)
/// order, exactly as the per-operation vectors did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ddg {
    ops: Vec<Operation>,
    edges: Vec<Edge>,
    /// First/last outgoing edge per operation (`NO_EDGE` if none).
    succ_head: Vec<u32>,
    succ_tail: Vec<u32>,
    /// First/last incoming edge per operation (`NO_EDGE` if none).
    pred_head: Vec<u32>,
    pred_tail: Vec<u32>,
    /// Next outgoing edge of the same source, per edge (`NO_EDGE` terminates).
    succ_next: Vec<u32>,
    /// Next incoming edge of the same destination, per edge.
    pred_next: Vec<u32>,
}

impl Ddg {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Ddg::default()
    }

    /// Creates an empty graph with space reserved for `ops` operations.
    pub fn with_capacity(ops: usize) -> Self {
        Ddg {
            ops: Vec::with_capacity(ops),
            edges: Vec::with_capacity(ops * 2),
            succ_head: Vec::with_capacity(ops),
            succ_tail: Vec::with_capacity(ops),
            pred_head: Vec::with_capacity(ops),
            pred_tail: Vec::with_capacity(ops),
            succ_next: Vec::with_capacity(ops * 2),
            pred_next: Vec::with_capacity(ops * 2),
        }
    }

    /// Adds an operation and returns its id.
    pub fn add_op(&mut self, kind: OpKind) -> OpId {
        let id = OpId(self.ops.len() as u32);
        self.ops.push(Operation::new(id, kind));
        self.succ_head.push(NO_EDGE);
        self.succ_tail.push(NO_EDGE);
        self.pred_head.push(NO_EDGE);
        self.pred_tail.push(NO_EDGE);
        id
    }

    /// Adds a dependence edge and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not an operation of this graph.
    pub fn add_edge(
        &mut self,
        src: OpId,
        dst: OpId,
        kind: DepKind,
        latency: u32,
        distance: u32,
    ) -> EdgeId {
        assert!(src.index() < self.ops.len(), "edge source {src} out of range");
        assert!(dst.index() < self.ops.len(), "edge destination {dst} out of range");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge::new(id, src, dst, kind, latency, distance));
        self.succ_next.push(NO_EDGE);
        self.pred_next.push(NO_EDGE);
        // Append at the tail so list order stays insertion (edge-id) order.
        match self.succ_tail[src.index()] {
            NO_EDGE => self.succ_head[src.index()] = id.0,
            tail => self.succ_next[tail as usize] = id.0,
        }
        self.succ_tail[src.index()] = id.0;
        match self.pred_tail[dst.index()] {
            NO_EDGE => self.pred_head[dst.index()] = id.0,
            tail => self.pred_next[tail as usize] = id.0,
        }
        self.pred_tail[dst.index()] = id.0;
        id
    }

    /// Number of operations.
    #[inline]
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The operation with the given id.
    #[inline]
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id.index()]
    }

    /// The edge with the given id.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Iterator over all operations in id order.
    pub fn ops(&self) -> impl Iterator<Item = &Operation> + '_ {
        self.ops.iter()
    }

    /// Iterator over all operation ids.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> + 'static {
        (0..self.ops.len() as u32).map(OpId)
    }

    /// Iterator over all edges in id order.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> + '_ {
        self.edges.iter()
    }

    /// Walks one intrusive adjacency list from `head`, yielding edges in
    /// insertion order.
    fn adjacency<'a>(&'a self, head: u32, next: &'a [u32]) -> impl Iterator<Item = &'a Edge> + 'a {
        let edges = &self.edges;
        let mut cur = head;
        std::iter::from_fn(move || {
            if cur == NO_EDGE {
                return None;
            }
            let e = &edges[cur as usize];
            cur = next[cur as usize];
            Some(e)
        })
    }

    /// Outgoing edges of `op`.
    pub fn succ_edges(&self, op: OpId) -> impl Iterator<Item = &Edge> + '_ {
        self.adjacency(self.succ_head[op.index()], &self.succ_next)
    }

    /// Incoming edges of `op`.
    pub fn pred_edges(&self, op: OpId) -> impl Iterator<Item = &Edge> + '_ {
        self.adjacency(self.pred_head[op.index()], &self.pred_next)
    }

    /// Flow (value-carrying) out-edges of `op`, i.e. the edges whose consumers read
    /// the value produced by `op`.
    pub fn flow_consumers(&self, op: OpId) -> impl Iterator<Item = &Edge> + '_ {
        self.succ_edges(op).filter(|e| e.kind == DepKind::Flow)
    }

    /// Number of distinct flow consumers of `op` (the value's fan-out).
    pub fn fanout(&self, op: OpId) -> usize {
        self.flow_consumers(op).count()
    }

    /// The maximum fan-out over all value-producing operations.
    pub fn max_fanout(&self) -> usize {
        self.op_ids().map(|op| self.fanout(op)).max().unwrap_or(0)
    }

    /// Count of operations per functional-unit class.
    pub fn class_counts(&self) -> [usize; OpClass::COUNT] {
        let mut counts = [0usize; OpClass::COUNT];
        for op in &self.ops {
            counts[op.class().index()] += 1;
        }
        counts
    }

    /// True if the graph contains any loop-carried dependence cycle (a recurrence
    /// circuit in the paper's terminology).
    pub fn has_recurrence(&self) -> bool {
        // A recurrence exists iff some cycle of the full graph exists; because the
        // distance-0 subgraph of a valid DDG is acyclic, any cycle must include a
        // loop-carried edge.  Use the SCC decomposition.
        crate::analysis::strongly_connected_components(self).iter().any(|scc| scc.len() > 1)
            || self.edges.iter().any(|e| e.src == e.dst && e.distance > 0)
    }

    /// Topological order of the intra-iteration (distance-0) subgraph.
    ///
    /// Returns `None` if that subgraph has a cycle (an invalid DDG).
    pub fn topo_order_intra(&self) -> Option<Vec<OpId>> {
        let n = self.num_ops();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            if e.distance == 0 {
                indeg[e.dst.index()] += 1;
            }
        }
        let mut stack: Vec<OpId> =
            (0..n as u32).map(OpId).filter(|o| indeg[o.index()] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(op) = stack.pop() {
            order.push(op);
            for e in self.succ_edges(op) {
                if e.distance == 0 {
                    indeg[e.dst.index()] -= 1;
                    if indeg[e.dst.index()] == 0 {
                        stack.push(e.dst);
                    }
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }

    /// Checks the structural invariants of the graph.
    pub fn validate(&self) -> Result<(), DdgError> {
        let mut scratch = ValidateScratch::default();
        self.validate_with(&mut scratch)
    }

    /// [`Ddg::validate`] with caller-owned work buffers, so hot callers (the
    /// schedulers validate every body they are handed) do not allocate.
    pub fn validate_with(&self, scratch: &mut ValidateScratch) -> Result<(), DdgError> {
        for e in &self.edges {
            if e.src.index() >= self.ops.len() || e.dst.index() >= self.ops.len() {
                return Err(DdgError::DanglingEdge { edge: e.id });
            }
            if e.kind == DepKind::Flow && !self.ops[e.src.index()].kind.produces_value() {
                return Err(DdgError::FlowFromStore { edge: e.id });
            }
            if e.src == e.dst && e.distance == 0 {
                return Err(DdgError::ZeroDistanceSelfLoop { edge: e.id });
            }
        }
        // Kahn's algorithm over the distance-0 subgraph, counting processed
        // operations instead of materialising the order (the count alone decides
        // acyclicity, and it does not depend on the visit order).
        let n = self.num_ops();
        scratch.indeg.clear();
        scratch.indeg.resize(n, 0);
        for e in &self.edges {
            if e.distance == 0 {
                scratch.indeg[e.dst.index()] += 1;
            }
        }
        scratch.stack.clear();
        scratch.stack.extend((0..n as u32).map(OpId).filter(|o| scratch.indeg[o.index()] == 0));
        let mut processed = 0usize;
        while let Some(op) = scratch.stack.pop() {
            processed += 1;
            for e in self.succ_edges(op) {
                if e.distance == 0 {
                    scratch.indeg[e.dst.index()] -= 1;
                    if scratch.indeg[e.dst.index()] == 0 {
                        scratch.stack.push(e.dst);
                    }
                }
            }
        }
        if processed != n {
            return Err(DdgError::IntraIterationCycle);
        }
        Ok(())
    }

    /// Sum of all operation latencies along the longest latency chain in the
    /// intra-iteration subgraph; a crude lower bound on the schedule length of one
    /// iteration.
    pub fn critical_path_length(&self) -> u32 {
        crate::analysis::critical_path(self).length
    }
}

/// A named innermost loop: its dependence graph plus the execution metadata needed by
/// the dynamic-IPC analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loop {
    /// Name of the loop (benchmark-style identifier such as `"synth_0042"`).
    pub name: String,
    /// Body of the loop.
    pub ddg: Ddg,
    /// Number of iterations the loop executes at run time.
    ///
    /// The dynamic-issue analysis of the paper (Figs. 8 and 9) weighs the prologue and
    /// epilogue against the kernel using the trip count.
    pub trip_count: u64,
}

impl Loop {
    /// Creates a loop.
    pub fn new(name: impl Into<String>, ddg: Ddg, trip_count: u64) -> Self {
        Loop { name: name.into(), ddg, trip_count }
    }

    /// Number of operations in one iteration of the loop body.
    pub fn ops_per_iteration(&self) -> usize {
        self.ddg.num_ops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Ddg {
        // ld -> add -> st, ld -> mul -> st
        let mut g = Ddg::new();
        let ld = g.add_op(OpKind::Load);
        let add = g.add_op(OpKind::Add);
        let mul = g.add_op(OpKind::Mul);
        let st = g.add_op(OpKind::Store);
        g.add_edge(ld, add, DepKind::Flow, 2, 0);
        g.add_edge(ld, mul, DepKind::Flow, 2, 0);
        g.add_edge(add, st, DepKind::Flow, 1, 0);
        g.add_edge(mul, st, DepKind::Flow, 2, 0);
        g
    }

    #[test]
    fn build_and_query() {
        let g = diamond();
        assert_eq!(g.num_ops(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.fanout(OpId(0)), 2);
        assert_eq!(g.fanout(OpId(3)), 0);
        assert_eq!(g.max_fanout(), 2);
        assert_eq!(g.class_counts(), [2, 1, 1, 0]);
        assert!(!g.has_recurrence());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn succ_and_pred_edges() {
        let g = diamond();
        assert_eq!(g.succ_edges(OpId(0)).count(), 2);
        assert_eq!(g.pred_edges(OpId(3)).count(), 2);
        assert_eq!(g.pred_edges(OpId(0)).count(), 0);
        assert_eq!(g.succ_edges(OpId(3)).count(), 0);
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let order = g.topo_order_intra().expect("acyclic");
        let pos: Vec<usize> = {
            let mut p = vec![0; g.num_ops()];
            for (i, op) in order.iter().enumerate() {
                p[op.index()] = i;
            }
            p
        };
        for e in g.edges() {
            if e.distance == 0 {
                assert!(pos[e.src.index()] < pos[e.dst.index()]);
            }
        }
    }

    #[test]
    fn recurrence_detected_via_self_loop() {
        let mut g = Ddg::new();
        let add = g.add_op(OpKind::Add);
        g.add_edge(add, add, DepKind::Flow, 1, 1);
        assert!(g.has_recurrence());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn recurrence_detected_via_cycle() {
        let mut g = Ddg::new();
        let a = g.add_op(OpKind::Add);
        let b = g.add_op(OpKind::Mul);
        g.add_edge(a, b, DepKind::Flow, 1, 0);
        g.add_edge(b, a, DepKind::Flow, 2, 1);
        assert!(g.has_recurrence());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn validate_rejects_intra_iteration_cycle() {
        let mut g = Ddg::new();
        let a = g.add_op(OpKind::Add);
        let b = g.add_op(OpKind::Mul);
        g.add_edge(a, b, DepKind::Flow, 1, 0);
        g.add_edge(b, a, DepKind::Flow, 1, 0);
        assert_eq!(g.validate(), Err(DdgError::IntraIterationCycle));
    }

    #[test]
    fn validate_rejects_flow_from_store() {
        let mut g = Ddg::new();
        let st = g.add_op(OpKind::Store);
        let add = g.add_op(OpKind::Add);
        let e = g.add_edge(st, add, DepKind::Flow, 1, 0);
        assert_eq!(g.validate(), Err(DdgError::FlowFromStore { edge: e }));
    }

    #[test]
    fn validate_rejects_zero_distance_self_loop() {
        let mut g = Ddg::new();
        let add = g.add_op(OpKind::Add);
        let e = g.add_edge(add, add, DepKind::Flow, 1, 0);
        assert_eq!(g.validate(), Err(DdgError::ZeroDistanceSelfLoop { edge: e }));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_panics_on_bad_endpoint() {
        let mut g = Ddg::new();
        let a = g.add_op(OpKind::Add);
        g.add_edge(a, OpId(42), DepKind::Flow, 1, 0);
    }

    #[test]
    fn memory_edges_allowed_from_store() {
        let mut g = Ddg::new();
        let st = g.add_op(OpKind::Store);
        let ld = g.add_op(OpKind::Load);
        g.add_edge(st, ld, DepKind::Memory, 1, 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn loop_wrapper() {
        let l = Loop::new("dot", diamond(), 100);
        assert_eq!(l.name, "dot");
        assert_eq!(l.ops_per_iteration(), 4);
        assert_eq!(l.trip_count, 100);
    }

    #[test]
    fn error_display_messages() {
        let msgs = [
            DdgError::DanglingEdge { edge: EdgeId(1) }.to_string(),
            DdgError::IntraIterationCycle.to_string(),
            DdgError::FlowFromStore { edge: EdgeId(2) }.to_string(),
            DdgError::ZeroDistanceSelfLoop { edge: EdgeId(3) }.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
