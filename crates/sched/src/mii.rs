//! Minimum initiation interval (MII) computation.
//!
//! The MII is the larger of two lower bounds:
//!
//! * **ResMII** — the resource-constrained bound: for each functional-unit class,
//!   the number of operations of that class divided by the number of units of that
//!   class, rounded up.
//! * **RecMII** — the recurrence-constrained bound: the smallest II such that every
//!   dependence circuit `c` satisfies `delay(c) ≤ II · distance(c)`.
//!
//! RecMII is computed by a binary search on II, using a Bellman–Ford positive-cycle
//! test on edge weights `latency − II · distance` (a positive cycle at a candidate II
//! means some recurrence circuit cannot be honoured at that II).

use std::cell::RefCell;

use vliw_ddg::{Ddg, OpClass};
use vliw_machine::Machine;

use crate::SchedError;

/// Resource-constrained minimum initiation interval.
///
/// Returns an error if the graph uses a functional-unit class of which the machine
/// has no instance.
pub fn res_mii(ddg: &Ddg, machine: &Machine) -> Result<u32, SchedError> {
    let fus = machine.class_counts();
    resource_bound(&ddg.class_counts(), |class| fus[class.index()])
        .map_err(|class| SchedError::NoFunctionalUnit { class })
}

/// The resource bound of `ops[class]` operations per class on `units(class)`
/// units per class: the largest `⌈ops / units⌉` row over the classes with
/// operations, and at least 1.  The first class with operations but no unit
/// is the error.
///
/// [`res_mii`] applies it to the whole machine; the partitioner's collapse
/// and the `vliw-bounds` analyzer apply it to cluster 0 and to a shape.
pub fn resource_bound(
    ops: &[usize; OpClass::COUNT],
    units: impl Fn(OpClass) -> usize,
) -> Result<u32, OpClass> {
    let mut bound = 1u32;
    for class in OpClass::ALL {
        let n = ops[class.index()];
        if n == 0 {
            continue;
        }
        match units(class) {
            0 => return Err(class),
            u => bound = bound.max(u32::try_from(n.div_ceil(u)).unwrap_or(u32::MAX)),
        }
    }
    Ok(bound)
}

/// Recurrence-constrained minimum initiation interval.
///
/// Loops without any dependence circuit have `RecMII == 1`.
///
/// Every dependence circuit lies entirely inside one strongly connected
/// component of the (carried-edge-inclusive) graph, so the binary search and
/// its Bellman–Ford probes run per component over its internal edges only.
/// Typical loop bodies are chains with a few small recurrences, which turns
/// the whole-graph `O(log(Σlat) · V · E)` search into near-linear work.
pub fn rec_mii(ddg: &Ddg) -> u32 {
    MII_SCRATCH.with(|s| rec_mii_in(ddg, &mut s.borrow_mut()))
}

/// Reusable buffers of [`rec_mii`]: the SCC decomposition and the per-component
/// search are allocation-free across calls on the same thread.
#[derive(Default)]
struct MiiScratch {
    start: Vec<u32>,
    adj: Vec<u32>,
    fill: Vec<u32>,
    index: Vec<u32>,
    low: Vec<u32>,
    on_stack: Vec<bool>,
    comp: Vec<u32>,
    stack: Vec<u32>,
    frames: Vec<(u32, u32)>,
    internal: Vec<(u32, u32, u32, i64, i64)>,
    dist: Vec<i64>,
    in_comp: Vec<bool>,
    nodes: Vec<u32>,
}

thread_local! {
    static MII_SCRATCH: RefCell<MiiScratch> = RefCell::new(MiiScratch::default());
}

fn rec_mii_in(ddg: &Ddg, scratch: &mut MiiScratch) -> u32 {
    let n = ddg.num_ops();
    if n == 0 {
        return 1;
    }
    scc_ids_into(ddg, scratch);
    // An edge can participate in a circuit iff both endpoints share an SCC
    // (a self-edge trivially does).  Everything else cannot constrain RecMII.
    let comp = &scratch.comp;
    let internal = &mut scratch.internal;
    internal.clear();
    for e in ddg.edges() {
        let (s, d) = (e.src.index(), e.dst.index());
        if comp[s] == comp[d] {
            internal.push((comp[s], s as u32, d as u32, e.latency as i64, e.distance as i64));
        }
    }
    if internal.is_empty() {
        return 1;
    }
    internal.sort_unstable_by_key(|t| t.0);

    let dist = &mut scratch.dist;
    dist.clear();
    dist.resize(n, 0);
    let in_comp = &mut scratch.in_comp;
    in_comp.clear();
    in_comp.resize(n, false);
    let nodes = &mut scratch.nodes;
    let mut best = 1u32;
    let mut at = 0;
    while at < internal.len() {
        let comp_id = internal[at].0;
        let mut end = at;
        while end < internal.len() && internal[end].0 == comp_id {
            end += 1;
        }
        let edges = &internal[at..end];
        at = end;

        nodes.clear();
        for &(_, s, d, _, _) in edges {
            for v in [s, d] {
                if !in_comp[v as usize] {
                    in_comp[v as usize] = true;
                    nodes.push(v);
                }
            }
        }
        best = best.max(component_rec_mii(edges, nodes, dist));
        for &v in nodes.iter() {
            in_comp[v as usize] = false;
        }
    }
    best
}

/// Smallest II at which one SCC's circuits are all honoured — the same binary
/// search as the pre-SCC whole-graph version, restricted to `edges`.
fn component_rec_mii(edges: &[(u32, u32, u32, i64, i64)], nodes: &[u32], dist: &mut [i64]) -> u32 {
    // Upper bound: the component's latency sum is always feasible (every
    // circuit's delay is at most that sum and every circuit has distance >= 1).
    let mut lo = 1i64;
    let mut hi = edges.iter().map(|e| e.3).sum::<i64>().max(1);
    // Invariant: `hi` is always feasible, `lo - 1` is infeasible (or lo == 1).
    if positive_cycle_in(edges, nodes, hi as u32, dist) {
        // Cannot happen for a valid DDG (distance-0 subgraph acyclic), but be safe.
        return hi as u32;
    }
    while lo < hi {
        let mid = (lo + hi) / 2;
        if positive_cycle_in(edges, nodes, mid as u32, dist) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo as u32
}

/// Bellman–Ford positive-cycle probe over one component's edge list.  `dist`
/// is caller-provided scratch of whole-graph size; only `nodes` are touched.
fn positive_cycle_in(
    edges: &[(u32, u32, u32, i64, i64)],
    nodes: &[u32],
    ii: u32,
    dist: &mut [i64],
) -> bool {
    for &v in nodes {
        dist[v as usize] = 0;
    }
    for _ in 0..nodes.len() {
        let mut changed = false;
        for &(_, s, d, lat, dd) in edges {
            let cand = dist[s as usize] + lat - (ii as i64) * dd;
            if cand > dist[d as usize] {
                dist[d as usize] = cand;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
    }
    for &(_, s, d, lat, dd) in edges {
        if dist[s as usize] + lat - (ii as i64) * dd > dist[d as usize] {
            return true;
        }
    }
    false
}

/// Strongly connected component id per operation (Tarjan, iterative), written
/// to `scratch.comp`.  Ids carry no ordering guarantee; only equality is
/// meaningful.
fn scc_ids_into(ddg: &Ddg, scratch: &mut MiiScratch) {
    let n = ddg.num_ops();
    const UNVISITED: u32 = u32::MAX;

    // CSR successor adjacency.
    let start = &mut scratch.start;
    start.clear();
    start.resize(n + 1, 0);
    for e in ddg.edges() {
        start[e.src.index() + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let adj = &mut scratch.adj;
    adj.clear();
    adj.resize(ddg.num_edges(), 0);
    let fill = &mut scratch.fill;
    fill.clear();
    fill.extend_from_slice(start);
    for e in ddg.edges() {
        adj[fill[e.src.index()] as usize] = e.dst.index() as u32;
        fill[e.src.index()] += 1;
    }

    let index = &mut scratch.index;
    index.clear();
    index.resize(n, UNVISITED);
    let low = &mut scratch.low;
    low.clear();
    low.resize(n, 0);
    let on_stack = &mut scratch.on_stack;
    on_stack.clear();
    on_stack.resize(n, false);
    let comp = &mut scratch.comp;
    comp.clear();
    comp.resize(n, 0);
    let stack = &mut scratch.stack;
    stack.clear();
    // DFS frames: (node, next unexplored successor offset into `adj`).
    let frames = &mut scratch.frames;
    frames.clear();
    let mut next_index = 0u32;
    let mut next_comp = 0u32;

    for root in 0..n as u32 {
        if index[root as usize] != UNVISITED {
            continue;
        }
        index[root as usize] = next_index;
        low[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        frames.push((root, start[root as usize]));
        while let Some(frame) = frames.last_mut() {
            let v = frame.0 as usize;
            if frame.1 < start[v + 1] {
                let w = adj[frame.1 as usize] as usize;
                frame.1 += 1;
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w as u32);
                    on_stack[w] = true;
                    frames.push((w as u32, start[w]));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(parent) = frames.last_mut() {
                    let p = parent.0 as usize;
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("Tarjan stack underflow") as usize;
                        on_stack[w] = false;
                        comp[w] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
            }
        }
    }
}

/// Minimum initiation interval: `max(ResMII, RecMII)`.
pub fn mii(ddg: &Ddg, machine: &Machine) -> Result<u32, SchedError> {
    Ok(res_mii(ddg, machine)?.max(rec_mii(ddg)))
}

/// True if the dependence graph has a circuit whose total `latency − ii·distance`
/// weight is positive, i.e. the candidate `ii` violates some recurrence.
pub fn has_positive_cycle(ddg: &Ddg, ii: u32) -> bool {
    let n = ddg.num_ops();
    if n == 0 {
        return false;
    }
    // Longest-path Bellman–Ford from a virtual source connected to every node with
    // weight 0.  If any distance still relaxes after n iterations, a positive cycle
    // exists.
    let mut dist = vec![0i64; n];
    for _ in 0..n {
        let mut changed = false;
        for e in ddg.edges() {
            let cand = dist[e.src.index()] + e.weight_at(ii);
            if cand > dist[e.dst.index()] {
                dist[e.dst.index()] = cand;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
    }
    // One more pass: if anything still improves, there is a positive cycle.
    for e in ddg.edges() {
        if dist[e.src.index()] + e.weight_at(ii) > dist[e.dst.index()] {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ddg::{kernels, DdgBuilder, DepKind, LatencyModel, OpKind};
    use vliw_machine::LatencyModel as MachineLatency;

    fn machine(fus: usize) -> Machine {
        Machine::single_cluster(fus, 2, 32, MachineLatency::default())
    }

    #[test]
    fn res_mii_counts_per_class() {
        // 4 loads on a machine with 1 L/S unit -> ResMII 4.
        let mut b = DdgBuilder::new(LatencyModel::default());
        b.ops(OpKind::Load, 4);
        let g = b.finish();
        let m = Machine::single_cluster(3, 1, 32, MachineLatency::default());
        assert_eq!(res_mii(&g, &m).unwrap(), 4);
        // On a machine with 4 L/S units -> ResMII 1.
        let m12 = machine(12);
        assert_eq!(res_mii(&g, &m12).unwrap(), 1);
    }

    #[test]
    fn res_mii_rejects_missing_class() {
        let mut b = DdgBuilder::new(LatencyModel::default());
        b.op(OpKind::Copy);
        let g = b.finish();
        let m = Machine::single_cluster(6, 0, 32, MachineLatency::default());
        assert!(matches!(
            res_mii(&g, &m),
            Err(SchedError::NoFunctionalUnit { class: OpClass::Copy })
        ));
    }

    #[test]
    fn rec_mii_of_acyclic_graph_is_one() {
        let mut b = DdgBuilder::new(LatencyModel::default());
        let ld = b.op(OpKind::Load);
        let add = b.op(OpKind::Add);
        b.flow(ld, add);
        let g = b.finish();
        assert_eq!(rec_mii(&g), 1);
    }

    #[test]
    fn rec_mii_of_self_accumulator_equals_latency_over_distance() {
        // add -> add with latency 1, distance 1: RecMII = 1.
        let mut b = DdgBuilder::new(LatencyModel::default());
        let acc = b.op(OpKind::Add);
        b.flow_carried(acc, acc, 1);
        let g = b.finish();
        assert_eq!(rec_mii(&g), 1);

        // mul (latency 2) self-recurrence distance 1: RecMII = 2.
        let mut b = DdgBuilder::new(LatencyModel::default());
        let acc = b.op(OpKind::Mul);
        b.flow_carried(acc, acc, 1);
        let g = b.finish();
        assert_eq!(rec_mii(&g), 2);
    }

    #[test]
    fn rec_mii_of_two_op_circuit() {
        // a --(lat 2, d 0)--> b --(lat 3, d 1)--> a : delay 5, distance 1 -> RecMII 5.
        let mut b = DdgBuilder::new(LatencyModel::default());
        let x = b.op(OpKind::Add);
        let y = b.op(OpKind::Add);
        b.edge_with_latency(x, y, DepKind::Flow, 2, 0);
        b.edge_with_latency(y, x, DepKind::Flow, 3, 1);
        let g = b.finish();
        assert_eq!(rec_mii(&g), 5);
    }

    #[test]
    fn rec_mii_divides_by_distance() {
        // Circuit with delay 6 spread over distance 3 -> RecMII = 2.
        let mut b = DdgBuilder::new(LatencyModel::default());
        let x = b.op(OpKind::Add);
        let y = b.op(OpKind::Add);
        b.edge_with_latency(x, y, DepKind::Flow, 3, 0);
        b.edge_with_latency(y, x, DepKind::Flow, 3, 3);
        let g = b.finish();
        assert_eq!(rec_mii(&g), 2);
    }

    #[test]
    fn rec_mii_takes_worst_circuit() {
        let mut b = DdgBuilder::new(LatencyModel::default());
        let x = b.op(OpKind::Add);
        let y = b.op(OpKind::Add);
        let z = b.op(OpKind::Mul);
        // Circuit 1: x <-> y, delay 2, distance 2 -> needs II >= 1.
        b.edge_with_latency(x, y, DepKind::Flow, 1, 0);
        b.edge_with_latency(y, x, DepKind::Flow, 1, 2);
        // Circuit 2: z self loop delay 8 distance 2 -> needs II >= 4.
        b.edge_with_latency(z, z, DepKind::Flow, 8, 2);
        let g = b.finish();
        assert_eq!(rec_mii(&g), 4);
    }

    #[test]
    fn mii_is_max_of_both_bounds() {
        let lat = LatencyModel::default();
        let dot = kernels::dot_product(lat, 100);
        let m1 = Machine::single_cluster(3, 1, 32, lat);
        let v = mii(&dot.ddg, &m1).unwrap();
        let r = res_mii(&dot.ddg, &m1).unwrap();
        let c = rec_mii(&dot.ddg);
        assert_eq!(v, r.max(c));
        assert!(v >= 1);
    }

    #[test]
    fn positive_cycle_detection_matches_rec_mii() {
        let lat = LatencyModel::default();
        let l = kernels::first_order_recurrence(lat, 100);
        let r = rec_mii(&l.ddg);
        assert!(r >= 2, "mul+add recurrence should force RecMII above 1, got {r}");
        assert!(!has_positive_cycle(&l.ddg, r));
        if r > 1 {
            assert!(has_positive_cycle(&l.ddg, r - 1));
        }
    }

    /// The pre-SCC implementation, kept as an executable oracle: whole-graph
    /// binary search over [1, Σ latency] with `has_positive_cycle` probes.
    fn rec_mii_whole_graph(ddg: &Ddg) -> u32 {
        let mut lo = 1i64;
        let mut hi = ddg.edges().map(|e| e.latency as i64).sum::<i64>().max(1);
        if has_positive_cycle(ddg, hi as u32) {
            return hi as u32;
        }
        while lo < hi {
            let mid = (lo + hi) / 2;
            if has_positive_cycle(ddg, mid as u32) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo as u32
    }

    #[test]
    fn scc_rec_mii_matches_the_whole_graph_search_on_all_kernels() {
        for lp in kernels::all_kernels(LatencyModel::default()) {
            assert_eq!(rec_mii(&lp.ddg), rec_mii_whole_graph(&lp.ddg), "{}", lp.name);
        }
    }

    #[test]
    fn scc_rec_mii_matches_the_whole_graph_search_on_multi_circuit_graphs() {
        // Two disjoint circuits of different severity plus an acyclic tail.
        let mut b = DdgBuilder::new(LatencyModel::default());
        let a = b.op(OpKind::Mul);
        let c = b.op(OpKind::Add);
        let d = b.op(OpKind::Add);
        let e = b.op(OpKind::Load);
        b.edge_with_latency(a, c, DepKind::Flow, 2, 0);
        b.edge_with_latency(c, a, DepKind::Flow, 4, 1);
        b.edge_with_latency(d, d, DepKind::Flow, 3, 2);
        b.flow(c, e);
        let g = b.finish();
        assert_eq!(rec_mii(&g), 6);
        assert_eq!(rec_mii(&g), rec_mii_whole_graph(&g));
    }

    #[test]
    fn rec_mii_of_empty_graph() {
        let g = Ddg::new();
        assert_eq!(rec_mii(&g), 1);
        assert!(!has_positive_cycle(&g, 1));
    }
}
