//! Graph analyses over DFGs: ASAP start times, critical path, height
//! priorities, and the recurrence-constrained minimum initiation
//! interval (RecMII).
//!
//! These are the analyses every modulo scheduler in the surveyed
//! literature starts from (Rau's iterative modulo scheduling, DRESC,
//! EMS, EPIMap, …).

use crate::dfg::{Dfg, NodeId};
use crate::op::OpKind;

/// Per-node latency model: cycles from operand arrival to result
/// availability. The IR is latency-agnostic; mappers supply the model
/// from the architecture description.
pub type LatencyFn<'a> = &'a dyn Fn(OpKind) -> u32;

/// Unit latency for every operation — the default of most CGRA papers
/// (one context per cycle, registered PE outputs).
pub fn unit_latency(_: OpKind) -> u32 {
    1
}

/// ASAP start times over the distance-0 DAG: earliest cycle each op can
/// issue given operand latencies. Sources start at 0.
pub fn asap(dfg: &Dfg, lat: LatencyFn) -> Vec<u32> {
    let order = dfg.topo_order().expect("DFG must be zero-distance acyclic");
    let mut t = vec![0u32; dfg.node_count()];
    for id in order {
        for (_, e) in dfg.in_edges(id) {
            if e.dist == 0 {
                t[id.index()] = t[id.index()].max(t[e.src.index()] + lat(dfg.op(e.src)));
            }
        }
    }
    t
}

/// Height of each node: longest latency-weighted path to any sink in the
/// distance-0 DAG. The classic list-scheduling priority.
pub fn height(dfg: &Dfg, lat: LatencyFn) -> Vec<u32> {
    let order = dfg.topo_order().expect("DFG must be zero-distance acyclic");
    let mut h = vec![0u32; dfg.node_count()];
    for &id in order.iter().rev() {
        let own_lat = lat(dfg.op(id));
        for (_, e) in dfg.out_edges(id) {
            if e.dist == 0 {
                h[id.index()] = h[id.index()].max(h[e.dst.index()] + own_lat);
            }
        }
        if dfg.out_edges(id).next().is_none() {
            h[id.index()] = 0;
        }
    }
    h
}

/// Latency-weighted critical-path length (the minimum schedule length
/// without resource constraints).
pub fn critical_path(dfg: &Dfg, lat: LatencyFn) -> u32 {
    let a = asap(dfg, lat);
    a.iter()
        .enumerate()
        .map(|(i, &s)| s + lat(dfg.op(NodeId(i as u32))))
        .max()
        .unwrap_or(0)
}

/// Recurrence-constrained minimum initiation interval:
/// `RecMII = max over cycles c of ceil(latency(c) / distance(c))`.
///
/// Computed by binary search on II: candidate II is feasible iff the
/// constraint system `t(dst) ≥ t(src) + lat(src) − II·dist(e)` has no
/// positive cycle, which Bellman-Ford detects on the edge weights
/// `lat(src) − II·dist`.
pub fn rec_mii(dfg: &Dfg, lat: LatencyFn) -> u32 {
    let n = dfg.node_count();
    if n == 0 {
        return 1;
    }
    let total_lat: i64 = dfg
        .node_ids()
        .map(|id| lat(dfg.op(id)) as i64)
        .sum::<i64>()
        .max(1);

    let feasible = |ii: i64| -> bool {
        // Longest-path Bellman-Ford; positive cycle => infeasible.
        let mut dist = vec![0i64; n];
        for round in 0..=n {
            let mut changed = false;
            for (_, e) in dfg.edges() {
                let w = lat(dfg.op(e.src)) as i64 - ii * e.dist as i64;
                let cand = dist[e.src.index()] + w;
                if cand > dist[e.dst.index()] {
                    dist[e.dst.index()] = cand;
                    changed = true;
                }
            }
            if !changed {
                return true;
            }
            if round == n {
                return false;
            }
        }
        true
    };

    let (mut lo, mut hi) = (1i64, total_lat);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if feasible(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo as u32
}

/// Resource-constrained minimum II for a fabric with `alu_slots` total
/// issue slots per cycle, of which `mul_slots` can multiply and
/// `mem_slots` can access memory.
pub fn res_mii(dfg: &Dfg, alu_slots: usize, mul_slots: usize, mem_slots: usize) -> u32 {
    let total = dfg.node_count();
    let muls = dfg.multiplier_ops();
    let mems = dfg.memory_ops();
    let div_ceil = |a: usize, b: usize| -> u32 {
        if b == 0 {
            if a == 0 {
                1
            } else {
                u32::MAX
            }
        } else {
            a.div_ceil(b).max(1) as u32
        }
    };
    div_ceil(total, alu_slots)
        .max(div_ceil(muls, mul_slots))
        .max(div_ceil(mems, mem_slots))
}

/// The minimum initiation interval: `max(ResMII, RecMII)`.
pub fn mii(dfg: &Dfg, lat: LatencyFn, alu_slots: usize, mul_slots: usize, mem_slots: usize) -> u32 {
    rec_mii(dfg, lat).max(res_mii(dfg, alu_slots, mul_slots, mem_slots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;

    #[test]
    fn dot_product_recmii_is_one() {
        // acc = acc + a*b: the self-recurrence has latency 1, distance 1.
        let g = kernels::dot_product();
        assert_eq!(rec_mii(&g, &unit_latency), 1);
    }

    #[test]
    fn long_recurrence_raises_recmii() {
        use crate::op::OpKind;
        // x[i] = (x[i-1] + 1) * 2 : cycle of 2 unit-latency ops, dist 1.
        let mut g = Dfg::new("rec2");
        let one = g.add_node(OpKind::Const(1));
        let two = g.add_node(OpKind::Const(2));
        let add = g.add_node(OpKind::Add);
        let mul = g.add_node(OpKind::Mul);
        g.connect(one, add, 1);
        g.connect(two, mul, 1);
        g.connect(add, mul, 0);
        g.connect_carried(mul, add, 0, 1, vec![0]);
        let o = g.add_node(OpKind::Output(0));
        g.connect(mul, o, 0);
        g.validate().unwrap();
        assert_eq!(rec_mii(&g, &unit_latency), 2);
    }

    #[test]
    fn distance_two_halves_recmii() {
        use crate::op::OpKind;
        // x[i] = x[i-2] + 1 : cycle latency 1, distance 2 -> RecMII 1.
        let mut g = Dfg::new("d2");
        let one = g.add_node(OpKind::Const(1));
        let add = g.add_node(OpKind::Add);
        g.connect(one, add, 1);
        g.connect_carried(add, add, 0, 2, vec![0, 0]);
        let o = g.add_node(OpKind::Output(0));
        g.connect(add, o, 0);
        g.validate().unwrap();
        assert_eq!(rec_mii(&g, &unit_latency), 1);

        // With latency 3 adders, RecMII = ceil(3/2) = 2.
        let lat3 = |k: OpKind| if k == OpKind::Add { 3 } else { 1 };
        assert_eq!(rec_mii(&g, &lat3), 2);
    }

    #[test]
    fn res_mii_counts_resources() {
        let g = kernels::dot_product(); // 5 ops, 1 mul, 0 mem
        assert_eq!(res_mii(&g, 16, 16, 4), 1);
        assert_eq!(res_mii(&g, 2, 1, 1), 3); // ceil(5/2)
        assert_eq!(res_mii(&g, 16, 0, 4), u32::MAX); // no multiplier
    }

    #[test]
    fn asap_alap_bracket_and_mobility() {
        let g = kernels::dot_product();
        let a = asap(&g, &unit_latency);
        assert!(a.contains(&0), "sources start at 0");
        for (_, e) in g.edges() {
            if e.dist == 0 {
                assert!(a[e.dst.index()] > a[e.src.index()], "{e:?}");
            }
        }
    }

    #[test]
    fn critical_path_of_chain() {
        use crate::op::OpKind;
        let mut g = Dfg::new("chain");
        let mut prev = g.add_node(OpKind::Input(0));
        for _ in 0..4 {
            let n = g.add_node(OpKind::Not);
            g.connect(prev, n, 0);
            prev = n;
        }
        let o = g.add_node(OpKind::Output(0));
        g.connect(prev, o, 0);
        g.validate().unwrap();
        assert_eq!(critical_path(&g, &unit_latency), 6);
        let h = height(&g, &unit_latency);
        assert_eq!(h[0], 5); // input is 5 hops above the sink
    }
}
