//! The pre-cache router, frozen verbatim: `Fabric::neighbors` Vec
//! allocation per node expansion, fresh `dist`/`prev` per search, and a
//! `Fabric::hop_distance` all-pairs BFS per `route_all` call.
//!
//! This is the reference `route_props.rs` holds the shipped router to,
//! step for step, so it compares against the real historical baseline
//! rather than a strawman. It takes `STEP_COST` and `History::get` from
//! the shipped router because those define what a route costs.

use cgra_arch::{Fabric, PeId, SpaceTime};
use cgra_ir::Dfg;
use cgra_mapper_core::mapping::{Mapping, Placement, Route};
use cgra_mapper_core::route::{History, RouteOpts, STEP_COST};
use std::collections::{BinaryHeap, HashSet};

/// Positions already used by routes of the same producer (for
/// fan-out sharing), as the hash set the pre-cache router probed.
fn shared_positions(dfg: &Dfg, mapping: &Mapping, src: cgra_ir::NodeId) -> HashSet<(PeId, u32)> {
    let mut set = HashSet::new();
    for (eid, e) in dfg.edges() {
        if e.src == src {
            let r = &mapping.routes[eid.index()];
            for (i, &pe) in r.steps.iter().enumerate() {
                set.insert((pe, r.start_time + i as u32));
            }
        }
    }
    set
}

/// Pre-cache `route::find_route` (see module docs).
#[allow(clippy::too_many_arguments)]
pub fn find_route(
    fabric: &Fabric,
    st: &SpaceTime,
    from: PeId,
    tr: u32,
    to: PeId,
    tc: u32,
    shared: &HashSet<(PeId, u32)>,
    hist: Option<&History>,
    opts: RouteOpts,
) -> Option<Route> {
    if tc < tr {
        return None;
    }
    let span = (tc - tr) as usize + 1;
    let n = fabric.num_pes();
    let ii = st.ii();

    let cap_run = span.min((ii as usize) * fabric.rf_size as usize + 1);
    let idx = |pe: PeId, step: usize, run: usize| (step * n + pe.index()) * (cap_run + 1) + run;
    let mut dist = vec![u64::MAX; n * span * (cap_run + 1)];
    let mut prev: Vec<Option<(PeId, usize)>> = vec![None; n * span * (cap_run + 1)];

    let enter_cost = |pe: PeId, t: u32, own_extra: u32| -> Option<u64> {
        if shared.contains(&(pe, t)) {
            return Some(0);
        }
        let headroom = st.reg_headroom(pe, t);
        let mut c = STEP_COST;
        if headroom < own_extra + 1 {
            if !opts.allow_overuse {
                return None;
            }
            c += opts.congestion_penalty * (st.reg_count(pe, t) as u64 + own_extra as u64 + 1);
        }
        if let Some(h) = hist {
            c += h.get(pe, t);
        }
        Some(c)
    };

    let start_cost = enter_cost(from, tr, 0)?;
    dist[idx(from, 0, 1)] = start_cost;

    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u16, usize, usize)>> = BinaryHeap::new();
    heap.push(std::cmp::Reverse((start_cost, from.0, 0, 1)));
    while let Some(std::cmp::Reverse((d, pe_raw, step, run))) = heap.pop() {
        let pe = PeId(pe_raw);
        if d > dist[idx(pe, step, run)] {
            continue;
        }
        if step + 1 == span {
            continue;
        }
        let t_next = tr + step as u32 + 1;
        let hold_run = (run + 1).min(cap_run);
        let own_extra = (run as u32) / ii;
        if let Some(c) = enter_cost(pe, t_next, own_extra) {
            let nd = d + c;
            let ni = idx(pe, step + 1, hold_run);
            if nd < dist[ni] {
                dist[ni] = nd;
                prev[ni] = Some((pe, run));
                heap.push(std::cmp::Reverse((nd, pe.0, step + 1, hold_run)));
            }
        }
        for nxt in fabric.neighbors(pe) {
            if let Some(c) = enter_cost(nxt, t_next, 0) {
                let nd = d + c;
                let ni = idx(nxt, step + 1, 1);
                if nd < dist[ni] {
                    dist[ni] = nd;
                    prev[ni] = Some((pe, run));
                    heap.push(std::cmp::Reverse((nd, nxt.0, step + 1, 1)));
                }
            }
        }
    }

    let best_run = (1..=cap_run)
        .filter(|&r| dist[idx(to, span - 1, r)] != u64::MAX)
        .min_by_key(|&r| dist[idx(to, span - 1, r)])?;
    let mut steps = vec![to; span];
    let mut cur = to;
    let mut cur_run = best_run;
    for step in (1..span).rev() {
        let (p, r) = prev[idx(cur, step, cur_run)].expect("reached state has predecessor");
        steps[step - 1] = p;
        cur = p;
        cur_run = r;
    }
    if steps[0] != from {
        return None;
    }
    Some(Route {
        start_time: tr,
        steps,
    })
}

/// Pre-cache `route::route_all` (see module docs).
pub fn route_all(
    fabric: &Fabric,
    dfg: &Dfg,
    place: &[Placement],
    ii: u32,
    rounds: u32,
    negotiated: bool,
) -> Option<Vec<Route>> {
    let mut mapping = Mapping {
        ii,
        place: place.to_vec(),
        routes: vec![Route::default(); dfg.edge_count()],
    };
    let mut hist = History::new(fabric, ii);

    let mut order: Vec<_> = dfg.edge_ids().collect();
    let hop = fabric.hop_distance();
    order.sort_by_key(|&eid| {
        let e = dfg.edge(eid);
        std::cmp::Reverse(hop[place[e.src.index()].pe.index()][place[e.dst.index()].pe.index()])
    });

    let total_rounds = if negotiated { rounds.max(1) } else { 1 };
    for round in 0..total_rounds {
        let allow = negotiated && round + 1 < total_rounds;
        let mut st = SpaceTime::new(fabric, ii);
        for p in place {
            st.occupy_fu(p.pe, p.time);
        }
        mapping.routes = vec![Route::default(); dfg.edge_count()];
        let mut ok = true;
        for &eid in &order {
            let e = dfg.edge(eid);
            let tr = mapping.ready_time(dfg, fabric, e.src);
            let tc = mapping.consume_time(dfg, eid);
            if tc < tr {
                return None;
            }
            let shared = shared_positions(dfg, &mapping, e.src);
            let opts = RouteOpts {
                allow_overuse: allow,
                ..RouteOpts::default()
            };
            let from = place[e.src.index()].pe;
            let to = place[e.dst.index()].pe;
            match find_route(fabric, &st, from, tr, to, tc, &shared, Some(&hist), opts) {
                Some(r) => {
                    for (i, &pe) in r.steps.iter().enumerate() {
                        let t = r.start_time + i as u32;
                        if !shared.contains(&(pe, t)) {
                            st.occupy_reg(pe, t);
                        }
                    }
                    mapping.routes[eid.index()] = r;
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok && st.overuse() == 0 {
            return Some(mapping.routes);
        }
        if !negotiated {
            return None;
        }
        for pe in fabric.pe_ids() {
            for slot in 0..ii {
                let over = st.reg_count(pe, slot).saturating_sub(fabric.rf_size);
                if over > 0 {
                    hist.bump(pe, slot, STEP_COST * over as u64);
                }
            }
        }
    }
    None
}
