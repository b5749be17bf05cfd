//! Space-time routing: a Dijkstra router over the (PE, cycle) grid and
//! a PathFinder-style negotiated-congestion loop that routes all edges
//! of a placed mapping.
//!
//! Routing is the FPGA-lineage half of CGRA mapping (the survey's
//! "historically the meeting point between VLIW compilation and FPGA
//! place-and-route"): values move one hop per cycle, holding a register
//! wherever they wait, and competing routes negotiate via history costs
//! until no resource is over-subscribed.
//!
//! The hot path is [`find_route_with`]: neighbour expansion iterates
//! CSR slices from a shared [`TopologyCache`], whose hop table also
//! bounds the search to the states the goal is still in reach of, and
//! the Dijkstra buffers live in a caller-owned [`RouterScratch`], so
//! steady-state routing (the negotiation loop, a mapper's placement
//! inner loop) performs no heap allocation per search. The pre-cache,
//! undirected implementation is the reference `tests/route_props.rs`
//! compares against, step for step.

use crate::mapping::{Placement, Route};
use crate::telemetry::{Counter, Phase, Telemetry};
use cgra_arch::{Fabric, PeId, SpaceTime, TopologyCache};
use cgra_ir::Dfg;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Scaled-integer router costs (1 step = `STEP_COST`). Public because it
/// defines route cost: a reference router must charge the same.
pub const STEP_COST: u64 = 100;

/// Congestion history per (pe, slot), used by the PathFinder loop.
#[derive(Debug, Clone)]
pub struct History {
    num_pes: usize,
    ii: u32,
    cost: Vec<u64>,
}

impl History {
    pub fn new(fabric: &Fabric, ii: u32) -> Self {
        History {
            num_pes: fabric.num_pes(),
            ii,
            cost: vec![0; fabric.num_pes() * ii as usize],
        }
    }

    /// History cost of entering `pe` at cycle `t`. Public for the same
    /// reason as [`STEP_COST`].
    #[inline]
    pub fn get(&self, pe: PeId, t: u32) -> u64 {
        self.cost[(t % self.ii) as usize * self.num_pes + pe.index()]
    }

    /// Raise the cost of entering `pe` at cycle `t` (any cycle of the
    /// slot) by `amount`.
    #[inline]
    pub fn bump(&mut self, pe: PeId, t: u32, amount: u64) {
        self.cost[(t % self.ii) as usize * self.num_pes + pe.index()] += amount;
    }
}

/// Options controlling a single-edge route search.
#[derive(Debug, Clone, Copy)]
pub struct RouteOpts {
    /// Penalty per unit of register over-subscription entered.
    pub congestion_penalty: u64,
    /// When false, over-subscribed registers are hard-forbidden
    /// (feasible-only routing); when true they are allowed at a cost
    /// (negotiation mode).
    pub allow_overuse: bool,
}

impl Default for RouteOpts {
    fn default() -> Self {
        RouteOpts {
            congestion_penalty: 3 * STEP_COST,
            allow_overuse: false,
        }
    }
}

/// Width of the `step` and `run` fields of a packed heap key.
const KEY_FIELD_BITS: u32 = 24;
const KEY_FIELD_MASK: u128 = (1 << KEY_FIELD_BITS) - 1;

/// A Dijkstra state `(cost, pe, step, run)` as one heap key, laid out
/// `cost:64 | pe:16 | step:24 | run:24`. Integer order on the key is
/// the tuple's lexicographic order, so the heap pops states in the
/// tuple's order (which decides among equal-cost routes) while a sift
/// compares one integer instead of four fields. `step` and `run` must
/// be below `2^24`; `find_route_with` asserts it once per search.
#[inline]
fn pack_key(cost: u64, pe: PeId, step: usize, run: usize) -> u128 {
    (cost as u128) << 64
        | (pe.0 as u128) << (2 * KEY_FIELD_BITS)
        | (step as u128) << KEY_FIELD_BITS
        | run as u128
}

#[inline]
fn unpack_key(key: u128) -> (u64, PeId, usize, usize) {
    (
        (key >> 64) as u64,
        PeId((key >> (2 * KEY_FIELD_BITS)) as u16),
        ((key >> KEY_FIELD_BITS) & KEY_FIELD_MASK) as usize,
        (key & KEY_FIELD_MASK) as usize,
    )
}

/// Reusable buffers for [`find_route_with`]: the Dijkstra arrays and
/// the dense map of cells the routed value already occupies.
///
/// The scratch-reuse contract (DESIGN.md §7): a `RouterScratch` is
/// exclusively borrowed for the duration of one search and only ever
/// *grows* its buffers, so a scratch threaded through a negotiation
/// loop or a placement search reaches a steady state where routing
/// performs no heap allocation at all. Nothing a search decides
/// depends on an earlier one: `dist` and the shared-cell bitmap are
/// refilled per search, and `prev` is read only at states whose `dist`
/// the same search wrote. The bitmap outlives the search that filled
/// it, for [`is_shared`](Self::is_shared).
#[derive(Debug, Default)]
pub struct RouterScratch {
    dist: Vec<u64>,
    /// Predecessor `(pe, run)` of every state `dist` has reached.
    prev: Vec<(PeId, usize)>,
    /// Min-heap of [`pack_key`]ed states.
    heap: BinaryHeap<Reverse<u128>>,
    /// One bit per `(step, pe)` of the last search's window.
    shared: Vec<u64>,
    /// First cycle, length in cycles and PE count of that window.
    window: (u32, usize, usize),
}

impl RouterScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-initialise for a search of `span` cycles from `tr` over `n`
    /// PEs and `states` Dijkstra states. `clear` + `resize` never
    /// shrink capacity: after warm-up this is a pure `memset`-style
    /// fill.
    fn reset(&mut self, tr: u32, span: usize, n: usize, states: usize) {
        self.dist.clear();
        self.dist.resize(states, u64::MAX);
        if self.prev.len() < states {
            self.prev.resize(states, (PeId(0), 0));
        }
        self.heap.clear();
        self.shared.clear();
        self.shared.resize((span * n).div_ceil(64), 0);
        self.window = (tr, span, n);
    }

    /// Bit index of `(pe, t)`, or `None` outside the window.
    #[inline]
    fn cell(&self, pe: PeId, t: u32) -> Option<usize> {
        let (tr, span, n) = self.window;
        let step = t.checked_sub(tr)? as usize;
        (step < span).then(|| step * n + pe.index())
    }

    #[inline]
    fn share(&mut self, pe: PeId, t: u32) {
        if let Some(i) = self.cell(pe, t) {
            self.shared[i / 64] |= 1 << (i % 64);
        }
    }

    /// Was `(pe, t)` one of the shared cells of the last search that
    /// ran? Callers use it to charge a found route's registers only
    /// where the value was not stored already.
    #[inline]
    pub fn is_shared(&self, pe: PeId, t: u32) -> bool {
        self.cell(pe, t)
            .is_some_and(|i| (self.shared[i / 64] >> (i % 64)) & 1 == 1)
    }
}

/// One edge to route: which, whose value, and between which cells.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Query {
    pub eid: cgra_ir::EdgeId,
    pub src: cgra_ir::NodeId,
    pub from: PeId,
    pub tr: u32,
    pub to: PeId,
    pub tc: u32,
}

/// Space before time: can a value leaving `from` at cycle `tr` be on
/// `to` at cycle `tc` at all, moving one hop per cycle? False too when
/// `tc < tr`. Every route query a caller counts as a search has passed
/// this.
#[inline]
pub(crate) fn hop_feasible(topo: &TopologyCache, from: PeId, tr: u32, to: PeId, tc: u32) -> bool {
    tc >= tr && topo.hops(from, to) <= tc - tr
}

/// Find a cheapest route from `(from, tr)` to `(to, tc)` over the
/// current occupancy.
///
/// `shared` lists `(pe, t)` positions already occupied by the *same
/// value* (fan-out reuse): entering them is free and never counts as
/// congestion. Returns `None` when no route exists under the options.
///
/// Convenience wrapper over [`find_route_with`] for one-off searches;
/// hot paths thread a [`TopologyCache`] and a [`RouterScratch`] instead.
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
    let topo = TopologyCache::build(fabric);
    find_route_with(
        fabric,
        &topo,
        st,
        from,
        tr,
        to,
        tc,
        shared.iter().copied(),
        hist,
        opts,
        &mut RouterScratch::new(),
    )
}

/// Cache-backed, goal-directed, allocation-free (in steady state)
/// route search. Neighbour expansion walks `topo`'s CSR slices, the
/// Dijkstra buffers are reused from `scratch`, and `topo`'s hop table
/// bounds the search: a query whose endpoints are more hops apart than
/// it has cycles is answered by that one lookup (before `shared` is
/// even read), and no state is relaxed from which `to` is out of reach
/// in the cycles left. The bound is admissible, so every state that can
/// reach the goal keeps its `dist`, its `prev` and its place in the pop
/// order: the returned route is the one an undirected search returns.
///
/// `shared` may name cells outside `tr..=tc`; they are ignored. After a
/// search ran, [`RouterScratch::is_shared`] answers for its cells.
#[allow(clippy::too_many_arguments)]
pub fn find_route_with(
    fabric: &Fabric,
    topo: &TopologyCache,
    st: &SpaceTime,
    from: PeId,
    tr: u32,
    to: PeId,
    tc: u32,
    shared: impl IntoIterator<Item = (PeId, u32)>,
    hist: Option<&History>,
    opts: RouteOpts,
    scratch: &mut RouterScratch,
) -> Option<Route> {
    if !hop_feasible(topo, from, tr, to, tc) {
        return None;
    }
    let span = (tc - tr) as usize + 1;
    let n = fabric.num_pes();
    // Dijkstra over states (pe, step, run) where `run` is the number of
    // consecutive cycles spent on `pe` ending at this step. The run
    // matters because a hold longer than II wraps onto modulo slots the
    // path itself already occupies: the k-th consecutive cycle on a PE
    // adds `⌊(k−1)/II⌋` of *self* pressure on its slot, which a router
    // unaware of it would over-subscribe (the classic II=1 trap).
    let ii = st.ii();
    let cap_run = span.min((ii as usize) * fabric.rf_size as usize + 1);
    // Every `step < span` and `run <= cap_run <= span` fits its key field.
    assert!(
        span < 1 << KEY_FIELD_BITS,
        "route window of {span} cycles overflows the heap key"
    );
    let idx = |pe: PeId, step: usize, run: usize| (step * n + pe.index()) * (cap_run + 1) + run;
    scratch.reset(tr, span, n, n * span * (cap_run + 1));
    for (pe, t) in shared {
        scratch.share(pe, t);
    }
    let RouterScratch {
        dist,
        prev,
        heap,
        shared,
        ..
    } = scratch;

    // `own_extra`: how many times this path already occupies the slot
    // being entered (self-wrap pressure).
    let enter_cost = |pe: PeId, step: usize, own_extra: u32| -> Option<u64> {
        let cell = step * n + pe.index();
        if (shared[cell / 64] >> (cell % 64)) & 1 == 1 {
            return Some(0); // value already stored here by a sibling edge
        }
        let t = tr + step as u32;
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
    // Can a value on `pe` at `step` still be on `to` at the last step?
    // A state that cannot is never the predecessor of one that can, so
    // leaving it out changes nothing the walk-back reads.
    let reaches = |pe: PeId, step: usize| topo.hops(pe, to) as usize <= span - 1 - step;

    // The producer's output register at (from, tr) is charged too —
    // the value must exist there.
    let start_cost = enter_cost(from, 0, 0)?;
    dist[idx(from, 0, 1)] = start_cost;

    heap.push(Reverse(pack_key(start_cost, from, 0, 1)));
    while let Some(Reverse(key)) = heap.pop() {
        let (d, pe, step, run) = unpack_key(key);
        if d > dist[idx(pe, step, run)] {
            continue;
        }
        if step + 1 == span {
            continue; // final cycle reached; no further moves
        }
        // Hold: run grows; self-wrap pressure is run / II.
        let hold_run = (run + 1).min(cap_run);
        let own_extra = (run as u32) / ii;
        if reaches(pe, step + 1) {
            if let Some(c) = enter_cost(pe, step + 1, own_extra) {
                let nd = d + c;
                let ni = idx(pe, step + 1, hold_run);
                if nd < dist[ni] {
                    dist[ni] = nd;
                    prev[ni] = (pe, run);
                    heap.push(Reverse(pack_key(nd, pe, step + 1, hold_run)));
                }
            }
        }
        // Hop: run resets. (Revisiting a PE after leaving it is not
        // self-tracked; callers guard with a final overuse check.)
        for &nxt in topo.neighbors(pe) {
            if !reaches(nxt, step + 1) {
                continue;
            }
            if let Some(c) = enter_cost(nxt, step + 1, 0) {
                let nd = d + c;
                let ni = idx(nxt, step + 1, 1);
                if nd < dist[ni] {
                    dist[ni] = nd;
                    prev[ni] = (pe, run);
                    heap.push(Reverse(pack_key(nd, nxt, step + 1, 1)));
                }
            }
        }
    }

    // Best terminal state at the consumer.
    let best_run = (1..=cap_run)
        .filter(|&r| dist[idx(to, span - 1, r)] != u64::MAX)
        .min_by_key(|&r| dist[idx(to, span - 1, r)])?;
    // Walk back.
    let mut steps = vec![to; span];
    let mut cur = to;
    let mut cur_run = best_run;
    for step in (1..span).rev() {
        let (p, r) = prev[idx(cur, step, cur_run)];
        steps[step - 1] = p;
        cur = p;
        cur_run = r;
    }
    debug_assert_eq!(
        steps[0], from,
        "every reached state descends from the start"
    );
    Some(Route {
        start_time: tr,
        steps,
    })
}

/// The cells routes of producer `src` already occupy (for fan-out
/// sharing), in the form [`find_route_with`] takes them.
fn shared_positions<'a>(
    dfg: &'a Dfg,
    routes: &'a [Route],
    src: cgra_ir::NodeId,
) -> impl Iterator<Item = (PeId, u32)> + 'a {
    dfg.out_edges(src)
        .flat_map(|(eid, _)| routes[eid.index()].cells())
}

/// Route every edge of a fully placed mapping with PathFinder-style
/// negotiated congestion. Returns the routes on success.
///
/// `rounds` bounds the rip-up/re-route iterations; `negotiated = false`
/// degrades to a single feasible-only pass (the ablation baseline).
///
/// Builds a fresh [`TopologyCache`] per call; callers in a loop should
/// build the cache once and use [`route_all_with`].
pub fn route_all(
    fabric: &Fabric,
    dfg: &Dfg,
    place: &[Placement],
    ii: u32,
    rounds: u32,
    negotiated: bool,
) -> Option<Vec<Route>> {
    let topo = TopologyCache::build(fabric);
    route_all_with(
        fabric,
        &topo,
        dfg,
        place,
        ii,
        rounds,
        negotiated,
        &Telemetry::off(),
    )
}

/// [`route_all`] against a prebuilt [`TopologyCache`] and with a
/// telemetry sink: the whole negotiation is timed as a [`Phase::Route`]
/// span and every single-edge search is counted.
///
/// One `SpaceTime`, one `RouterScratch`, and one `History` are reused
/// across all edges and negotiation rounds — after the first round the
/// loop is allocation-free apart from the returned route steps.
#[allow(clippy::too_many_arguments)]
pub fn route_all_with(
    fabric: &Fabric,
    topo: &TopologyCache,
    dfg: &Dfg,
    place: &[Placement],
    ii: u32,
    rounds: u32,
    negotiated: bool,
    tele: &Telemetry,
) -> Option<Vec<Route>> {
    let _span = tele.span_ii(Phase::Route, ii);
    // Each edge's endpoints in space and time. An edge consumed before
    // its value is ready (a placement bug) or with fewer cycles than
    // hops fails in every round, whatever the others negotiate.
    let mut order = Vec::with_capacity(dfg.edge_count());
    for (eid, e) in dfg.edges() {
        let (sp, dp) = (place[e.src.index()], place[e.dst.index()]);
        let tr = sp.time + fabric.latency_of(dfg.op(e.src));
        let tc = dp.time + ii * e.dist;
        if !hop_feasible(topo, sp.pe, tr, dp.pe, tc) {
            return None;
        }
        order.push(Query {
            eid,
            src: e.src,
            from: sp.pe,
            tr,
            to: dp.pe,
            tc,
        });
    }
    // Route longer-distance edges first (harder to satisfy).
    order.sort_by_key(|q| std::cmp::Reverse(topo.hops(q.from, q.to)));

    let mut routes = vec![Route::default(); dfg.edge_count()];
    let mut hist = History::new(fabric, ii);
    let mut scratch = RouterScratch::new();
    let total_rounds = if negotiated { rounds.max(1) } else { 1 };
    let mut st = SpaceTime::new(fabric, ii);
    for round in 0..total_rounds {
        let opts = RouteOpts {
            allow_overuse: negotiated && round + 1 < total_rounds,
            ..RouteOpts::default()
        };
        // (Re)route everything against fresh occupancy.
        st.clear();
        for p in place {
            st.occupy_fu(p.pe, p.time);
        }
        for r in &mut routes {
            r.start_time = 0;
            r.steps.clear();
        }
        let mut ok = true;
        for q in &order {
            tele.bump(Counter::RoutingCalls);
            let route_t0 = tele.is_enabled().then(std::time::Instant::now);
            let routed = find_route_with(
                fabric,
                topo,
                &st,
                q.from,
                q.tr,
                q.to,
                q.tc,
                shared_positions(dfg, &routes, q.src),
                Some(&hist),
                opts,
                &mut scratch,
            );
            if let Some(t0) = route_t0 {
                tele.record_route_us(t0.elapsed().as_micros() as u64);
            }
            match routed {
                Some(r) => {
                    for (pe, t) in r.cells() {
                        if !scratch.is_shared(pe, t) {
                            st.occupy_reg(pe, t);
                        }
                    }
                    routes[q.eid.index()] = r;
                }
                None => {
                    tele.bump(Counter::RoutingFailures);
                    ok = false;
                    break;
                }
            }
        }
        if ok && st.overuse() == 0 {
            return Some(routes);
        }
        if !negotiated {
            return None;
        }
        // Bump history on over-subscribed registers.
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

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::Topology;
    use cgra_ir::OpKind;

    fn mesh() -> Fabric {
        Fabric::homogeneous(4, 4, Topology::Mesh)
    }

    #[test]
    fn packed_key_orders_like_the_tuple() {
        // Ties in every leading field, and each field at its extremes.
        let top = (1 << KEY_FIELD_BITS) - 1;
        let mut states = Vec::new();
        for d in [0, 100, 101, u64::MAX] {
            for pe in [0, 1, u16::MAX] {
                for step in [0, 1, top] {
                    for run in [0, 1, top] {
                        states.push((d, pe, step, run));
                    }
                }
            }
        }
        for &a in &states {
            let ka = pack_key(a.0, PeId(a.1), a.2, a.3);
            assert_eq!(unpack_key(ka), (a.0, PeId(a.1), a.2, a.3));
            for &b in &states {
                let kb = pack_key(b.0, PeId(b.1), b.2, b.3);
                assert_eq!(ka.cmp(&kb), a.cmp(&b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn direct_route_same_pe() {
        let f = mesh();
        let st = SpaceTime::new(&f, 4);
        let r = find_route(
            &f,
            &st,
            PeId(5),
            3,
            PeId(5),
            3,
            &HashSet::new(),
            None,
            RouteOpts::default(),
        )
        .unwrap();
        assert_eq!(r.steps, vec![PeId(5)]);
        assert_eq!(r.start_time, 3);
    }

    #[test]
    fn route_respects_hop_budget() {
        let f = mesh();
        let st = SpaceTime::new(&f, 8);
        // pe0 -> pe15 needs 6 hops; 5 cycles of slack is not enough.
        assert!(find_route(
            &f,
            &st,
            PeId(0),
            0,
            PeId(15),
            5,
            &HashSet::new(),
            None,
            RouteOpts::default()
        )
        .is_none());
        let r = find_route(
            &f,
            &st,
            PeId(0),
            0,
            PeId(15),
            6,
            &HashSet::new(),
            None,
            RouteOpts::default(),
        )
        .unwrap();
        assert_eq!(r.hops(), 6);
        assert_eq!(r.steps.len(), 7);
        // Consecutive steps are adjacent or equal.
        let topo = TopologyCache::build(&f);
        for w in r.steps.windows(2) {
            assert!(w[0] == w[1] || topo.adjacent(w[0], w[1]));
        }
    }

    #[test]
    fn route_avoids_full_registers() {
        let f = mesh();
        let mut st = SpaceTime::new(&f, 1);
        // Saturate pe1's registers at every slot (ii=1 so one slot).
        for _ in 0..f.rf_size {
            st.occupy_reg(PeId(1), 0);
        }
        // pe0 -> pe2 in 2 cycles must pass through pe1 (row 0) or detour
        // via pe4/pe5/pe6 which takes 4 hops; 2 cycles forbid the detour,
        // so routing must fail in feasible-only mode.
        let r = find_route(
            &f,
            &st,
            PeId(0),
            0,
            PeId(2),
            2,
            &HashSet::new(),
            None,
            RouteOpts::default(),
        );
        assert!(r.is_none());
        // With 4 cycles of slack the detour through row 1 works.
        let r = find_route(
            &f,
            &st,
            PeId(0),
            0,
            PeId(2),
            4,
            &HashSet::new(),
            None,
            RouteOpts::default(),
        )
        .unwrap();
        assert!(r.steps.iter().all(|&pe| pe != PeId(1)));
    }

    #[test]
    fn shared_positions_are_free() {
        let f = mesh();
        let mut st = SpaceTime::new(&f, 1);
        for _ in 0..f.rf_size {
            st.occupy_reg(PeId(1), 0);
        }
        // Same-value sharing lets the route pass through the full pe1.
        let mut shared = HashSet::new();
        for t in 0..=2 {
            shared.insert((PeId(1), t));
        }
        shared.insert((PeId(0), 0));
        let r = find_route(
            &f,
            &st,
            PeId(0),
            0,
            PeId(2),
            2,
            &shared,
            None,
            RouteOpts::default(),
        );
        assert!(r.is_some());
    }

    #[test]
    fn route_all_simple_chain() {
        // in -> not -> out placed on a row; routes must connect them.
        let f = mesh();
        let mut dfg = Dfg::new("chain");
        let a = dfg.add_node(OpKind::Input(0));
        let b = dfg.add_node(OpKind::Not);
        let c = dfg.add_node(OpKind::Output(0));
        dfg.connect(a, b, 0);
        dfg.connect(b, c, 0);
        let place = vec![
            Placement {
                pe: PeId(0),
                time: 0,
            },
            Placement {
                pe: PeId(1),
                time: 2,
            },
            Placement {
                pe: PeId(2),
                time: 4,
            },
        ];
        let routes = route_all(&f, &dfg, &place, 8, 8, true).unwrap();
        assert_eq!(routes.len(), 2);
        assert_eq!(routes[0].start_time, 1);
        assert_eq!(*routes[0].steps.last().unwrap(), PeId(1));
        assert_eq!(*routes[1].steps.first().unwrap(), PeId(1));
    }

    #[test]
    fn route_all_rejects_latency_violation() {
        let f = mesh();
        let mut dfg = Dfg::new("bad");
        let a = dfg.add_node(OpKind::Input(0));
        let b = dfg.add_node(OpKind::Not);
        dfg.connect(a, b, 0);
        // Consumer scheduled before the producer's result is ready.
        let place = vec![
            Placement {
                pe: PeId(0),
                time: 5,
            },
            Placement {
                pe: PeId(1),
                time: 0,
            },
        ];
        assert!(route_all(&f, &dfg, &place, 8, 4, true).is_none());
    }

    #[test]
    fn negotiation_beats_single_pass_under_pressure() {
        // Many values crossing one narrow cut: single-pass greedy
        // routing can dead-end; negotiation should succeed at least as
        // often. We only assert negotiated success here.
        let mut f = Fabric::homogeneous(2, 3, Topology::Mesh);
        f.rf_size = 1;
        let mut dfg = Dfg::new("cross");
        // Two values from column 0 to column 2 simultaneously.
        let mut place = Vec::new();
        for row in 0..2u16 {
            let a = dfg.add_node(OpKind::Input(row as u32));
            let b = dfg.add_node(OpKind::Not);
            dfg.connect(a, b, 0);
            place.push(Placement {
                pe: f.pe_at(row, 0),
                time: 0,
            });
            place.push(Placement {
                pe: f.pe_at(row, 2),
                time: 3,
            });
        }
        let routes = route_all(&f, &dfg, &place, 6, 10, true);
        assert!(routes.is_some());
    }
}
