//! Shared incremental place-and-route state used by the constructive
//! mappers (modulo list scheduling, EMS, RAMP, HiMap, branch & bound).
//!
//! Holds a partial placement, the routes of all edges whose endpoints
//! are both placed, and the corresponding MRRG occupancy. Placement
//! attempts are transactional: `try_place` either commits (operation
//! placed, all incident placeable edges routed, occupancy updated) or
//! leaves the state untouched.

use super::sweep::SweepCtx;
use crate::mapping::{Mapping, Placement, Route};
use crate::route::{find_route_with, hop_feasible, Query, RouteOpts, RouterScratch};
use crate::telemetry::{Counter, Phase, Telemetry};
use cgra_arch::{Fabric, PeId, SpaceTime, TopologyCache};
use cgra_ir::{graph, Dfg, Edge, EdgeId, NodeId, OpKind};
use std::collections::HashSet;

/// The constructive mappers' placement order — height-descending,
/// stable within topological order — and the heights themselves.
pub(crate) fn priority_order(dfg: &Dfg, fabric: &Fabric) -> (Vec<NodeId>, Vec<u32>) {
    let lat = |op: OpKind| fabric.latency_of(op);
    let height = graph::height(dfg, &lat);
    let mut order = dfg
        .topo_order()
        .expect("validated DFG is zero-distance acyclic");
    order.sort_by_key(|n| std::cmp::Reverse(height[n.index()]));
    (order, height)
}

pub(crate) struct SchedState<'a> {
    pub dfg: &'a Dfg,
    pub fabric: &'a Fabric,
    pub ii: u32,
    pub topo: &'a TopologyCache,
    pub place: Vec<Option<Placement>>,
    pub routes: Vec<Option<Route>>,
    pub st: SpaceTime,
    pub tele: Telemetry,
    /// Router buffers reused across every `try_place` route search.
    scratch: RouterScratch,
    /// The `try_place` in flight: the edges it has to route, and the
    /// register cells charged so far (its undo log).
    queries: Vec<Query>,
    new_regs: Vec<(PeId, u32)>,
}

impl<'a> SchedState<'a> {
    /// An empty partial mapping of `ctx`'s kernel at `ii`.
    pub fn new(ctx: &'a SweepCtx<'_>, ii: u32) -> Self {
        SchedState {
            dfg: ctx.dfg,
            fabric: ctx.fabric,
            ii,
            topo: &ctx.topo,
            place: vec![None; ctx.dfg.node_count()],
            routes: vec![None; ctx.dfg.edge_count()],
            st: SpaceTime::new(ctx.fabric, ii),
            tele: ctx.tele().clone(),
            scratch: RouterScratch::new(),
            queries: Vec::new(),
            new_regs: Vec::new(),
        }
    }

    #[inline]
    pub fn placed(&self, n: NodeId) -> Option<Placement> {
        self.place[n.index()]
    }

    /// Earliest feasible issue time from placed distance-0 predecessors
    /// (time component only; hops are enforced by routing).
    pub fn est(&self, n: NodeId) -> u32 {
        let mut t = 0;
        for (_, e) in self.dfg.in_edges(n) {
            if let Some(p) = self.place[e.src.index()] {
                let ready = p.time + self.fabric.latency_of(self.dfg.op(e.src));
                let bound = ready.saturating_sub(self.ii * e.dist);
                t = t.max(bound);
            }
        }
        t
    }

    /// Latest feasible issue time from placed successors, or `None` if
    /// unbounded.
    pub fn lst(&self, n: NodeId) -> Option<u32> {
        let mut t: Option<u32> = None;
        let lat = self.fabric.latency_of(self.dfg.op(n));
        for (_, e) in self.dfg.out_edges(n) {
            if let Some(p) = self.place[e.dst.index()] {
                let consume = p.time + self.ii * e.dist;
                let latest = consume.checked_sub(lat)?;
                t = Some(t.map(|x: u32| x.min(latest)).unwrap_or(latest));
            }
        }
        t
    }

    /// The issue-time window to scan for `n`: from its earliest start,
    /// `window_iis` IIs wide, cut at its latest start. `None` when the
    /// placed neighbours leave no feasible cycle.
    pub fn window(&self, n: NodeId, window_iis: u32) -> Option<(u32, u32)> {
        let est = self.est(n);
        let end = est + window_iis * self.ii;
        let end = self.lst(n).map_or(end, |l| l.min(end));
        (end >= est).then_some((est, end))
    }

    /// Scan `est..=end` cycle by cycle, trying the `cap` nearest PEs at
    /// each; commits the first `(pe, t)` that places.
    pub fn place_in_window(&mut self, n: NodeId, (est, end): (u32, u32), cap: usize) -> bool {
        // A failed attempt leaves the state untouched, so one ranking
        // serves the whole window.
        let pes = self.candidate_pes(n, cap);
        (est..=end).any(|t| pes.iter().any(|&pe| self.try_place(n, pe, t)))
    }

    /// The routing query `e` poses once both its ends are placed.
    fn query(&self, eid: EdgeId, e: &Edge) -> Option<Query> {
        let sp = self.place[e.src.index()]?;
        let dp = self.place[e.dst.index()]?;
        Some(Query {
            eid,
            src: e.src,
            from: sp.pe,
            tr: sp.time + self.fabric.latency_of(self.dfg.op(e.src)),
            to: dp.pe,
            tc: dp.time + self.ii * e.dist,
        })
    }

    /// Attempt to place `n` at `(pe, t)`: checks capability and FU
    /// availability, then routes every edge between `n` and already
    /// placed nodes. Commits and returns true on success.
    pub fn try_place(&mut self, n: NodeId, pe: PeId, t: u32) -> bool {
        self.tele.bump(Counter::PlacementsTried);
        let dfg = self.dfg;
        if !self.fabric.supports(pe, dfg.op(n)) || !self.st.fu_free(pe, t) {
            return false;
        }
        let saved_place = self.place[n.index()];
        self.place[n.index()] = Some(Placement { pe, time: t });
        // The edges this placement makes routable: unrouted, touching
        // `n`, other end placed. In edge-id order, because each route
        // is searched over the occupancy the earlier ones left. Space
        // before time: an edge with fewer cycles than hops sinks the
        // placement, and the hop table says so without a search or an
        // occupancy trial.
        self.queries.clear();
        for (eid, e) in dfg.edges() {
            if (e.src == n || e.dst == n) && self.routes[eid.index()].is_none() {
                if let Some(q) = self.query(eid, e) {
                    if !hop_feasible(self.topo, q.from, q.tr, q.to, q.tc) {
                        self.place[n.index()] = saved_place;
                        return false;
                    }
                    self.queries.push(q);
                }
            }
        }

        // Route in place, logging what to take back on failure.
        self.st.occupy_fu(pe, t);
        self.new_regs.clear();
        // Integrated P&R has no separate routing pass; account the
        // incremental edge-routing time as Route so profiles from
        // constructive mappers line up with the explicit-route families.
        let _route_span =
            (!self.queries.is_empty()).then(|| self.tele.span_ii(Phase::Route, self.ii));
        let mut routed = 0;
        while let Some(&q) = self.queries.get(routed) {
            self.tele.bump(Counter::RoutingCalls);
            let route_t0 = self.tele.is_enabled().then(std::time::Instant::now);
            // Cells the producer's routed edges (this attempt's
            // included) already hold the value in.
            let routes = &self.routes;
            let shared = dfg
                .out_edges(q.src)
                .filter_map(|(sibling, _)| routes[sibling.index()].as_ref())
                .flat_map(Route::cells);
            let found = find_route_with(
                self.fabric,
                self.topo,
                &self.st,
                q.from,
                q.tr,
                q.to,
                q.tc,
                shared,
                None,
                RouteOpts::default(),
                &mut self.scratch,
            );
            if let Some(t0) = route_t0 {
                self.tele.record_route_us(t0.elapsed().as_micros() as u64);
            }
            let Some(r) = found else {
                self.tele.bump(Counter::RoutingFailures);
                break;
            };
            for cell in r.cells() {
                if !self.scratch.is_shared(cell.0, cell.1) {
                    self.st.occupy_reg(cell.0, cell.1);
                    self.new_regs.push(cell);
                }
            }
            self.routes[q.eid.index()] = Some(r);
            routed += 1;
        }
        // Final integrity guard: the router tracks its own path's
        // self-wrap pressure but not revisits; reject any residual
        // over-subscription so committed states are always valid.
        if routed == self.queries.len() && self.st.overuse() == 0 {
            return true;
        }
        for &(p2, tt) in &self.new_regs {
            self.st.release_reg(p2, tt);
        }
        for q in &self.queries[..routed] {
            self.routes[q.eid.index()] = None;
        }
        self.st.release_fu(pe, t);
        self.place[n.index()] = saved_place;
        false
    }

    /// Remove `n`'s placement and every route touching it, rebuilding
    /// occupancy from scratch.
    pub fn unplace(&mut self, n: NodeId) {
        if self.place[n.index()].is_none() {
            return;
        }
        self.tele.bump(Counter::Backtracks);
        self.place[n.index()] = None;
        for (eid, e) in self.dfg.edges() {
            if e.src == n || e.dst == n {
                self.routes[eid.index()] = None;
            }
        }
        self.rebuild_occupancy();
    }

    /// Recompute `st` from the current placement and routes.
    pub fn rebuild_occupancy(&mut self) {
        let mut st = SpaceTime::new(self.fabric, self.ii);
        for p in self.place.iter().flatten() {
            st.occupy_fu(p.pe, p.time);
        }
        let mut seen: HashSet<(u32, PeId, u32)> = HashSet::new();
        for (eid, e) in self.dfg.edges() {
            if let Some(r) = &self.routes[eid.index()] {
                for (pe, t) in r.cells() {
                    if seen.insert((e.src.0, pe, t)) {
                        st.occupy_reg(pe, t);
                    }
                }
            }
        }
        self.st = st;
    }

    /// Candidate PEs for `n`, cheapest first by summed hop distance to
    /// placed neighbours (capped at `cap` candidates).
    pub fn candidate_pes(&self, n: NodeId, cap: usize) -> Vec<PeId> {
        let op = self.dfg.op(n);
        let mut scored: Vec<(u32, PeId)> = self
            .fabric
            .pe_ids()
            .filter(|&pe| self.fabric.supports(pe, op))
            .map(|pe| {
                let mut cost = 0u32;
                for (_, e) in self.dfg.in_edges(n) {
                    if let Some(p) = self.place[e.src.index()] {
                        cost += self.topo.hops(p.pe, pe);
                    }
                }
                for (_, e) in self.dfg.out_edges(n) {
                    if e.src != e.dst {
                        if let Some(p) = self.place[e.dst.index()] {
                            cost += self.topo.hops(pe, p.pe);
                        }
                    }
                }
                (cost, pe)
            })
            .collect();
        scored.sort_by_key(|&(c, pe)| (c, pe.0));
        scored.into_iter().take(cap).map(|(_, pe)| pe).collect()
    }

    /// Finish: all nodes placed and all edges routed?
    pub fn into_mapping(self) -> Option<Mapping> {
        let place: Option<Vec<Placement>> = self.place.into_iter().collect();
        let routes: Option<Vec<Route>> = self.routes.into_iter().collect();
        Some(Mapping {
            ii: self.ii,
            place: place?,
            routes: routes?,
        })
    }
}
