//! Shared machinery for the meta-heuristic mappers (SA, GA, QEA).
//!
//! All three search the *binding* space (one PE per operation, the
//! chromosome of GenMap) and derive the schedule from the binding, the
//! space/time decoupling of fixing placement first. A [`Scorer`] does
//! that derivation: Bellman-Ford from zero over the dependence
//! difference constraints `t(dst) + II·d ≥ t(src) + lat + hops(pe_src,
//! pe_dst)`, then modulo-reservation repair. A repair bumps the first
//! op, in `(time, op)` order, whose `(pe, slot)` an earlier op holds,
//! and relaxes again *from the current times*: they lie below the new
//! least fixpoint, so the result is the one a re-solve from zero would
//! give, and a positive cycle is a property of the binding that the
//! first pass has already decided. A binding that puts more operations
//! on one PE than II has slots is refused before any repair, which
//! could only run out. The cost rewards feasibility first, then
//! wirelength — routing is only materialised for candidate champions.

use super::sweep::SweepCtx;
use crate::mapping::Mapping;
use cgra_arch::{Fabric, PeId, TopologyCache};
use cgra_ir::Dfg;

/// Large penalty steps keep the cost lexicographic:
/// capability > schedulability > FU conflicts > wirelength.
const CAP_PENALTY: u64 = 1 << 40;
const SCHED_PENALTY: u64 = 1 << 30;
const CONFLICT_PENALTY: u64 = 1 << 20;

/// Why a binding has no legal schedule.
enum Unschedulable {
    /// A positive dependence cycle: the recurrence cannot close at this
    /// II with these hops.
    Cycle,
    /// Modulo-reservation collisions that repair could not resolve.
    Conflict,
}

/// One dependence edge: its ends and its binding-independent weight
/// `lat(src) − II·dist`, plus the bound binding's full weight.
struct Dep {
    src: usize,
    dst: usize,
    base: i64,
    weight: i64,
}

/// Scores bindings of one DFG on one fabric at one II. Everything that
/// does not depend on the binding is computed once here, and every
/// evaluation reuses the buffers.
pub(crate) struct Scorer<'a> {
    topo: &'a TopologyCache,
    ii: u32,
    num_pes: usize,
    /// `capable[op · num_pes + pe]`: can `op` issue on `pe`?
    capable: Vec<bool>,
    deps: Vec<Dep>,
    /// Issue times of the binding being scored.
    times: Vec<i64>,
    /// Per `(pe, slot)` cell, the least `(time, op)` key seen under the
    /// current stamp.
    cell_key: Vec<u64>,
    cell_stamp: Vec<u32>,
    /// Per PE, its operation count under the current stamp.
    pe_load: Vec<u32>,
    pe_stamp: Vec<u32>,
    stamp: u32,
}

impl<'a> Scorer<'a> {
    pub(crate) fn new(dfg: &Dfg, fabric: &Fabric, topo: &'a TopologyCache, ii: u32) -> Self {
        let num_pes = fabric.num_pes();
        let capable = dfg
            .node_ids()
            .flat_map(|id| {
                fabric
                    .pe_ids()
                    .map(move |pe| fabric.supports(pe, dfg.op(id)))
            })
            .collect();
        let deps = dfg
            .edges()
            .map(|(_, e)| Dep {
                src: e.src.index(),
                dst: e.dst.index(),
                base: fabric.latency_of(dfg.op(e.src)) as i64 - ii as i64 * e.dist as i64,
                weight: 0,
            })
            .collect();
        let cells = num_pes * ii as usize;
        Scorer {
            topo,
            ii,
            num_pes,
            capable,
            deps,
            times: vec![0; dfg.node_count()],
            cell_key: vec![0; cells],
            cell_stamp: vec![0; cells],
            pe_load: vec![0; num_pes],
            pe_stamp: vec![0; num_pes],
            stamp: 0,
        }
    }

    pub(crate) fn ii(&self) -> u32 {
        self.ii
    }

    /// The lexicographic cost of `pes` (see the penalties above).
    pub(crate) fn cost(&mut self, pes: &[PeId]) -> u64 {
        let violations = pes
            .iter()
            .enumerate()
            .filter(|&(op, pe)| !self.capable[op * self.num_pes + pe.index()])
            .count() as u64;
        if violations > 0 {
            return violations * CAP_PENALTY;
        }
        // Wirelength always contributes (ties broken by shorter wires).
        let wire = self.bind(pes);
        match self.derive(pes) {
            Ok(()) => wire + self.times.iter().copied().max().unwrap_or(0) as u64,
            // Both failures need fixing and differ only in magnitude;
            // the PE collisions give the search a gradient.
            Err(why) => {
                let penalty = match why {
                    Unschedulable::Cycle => SCHED_PENALTY,
                    Unschedulable::Conflict => CONFLICT_PENALTY,
                };
                penalty + self.duplicates(pes) * (CONFLICT_PENALTY / 8) + wire
            }
        }
    }

    /// A conflict-free schedule for `pes`, `None` if the binding cannot
    /// schedule. Capability is not checked.
    pub(crate) fn schedule(&mut self, pes: &[PeId]) -> Option<Vec<u32>> {
        self.bind(pes);
        self.derive(pes).ok()?;
        Some(self.times.iter().map(|&t| t as u32).collect())
    }

    /// Weigh every edge for `pes`; returns the wirelength.
    fn bind(&mut self, pes: &[PeId]) -> u64 {
        let mut wire = 0;
        for d in &mut self.deps {
            let hops = self.topo.hops(pes[d.src], pes[d.dst]);
            wire += hops as u64;
            d.weight = d.base + hops as i64;
        }
        wire
    }

    /// Derive the schedule of the bound `pes` into `times`.
    fn derive(&mut self, pes: &[PeId]) -> Result<(), Unschedulable> {
        self.times.fill(0);
        if !self.relax() {
            return Err(Unschedulable::Cycle);
        }
        // A PE has II modulo slots: more operations than that on one PE
        // can never be separated, however they are bumped (at II = 1,
        // any shared PE).
        if self.overfull(pes) {
            return Err(Unschedulable::Conflict);
        }
        for _ in 0..(2 * pes.len() * self.ii as usize).max(16) {
            let Some(op) = self.first_collision(pes) else {
                return Ok(());
            };
            let bumped = self.times[op] + 1;
            // Cap runaway schedules.
            if bumped > (16 * self.ii + 64) as i64 {
                return Err(Unschedulable::Conflict);
            }
            self.times[op] = bumped;
            // The first pass found no positive cycle, so this converges.
            self.relax();
        }
        Err(Unschedulable::Conflict)
    }

    /// Bellman-Ford from the current `times`: raise them to the least
    /// fixpoint above. `false` on a positive cycle.
    fn relax(&mut self) -> bool {
        let t = &mut self.times;
        for _ in 0..=t.len() {
            let mut changed = false;
            for d in &self.deps {
                let bound = t[d.src] + d.weight;
                if bound > t[d.dst] {
                    t[d.dst] = bound;
                    changed = true;
                }
            }
            if !changed {
                return true;
            }
        }
        false
    }

    /// The first op, in `(time, op)` order, whose `(pe, time mod II)`
    /// cell an earlier op holds. That is the least over all cells of the
    /// cell's second-smallest `(time, op)` key, found in one pass:
    /// `max(key, least so far)` meets each cell's second-smallest key in
    /// whatever order the cell's ops arrive.
    fn first_collision(&mut self, pes: &[PeId]) -> Option<usize> {
        let stamp = self.next_stamp();
        let ii = self.ii;
        let mut first = u64::MAX;
        for (op, (pe, &t)) in pes.iter().zip(&self.times).enumerate() {
            let t = t as u32;
            let cell = pe.index() * ii as usize + (t % ii) as usize;
            let key = (t as u64) << 32 | op as u64;
            if std::mem::replace(&mut self.cell_stamp[cell], stamp) != stamp {
                self.cell_key[cell] = key;
            } else {
                let least = self.cell_key[cell];
                first = first.min(least.max(key));
                self.cell_key[cell] = least.min(key);
            }
        }
        (first != u64::MAX).then_some((first & u64::from(u32::MAX)) as usize)
    }

    /// Does some PE hold more operations than II has slots?
    fn overfull(&mut self, pes: &[PeId]) -> bool {
        let stamp = self.next_stamp();
        for pe in pes {
            let i = pe.index();
            let load = if std::mem::replace(&mut self.pe_stamp[i], stamp) == stamp {
                self.pe_load[i] + 1
            } else {
                1
            };
            if load > self.ii {
                return true;
            }
            self.pe_load[i] = load;
        }
        false
    }

    /// Operations that share a PE with an earlier one: Σ over PEs of
    /// (ops on it − 1).
    fn duplicates(&mut self, pes: &[PeId]) -> u64 {
        let stamp = self.next_stamp();
        pes.iter()
            .filter(|pe| std::mem::replace(&mut self.pe_stamp[pe.index()], stamp) == stamp)
            .count() as u64
    }

    /// A fresh stamp, so the dense tables need no clearing between uses.
    fn next_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.cell_stamp.fill(0);
            self.pe_stamp.fill(0);
            self.stamp = 1;
        }
        self.stamp
    }
}

/// Materialise a mapping from a binding: derive its legal schedule,
/// then route. `None` if it cannot schedule or cannot route.
pub(crate) fn finish_binding(
    ctx: &SweepCtx<'_>,
    scorer: &mut Scorer<'_>,
    pes: &[PeId],
) -> Option<Mapping> {
    let times = scorer.schedule(pes)?;
    ctx.route(scorer.ii(), pes.iter().copied().zip(times))
}

/// Each operation's capable PEs, in PE order.
pub(crate) fn capable_pes(dfg: &Dfg, fabric: &Fabric) -> Vec<Vec<PeId>> {
    dfg.node_ids()
        .map(|id| {
            fabric
                .pe_ids()
                .filter(|&pe| fabric.supports(pe, dfg.op(id)))
                .collect()
        })
        .collect()
}

/// Random capability-feasible binding over `capable_pes`' lists (PE 0
/// for an op no PE supports).
pub(crate) fn random_binding<R: rand::Rng>(capable: &[Vec<PeId>], rng: &mut R) -> Vec<PeId> {
    capable
        .iter()
        .map(|feasible| {
            if feasible.is_empty() {
                PeId(0)
            } else {
                feasible[rng.random_range(0..feasible.len())]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::Topology;
    use cgra_ir::kernels;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn legal_schedule_resolves_conflicts() {
        let dfg = kernels::sad();
        let f = Fabric::homogeneous(2, 2, Topology::Mesh);
        let topo = TopologyCache::build(&f);
        // Everything on pe0/pe1 alternating: guaranteed FU collisions
        // that repair must resolve.
        let pes: Vec<PeId> = dfg.node_ids().map(|n| PeId((n.0 % 2) as u16)).collect();
        let ii = 4;
        if let Some(times) = Scorer::new(&dfg, &f, &topo, ii).schedule(&pes) {
            let mut seen = std::collections::HashSet::new();
            for (i, &t) in times.iter().enumerate() {
                assert!(seen.insert((pes[i], t % ii)), "collision at op {i}");
            }
        }
    }

    #[test]
    fn eval_ranks_feasible_below_infeasible() {
        let dfg = kernels::dot_product();
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let topo = TopologyCache::build(&f);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let good = random_binding(&capable_pes(&dfg, &f), &mut rng);
        let cost_good = Scorer::new(&dfg, &f, &topo, 2).cost(&good);
        // An adversarial binding violating capability on a mul-less fabric.
        let mut f2 = f.clone();
        for c in &mut f2.cells {
            c.mul = false;
        }
        let cost_bad = Scorer::new(&dfg, &f2, &topo, 2).cost(&good);
        assert!(cost_bad > cost_good);
    }

    #[test]
    fn finish_binding_round_trips() {
        let dfg = kernels::accumulate();
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let cfg = crate::MapConfig::fast();
        let ctx = SweepCtx::open(&dfg, &f, &cfg).unwrap();
        // A sane binding: chain on adjacent PEs.
        let pes = vec![PeId(0), PeId(1), PeId(2)];
        let mut scorer = Scorer::new(&dfg, &f, &ctx.topo, 2);
        let m = finish_binding(&ctx, &mut scorer, &pes).unwrap();
        crate::validate::validate(&m, &dfg, &f).unwrap();
    }

    // The reference the scorer must equal: the scoring functions as they
    // were before `Scorer`, which re-solve from zero after every bump.

    /// Evaluation of one binding at one II.
    pub(crate) struct BindingEval {
        pub cost: u64,
        /// Legal issue times when the binding schedules cleanly (champions
        /// re-derive them via `legal_schedule`; kept for diagnostics).
        #[allow(dead_code)]
        pub times: Option<Vec<u32>>,
    }

    /// Bellman-Ford with per-node lower bounds. Returns `None` on a
    /// positive cycle (recurrence unsatisfiable for this binding).
    fn bf_times(
        dfg: &Dfg,
        fabric: &Fabric,
        topo: &TopologyCache,
        pes: &[PeId],
        ii: u32,
        lb: &[u32],
    ) -> Option<Vec<u32>> {
        let n = dfg.node_count();
        let mut t: Vec<i64> = lb.iter().map(|&x| x as i64).collect();
        for round in 0..=n {
            let mut changed = false;
            for (_, e) in dfg.edges() {
                let lat = fabric.latency_of(dfg.op(e.src)) as i64;
                let hops = topo.hops(pes[e.src.index()], pes[e.dst.index()]) as i64;
                let bound = t[e.src.index()] + lat + hops - (ii as i64) * e.dist as i64;
                if bound > t[e.dst.index()] {
                    t[e.dst.index()] = bound;
                    changed = true;
                }
            }
            if !changed {
                return Some(t.iter().map(|&x| x as u32).collect());
            }
            if round == n {
                return None;
            }
        }
        None
    }

    /// Derive a conflict-free schedule for `pes` at `ii`, bumping lower
    /// bounds to resolve modulo-reservation collisions. `None` if the
    /// binding cannot schedule.
    pub(crate) fn legal_schedule(
        dfg: &Dfg,
        fabric: &Fabric,
        topo: &TopologyCache,
        pes: &[PeId],
        ii: u32,
    ) -> Option<Vec<u32>> {
        let n = dfg.node_count();
        // At II = 1 every cycle folds to the same slot: two operations on
        // one PE can never be separated, so duplicate PEs are hopeless.
        if ii == 1 {
            let mut seen = std::collections::HashSet::new();
            if !pes.iter().all(|pe| seen.insert(*pe)) {
                return None;
            }
        }
        let mut lb = vec![0u32; n];
        for _ in 0..(2 * n * ii as usize).max(16) {
            let times = bf_times(dfg, fabric, topo, pes, ii, &lb)?;
            // Find the first FU conflict.
            let mut seen: std::collections::HashMap<(PeId, u32), usize> =
                std::collections::HashMap::new();
            let mut conflict: Option<usize> = None;
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| (times[i], i));
            for &i in &order {
                let key = (pes[i], times[i] % ii);
                if let Some(&_first) = seen.get(&key) {
                    conflict = Some(i);
                    break;
                }
                seen.insert(key, i);
            }
            match conflict {
                None => return Some(times),
                Some(i) => {
                    lb[i] = times[i] + 1;
                    // Cap runaway schedules.
                    if lb[i] > 16 * ii + 64 {
                        return None;
                    }
                }
            }
        }
        None
    }

    /// Evaluate a binding: lexicographic cost plus (optionally) the legal
    /// times for champions.
    pub(crate) fn eval_binding(
        dfg: &Dfg,
        fabric: &Fabric,
        topo: &TopologyCache,
        pes: &[PeId],
        ii: u32,
    ) -> BindingEval {
        // Capability violations.
        let mut cost = 0u64;
        for (id, node) in dfg.nodes() {
            if !fabric.supports(pes[id.index()], node.op) {
                cost += CAP_PENALTY;
            }
        }
        if cost > 0 {
            return BindingEval { cost, times: None };
        }
        // Wirelength always contributes (ties broken by shorter wires).
        let wire: u64 = dfg
            .edges()
            .map(|(_, e)| topo.hops(pes[e.src.index()], pes[e.dst.index()]) as u64)
            .sum();
        match legal_schedule(dfg, fabric, topo, pes, ii) {
            Some(times) => {
                let makespan = times.iter().copied().max().unwrap_or(0) as u64;
                BindingEval {
                    cost: wire + makespan,
                    times: Some(times),
                }
            }
            None => {
                // Distinguish "recurrence infeasible" from "conflicts
                // unresolvable" only by magnitude; both need fixing. Count
                // the PE collisions so the search has a gradient.
                let base = bf_times(dfg, fabric, topo, pes, ii, &vec![0; dfg.node_count()]);
                let mut dups = 0u64;
                let mut seen = std::collections::HashMap::new();
                for pe in pes {
                    *seen.entry(*pe).or_insert(0u64) += 1;
                }
                for c in seen.values() {
                    dups += c.saturating_sub(1);
                }
                let penalty = if base.is_none() {
                    SCHED_PENALTY
                } else {
                    CONFLICT_PENALTY
                };
                BindingEval {
                    cost: penalty + dups * (CONFLICT_PENALTY / 8) + wire,
                    times: None,
                }
            }
        }
    }

    /// Bindings of four kinds: capability-feasible, arbitrary PEs
    /// (capability violations), crowded onto two PEs (duplicates, and
    /// more operations on a PE than it has slots), and stretched between
    /// each op's first and last capable PE (long hops, so recurrences
    /// close into positive cycles).
    fn binding(
        kind: usize,
        capable: &[Vec<PeId>],
        num_pes: usize,
        rng: &mut impl Rng,
    ) -> Vec<PeId> {
        match kind {
            0 => random_binding(capable, rng),
            1 => (0..capable.len())
                .map(|_| PeId(rng.random_range(0..num_pes) as u16))
                .collect(),
            2 => {
                let pool = [rng.random_range(0..num_pes), rng.random_range(0..num_pes)];
                (0..capable.len())
                    .map(|_| PeId(pool[rng.random_range(0..2)] as u16))
                    .collect()
            }
            _ => capable
                .iter()
                .map(|f| match (f.first(), f.last(), rng.random::<bool>()) {
                    (Some(&lo), _, true) => lo,
                    (_, Some(&hi), _) => hi,
                    _ => PeId(0),
                })
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8 })]

        /// Over every suite kernel × {2×2 mesh, 4×4 mesh, 3×3 torus, 4×4
        /// ADRES} × II 1..=6 × four binding kinds, the scorer's cost and
        /// schedule equal the reference's, and each kind of outcome
        /// occurs.
        #[test]
        fn scorer_equals_the_reference(seed in any::<u64>()) {
            let fabrics = [
                Fabric::homogeneous(2, 2, Topology::Mesh),
                Fabric::homogeneous(4, 4, Topology::Mesh),
                Fabric::homogeneous(3, 3, Topology::Torus),
                Fabric::adres_like(4, 4),
            ];
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            // scheduled from zero, scheduled after repair, capability,
            // positive cycle, duplicate PEs at II 1, unrepaired at II > 1
            let mut reached = [0usize; 6];
            for dfg in kernels::suite() {
                for f in &fabrics {
                    let topo = TopologyCache::build(f);
                    let capable = capable_pes(&dfg, f);
                    for ii in 1..=6 {
                        let mut scorer = Scorer::new(&dfg, f, &topo, ii);
                        for kind in 0..4 {
                            let pes = binding(kind, &capable, f.num_pes(), &mut rng);
                            let want = eval_binding(&dfg, f, &topo, &pes, ii).cost;
                            let want_times = legal_schedule(&dfg, f, &topo, &pes, ii);
                            prop_assert_eq!(scorer.cost(&pes), want, "{} ii {} {:?}", dfg.name, ii, pes);
                            prop_assert_eq!(scorer.schedule(&pes), want_times.clone());
                            let zero = vec![0; dfg.node_count()];
                            reached[match want {
                                c if c >= CAP_PENALTY => 2,
                                c if c >= SCHED_PENALTY => 3,
                                c if c >= CONFLICT_PENALTY => if ii == 1 { 4 } else { 5 },
                                _ => usize::from(bf_times(&dfg, f, &topo, &pes, ii, &zero) != want_times),
                            }] += 1;
                        }
                    }
                }
            }
            prop_assert!(reached.iter().all(|&n| n > 0), "outcomes reached: {:?}", reached);
        }
    }

    #[test]
    fn a_tight_recurrence_that_repair_cannot_separate_matches_the_reference() {
        // x → z → y → w → x with the back edge two iterations long: at
        // II 4 with unit latencies and one hop per edge the ring has zero
        // slack, so every bump moves all four ops together. x and y share
        // PE 0 four cycles apart, the same slot, and no PE holds more ops
        // than it has slots: the repair runs out without a schedule.
        let mut dfg = Dfg::new("ring");
        let [x, z, y, w] = [0; 4].map(|_| dfg.add_node(cgra_ir::OpKind::Add));
        dfg.connect(x, z, 0);
        dfg.connect(z, y, 0);
        dfg.connect(y, w, 0);
        dfg.connect_carried(w, x, 0, 2, vec![0, 0]);
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let topo = TopologyCache::build(&f);
        let pes = [PeId(0), PeId(1), PeId(0), PeId(1)];
        let mut scorer = Scorer::new(&dfg, &f, &topo, 4);
        let want = eval_binding(&dfg, &f, &topo, &pes, 4).cost;
        assert!((CONFLICT_PENALTY..SCHED_PENALTY).contains(&want), "{want}");
        assert!(!scorer.overfull(&pes));
        assert_eq!(scorer.cost(&pes), want);
        assert_eq!(scorer.schedule(&pes), None);
        assert_eq!(legal_schedule(&dfg, &f, &topo, &pes, 4), None);
    }
}
