//! Branch-and-bound-style mapping after Das, Peyret, Martin, Coussy
//! et al. (ISVLSI 2016 / ASAP 2014: simultaneous scheduling and binding
//! over partial solutions).
//!
//! A depth-first backtracking search over operations in priority order;
//! each node of the search tree extends the partial mapping by one
//! placed-and-routed operation (real routing, not a relaxation — so any
//! leaf is valid by construction), and the first complete mapping is
//! returned. There is no cost bound: per op, times run through the
//! placement window and PEs through the [`BEAM`] cheapest by hop
//! distance to placed neighbours, a node gives up after `BEAM × 3`
//! placements that fit, and the search stops after [`NODE_BUDGET`]
//! nodes per II. Both caps cut the space, so a failed II proves
//! nothing: the search is not complete.

use super::state::{priority_order, SchedState};
use super::sweep::{SweepCtx, TemporalSearch, Verdict};
use crate::engine::Budget;
use crate::mapper::Family;
use crate::telemetry::Counter;
use cgra_ir::NodeId;

/// The branch-and-bound mapper.
#[derive(Debug, Clone, Default)]
pub struct BranchAndBound;

/// Candidate PEs per cycle; a node tries at most 3 × this many placements.
const BEAM: usize = 5;
/// Search-node budget per II.
const NODE_BUDGET: u64 = 6_000;
const WINDOW_IIS: u32 = 2;

struct Bb<'a> {
    order: Vec<NodeId>,
    nodes: u64,
    wall: &'a Budget,
    state: SchedState<'a>,
}

impl<'a> Bb<'a> {
    fn dfs(&mut self, depth: usize) -> bool {
        if depth == self.order.len() {
            return true;
        }
        self.nodes += 1;
        self.state.tele.bump(Counter::NodesExpanded);
        if self.nodes > NODE_BUDGET || self.wall.expired() {
            self.state.tele.bump(Counter::NodesPruned);
            return false;
        }
        let n = self.order[depth];
        let Some((est, window_end)) = self.state.window(n, WINDOW_IIS) else {
            return false;
        };
        // Gather candidates (earliest-and-nearest first), beam-capped.
        let mut tried = 0usize;
        for t in est..=window_end {
            for pe in self.state.candidate_pes(n, BEAM) {
                if tried >= BEAM * 3 {
                    self.state.tele.bump(Counter::NodesPruned);
                    return false;
                }
                if self.state.try_place(n, pe, t) {
                    tried += 1;
                    if self.dfs(depth + 1) {
                        return true;
                    }
                    self.state.unplace(n);
                }
            }
        }
        false
    }
}

impl TemporalSearch for BranchAndBound {
    const NAME: &'static str = "bnb";
    const FAMILY: Family = Family::ExactIlp;
    type State = ();

    fn prepare(&self, _: &SweepCtx<'_>) {}

    fn try_ii(&self, ctx: &SweepCtx<'_>, _: &mut (), ii: u32) -> Verdict {
        let mut bb = Bb {
            order: priority_order(ctx.dfg, ctx.fabric).0,
            nodes: 0,
            wall: &ctx.budget,
            state: SchedState::new(ctx, ii),
        };
        if !bb.dfs(0) {
            return Verdict::Unproven;
        }
        // B&B's first full schedule at this II is its (only)
        // incumbent; the cost is the node count spent reaching it.
        let nodes = bb.nodes;
        let m = bb.state.into_mapping();
        m.inspect(|_| ctx.incumbent(Self::NAME, ii, nodes as f64))
            .into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{MapConfig, Mapper};
    use crate::validate::validate;
    use cgra_arch::{Fabric, Topology};
    use cgra_ir::kernels;

    #[test]
    fn bnb_maps_most_of_suite_on_4x4() {
        // Exhaustive search hits its node budget on the widest kernels
        // (the survey's scalability point); the contract is broad
        // success plus never-invalid output.
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let mut successes = 0;
        for dfg in kernels::suite() {
            match BranchAndBound.map(&dfg, &f, &MapConfig::fast()) {
                Ok(m) => {
                    validate(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
                    successes += 1;
                }
                Err(e) => eprintln!("{}: {e}", dfg.name),
            }
        }
        assert!(successes >= 10, "only {successes}/13 kernels mapped");
    }

    #[test]
    fn backtracking_recovers_from_greedy_traps() {
        // Single multiplier on a 2x2: the first greedy choice for the
        // inputs can block the mul; B&B must backtrack and succeed.
        let mut f = Fabric::homogeneous(2, 2, Topology::Mesh);
        for pe in 1..4 {
            f.cells[pe].mul = false;
        }
        let dfg = kernels::dot_product();
        let m = BranchAndBound.map(&dfg, &f, &MapConfig::fast()).unwrap();
        validate(&m, &dfg, &f).unwrap();
    }

    #[test]
    fn cramped_fabric_may_fail_but_never_invalid() {
        let f = Fabric::homogeneous(2, 2, Topology::Mesh);
        for dfg in kernels::small_suite() {
            if let Ok(m) = BranchAndBound.map(&dfg, &f, &MapConfig::fast()) {
                validate(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
            }
        }
    }
}
