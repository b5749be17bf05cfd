//! Simulated-annealing mapping (SPR / DRESC lineage — Friedman et al.
//! FPGA 2009, Mei et al. FPT 2002).
//!
//! Classic local search over bindings: start from a random
//! capability-feasible binding, propose moves (relocate one operation,
//! or swap two operations' PEs), accept downhill always and uphill
//! with probability `exp(-Δ/T)` under a geometric cooling schedule.
//! Multiple independent chains run in parallel (rayon), each with its
//! own [`Scorer`], and the best champion is routed.

use super::meta_common::{capable_pes, finish_binding, random_binding, Scorer};
use super::sweep::{SweepCtx, TemporalSearch};
use crate::mapper::{Family, MapError};
use crate::mapping::Mapping;
use crate::telemetry::Counter;
use cgra_arch::PeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Cooling schedule — an ablation axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Cooling {
    /// `T ← 0.85·T` per sweep (geometric).
    #[default]
    Geometric,
    /// Linear ramp to zero.
    Linear,
}

/// The annealing mapper.
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    pub cooling: Cooling,
    /// Independent restart chains (run in parallel).
    pub chains: usize,
    /// Temperature steps per chain (at least 4), each of `3·|V|` moves.
    pub sweeps: u32,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing {
            cooling: Cooling::Geometric,
            chains: 4,
            sweeps: 40,
        }
    }
}

impl SimulatedAnnealing {
    fn anneal_chain(&self, ctx: &SweepCtx<'_>, ii: u32, seed: u64) -> (u64, Vec<PeId>) {
        let (dfg, budget) = (ctx.dfg, &ctx.budget);
        let mut rng = StdRng::seed_from_u64(seed);
        let capable = capable_pes(dfg, ctx.fabric);
        let mut scorer = Scorer::new(dfg, ctx.fabric, &ctx.topo, ii);
        let mut binding = random_binding(&capable, &mut rng);
        let mut cost = scorer.cost(&binding);
        let mut best = (cost, binding.clone());
        let n = dfg.node_count();

        let mut temp = 1000.0f64;
        let sweeps = self.sweeps.max(4);
        for sweep in 0..sweeps {
            if budget.expired_now() {
                break;
            }
            for _ in 0..(3 * n) {
                if budget.expired() {
                    break;
                }
                // Propose: relocate (70%) or swap (30%).
                ctx.tele().bump(Counter::MovesProposed);
                let mut cand = binding.clone();
                if rng.random_range(0..10) < 7 {
                    let op = rng.random_range(0..n as u32) as usize;
                    let feasible = &capable[op];
                    if feasible.is_empty() {
                        continue;
                    }
                    cand[op] = feasible[rng.random_range(0..feasible.len())];
                } else {
                    let a = rng.random_range(0..n);
                    let b = rng.random_range(0..n);
                    cand.swap(a, b);
                }
                let c = scorer.cost(&cand);
                let accept = c <= cost || {
                    let delta = (c - cost) as f64;
                    rng.random::<f64>() < (-delta / temp.max(1e-9)).exp()
                };
                if accept {
                    ctx.tele().bump(Counter::MovesAccepted);
                    binding = cand;
                    cost = c;
                    if cost < best.0 {
                        best = (cost, binding.clone());
                    }
                }
            }
            temp = match self.cooling {
                Cooling::Geometric => temp * 0.85,
                Cooling::Linear => 1000.0 * (1.0 - (sweep as f64 + 1.0) / sweeps as f64),
            };
        }
        best
    }
}

impl TemporalSearch for SimulatedAnnealing {
    const NAME: &'static str = "sa";
    const FAMILY: Family = Family::MetaLocalSearch;
    const EXHAUSTED: &'static str = "annealing found no routable binding in II {range}";
    type State = ();

    fn prepare(&self, _: &SweepCtx<'_>) {}

    fn try_ii(&self, ctx: &SweepCtx<'_>, _: &mut (), ii: u32) -> Result<Option<Mapping>, MapError> {
        // Parallel chains; pick the champion.
        let mut champs: Vec<(u64, Vec<PeId>)> = (0..self.chains.max(1))
            .into_par_iter()
            .map(|c| {
                let salt = (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                self.anneal_chain(ctx, ii, ctx.cfg.seed ^ salt ^ ii as u64)
            })
            .collect();
        champs.sort_by_key(|(c, _)| *c);
        // The chain champion is this II's anytime incumbent; record
        // it sequentially (after collect) so same-seed runs produce
        // identical ledgers.
        if let Some((c, _)) = champs.first() {
            ctx.incumbent(Self::NAME, ii, *c as f64);
        }
        let mut scorer = Scorer::new(ctx.dfg, ctx.fabric, &ctx.topo, ii);
        Ok(champs
            .iter()
            .take(2)
            .find_map(|(_, binding)| finish_binding(ctx, &mut scorer, binding)))
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
    fn anneals_small_kernels() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        for dfg in kernels::small_suite() {
            let m = SimulatedAnnealing::default()
                .map(&dfg, &f, &MapConfig::fast())
                .unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
            validate(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let dfg = kernels::dot_product();
        let cfg = MapConfig::fast();
        let sa = SimulatedAnnealing {
            chains: 1,
            ..Default::default()
        };
        let m1 = sa.map(&dfg, &f, &cfg).unwrap();
        let m2 = sa.map(&dfg, &f, &cfg).unwrap();
        assert_eq!(m1.place, m2.place);
    }

    #[test]
    fn linear_cooling_also_works() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let dfg = kernels::accumulate();
        let m = SimulatedAnnealing {
            cooling: Cooling::Linear,
            ..Default::default()
        }
        .map(&dfg, &f, &MapConfig::fast())
        .unwrap();
        validate(&m, &dfg, &f).unwrap();
    }
}
