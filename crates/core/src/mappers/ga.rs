//! Genetic-algorithm mapping (GenMap lineage — Kojima et al., IEEE
//! TVLSI 2020).
//!
//! The chromosome is the binding vector (one PE gene per operation).
//! Tournament selection, uniform crossover, per-gene mutation to a
//! random capability-feasible PE, elitism, and a fitness that rewards
//! schedulability first and wirelength second (GenMap optimises
//! energy ∝ wirelength under its mapping-feasibility constraint).
//! Each generation is scored sequentially by one [`Scorer`]: it is tens
//! of µs of work, less than starting threads for it would cost.

use super::meta_common::{capable_pes, finish_binding, random_binding, Scorer};
use super::sweep::{SweepCtx, TemporalSearch, Verdict};
use crate::mapper::Family;
use crate::telemetry::Counter;
use cgra_arch::PeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The GA mapper.
#[derive(Debug, Clone, Default)]
pub struct Genetic;

const POPULATION: usize = 36;
const GENERATIONS: u32 = 48;
const TOURNAMENT: usize = 3;
/// Per-gene mutation probability (per mille).
const MUTATION_PM: u32 = 60;
const ELITISM: usize = 2;

impl Genetic {
    /// Run the generations at `ii`; the final population, best first.
    fn evolve(
        &self,
        ctx: &SweepCtx<'_>,
        scorer: &mut Scorer<'_>,
        seed: u64,
    ) -> Vec<(u64, Vec<PeId>)> {
        let ii = scorer.ii();
        let mut rng = StdRng::seed_from_u64(seed);
        let n = ctx.dfg.node_count();
        let feasible = capable_pes(ctx.dfg, ctx.fabric);

        let mut pop: Vec<Vec<PeId>> = (0..POPULATION)
            .map(|_| random_binding(&feasible, &mut rng))
            .collect();
        let mut scored: Vec<(u64, Vec<PeId>)> = Vec::new();
        let mut best_cost = u64::MAX;
        let mut score = |pop: Vec<Vec<PeId>>| -> Vec<(u64, Vec<PeId>)> {
            let mut scored: Vec<_> = pop.into_iter().map(|b| (scorer.cost(&b), b)).collect();
            scored.sort_by_key(|(c, _)| *c);
            scored
        };

        for _gen in 0..GENERATIONS {
            if ctx.budget.expired_now() {
                break;
            }
            scored = score(pop);
            // A generation whose champion improves on the best seen so
            // far counts as an accepted move of the population search.
            if let Some(&(c, _)) = scored.first() {
                if c < best_cost {
                    best_cost = c;
                    ctx.tele().bump(Counter::MovesAccepted);
                    ctx.incumbent(Self::NAME, ii, c as f64);
                }
            }

            let mut next: Vec<Vec<PeId>> = scored
                .iter()
                .take(ELITISM)
                .map(|(_, b)| b.clone())
                .collect();
            while next.len() < POPULATION {
                // Tournament selection of two parents.
                let pick = |rng: &mut StdRng| -> &Vec<PeId> {
                    let mut best: Option<&(u64, Vec<PeId>)> = None;
                    for _ in 0..TOURNAMENT {
                        let c = &scored[rng.random_range(0..scored.len())];
                        if best.map(|b| c.0 < b.0).unwrap_or(true) {
                            best = Some(c);
                        }
                    }
                    &best.unwrap().1
                };
                let pa = pick(&mut rng).clone();
                let pb = pick(&mut rng).clone();
                // Uniform crossover + mutation.
                let mut child = Vec::with_capacity(n);
                for i in 0..n {
                    let gene = if rng.random::<bool>() { pa[i] } else { pb[i] };
                    let gene = if rng.random_range(0..1000) < MUTATION_PM && !feasible[i].is_empty()
                    {
                        feasible[i][rng.random_range(0..feasible[i].len())]
                    } else {
                        gene
                    };
                    child.push(gene);
                }
                ctx.tele().bump(Counter::MovesProposed);
                next.push(child);
            }
            pop = next;
        }
        if scored.is_empty() {
            scored = score(pop);
        }
        scored
    }
}

impl TemporalSearch for Genetic {
    const NAME: &'static str = "ga";
    const FAMILY: Family = Family::MetaPopulation;
    type State = ();

    fn prepare(&self, _: &SweepCtx<'_>) {}

    fn try_ii(&self, ctx: &SweepCtx<'_>, _: &mut (), ii: u32) -> Verdict {
        let mut scorer = Scorer::new(ctx.dfg, ctx.fabric, &ctx.topo, ii);
        let scored = self.evolve(ctx, &mut scorer, ctx.cfg.seed ^ ii as u64);
        (scored.iter().take(3))
            .find_map(|(_, binding)| finish_binding(ctx, &mut scorer, binding))
            .into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{MapConfig, Mapper};
    use crate::metrics::Metrics;
    use crate::validate::validate;
    use cgra_arch::{Fabric, Topology};
    use cgra_ir::kernels;

    #[test]
    fn evolves_small_kernels() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        for dfg in kernels::small_suite() {
            let m = Genetic
                .map(&dfg, &f, &MapConfig::fast())
                .unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
            validate(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
        }
    }

    #[test]
    fn fitness_pressure_shortens_wires() {
        // GA's wirelength objective should not produce absurdly long
        // routes on a kernel with an obvious linear layout.
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let dfg = kernels::accumulate();
        let m = Genetic.map(&dfg, &f, &MapConfig::fast()).unwrap();
        let met = Metrics::of(&m, &dfg, &f);
        assert!(met.route_hops <= 8, "hops {}", met.route_hops);
    }
}
