//! Quantum-inspired evolutionary mapping (Lee, Choi & Dutt lineage —
//! IEEE TCAD 2011).
//!
//! Instead of a population of concrete bindings, QEA maintains a
//! *probabilistic* individual: a probability distribution over PEs for
//! every operation (the "qubit register"). Each generation samples
//! concrete bindings ("observation"), evaluates them, and rotates the
//! distribution towards the best observed binding (the rotation-gate
//! update). Convergence is tracked by distribution entropy; a mapping
//! is materialised from the best observation.

use super::meta_common::{capable_pes, finish_binding, Scorer};
use super::sweep::{SweepCtx, TemporalSearch};
use crate::mapper::{Family, MapError};
use crate::mapping::Mapping;
use crate::telemetry::Counter;
use cgra_arch::PeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The QEA mapper.
#[derive(Debug, Clone)]
pub struct Qea {
    /// Observations sampled per generation.
    pub samples: usize,
    pub generations: u32,
    /// Rotation step towards the best binding (per mille of mass).
    pub rotation_pm: u32,
}

impl Default for Qea {
    fn default() -> Self {
        Qea {
            samples: 24,
            generations: 80,
            rotation_pm: 120,
        }
    }
}

impl TemporalSearch for Qea {
    const NAME: &'static str = "qea";
    const FAMILY: Family = Family::MetaPopulation;
    const EXHAUSTED: &'static str = "no routable observation in II {range}";
    type State = ();

    fn prepare(&self, _: &SweepCtx<'_>) {}

    fn try_ii(&self, ctx: &SweepCtx<'_>, _: &mut (), ii: u32) -> Result<Option<Mapping>, MapError> {
        let n = ctx.dfg.node_count();
        let mut rng = StdRng::seed_from_u64(ctx.cfg.seed ^ (ii as u64) << 7);
        // Feasible PE sets and uniform initial distributions.
        let feasible = capable_pes(ctx.dfg, ctx.fabric);
        if feasible.iter().any(|f| f.is_empty()) {
            return Err(MapError::infeasible("an op has no capable PE"));
        }
        let mut scorer = Scorer::new(ctx.dfg, ctx.fabric, &ctx.topo, ii);
        let mut prob: Vec<Vec<f64>> = feasible
            .iter()
            .map(|f| vec![1.0 / f.len() as f64; f.len()])
            .collect();
        let mut best: Option<(u64, Vec<PeId>)> = None;

        for _gen in 0..self.generations {
            if ctx.budget.expired_now() {
                break;
            }
            // Observe.
            let mut observations: Vec<(u64, Vec<PeId>)> = (0..self.samples.max(2))
                .map(|_| {
                    let binding: Vec<PeId> = (0..n)
                        .map(|i| {
                            let r: f64 = rng.random();
                            let mut acc = 0.0;
                            for (k, &p) in prob[i].iter().enumerate() {
                                acc += p;
                                if r <= acc {
                                    return feasible[i][k];
                                }
                            }
                            *feasible[i].last().unwrap()
                        })
                        .collect();
                    let c = scorer.cost(&binding);
                    ctx.tele().bump(Counter::MovesProposed);
                    (c, binding)
                })
                .collect();
            observations.sort_by_key(|(c, _)| *c);
            let gen_best = observations.remove(0);
            let improved = best.as_ref().map(|(c, _)| gen_best.0 < *c).unwrap_or(true);
            if improved {
                ctx.tele().bump(Counter::MovesAccepted);
                ctx.incumbent(Self::NAME, ii, gen_best.0 as f64);
                best = Some(gen_best.clone());
            }
            // Rotate distributions towards the all-time best.
            let target = &best.as_ref().unwrap().1;
            let step = self.rotation_pm as f64 / 1000.0;
            for i in 0..n {
                let chosen = feasible[i]
                    .iter()
                    .position(|&pe| pe == target[i])
                    .unwrap_or(0);
                let k = prob[i].len();
                for (j, p) in prob[i].iter_mut().enumerate() {
                    if j == chosen {
                        *p += step * (1.0 - *p);
                    } else {
                        *p *= 1.0 - step;
                    }
                }
                // Keep a floor of exploration mass.
                let floor = 0.005 / k as f64;
                let mut total = 0.0;
                for p in prob[i].iter_mut() {
                    *p = p.max(floor);
                    total += *p;
                }
                for p in prob[i].iter_mut() {
                    *p /= total;
                }
            }
        }

        Ok(best.and_then(|(_, binding)| finish_binding(ctx, &mut scorer, &binding)))
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
    fn qea_maps_small_kernels() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        for dfg in [
            kernels::dot_product(),
            kernels::accumulate(),
            kernels::sad(),
        ] {
            let m = Qea::default()
                .map(&dfg, &f, &MapConfig::fast())
                .unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
            validate(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
        }
    }

    #[test]
    fn qea_respects_heterogeneity() {
        let f = Fabric::adres_like(4, 4);
        let dfg = kernels::dot_product();
        let m = Qea::default().map(&dfg, &f, &MapConfig::fast()).unwrap();
        validate(&m, &dfg, &f).unwrap();
    }
}
