//! The output oracle, run outside every timed interval: a returned
//! mapping must be valid on its fabric (`validate_with`) and must
//! compute what the reference interpreter computes
//! (`simulate_verified`) on a tape generated from the run's seed.

use cgra::arch::{Fabric, TopologyCache};
use cgra::ir::interp::Tape;
use cgra::ir::{Dfg, OpKind};
use cgra::mapper::mappers::ModuloList;
use cgra::mapper::request::{FabricSpec, MapRequest};
use cgra::mapper::{validate_with, Mapping};
use std::collections::HashMap;
use std::sync::Arc;

/// Loop iterations simulated per mapping.
const SIM_ITERS: usize = 6;

/// Built fabrics and their topology tables, one per spec.
#[derive(Default)]
pub struct Fabrics(HashMap<FabricSpec, (Arc<Fabric>, Arc<TopologyCache>)>);

impl Fabrics {
    pub fn get(&mut self, spec: &FabricSpec) -> Result<(Arc<Fabric>, Arc<TopologyCache>), String> {
        if let Some((f, t)) = self.0.get(spec) {
            return Ok((Arc::clone(f), Arc::clone(t)));
        }
        let fabric = Arc::new(spec.build().map_err(|e| e.0)?);
        let topo = Arc::new(TopologyCache::build(&fabric));
        self.0
            .insert(*spec, (Arc::clone(&fabric), Arc::clone(&topo)));
        Ok((fabric, topo))
    }
}

/// Everything the oracle needs to judge mappings of one request.
pub struct Subject {
    pub dfg: Dfg,
    pub fabric: Arc<Fabric>,
    pub topo: Arc<TopologyCache>,
    /// Analytic lower bound on II (`ModuloList::mii`).
    pub mii: u32,
    tape: Tape,
}

impl Subject {
    pub fn of(req: &MapRequest, fabrics: &mut Fabrics, seed: u64) -> Result<Subject, String> {
        let dfg = req.kernel.compile().map_err(|e| e.0)?;
        let (fabric, topo) = fabrics.get(&req.fabric)?;
        let mii = ModuloList::mii(&dfg, &fabric);
        let streams = dfg
            .nodes()
            .filter_map(|(_, n)| match n.op {
                OpKind::Input(s) => Some(s as usize + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let value =
            move |a: usize, b: usize| ((seed as usize % 89 + 3 * a + 7) * (b + 1)) as i64 % 97;
        let tape = Tape::generate(streams, SIM_ITERS, value)
            .with_memory((0..256).map(|i| value(i, 1)).collect());
        Ok(Subject {
            dfg,
            fabric,
            topo,
            mii,
            tape,
        })
    }

    pub fn validate(&self, m: &Mapping) -> Result<(), String> {
        validate_with(m, &self.dfg, &self.fabric, &self.topo).map_err(|e| format!("invalid: {e}"))
    }

    pub fn simulate(&self, m: &Mapping) -> Result<(), String> {
        cgra::sim::simulate_verified(m, &self.dfg, &self.fabric, SIM_ITERS, &self.tape)
            .map(|_| ())
            .map_err(|e| format!("mis-executes: {e}"))
    }

    /// Both checks.
    pub fn check(&self, m: &Mapping) -> Result<(), String> {
        self.validate(m)?;
        self.simulate(m)
    }

    /// Achieved II over the analytic MII, ≥ 1 for a valid mapping.
    pub fn ii_over_mii(&self, m: &Mapping) -> f64 {
        m.ii as f64 / self.mii.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra::arch::PeId;
    use cgra::mapper::request::KernelSpec;
    use cgra::mapper::service::{execute, ExecEnv};

    #[test]
    fn oracle_accepts_a_real_mapping_and_rejects_a_tampered_one() {
        let req = MapRequest::new(KernelSpec::Named("fir4".into()), "modulo-list");
        let subject = Subject::of(&req, &mut Fabrics::default(), 1).unwrap();
        let out = execute(&req, &ExecEnv::default());
        let good = out.mapping.expect("fir4 maps on 4x4");
        subject.check(&good).unwrap();
        assert!(subject.ii_over_mii(&good) >= 1.0);

        let mut bad = good.clone();
        bad.place[0].pe = PeId((bad.place[0].pe.0 + 5) % 16);
        assert!(subject.check(&bad).is_err());
    }
}
