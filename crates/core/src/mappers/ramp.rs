//! RAMP-style resource-aware remapping (Dave et al., DAC 2018).
//!
//! RAMP's insight is that mapping failures are *local*: when an
//! operation cannot be placed, do not give up on the II — identify the
//! blocking resources, rip the offending neighbourhood up, and remap
//! with the failed operation given priority. Only when repeated
//! rip-up/remap rounds fail does the II increase.

use super::state::{priority_order, SchedState};
use super::sweep::{SweepCtx, TemporalSearch, Verdict};
use crate::mapper::Family;
use crate::mapping::Mapping;
use cgra_ir::NodeId;
use std::collections::VecDeque;

/// The failure-driven remapping mapper.
#[derive(Debug, Clone, Default)]
pub struct Ramp;

/// Rip-up/remap rounds per II before escalating.
const MAX_RIPUPS: u32 = 40;
/// Time window (in IIs) scanned per placement attempt.
const WINDOW_IIS: u32 = 3;

impl Ramp {
    fn schedule(&self, ctx: &SweepCtx<'_>, ii: u32) -> Option<Mapping> {
        let mut state = SchedState::new(ctx, ii);
        let (order, height) = priority_order(ctx.dfg, ctx.fabric);
        let mut queue: VecDeque<NodeId> = order.into();
        let mut ripups = 0u32;

        while let Some(n) = queue.pop_front() {
            if ctx.budget.expired() {
                return None;
            }
            if state.placed(n).is_some() {
                continue;
            }
            let placed = state
                .window(n, WINDOW_IIS)
                .is_some_and(|w| state.place_in_window(n, w, 24));
            if placed {
                continue;
            }
            // Failure: rip up the most attractive neighbourhood and
            // retry with this op first.
            ripups += 1;
            if ripups > MAX_RIPUPS {
                return None;
            }
            let victims = self.pick_victims(&state, n, state.est(n));
            if victims.is_empty() {
                return None; // nothing to rip up: genuinely stuck
            }
            for v in &victims {
                state.unplace(*v);
            }
            // Failed op first, then victims by priority.
            queue.push_front(n);
            let mut vs = victims;
            vs.sort_by_key(|v| std::cmp::Reverse(height[v.index()]));
            for v in vs {
                queue.push_back(v);
            }
        }
        state.into_mapping()
    }

    /// Victims: placed ops occupying the failed op's preferred PEs in
    /// its preferred time band.
    fn pick_victims(&self, state: &SchedState<'_>, n: NodeId, est: u32) -> Vec<NodeId> {
        let prefs = state.candidate_pes(n, 6);
        let band_lo = est;
        let band_hi = est + state.ii * WINDOW_IIS;
        let mut victims = Vec::new();
        for (i, p) in state.place.iter().enumerate() {
            if let Some(p) = p {
                let same_slot_band = (band_lo..=band_hi).any(|t| t % state.ii == p.time % state.ii);
                if prefs.contains(&p.pe) && same_slot_band {
                    victims.push(NodeId(i as u32));
                }
            }
        }
        victims.truncate(4);
        victims
    }
}

impl TemporalSearch for Ramp {
    const NAME: &'static str = "ramp";
    const FAMILY: Family = Family::Heuristic;
    type State = ();

    fn prepare(&self, _: &SweepCtx<'_>) {}

    fn try_ii(&self, ctx: &SweepCtx<'_>, _: &mut (), ii: u32) -> Verdict {
        let m = self.schedule(ctx, ii);
        m.inspect(|_| ctx.incumbent(Self::NAME, ii, ii as f64))
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
    fn maps_suite_on_4x4() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        for dfg in kernels::suite() {
            let m = Ramp
                .map(&dfg, &f, &MapConfig::fast())
                .unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
            validate(&m, &dfg, &f).unwrap_or_else(|e| panic!("{}: {e}", dfg.name));
        }
    }

    #[test]
    fn pressure_fabric_exercises_ripup() {
        // A tiny 2x2 fabric with rf 2: dense kernels force failures and
        // remapping rounds.
        let mut f = Fabric::homogeneous(2, 2, Topology::Mesh);
        f.rf_size = 2;
        let dfg = kernels::sad();
        let m = Ramp.map(&dfg, &f, &MapConfig::fast());
        if let Ok(m) = m {
            validate(&m, &dfg, &f).unwrap();
        }
        // Failing is acceptable on this adversarial fabric; panicking
        // or returning an invalid mapping is not.
    }

    #[test]
    fn ramp_ii_not_worse_than_much_larger() {
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let dfg = kernels::fir(4);
        let m = Ramp.map(&dfg, &f, &MapConfig::fast()).unwrap();
        let met = Metrics::of(&m, &dfg, &f);
        assert!(met.ii <= 4, "II {} unexpectedly large", met.ii);
    }
}
