//! Space-time resource accounting: the modulo routing resource graph
//! (MRRG) occupancy model.
//!
//! A temporal mapping folds time modulo the initiation interval II.
//! Each PE exposes two resources per modulo slot:
//!
//! * an **issue slot** (`Fu`) of capacity 1 — at most one operation may
//!   issue on a PE in a given slot, and
//! * a **register track** (`Reg`) of capacity `rf_size` — values held
//!   on or routed through the PE occupy one register for each cycle
//!   they are present.
//!
//! A value held across `k ≥ II` cycles wraps around and occupies the
//! same slot multiple times — occupancy is therefore a *count*, not a
//! set, which is exactly how DRESC-lineage mappers model modulo
//! resource conflicts. Setting `ii` to the schedule horizon turns the
//! same structure into the plain time-extended CGRA (TEC).

use crate::fabric::{Fabric, PeId};
use serde::Serialize;

/// Identifies one space-time resource (a PE at a modulo slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct ResourceKey {
    pub pe: PeId,
    /// Modulo time slot in `0..ii`.
    pub slot: u32,
}

/// Occupancy counters over an MRRG (or TEC when `ii` == horizon).
#[derive(Debug, Clone)]
pub struct SpaceTime {
    num_pes: usize,
    ii: u32,
    rf_size: u32,
    fu: Vec<u32>,
    reg: Vec<u32>,
}

impl SpaceTime {
    /// Empty occupancy for `fabric` at initiation interval `ii`.
    pub fn new(fabric: &Fabric, ii: u32) -> Self {
        assert!(ii >= 1, "II must be at least 1");
        let cells = fabric.num_pes() * ii as usize;
        SpaceTime {
            num_pes: fabric.num_pes(),
            ii,
            rf_size: fabric.rf_size,
            fu: vec![0; cells],
            reg: vec![0; cells],
        }
    }

    #[inline]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Modulo slot of absolute cycle `t`.
    #[inline]
    pub fn slot(&self, t: u32) -> u32 {
        t % self.ii
    }

    #[inline]
    fn idx(&self, pe: PeId, t: u32) -> usize {
        (t % self.ii) as usize * self.num_pes + pe.index()
    }

    /// Is the issue slot of `pe` free at absolute cycle `t`?
    #[inline]
    pub fn fu_free(&self, pe: PeId, t: u32) -> bool {
        self.fu[self.idx(pe, t)] == 0
    }

    /// Occupy the issue slot (counts over-subscription rather than
    /// failing, so meta-heuristics can walk through infeasible states).
    #[inline]
    pub fn occupy_fu(&mut self, pe: PeId, t: u32) {
        let i = self.idx(pe, t);
        self.fu[i] += 1;
    }

    #[inline]
    pub fn release_fu(&mut self, pe: PeId, t: u32) {
        let i = self.idx(pe, t);
        debug_assert!(self.fu[i] > 0, "releasing a free FU");
        self.fu[i] -= 1;
    }

    /// Current issue-slot occupancy count.
    #[inline]
    pub fn fu_count(&self, pe: PeId, t: u32) -> u32 {
        self.fu[self.idx(pe, t)]
    }

    /// Remaining register capacity of `pe` at cycle `t` (0 when full or
    /// over-subscribed).
    #[inline]
    pub fn reg_headroom(&self, pe: PeId, t: u32) -> u32 {
        self.rf_size.saturating_sub(self.reg[self.idx(pe, t)])
    }

    #[inline]
    pub fn occupy_reg(&mut self, pe: PeId, t: u32) {
        let i = self.idx(pe, t);
        self.reg[i] += 1;
    }

    #[inline]
    pub fn release_reg(&mut self, pe: PeId, t: u32) {
        let i = self.idx(pe, t);
        debug_assert!(self.reg[i] > 0, "releasing a free register");
        self.reg[i] -= 1;
    }

    #[inline]
    pub fn reg_count(&self, pe: PeId, t: u32) -> u32 {
        self.reg[self.idx(pe, t)]
    }

    /// Total over-subscription across all resources: zero iff the
    /// occupancy is feasible. The standard SA/PathFinder cost term.
    pub fn overuse(&self) -> u64 {
        let fu_over: u64 = self.fu.iter().map(|&c| c.saturating_sub(1) as u64).sum();
        let reg_over: u64 = self
            .reg
            .iter()
            .map(|&c| c.saturating_sub(self.rf_size) as u64)
            .sum();
        fu_over + reg_over
    }

    /// Fraction of issue slots in use (the utilisation metric of the
    /// Table I experiment reports).
    pub fn fu_utilisation(&self) -> f64 {
        let used = self.fu.iter().filter(|&&c| c > 0).count();
        used as f64 / self.fu.len() as f64
    }

    /// Clear all occupancy.
    pub fn clear(&mut self) {
        self.fu.fill(0);
        self.reg.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, Topology};

    fn st(ii: u32) -> SpaceTime {
        SpaceTime::new(&Fabric::homogeneous(2, 2, Topology::Mesh), ii)
    }

    #[test]
    fn modulo_folding() {
        let mut s = st(2);
        let pe = PeId(0);
        s.occupy_fu(pe, 0);
        assert!(!s.fu_free(pe, 0));
        assert!(!s.fu_free(pe, 2)); // same modulo slot
        assert!(s.fu_free(pe, 1));
        assert!(s.fu_free(pe, 3));
    }

    #[test]
    fn overuse_counts_excess() {
        let mut s = st(1);
        let pe = PeId(1);
        s.occupy_fu(pe, 0);
        assert_eq!(s.overuse(), 0);
        s.occupy_fu(pe, 5); // folds onto the same slot
        assert_eq!(s.overuse(), 1);
        s.release_fu(pe, 5);
        assert_eq!(s.overuse(), 0);
    }

    #[test]
    fn register_capacity() {
        let mut s = st(1); // rf_size = 8 from the homogeneous preset
        let pe = PeId(2);
        for _ in 0..8 {
            s.occupy_reg(pe, 0);
        }
        assert_eq!(s.reg_headroom(pe, 0), 0);
        assert_eq!(s.overuse(), 0);
        s.occupy_reg(pe, 0);
        assert_eq!(s.overuse(), 1);
    }

    #[test]
    fn long_hold_wraps_and_accumulates() {
        // A value held 3 cycles at II=2 occupies one slot twice.
        let mut s = st(2);
        let pe = PeId(0);
        for t in 10..13 {
            s.occupy_reg(pe, t);
        }
        assert_eq!(s.reg_count(pe, 0), 2); // cycles 10 and 12
        assert_eq!(s.reg_count(pe, 1), 1); // cycle 11
    }

    #[test]
    fn utilisation_and_clear() {
        let mut s = st(2);
        s.occupy_fu(PeId(0), 0);
        s.occupy_fu(PeId(1), 1);
        assert!((s.fu_utilisation() - 2.0 / 8.0).abs() < 1e-9);
        s.clear();
        assert_eq!(s.fu_utilisation(), 0.0);
        assert_eq!(s.overuse(), 0);
    }
}
