//! A common search-effort summary for every engine in this crate.
//!
//! The four oracles count different things natively (CDCL conflicts,
//! AC-3 revisions, LP relaxations solved), but mapper-level telemetry
//! wants one vocabulary; `SolverStats` is the translation layer each
//! engine exposes via its `stats()` accessor.

/// Cumulative search effort of one solver instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Branching decisions (CDCL decides, CP/ILP branch nodes).
    pub decisions: u64,
    /// Propagation work (unit propagations, AC-3 revisions, LP solves).
    pub propagations: u64,
    /// Conflicts / dead ends (CDCL conflicts, CP failed propagations,
    /// infeasible or pruned ILP nodes, SMT theory conflicts).
    pub conflicts: u64,
    /// Restarts (Luby restarts; zero for engines without restarts).
    pub restarts: u64,
    /// Incremental solves answered under assumptions (CDCL
    /// `solve_with_assumptions` calls; zero for other engines).
    pub assumption_solves: u64,
    /// Learnt clauses retained across clause-database reductions
    /// (survivors summed over every GC pass).
    pub learnt_kept: u64,
    /// Learnt clauses garbage-collected by database reductions.
    pub learnt_gcd: u64,
    /// Simplex pivots (ILP relaxations; zero for other engines).
    pub lp_pivots: u64,
}

impl SolverStats {
    /// Component-wise difference vs an earlier snapshot of the same
    /// solver (saturating, so a fresh solver baseline is always safe).
    pub fn since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            assumption_solves: self
                .assumption_solves
                .saturating_sub(earlier.assumption_solves),
            learnt_kept: self.learnt_kept.saturating_sub(earlier.learnt_kept),
            learnt_gcd: self.learnt_gcd.saturating_sub(earlier.learnt_gcd),
            lp_pivots: self.lp_pivots.saturating_sub(earlier.lp_pivots),
        }
    }

    /// Component-wise sum.
    pub fn merged(&self, other: &SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions + other.decisions,
            propagations: self.propagations + other.propagations,
            conflicts: self.conflicts + other.conflicts,
            restarts: self.restarts + other.restarts,
            assumption_solves: self.assumption_solves + other.assumption_solves,
            learnt_kept: self.learnt_kept + other.learnt_kept,
            learnt_gcd: self.learnt_gcd + other.learnt_gcd,
            lp_pivots: self.lp_pivots + other.lp_pivots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_and_merged() {
        let a = SolverStats {
            decisions: 10,
            propagations: 100,
            conflicts: 5,
            restarts: 1,
            ..Default::default()
        };
        let b = SolverStats {
            decisions: 4,
            propagations: 40,
            conflicts: 2,
            restarts: 0,
            ..Default::default()
        };
        let d = a.since(&b);
        assert_eq!(d.decisions, 6);
        assert_eq!(d.propagations, 60);
        assert_eq!(b.since(&a), SolverStats::default());
        let m = a.merged(&b);
        assert_eq!(m.decisions, 14);
        assert_eq!(m.restarts, 1);
    }

    #[test]
    fn incremental_fields_flow_through() {
        let a = SolverStats {
            assumption_solves: 3,
            learnt_kept: 20,
            learnt_gcd: 12,
            lp_pivots: 90,
            ..Default::default()
        };
        let b = SolverStats {
            assumption_solves: 1,
            learnt_kept: 5,
            learnt_gcd: 4,
            lp_pivots: 30,
            ..Default::default()
        };
        let d = a.since(&b);
        assert_eq!(d.assumption_solves, 2);
        assert_eq!(d.learnt_kept, 15);
        assert_eq!(d.learnt_gcd, 8);
        assert_eq!(d.lp_pivots, 60);
        let m = a.merged(&b);
        assert_eq!(m.assumption_solves, 4);
        assert_eq!(m.learnt_kept, 25);
        assert_eq!(m.lp_pivots, 120);
    }
}
