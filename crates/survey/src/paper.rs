//! Record types for the survey's reference corpus.

use serde::Serialize;

/// Row axis of Table I: which sub-problem the technique solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum Axis {
    /// Binding only (spatial architectures).
    SpatialMapping,
    /// Binding and scheduling solved together.
    TemporalMapping,
    /// Binding solved separately.
    Binding,
    /// Scheduling solved separately.
    Scheduling,
}

impl Axis {
    pub fn label(self) -> &'static str {
        match self {
            Axis::SpatialMapping => "Spatial mapping",
            Axis::TemporalMapping => "Temporal mapping",
            Axis::Binding => "Binding",
            Axis::Scheduling => "Scheduling",
        }
    }

    pub fn all() -> [Axis; 4] {
        [
            Axis::SpatialMapping,
            Axis::TemporalMapping,
            Axis::Binding,
            Axis::Scheduling,
        ]
    }
}

/// Column of Table I: the solution technique family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum Technique {
    Heuristic,
    /// Population-based meta-heuristic: genetic algorithm.
    Ga,
    /// Population-based meta-heuristic: quantum-inspired EA.
    Qea,
    /// Local-search meta-heuristic: simulated annealing.
    Sa,
    Ilp,
    BranchAndBound,
    Cp,
    Sat,
    Smt,
}

impl Technique {
    pub fn label(self) -> &'static str {
        match self {
            Technique::Heuristic => "Heuristics",
            Technique::Ga => "GA",
            Technique::Qea => "QEA",
            Technique::Sa => "SA",
            Technique::Ilp => "ILP",
            Technique::BranchAndBound => "B&B",
            Technique::Cp => "CP",
            Technique::Sat => "SAT",
            Technique::Smt => "SMT",
        }
    }

    /// The paper's top split: approximate vs exact methods.
    pub fn is_exact(self) -> bool {
        matches!(
            self,
            Technique::Ilp
                | Technique::BranchAndBound
                | Technique::Cp
                | Technique::Sat
                | Technique::Smt
        )
    }
}

/// Technique eras annotated on the Figure 4 timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum Tag {
    ModuloScheduling,
    FullPredication,
    PartialPredication,
    DualIssue,
    DirectMapping,
    LoopUnrolling,
    MemoryAware,
    Polyhedral,
    HardwareLoops,
    /// Register allocation / register-file aware methods.
    RegisterAware,
    /// Machine-learning-based mapping.
    MachineLearning,
    /// Open-source framework.
    OpenSource,
    /// Scalability-oriented (hierarchical, pruning).
    Scalability,
    /// Streaming/dataflow programming model.
    Streaming,
}

impl Tag {
    pub fn label(self) -> &'static str {
        match self {
            Tag::ModuloScheduling => "Modulo scheduling",
            Tag::FullPredication => "Full predication",
            Tag::PartialPredication => "Partial predication",
            Tag::DualIssue => "Dual-issue single execution",
            Tag::DirectMapping => "Direct mapping",
            Tag::LoopUnrolling => "Loop unrolling",
            Tag::MemoryAware => "Memory aware",
            Tag::Polyhedral => "Polyhedral model",
            Tag::HardwareLoops => "Hardware loops",
            Tag::RegisterAware => "Register aware",
            Tag::MachineLearning => "Machine learning",
            Tag::OpenSource => "Open source",
            Tag::Scalability => "Scalability",
            Tag::Streaming => "Streaming",
        }
    }
}

/// One reference of the survey.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PaperRecord {
    /// The survey's own reference number `[n]`.
    pub ref_num: u8,
    /// Short citation key (first author + year).
    pub key: &'static str,
    pub first_author: &'static str,
    pub year: u16,
    pub venue: &'static str,
    pub title: &'static str,
    /// Table I cells this paper occupies (empty for non-mapping refs).
    pub cells: Vec<(Axis, Technique)>,
    /// Timeline-era tags.
    pub tags: Vec<Tag>,
    /// Counted in the Figure 4 histogram (papers focusing on CGRA
    /// mapping, the survey's inclusion criterion).
    pub mapping_focused: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_meta_partition() {
        use Technique::*;
        for t in [Heuristic, Ga, Qea, Sa] {
            assert!(!t.is_exact());
        }
        for t in [Ilp, BranchAndBound, Cp, Sat, Smt] {
            assert!(t.is_exact());
        }
    }

    #[test]
    fn labels_unique() {
        let labels: Vec<&str> = Axis::all().iter().map(|a| a.label()).collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels, dedup);
    }
}
