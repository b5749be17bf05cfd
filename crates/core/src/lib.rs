//! # cgra-mapper-core
//!
//! The unified CGRA mapping framework: one `Mapping` representation,
//! one validator, one router — and an implementation of every mapping
//! technique family classified in Table I of Martin's survey
//! (*Twenty Years of Automated Methods for Mapping Applications on
//! CGRA*, IPDPSW 2022):
//!
//! | Family | Mappers here |
//! |---|---|
//! | Heuristics (spatial) | [`mappers::SpatialGreedy`], [`mappers::GraphDrawing`] |
//! | Heuristics (temporal) | [`mappers::ModuloList`], [`mappers::EdgeCentric`], [`mappers::EpiMap`], [`mappers::Ramp`], [`mappers::HiMap`], [`mappers::GraphMinor`] |
//! | Meta-heuristics | [`mappers::SimulatedAnnealing`], [`mappers::Genetic`], [`mappers::Qea`] |
//! | ILP / B&B | [`mappers::IlpMapper`], [`mappers::BranchAndBound`] |
//! | CSP (CP / SAT / SMT) | [`mappers::CpMapper`], [`mappers::SatMapper`], [`mappers::SmtMapper`] |
//!
//! The mapping model (see [`mapping`]) is the common denominator of the
//! surveyed techniques: operations bind to `(PE, cycle)` pairs, values
//! move one hop per cycle through register files, time folds modulo the
//! initiation interval (II), and a *spatial* mapping is the special
//! case II = 1 with at most one operation per PE.
//!
//! ```
//! use cgra_ir::kernels;
//! use cgra_arch::{Fabric, Topology};
//! use cgra_mapper_core::prelude::*;
//!
//! let dfg = kernels::dot_product();
//! let fabric = Fabric::homogeneous(4, 4, Topology::Mesh);
//! let mapper = ModuloList;
//! let mapping = mapper.map(&dfg, &fabric, &MapConfig::default()).unwrap();
//! validate(&mapping, &dfg, &fabric).unwrap();
//! assert!(mapping.ii >= 1);
//! ```

pub mod ctrlflow;
pub mod diagnosis;
pub mod engine;
pub mod fleet;
pub mod ledger;
pub mod mapper;
pub mod mappers;
pub mod mapping;
pub mod memmap;
pub mod metrics;
pub mod portfolio;
pub mod registry;
pub mod report;
pub mod request;
pub mod route;
pub mod servemetrics;
pub mod service;
pub mod streaming;
pub mod telemetry;
pub mod validate;

pub use diagnosis::{diagnose_mii_bound, Diagnosis, ResourceClass};
pub use engine::{parallel_ii, race, Budget, CancelToken, RaceOutcome};
pub use fleet::{
    co_map, fabric_label, max_partitions, partition_fabric, plan, run, run_sequential, CoMapReport,
    CoMapped, FleetError, FleetFabric, FleetFabricReport, FleetJobResult, FleetPlan, FleetReport,
    Partition, PlannedJob,
};
pub use ledger::{EventKind, LedgerEvent};
pub use mapper::{
    ConfigError, Family, Infeasibility, MapConfig, MapConfigBuilder, MapError, Mapper,
};
pub use mapping::{Mapping, Placement, Route};
pub use metrics::{Metrics, UtilizationMap};
pub use registry::{MapperRegistry, MapperSpec, UnknownMapper};
pub use report::LatencySummary;
pub use request::{
    CacheKey, CacheStatus, ExecMode, FabricSpec, KernelSpec, MapOutcome, MapRequest, RequestConfig,
    RequestError,
};
pub use servemetrics::{render_prometheus, AccessLog, AccessRecord, ServiceMetrics};
pub use service::{MapService, ResultCache, ServiceOptions, ServiceStats};
pub use telemetry::{
    AtomicHistogram, Counter, Histogram, Phase, SearchStats, SpanRecord, StatsSnapshot, Telemetry,
    HISTOGRAM_BUCKETS,
};
pub use validate::{validate, validate_with, ValidationError};

use std::sync::{LockResult, PoisonError};

/// The value of a `std::sync` lock result, poisoned or not: pass it a
/// `Mutex::lock`, `Mutex::into_inner` or `Condvar::wait` result.
///
/// A thread that panics while holding a mutex poisons it, and every
/// later `unwrap` of that lock panics in turn, so one failed request
/// would take every worker of `cgra-serve` down after it. Poison says
/// only that some holder panicked. The locks here guard caches,
/// counters, result lists and logs, where an update cut short costs at
/// most that one entry, so the data is used as it is.
pub fn unpoison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Everything a mapper user needs.
pub mod prelude {
    pub use crate::diagnosis::{diagnose_mii_bound, Diagnosis, ResourceClass};
    pub use crate::engine::{parallel_ii, race, Budget, CancelToken, RaceOutcome};
    pub use crate::fleet::{
        co_map, partition_fabric, CoMapReport, FleetError, FleetFabric, FleetPlan, FleetReport,
        Partition,
    };
    pub use crate::ledger::{EventKind, LedgerEvent};
    pub use crate::mapper::{
        ConfigError, Family, Infeasibility, MapConfig, MapConfigBuilder, MapError, Mapper,
    };
    pub use crate::mappers::*;
    pub use crate::mapping::{Mapping, Placement, Route};
    pub use crate::metrics::{Metrics, UtilizationMap};
    pub use crate::registry::{MapperRegistry, MapperSpec, UnknownMapper};
    pub use crate::report::LatencySummary;
    pub use crate::request::{
        CacheKey, CacheStatus, ExecMode, FabricSpec, KernelSpec, MapOutcome, MapRequest,
        RequestConfig, RequestError,
    };
    pub use crate::servemetrics::{AccessLog, AccessRecord, ServiceMetrics};
    pub use crate::service::{MapService, ResultCache, ServiceOptions, ServiceStats};
    pub use crate::telemetry::{Counter, Phase, SearchStats, SpanRecord, StatsSnapshot, Telemetry};
    pub use crate::validate::{validate, validate_with};
}
