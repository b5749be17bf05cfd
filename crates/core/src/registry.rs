//! The mapper registry: every technique registered once, by name.
//!
//! The registry is the single source of truth for the mapper zoo: one
//! [`MapperSpec`] per technique — name, Table I family, spatial flag,
//! constructor — and every consumer (the CLI's lookup, the bench
//! drivers' portfolio, the service, the tests) builds its zoo from
//! [`MapperRegistry::standard`], all of it or filtered by
//! [`MapperSpec::family`]. Unknown-name errors carry the full list of
//! valid names so `--mapper` typos are self-explanatory.

use crate::mapper::{Family, Mapper};
use crate::mappers::*;
use std::fmt;
use std::sync::OnceLock;

/// One registered mapping technique.
pub struct MapperSpec {
    /// The name reported by [`Mapper::name`] ("modulo-list", "sa", …).
    pub name: &'static str,
    /// Table I taxonomy cell.
    pub family: Family,
    /// True for spatial (II = 1) mappers.
    pub spatial: bool,
    ctor: fn() -> Box<dyn Mapper>,
}

impl MapperSpec {
    /// Construct the mapper at default settings.
    pub fn build(&self) -> Box<dyn Mapper> {
        (self.ctor)()
    }
}

impl fmt::Debug for MapperSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MapperSpec")
            .field("name", &self.name)
            .field("family", &self.family)
            .field("spatial", &self.spatial)
            .finish()
    }
}

/// A name that is not in the registry, with the valid alternatives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownMapper {
    pub requested: String,
    pub valid: Vec<&'static str>,
}

impl fmt::Display for UnknownMapper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown mapper `{}`; valid mappers: {}",
            self.requested,
            self.valid.join(", ")
        )
    }
}

impl std::error::Error for UnknownMapper {}

/// The registry of mapping techniques.
#[derive(Debug)]
pub struct MapperRegistry {
    specs: Vec<MapperSpec>,
}

macro_rules! spec {
    ($name:literal, $family:expr, $spatial:expr, $ty:ty) => {
        MapperSpec {
            name: $name,
            family: $family,
            spatial: $spatial,
            ctor: || Box::new(<$ty>::default()),
        }
    };
}

impl MapperRegistry {
    /// The standard zoo: every Table I technique, in the canonical
    /// report order (spatial → temporal heuristics → meta-heuristics →
    /// exact methods).
    pub fn standard() -> &'static MapperRegistry {
        static REGISTRY: OnceLock<MapperRegistry> = OnceLock::new();
        REGISTRY.get_or_init(|| MapperRegistry {
            specs: vec![
                spec!("spatial-greedy", Family::Heuristic, true, SpatialGreedy),
                spec!("graph-drawing", Family::Heuristic, true, GraphDrawing),
                spec!("modulo-list", Family::Heuristic, false, ModuloList),
                spec!("edge-centric", Family::Heuristic, false, EdgeCentric),
                spec!("epimap", Family::Heuristic, false, EpiMap),
                spec!("ramp", Family::Heuristic, false, Ramp),
                spec!("himap", Family::Heuristic, false, HiMap),
                spec!("graph-minor", Family::Heuristic, false, GraphMinor),
                spec!("sa", Family::MetaLocalSearch, false, SimulatedAnnealing),
                spec!("ga", Family::MetaPopulation, false, Genetic),
                spec!("qea", Family::MetaPopulation, false, Qea),
                spec!("ilp", Family::ExactIlp, false, IlpMapper),
                spec!("bnb", Family::ExactIlp, false, BranchAndBound),
                spec!("cp", Family::ExactCsp, false, CpMapper),
                spec!("sat", Family::ExactCsp, false, SatMapper),
                spec!("smt", Family::ExactCsp, false, SmtMapper),
            ],
        })
    }

    /// Every registered spec, in report order.
    pub fn specs(&self) -> &[MapperSpec] {
        &self.specs
    }

    /// Every registered name, in report order.
    pub fn names(&self) -> Vec<&'static str> {
        self.specs.iter().map(|s| s.name).collect()
    }

    /// Look a spec up by name.
    pub fn get(&self, name: &str) -> Option<&MapperSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// Construct the named mapper, or an error listing valid names.
    pub fn build(&self, name: &str) -> Result<Box<dyn Mapper>, UnknownMapper> {
        self.get(name)
            .map(MapperSpec::build)
            .ok_or_else(|| UnknownMapper {
                requested: name.to_string(),
                valid: self.names(),
            })
    }

    /// Construct every mapper (the Table I experiment portfolio).
    pub fn build_all(&self) -> Vec<Box<dyn Mapper>> {
        self.specs.iter().map(MapperSpec::build).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_metadata_matches_the_mapper() {
        for spec in MapperRegistry::standard().specs() {
            let m = spec.build();
            assert_eq!(m.name(), spec.name, "{}", spec.name);
            assert_eq!(m.family(), spec.family, "{}", spec.name);
            assert_eq!(m.is_spatial(), spec.spatial, "{}", spec.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let names = MapperRegistry::standard().names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn unknown_name_lists_alternatives() {
        let err = match MapperRegistry::standard().build("no-such") {
            Err(e) => e,
            Ok(m) => panic!("`no-such` unexpectedly built `{}`", m.name()),
        };
        assert_eq!(err.requested, "no-such");
        assert!(err.valid.contains(&"modulo-list"));
        let msg = err.to_string();
        assert!(msg.contains("no-such") && msg.contains("sat"));
    }

    /// Table I compares each technique at the one configuration it
    /// ships with, so a setting with one value in use is a constant in
    /// its mapper's file, not a field. These twelve have none; a field
    /// coming back must take its mapper off this list and say which
    /// caller sets it.
    #[test]
    fn knob_free_mappers_are_zero_sized() {
        use std::mem::size_of;
        let sizes = [
            ("graph-drawing", size_of::<GraphDrawing>()),
            ("modulo-list", size_of::<ModuloList>()),
            ("edge-centric", size_of::<EdgeCentric>()),
            ("ramp", size_of::<Ramp>()),
            ("himap", size_of::<HiMap>()),
            ("graph-minor", size_of::<GraphMinor>()),
            ("ga", size_of::<Genetic>()),
            ("qea", size_of::<Qea>()),
            ("ilp", size_of::<IlpMapper>()),
            ("bnb", size_of::<BranchAndBound>()),
            ("cp", size_of::<CpMapper>()),
            ("smt", size_of::<SmtMapper>()),
        ];
        for (name, size) in sizes {
            assert_eq!(size, 0, "{name} carries a field again");
        }
    }

    #[test]
    fn build_by_name_works() {
        let m = MapperRegistry::standard().build("sa").unwrap();
        assert_eq!(m.name(), "sa");
    }
}
