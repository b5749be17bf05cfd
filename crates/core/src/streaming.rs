//! Streaming-application mapping (ChordMap lineage — Li et al., IEEE
//! TCAD 2021; the dataflow model of computation the survey's §IV-B-a
//! names as the natural fit for CGRAs).
//!
//! A streaming application is a synchronous-dataflow (SDF) graph whose
//! actors are loop kernels and whose channels carry one token per
//! iteration. Mapping carves the fabric into one rectangle per actor, maps
//! every actor onto its rectangle (with any [`Mapper`]), and the pipeline
//! throughput is set by the slowest actor:
//! `1 / max_k II_k` iterations per cycle, all actors running
//! concurrently on their partitions.

use crate::fleet::{self, Partition};
use crate::mapper::{MapConfig, MapError, Mapper};
use crate::mapping::Mapping;
use crate::metrics::Metrics;
use crate::request::FabricSpec;
use cgra_arch::TopologyCache;
use cgra_ir::interp::{Interpreter, Tape};
use cgra_ir::{Dfg, OpKind, Value};
use std::collections::HashMap;

/// A channel: one token per iteration from an output stream of the
/// producer actor to an input stream of the consumer actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Channel {
    pub from_actor: usize,
    pub from_stream: u32,
    pub to_actor: usize,
    pub to_stream: u32,
}

/// A synchronous-dataflow application: actors (loop kernels) plus
/// channels.
#[derive(Debug, Clone, Default)]
pub struct SdfGraph {
    pub actors: Vec<Dfg>,
    pub channels: Vec<Channel>,
}

impl SdfGraph {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_actor(&mut self, dfg: Dfg) -> usize {
        self.actors.push(dfg);
        self.actors.len() - 1
    }

    pub fn connect(&mut self, from: (usize, u32), to: (usize, u32)) {
        self.channels.push(Channel {
            from_actor: from.0,
            from_stream: from.1,
            to_actor: to.0,
            to_stream: to.1,
        });
    }

    /// Actors in a topological order of the channel graph. `None` if
    /// the channel graph is cyclic (feedback needs explicit delays,
    /// which this model does not support).
    pub fn topo_actors(&self) -> Option<Vec<usize>> {
        let n = self.actors.len();
        let mut indeg = vec![0usize; n];
        for c in &self.channels {
            indeg[c.to_actor] += 1;
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(a) = stack.pop() {
            order.push(a);
            for c in &self.channels {
                if c.from_actor == a {
                    indeg[c.to_actor] -= 1;
                    if indeg[c.to_actor] == 0 {
                        stack.push(c.to_actor);
                    }
                }
            }
        }
        (order.len() == n).then_some(order)
    }
}

/// A mapped streaming application.
#[derive(Debug, Clone)]
pub struct StreamMapping {
    /// Per-actor partition of the fabric (disjoint rectangles).
    pub regions: Vec<Partition>,
    /// Per-actor mapping *in its partition's sub-fabric coordinates*;
    /// [`Partition::translate_up`] places it on the full fabric.
    pub mappings: Vec<Mapping>,
    /// Pipeline initiation interval: `max_k II_k`.
    pub pipeline_ii: u32,
}

impl StreamMapping {
    /// Steady-state pipeline throughput (iterations per cycle).
    pub fn throughput(&self) -> f64 {
        1.0 / self.pipeline_ii as f64
    }
}

/// Map a streaming application: carve the fabric into one partition
/// per actor with [`fleet::partition_fabric`], map every actor on its
/// partition with `mapper`, and check each mapping, translated up, on
/// the full fabric. Torus and ADRES fabrics cannot be carved
/// faithfully and are `Unsupported`.
pub fn map_streaming(
    sdf: &SdfGraph,
    fabric: &FabricSpec,
    mapper: &dyn Mapper,
    cfg: &MapConfig,
) -> Result<StreamMapping, MapError> {
    if sdf.actors.is_empty() {
        return Err(MapError::Unsupported("empty SDF graph".into()));
    }
    if sdf.topo_actors().is_none() {
        return Err(MapError::Unsupported(
            "cyclic SDF graphs need explicit channel delays".into(),
        ));
    }
    let max = fleet::max_partitions(fabric);
    if sdf.actors.len() > max {
        return Err(MapError::infeasible(format!(
            "{} actors need as many partitions; a {}x{} fabric holds {max}",
            sdf.actors.len(),
            fabric.rows,
            fabric.cols
        )));
    }
    let full = fabric.build().map_err(|e| MapError::Unsupported(e.0))?;
    let topo = TopologyCache::build(&full);
    let regions = fleet::partition_fabric(fabric, sdf.actors.len(), &topo)
        .map_err(|e| MapError::Unsupported(e.0))?;
    let mut mappings = Vec::with_capacity(sdf.actors.len());
    let mut pipeline_ii = 1;
    for (actor, part) in sdf.actors.iter().zip(&regions) {
        let sub = part.spec.build().map_err(|e| MapError::Unsupported(e.0))?;
        let m = mapper.map(actor, &sub, cfg).map_err(|e| {
            MapError::infeasible(format!(
                "actor `{}` failed in its {}x{} partition: {e}",
                actor.name, part.spec.rows, part.spec.cols
            ))
        })?;
        crate::validate::validate(&part.translate_up(&m, fabric), actor, &full)
            .map_err(|e| MapError::infeasible(format!("invalid actor mapping: {e}")))?;
        pipeline_ii = pipeline_ii.max(m.ii);
        mappings.push(m);
    }
    Ok(StreamMapping {
        regions,
        mappings,
        pipeline_ii,
    })
}

/// Execute the streaming pipeline functionally for `iters` tokens:
/// actors run in topological order, channel outputs feeding consumer
/// tapes (steady-state semantics; the spatial pipeline skew does not
/// change the token streams).
pub fn run_streaming(
    sdf: &SdfGraph,
    iters: usize,
    external: &HashMap<(usize, u32), Vec<Value>>,
) -> Result<Vec<Vec<Vec<Value>>>, String> {
    let order = sdf.topo_actors().ok_or("cyclic SDF graph")?;
    let mut outputs: Vec<Vec<Vec<Value>>> = vec![Vec::new(); sdf.actors.len()];
    for actor in order {
        let dfg = &sdf.actors[actor];
        let in_streams = dfg
            .nodes()
            .filter_map(|(_, n)| match n.op {
                OpKind::Input(s) => Some(s as usize + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let mut inputs = vec![vec![0; iters]; in_streams];
        for c in sdf.channels.iter().filter(|c| c.to_actor == actor) {
            inputs[c.to_stream as usize] = outputs[c.from_actor][c.from_stream as usize].clone();
        }
        for (&(a, s), vals) in external {
            if a == actor {
                inputs[s as usize] = vals.clone();
            }
        }
        let tape = Tape {
            inputs,
            memory: vec![],
        };
        let r = Interpreter::run(dfg, iters, &tape).map_err(|e| e.to_string())?;
        outputs[actor] = r.outputs;
    }
    Ok(outputs)
}

/// Per-actor metrics of a stream mapping (II, utilisation of its
/// partition).
pub fn stream_metrics(sdf: &SdfGraph, sm: &StreamMapping) -> Vec<(String, Metrics)> {
    sdf.actors
        .iter()
        .zip(&sm.regions)
        .zip(&sm.mappings)
        .map(|((actor, part), mapping)| {
            let sub = part
                .spec
                .build()
                .expect("the partition mapped, so it builds");
            (actor.name.clone(), Metrics::of(mapping, actor, &sub))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mappers::ModuloList;
    use cgra_arch::Topology;
    use cgra_ir::kernels;

    /// in → fir(3) → threshold → sad-vs-reference pipeline.
    fn pipeline() -> SdfGraph {
        let mut sdf = SdfGraph::new();
        let fir = sdf.add_actor(kernels::fir(3));
        let thr = sdf.add_actor(kernels::threshold());
        sdf.connect((fir, 0), (thr, 0));
        sdf
    }

    #[test]
    fn topo_and_external_inputs() {
        let sdf = pipeline();
        assert_eq!(sdf.topo_actors(), Some(vec![0, 1]));
    }

    fn mesh(rows: u16, cols: u16) -> FabricSpec {
        FabricSpec {
            rows,
            cols,
            topology: Topology::Mesh,
            adres: false,
        }
    }

    #[test]
    fn cyclic_graph_rejected() {
        let mut sdf = pipeline();
        sdf.connect((1, 0), (0, 0));
        assert!(sdf.topo_actors().is_none());
        let err = map_streaming(&sdf, &mesh(4, 8), &ModuloList, &MapConfig::fast());
        assert!(matches!(err, Err(MapError::Unsupported(_))));
    }

    #[test]
    fn maps_two_stage_pipeline() {
        let sdf = pipeline();
        let f = mesh(4, 8);
        let sm = map_streaming(&sdf, &f, &ModuloList, &MapConfig::fast()).expect("pipeline maps");
        assert_eq!(sm.mappings.len(), 2);
        assert!(sm.pipeline_ii >= 1);
        assert!(sm.throughput() <= 1.0);
        let full = f.build().unwrap();
        for ((actor, part), m) in sdf.actors.iter().zip(&sm.regions).zip(&sm.mappings) {
            crate::validate::validate(&part.translate_up(m, &f), actor, &full)
                .expect("a translated actor mapping validates on the full fabric");
        }
        let metrics = stream_metrics(&sdf, &sm);
        assert_eq!(metrics.len(), 2);
    }

    /// A strip of a torus would wrap at its own width: links the full
    /// fabric does not have.
    #[test]
    fn torus_and_adres_fabrics_are_refused() {
        let sdf = pipeline();
        let torus = FabricSpec {
            topology: Topology::Torus,
            ..mesh(4, 8)
        };
        let adres = FabricSpec {
            adres: true,
            ..mesh(4, 8)
        };
        for f in [torus, adres] {
            let err = map_streaming(&sdf, &f, &ModuloList, &MapConfig::fast());
            assert!(
                matches!(err, Err(MapError::Unsupported(_))),
                "{f:?}: {err:?}"
            );
        }
    }

    #[test]
    fn streaming_execution_matches_composition() {
        let sdf = pipeline();
        let xs: Vec<Value> = (0..8).map(|i| (i * 37) % 150).collect();
        let mut external = HashMap::new();
        external.insert((0usize, 0u32), xs.clone());
        let outs = run_streaming(&sdf, 8, &external).unwrap();
        // Reference: run fir then threshold manually.
        let fir = kernels::fir(3);
        let tape = Tape {
            inputs: vec![xs],
            memory: vec![],
        };
        let fir_out = Interpreter::run(&fir, 8, &tape).unwrap();
        let thr = kernels::threshold();
        let tape2 = Tape {
            inputs: vec![fir_out.outputs[0].clone()],
            memory: vec![],
        };
        let thr_out = Interpreter::run(&thr, 8, &tape2).unwrap();
        assert_eq!(outs[1], thr_out.outputs);
    }

    #[test]
    fn too_many_actors_for_fabric() {
        let mut sdf = SdfGraph::new();
        for _ in 0..5 {
            sdf.add_actor(kernels::accumulate());
        }
        let err = map_streaming(&sdf, &mesh(4, 4), &ModuloList, &MapConfig::fast());
        assert!(matches!(err, Err(MapError::Infeasible(_))));
    }
}
