//! The mapping validator: the single source of truth for what a valid
//! mapping is. Every mapper's output must pass this check; the
//! property-based test suite feeds random DFGs through every mapper and
//! asserts exactly this.

use crate::mapping::Mapping;
use cgra_arch::{Fabric, PeId, SpaceTime, TopologyCache};
use cgra_ir::{Dfg, EdgeId, NodeId};
use std::collections::HashMap;
use std::fmt;

/// Everything that can be wrong with a mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// Placement/route vectors don't match the DFG shape.
    ShapeMismatch,
    /// The DFG itself is malformed.
    BadDfg(String),
    /// II below 1 or above the fabric's context depth.
    BadIi { ii: u32, context_depth: u32 },
    /// An op is placed on a PE that cannot execute it.
    UnsupportedOp { node: NodeId, pe: PeId },
    /// Two ops issue on the same PE in the same modulo slot.
    FuConflict {
        a: NodeId,
        b: NodeId,
        pe: PeId,
        slot: u32,
    },
    /// A route is empty, starts/ends at the wrong place or time, or
    /// makes an illegal move.
    BadRoute { edge: EdgeId, why: String },
    /// The consumer issues before the producer's value is ready.
    LatencyViolation {
        edge: EdgeId,
        ready: u32,
        consume: u32,
    },
    /// Register over-subscription at a (pe, slot).
    RegisterOverflow {
        pe: PeId,
        slot: u32,
        used: u32,
        capacity: u32,
    },
    /// A spatial mapping (II = 1 one-op-per-PE contract) was promised
    /// but violated.
    NotSpatial,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::ShapeMismatch => write!(f, "placement/route shape mismatch"),
            ValidationError::BadDfg(e) => write!(f, "bad DFG: {e}"),
            ValidationError::BadIi { ii, context_depth } => {
                write!(f, "II {ii} outside 1..={context_depth}")
            }
            ValidationError::UnsupportedOp { node, pe } => {
                write!(f, "op {node} placed on incapable {pe}")
            }
            ValidationError::FuConflict { a, b, pe, slot } => {
                write!(f, "ops {a} and {b} both issue on {pe} slot {slot}")
            }
            ValidationError::BadRoute { edge, why } => write!(f, "edge e{}: {why}", edge.0),
            ValidationError::LatencyViolation {
                edge,
                ready,
                consume,
            } => write!(
                f,
                "edge e{}: consumed at {consume} before ready at {ready}",
                edge.0
            ),
            ValidationError::RegisterOverflow {
                pe,
                slot,
                used,
                capacity,
            } => {
                write!(f, "{pe} slot {slot}: {used} values > {capacity} registers")
            }
            ValidationError::NotSpatial => write!(f, "mapping violates the spatial contract"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validate `mapping` for `dfg` on `fabric`. Checks, in order:
/// DFG well-formedness, shape, II bounds, per-op capability, FU
/// exclusivity modulo II, route integrity (endpoints, adjacency,
/// timing), dependence latency, and register capacity with fan-out
/// sharing.
///
/// Builds a throwaway [`TopologyCache`] for the adjacency checks;
/// callers that already hold one should use [`validate_with`].
pub fn validate(mapping: &Mapping, dfg: &Dfg, fabric: &Fabric) -> Result<(), ValidationError> {
    let topo = TopologyCache::build(fabric);
    validate_with(mapping, dfg, fabric, &topo)
}

/// [`validate`] with a caller-supplied topology cache (no rebuild).
pub fn validate_with(
    mapping: &Mapping,
    dfg: &Dfg,
    fabric: &Fabric,
    topo: &TopologyCache,
) -> Result<(), ValidationError> {
    dfg.validate()
        .map_err(|e| ValidationError::BadDfg(e.to_string()))?;
    if mapping.place.len() != dfg.node_count() || mapping.routes.len() != dfg.edge_count() {
        return Err(ValidationError::ShapeMismatch);
    }
    if mapping.ii < 1 || mapping.ii > fabric.context_depth {
        return Err(ValidationError::BadIi {
            ii: mapping.ii,
            context_depth: fabric.context_depth,
        });
    }

    // Capability + FU exclusivity.
    let mut fu: HashMap<(PeId, u32), NodeId> = HashMap::new();
    for (id, node) in dfg.nodes() {
        let p = mapping.placement(id);
        if p.pe.index() >= fabric.num_pes() {
            return Err(ValidationError::UnsupportedOp { node: id, pe: p.pe });
        }
        if !fabric.supports(p.pe, node.op) {
            return Err(ValidationError::UnsupportedOp { node: id, pe: p.pe });
        }
        let slot = p.time % mapping.ii;
        if let Some(&other) = fu.get(&(p.pe, slot)) {
            return Err(ValidationError::FuConflict {
                a: other,
                b: id,
                pe: p.pe,
                slot,
            });
        }
        fu.insert((p.pe, slot), id);
    }

    // Routes.
    for (eid, edge) in dfg.edges() {
        let r = mapping.route(eid);
        let tr = mapping.ready_time(dfg, fabric, edge.src);
        let tc = mapping.consume_time(dfg, eid);
        if tc < tr {
            return Err(ValidationError::LatencyViolation {
                edge: eid,
                ready: tr,
                consume: tc,
            });
        }
        if r.steps.is_empty() {
            return Err(ValidationError::BadRoute {
                edge: eid,
                why: "empty route".into(),
            });
        }
        if r.start_time != tr {
            return Err(ValidationError::BadRoute {
                edge: eid,
                why: format!("starts at {} instead of ready time {tr}", r.start_time),
            });
        }
        if r.steps.len() as u32 != tc - tr + 1 {
            return Err(ValidationError::BadRoute {
                edge: eid,
                why: format!("covers {} cycles, needs {}", r.steps.len(), tc - tr + 1),
            });
        }
        if r.steps[0] != mapping.placement(edge.src).pe {
            return Err(ValidationError::BadRoute {
                edge: eid,
                why: "does not start at the producer".into(),
            });
        }
        if *r.steps.last().unwrap() != mapping.placement(edge.dst).pe {
            return Err(ValidationError::BadRoute {
                edge: eid,
                why: "does not end at the consumer".into(),
            });
        }
        for w in r.steps.windows(2) {
            if w[0] != w[1] && !topo.adjacent(w[0], w[1]) {
                return Err(ValidationError::BadRoute {
                    edge: eid,
                    why: format!("illegal move {} -> {}", w[0], w[1]),
                });
            }
        }
    }

    // Register capacity with fan-out sharing (same producer, same
    // (pe, t) counts once).
    let st: SpaceTime = mapping.occupancy(dfg, fabric);
    for pe in fabric.pe_ids() {
        for slot in 0..mapping.ii {
            let used = st.reg_count(pe, slot);
            if used > fabric.rf_size {
                return Err(ValidationError::RegisterOverflow {
                    pe,
                    slot,
                    used,
                    capacity: fabric.rf_size,
                });
            }
        }
    }
    Ok(())
}

/// Validate and additionally require the spatial contract (II = 1, one
/// op per PE).
pub fn validate_spatial(
    mapping: &Mapping,
    dfg: &Dfg,
    fabric: &Fabric,
) -> Result<(), ValidationError> {
    validate(mapping, dfg, fabric)?;
    if !mapping.is_spatial() {
        return Err(ValidationError::NotSpatial);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{Placement, Route};
    use cgra_arch::Topology;
    use cgra_ir::{kernels, OpKind};

    fn mesh() -> Fabric {
        Fabric::homogeneous(4, 4, Topology::Mesh)
    }

    /// Hand-build a valid II=1 mapping of `accumulate` (in -> add
    /// (self-loop) -> out) on neighbouring PEs.
    fn valid_acc_mapping() -> (Dfg, Fabric, Mapping) {
        let dfg = kernels::accumulate();
        let f = mesh();
        // n0 in@pe0,t0 ; n1 add@pe1,t2 ; n2 out@pe2,t4 — one cycle per
        // hop between neighbouring PEs.
        let place = vec![
            Placement {
                pe: PeId(0),
                time: 0,
            },
            Placement {
                pe: PeId(1),
                time: 2,
            },
            Placement {
                pe: PeId(2),
                time: 4,
            },
        ];
        // Edges in builder order: in->add(p0), add->add carried(p1), add->out.
        let routes = vec![
            Route {
                start_time: 1,
                steps: vec![PeId(0), PeId(1)],
            },
            // ready at 3, consumed at 2 + ii*1 = 3 (ii=1): single step.
            Route {
                start_time: 3,
                steps: vec![PeId(1)],
            },
            Route {
                start_time: 3,
                steps: vec![PeId(1), PeId(2)],
            },
        ];
        let m = Mapping {
            ii: 1,
            place,
            routes,
        };
        (dfg, f, m)
    }

    #[test]
    fn hand_built_mapping_validates() {
        let (dfg, f, m) = valid_acc_mapping();
        validate(&m, &dfg, &f).unwrap();
        assert!(m.is_spatial());
        validate_spatial(&m, &dfg, &f).unwrap();
    }

    #[test]
    fn fu_conflict_detected() {
        let (dfg, f, mut m) = valid_acc_mapping();
        m.place[2] = Placement {
            pe: PeId(1),
            time: 3,
        }; // same PE slot (ii=1)
        let err = validate(&m, &dfg, &f).unwrap_err();
        assert!(matches!(err, ValidationError::FuConflict { .. }));
    }

    #[test]
    fn bad_ii_detected() {
        let (dfg, f, mut m) = valid_acc_mapping();
        m.ii = 0;
        assert!(matches!(
            validate(&m, &dfg, &f),
            Err(ValidationError::BadIi { .. })
        ));
        m.ii = f.context_depth + 1;
        assert!(matches!(
            validate(&m, &dfg, &f),
            Err(ValidationError::BadIi { .. })
        ));
    }

    #[test]
    fn capability_violation_detected() {
        let dfg = kernels::dot_product();
        let mut f = Fabric::adres_like(4, 4);
        f.rf_size = 8;
        // Place the mul on an odd (non-multiplier) column PE; other ops
        // on distinct border PEs so the capability error fires first.
        let mut m = Mapping::empty(&dfg, 4);
        m.place[0] = Placement {
            pe: f.pe_at(0, 0),
            time: 0,
        };
        m.place[1] = Placement {
            pe: f.pe_at(0, 1),
            time: 0,
        };
        m.place[2] = Placement {
            pe: f.pe_at(1, 1),
            time: 0,
        };
        m.place[3] = Placement {
            pe: f.pe_at(0, 2),
            time: 0,
        };
        m.place[4] = Placement {
            pe: f.pe_at(0, 3),
            time: 0,
        };
        let err = validate(&m, &dfg, &f).unwrap_err();
        assert!(matches!(err, ValidationError::UnsupportedOp { .. }));
    }

    #[test]
    fn latency_violation_detected() {
        let (dfg, f, mut m) = valid_acc_mapping();
        // Move consumer of edge 0 to time 0: consumed before ready.
        m.place[1] = Placement {
            pe: PeId(1),
            time: 0,
        };
        let err = validate(&m, &dfg, &f).unwrap_err();
        // Either a latency violation on the input edge or a bad route
        // shape — the first failure reported must be the latency one
        // because the carried self-edge still holds.
        assert!(
            matches!(err, ValidationError::LatencyViolation { .. })
                || matches!(err, ValidationError::BadRoute { .. }),
            "{err}"
        );
    }

    #[test]
    fn route_endpoint_mismatch_detected() {
        let (dfg, f, mut m) = valid_acc_mapping();
        m.routes[0].steps = vec![PeId(0), PeId(4)]; // ends at wrong PE
        let err = validate(&m, &dfg, &f).unwrap_err();
        assert!(matches!(err, ValidationError::BadRoute { .. }));
    }

    #[test]
    fn route_teleport_detected() {
        let (dfg, f, mut m) = valid_acc_mapping();
        // pe0 -> pe5 is a diagonal: not a mesh neighbour.
        m.place[1] = Placement {
            pe: PeId(5),
            time: 2,
        };
        m.routes[0].steps = vec![PeId(0), PeId(5)];
        m.routes[1].steps = vec![PeId(5)];
        m.routes[2] = Route {
            start_time: 3,
            steps: vec![PeId(5), PeId(1)],
        };
        m.place[2] = Placement {
            pe: PeId(1),
            time: 4,
        };
        let err = validate(&m, &dfg, &f).unwrap_err();
        assert!(
            matches!(err, ValidationError::BadRoute { why, .. } if why.contains("illegal move"))
        );
    }

    #[test]
    fn register_overflow_detected() {
        // Force many values to sit on one PE with rf_size 1.
        let mut f = mesh();
        f.rf_size = 1;
        let mut dfg = Dfg::new("pressure");
        let a = dfg.add_node(OpKind::Input(0));
        let b = dfg.add_node(OpKind::Input(1));
        let s = dfg.add_node(OpKind::Add);
        dfg.connect(a, s, 0);
        dfg.connect(b, s, 1);
        // Both operands parked on pe1 at t1..t2 (ii=4: no wrap dedup).
        let m = Mapping {
            ii: 4,
            place: vec![
                Placement {
                    pe: PeId(0),
                    time: 0,
                },
                Placement {
                    pe: PeId(2),
                    time: 0,
                },
                Placement {
                    pe: PeId(1),
                    time: 2,
                },
            ],
            routes: vec![
                Route {
                    start_time: 1,
                    steps: vec![PeId(0), PeId(1)],
                },
                Route {
                    start_time: 1,
                    steps: vec![PeId(2), PeId(1)],
                },
            ],
        };
        let err = validate(&m, &dfg, &f).unwrap_err();
        assert!(matches!(err, ValidationError::RegisterOverflow { .. }));
    }

    #[test]
    fn route_all_output_validates() {
        // End-to-end: place by hand, route with the router, validate.
        let dfg = kernels::sad();
        let f = mesh();
        use cgra_ir::graph::{asap, unit_latency};
        let times = asap(&dfg, &unit_latency);
        // Adjacent PEs along the dependence chain (a, b, sub, abs, add,
        // out), two cycles per ASAP level so every hop fits.
        let pes = [PeId(0), PeId(5), PeId(1), PeId(2), PeId(6), PeId(7)];
        let place: Vec<Placement> = dfg
            .node_ids()
            .map(|n| Placement {
                pe: pes[n.index()],
                time: times[n.index()] * 2,
            })
            .collect();
        let ii = 8;
        let topo = TopologyCache::build(&f);
        let off = crate::telemetry::Telemetry::off();
        let routes = crate::route::route_all_with(&f, &topo, &dfg, &place, ii, 8, true, &off)
            .expect("routable");
        let m = Mapping { ii, place, routes };
        validate(&m, &dfg, &f).unwrap();
    }

    #[test]
    fn shape_mismatch_detected() {
        let (dfg, f, mut m) = valid_acc_mapping();
        m.routes.pop();
        assert_eq!(validate(&m, &dfg, &f), Err(ValidationError::ShapeMismatch));
    }
}
