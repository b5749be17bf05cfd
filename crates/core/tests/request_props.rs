//! Property audit of the content-addressed cache key — the serve
//! cache's no-aliasing contract.
//!
//! [`MapRequest::cache_key`] must be a pure function of a request's
//! *canonical identity*: the kernel content, the fabric spec, and
//! every config knob that can change a mapping outcome (plus the
//! mapper/mode selection). Two requests with distinct canonical
//! identities must never share a key — aliasing would let the serve
//! cache answer one client's request with another client's mapping —
//! while requests differing only in non-identity fields (the client
//! id, the mapper name under race mode) must share one, or hits would
//! silently stop happening.
//!
//! The fingerprint audit in `request.rs` checks each knob once; these
//! properties sweep the cross-product.

use cgra_arch::Topology;
use cgra_mapper_core::request::{
    topology_label, ExecMode, FabricSpec, KernelSpec, MapRequest, RequestConfig,
};
use proptest::prelude::*;

const TOPOLOGIES: [Topology; 4] = [
    Topology::Mesh,
    Topology::MeshPlus,
    Topology::Torus,
    Topology::OneHop,
];
const MAPPERS: [&str; 4] = ["modulo-list", "spatial-greedy", "sat", "ilp"];
const MODES: [ExecMode; 3] = [ExecMode::Single, ExecMode::Race, ExecMode::ParallelIi];

/// Kernel specs spanning both variants, including the deliberate
/// canonical alias: an absent source name and an empty one fingerprint
/// identically.
fn kernel(idx: u8) -> KernelSpec {
    match idx % 5 {
        0 => KernelSpec::Named("dot_product".into()),
        1 => KernelSpec::Named("fir4".into()),
        2 => KernelSpec::Source {
            source: "out = a * b + c".into(),
            name: None,
        },
        3 => KernelSpec::Source {
            source: "out = a * b + c".into(),
            name: Some(String::new()),
        },
        _ => KernelSpec::Source {
            source: "out = a * b + c".into(),
            name: Some("tiny".into()),
        },
    }
}

fn arb_request() -> impl Strategy<Value = MapRequest> {
    (
        (0u8..5, 0usize..4, 0usize..3),
        (1u16..=3, 1u16..=3, 0usize..4, any::<bool>()),
        (1u32..=8, 1u32..=4, 0usize..3),
        (0u64..3, any::<bool>()),
    )
        .prop_map(
            |(
                (k, mapper, mode),
                (rows, cols, topo, adres),
                (max_ii, min_ii, tl),
                (seed, explain),
            )| {
                let mut req = MapRequest::new(kernel(k), MAPPERS[mapper]);
                req.mode = MODES[mode];
                req.fabric = FabricSpec {
                    rows,
                    cols,
                    topology: TOPOLOGIES[topo],
                    adres,
                };
                req.config = RequestConfig {
                    max_ii,
                    min_ii,
                    time_limit_ms: [1_000, 5_000, 20_000][tl],
                    seed,
                    explain,
                };
                req
            },
        )
}

/// The canonical identity the key is specified to hash — mirrored
/// field-for-field from the documented fingerprint contracts, so the
/// properties below state "keys alias exactly when *this* aliases".
type Canon = (
    (u8, String, String),
    (u16, u16, &'static str, bool),
    (String, &'static str, u32, u32, u64, u64, bool),
);

fn canon(req: &MapRequest) -> Canon {
    let kernel = match &req.kernel {
        KernelSpec::Source { source, name } => {
            (0u8, source.clone(), name.clone().unwrap_or_default())
        }
        KernelSpec::Named(name) => (1u8, name.clone(), String::new()),
    };
    let fabric = (
        req.fabric.rows,
        req.fabric.cols,
        topology_label(req.fabric.topology),
        req.fabric.adres,
    );
    // Race mode runs the whole zoo: the mapper field is canonicalized
    // away, exactly as `config_fingerprint` does.
    let mapper = match req.mode {
        ExecMode::Race => "<race>".to_string(),
        _ => req.mapper.clone(),
    };
    let c = req.config;
    let config = (
        mapper,
        req.mode.label(),
        c.max_ii,
        c.min_ii,
        c.time_limit_ms,
        c.seed,
        c.explain,
    );
    (kernel, fabric, config)
}

/// Flip exactly one field. Knobs 0..=11 are identity-bearing; 12 (the
/// client id) is deliberately not part of the key.
fn perturb(req: &MapRequest, knob: usize, bump: u32) -> MapRequest {
    let mut r = req.clone();
    match knob {
        0 => r.config.max_ii += bump,
        1 => r.config.min_ii += bump,
        2 => r.config.time_limit_ms += bump as u64,
        3 => r.config.seed += bump as u64,
        4 => r.config.explain = !r.config.explain,
        5 => r.fabric.rows += bump as u16,
        6 => r.fabric.cols += bump as u16,
        7 => {
            let i = TOPOLOGIES
                .iter()
                .position(|t| *t == r.fabric.topology)
                .unwrap();
            r.fabric.topology = TOPOLOGIES[(i + 1) % TOPOLOGIES.len()];
        }
        8 => r.fabric.adres = !r.fabric.adres,
        9 => {
            let i = MODES.iter().position(|m| *m == r.mode).unwrap();
            r.mode = MODES[(i + 1) % MODES.len()];
        }
        10 => r.mapper.push('x'),
        11 => {
            r.kernel = match r.kernel {
                KernelSpec::Named(n) => KernelSpec::Named(format!("{n}!")),
                KernelSpec::Source { mut source, name } => {
                    source.push('\n');
                    KernelSpec::Source { source, name }
                }
            }
        }
        _ => r.id = r.id.wrapping_add(bump as u64 + 1),
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    /// Independently sampled requests: keys alias exactly when the
    /// canonical identities do. The interesting direction is the
    /// negative one — distinct canonical requests never collide.
    #[test]
    fn distinct_canonical_requests_never_collide(a in arb_request(), b in arb_request()) {
        prop_assert_eq!(
            canon(&a) == canon(&b),
            a.cache_key() == b.cache_key(),
            "key aliasing disagrees with canonical identity:\n  a = {:?}\n  b = {:?}",
            a,
            b
        );
    }

    /// Adversarial near-misses: flipping any single identity-bearing
    /// field moves the key, while flipping a non-identity field (the
    /// client id; the mapper name under race mode) keeps it.
    #[test]
    fn single_field_perturbations_never_alias(
        req in arb_request(),
        knob in 0usize..13,
        bump in 1u32..=4,
    ) {
        let other = perturb(&req, knob, bump);
        if canon(&other) == canon(&req) {
            prop_assert_eq!(
                other.cache_key(),
                req.cache_key(),
                "knob {} is not identity-bearing but moved the key",
                knob
            );
        } else {
            prop_assert_ne!(
                other.cache_key(),
                req.cache_key(),
                "knob {} changed the canonical identity but the keys alias",
                knob
            );
        }
    }
}
