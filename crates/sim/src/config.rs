//! Configuration-stream generation: what the survey's Fig. 2c calls
//! the configuration register contents, one context per II slot.
//!
//! A context holds, per PE: the opcode to execute (if any), the
//! constant operand (if the op consumes one), and the operand routing
//! selectors. The binary packing (via `bytes`) stands in for the
//! "contract between hardware and software" the survey discusses: the
//! compiler must produce exactly the bits the fabric decodes.

use bytes::{BufMut, BytesMut};
use cgra_arch::Fabric;
use cgra_ir::{Dfg, OpKind};
use cgra_mapper_core::Mapping;
use serde::Serialize;

/// One PE's configuration for one II slot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Context {
    /// The node issuing here, if any.
    pub node: Option<u32>,
    /// Mnemonic (decoded view).
    pub op: Option<String>,
    /// Constant operand for `Const` ops.
    pub imm: Option<i64>,
    /// For each operand port: the PE the value is read from (itself or
    /// a neighbour index).
    pub operand_from: Vec<u16>,
}

/// The full configuration stream: `contexts[slot][pe]`.
#[derive(Debug, Clone, Serialize)]
pub struct ConfigStream {
    pub ii: u32,
    pub contexts: Vec<Vec<Context>>,
}

impl ConfigStream {
    /// Generate the per-slot configuration from a valid mapping.
    pub fn generate(mapping: &Mapping, dfg: &Dfg, fabric: &Fabric) -> ConfigStream {
        let mut contexts = vec![
            vec![
                Context {
                    node: None,
                    op: None,
                    imm: None,
                    operand_from: Vec::new(),
                };
                fabric.num_pes()
            ];
            mapping.ii as usize
        ];
        for (id, node) in dfg.nodes() {
            let p = mapping.placement(id);
            let slot = (p.time % mapping.ii) as usize;
            let ctx = &mut contexts[slot][p.pe.index()];
            ctx.node = Some(id.0);
            ctx.op = Some(node.op.mnemonic().to_string());
            if let OpKind::Const(v) = node.op {
                ctx.imm = Some(v);
            }
            // Operand sources: the position of the value one cycle
            // before issue (same PE or a neighbour's register file).
            let arity = node.op.ports().count() as u8;
            let mut from = Vec::with_capacity(arity as usize);
            for port in 0..arity {
                let (eid, _) = dfg.operand(id, port).expect("validated");
                let r = mapping.route(eid);
                // The input mux reads the register the value sat in one
                // cycle before issue: the penultimate route step (the
                // last step is the consumer PE itself).
                let src = if r.steps.len() >= 2 {
                    r.steps[r.steps.len() - 2]
                } else {
                    r.steps.last().copied().unwrap_or(p.pe)
                };
                from.push(src.0);
            }
            ctx.operand_from = from;
        }
        ConfigStream {
            ii: mapping.ii,
            contexts,
        }
    }

    /// Pack into a binary bitstream: a 4-byte header (II, PEs), then
    /// per context-word: opcode byte, flags, imm (i64 LE when present),
    /// operand selectors.
    pub fn pack(&self) -> bytes::Bytes {
        let mut buf = BytesMut::new();
        buf.put_u16_le(self.ii as u16);
        buf.put_u16_le(self.contexts.first().map(|c| c.len()).unwrap_or(0) as u16);
        for slot in &self.contexts {
            for ctx in slot {
                match &ctx.node {
                    None => buf.put_u8(0xFF), // NOP
                    Some(n) => {
                        buf.put_u8((n % 0xFE) as u8);
                        buf.put_u8(ctx.operand_from.len() as u8);
                        let has_imm = ctx.imm.is_some();
                        buf.put_u8(has_imm as u8);
                        if let Some(v) = ctx.imm {
                            buf.put_i64_le(v);
                        }
                        for &s in &ctx.operand_from {
                            buf.put_u16_le(s);
                        }
                    }
                }
            }
        }
        buf.freeze()
    }

    /// Number of NOP slots (idle issue slots) — the utilisation view.
    pub fn nop_slots(&self) -> usize {
        self.contexts
            .iter()
            .flat_map(|s| s.iter())
            .filter(|c| c.node.is_none())
            .count()
    }

    /// Render the stream as the survey's Fig. 2c table.
    pub fn render(&self, fabric: &Fabric) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "configuration stream: II={} ({} contexts)",
            self.ii, self.ii
        );
        for (slot, ctxs) in self.contexts.iter().enumerate() {
            let _ = writeln!(s, " context {slot}:");
            for r in 0..fabric.rows {
                let mut line = String::from("   ");
                for c in 0..fabric.cols {
                    let pe = fabric.pe_at(r, c);
                    let ctx = &ctxs[pe.index()];
                    let cell = match (&ctx.op, ctx.imm) {
                        (Some(op), Some(imm)) => format!("{op}#{imm}"),
                        (Some(op), None) => op.clone(),
                        _ => "nop".into(),
                    };
                    line.push_str(&format!("[{cell:^9}]"));
                }
                let _ = writeln!(s, "{line}");
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::{PeId, Topology, TopologyCache};
    use cgra_ir::kernels;
    use cgra_mapper_core::prelude::*;

    fn mapped() -> (Dfg, Fabric, Mapping) {
        let dfg = kernels::dot_product();
        let f = Fabric::homogeneous(4, 4, Topology::Mesh);
        let m = ModuloList.map(&dfg, &f, &MapConfig::fast()).unwrap();
        (dfg, f, m)
    }

    #[test]
    fn every_op_has_a_context() {
        let (dfg, f, m) = mapped();
        let cs = ConfigStream::generate(&m, &dfg, &f);
        let configured: usize = cs
            .contexts
            .iter()
            .flat_map(|s| s.iter())
            .filter(|c| c.node.is_some())
            .count();
        assert_eq!(configured, dfg.node_count());
        assert_eq!(
            cs.nop_slots(),
            f.num_pes() * m.ii as usize - dfg.node_count()
        );
    }

    #[test]
    fn operand_sources_are_local_or_neighbours() {
        let (dfg, f, m) = mapped();
        let cs = ConfigStream::generate(&m, &dfg, &f);
        let topo = TopologyCache::build(&f);
        for (slot, ctxs) in cs.contexts.iter().enumerate() {
            for (pe_idx, ctx) in ctxs.iter().enumerate() {
                let pe = PeId(pe_idx as u16);
                let _ = slot;
                for &src in &ctx.operand_from {
                    let src = PeId(src);
                    assert!(
                        src == pe || topo.adjacent(pe, src),
                        "operand from non-adjacent {src} at {pe}"
                    );
                }
            }
        }
    }

    #[test]
    fn bitstream_roundtrip_size() {
        let (dfg, f, m) = mapped();
        let cs = ConfigStream::generate(&m, &dfg, &f);
        let bits = cs.pack();
        assert!(bits.len() >= 4 + f.num_pes() * m.ii as usize);
        assert_eq!(u16::from_le_bytes([bits[0], bits[1]]) as u32, m.ii);
    }

    #[test]
    fn render_shows_nops_and_ops() {
        let (dfg, f, m) = mapped();
        let cs = ConfigStream::generate(&m, &dfg, &f);
        let r = cs.render(&f);
        assert!(r.contains("nop"));
        assert!(r.contains("mul"));
    }
}
