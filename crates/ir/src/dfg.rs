//! The data-flow graph: nodes are operations, edges are data
//! dependencies, loop-carried edges carry an inter-iteration distance.
//!
//! A `Dfg` models one loop body (the mapping unit of virtually all the
//! surveyed temporal-mapping techniques). Edges with `dist == 0` are
//! intra-iteration dependencies and must form a DAG; edges with
//! `dist == d > 0` are recurrences: the consumer at iteration `i` reads
//! the value the producer computed at iteration `i - d` (with `init`
//! supplying the first `d` values).

use crate::op::{OpKind, Value};
use serde::Serialize;
use std::fmt;

/// Index of a node within its DFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct NodeId(pub u32);

/// Index of an edge within its DFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct EdgeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An operation node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Node {
    pub op: OpKind,
    /// Optional human-readable name (variable name from the front-end).
    pub name: Option<String>,
}

/// A data dependency. `dst`'s operand `port` is produced by `src`,
/// `dist` iterations earlier.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Edge {
    pub src: NodeId,
    pub dst: NodeId,
    /// Operand position at the destination (0-based).
    pub port: u8,
    /// Inter-iteration dependence distance; 0 for intra-iteration edges.
    pub dist: u32,
    /// Initial values for the first `dist` iterations; length == `dist`.
    pub init: Vec<Value>,
}

impl Edge {
    /// True if this edge is a loop-carried recurrence edge.
    #[inline]
    pub fn is_carried(&self) -> bool {
        self.dist > 0
    }
}

/// Structural errors detected by [`Dfg::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfgError {
    /// An operand port is not driven by any edge.
    MissingOperand { node: NodeId, port: u8 },
    /// An operand port is driven by more than one edge.
    DuplicateOperand { node: NodeId, port: u8 },
    /// An edge targets a port beyond the operation's arity.
    PortOutOfRange {
        edge: EdgeId,
        port: u8,
        arity: usize,
    },
    /// `init.len() != dist` on a carried edge.
    BadInit { edge: EdgeId, dist: u32, got: usize },
    /// The distance-0 subgraph contains a cycle (an unbreakable
    /// zero-delay recurrence).
    ZeroDistanceCycle { involving: NodeId },
    /// A pseudo-op (φ) survived into a mappable DFG.
    PseudoOp { node: NodeId },
    /// Edge endpoints out of bounds.
    DanglingEdge { edge: EdgeId },
}

impl fmt::Display for DfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfgError::MissingOperand { node, port } => {
                write!(f, "node {node} operand {port} is undriven")
            }
            DfgError::DuplicateOperand { node, port } => {
                write!(f, "node {node} operand {port} driven twice")
            }
            DfgError::PortOutOfRange { edge, port, arity } => {
                write!(
                    f,
                    "edge e{} targets port {port} but arity is {arity}",
                    edge.0
                )
            }
            DfgError::BadInit { edge, dist, got } => write!(
                f,
                "edge e{} has dist {dist} but {got} initial values",
                edge.0
            ),
            DfgError::ZeroDistanceCycle { involving } => {
                write!(f, "zero-distance cycle through {involving}")
            }
            DfgError::PseudoOp { node } => write!(f, "pseudo-op at {node} in mappable DFG"),
            DfgError::DanglingEdge { edge } => write!(f, "edge e{} has dangling endpoint", edge.0),
        }
    }
}

impl std::error::Error for DfgError {}

/// A data-flow graph for one loop body.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Dfg {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// Optional kernel name for reports.
    pub name: String,
}

impl Dfg {
    /// Create an empty, named DFG.
    pub fn new(name: impl Into<String>) -> Self {
        Dfg {
            nodes: Vec::new(),
            edges: Vec::new(),
            name: name.into(),
        }
    }

    /// Append a node and return its id.
    pub fn add_node(&mut self, op: OpKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { op, name: None });
        id
    }

    /// Append a named node and return its id.
    pub fn add_named(&mut self, op: OpKind, name: impl Into<String>) -> NodeId {
        let id = self.add_node(op);
        self.nodes[id.index()].name = Some(name.into());
        id
    }

    /// Add an intra-iteration dependency `src -> dst.port`.
    pub fn connect(&mut self, src: NodeId, dst: NodeId, port: u8) -> EdgeId {
        self.add_edge(Edge {
            src,
            dst,
            port,
            dist: 0,
            init: Vec::new(),
        })
    }

    /// Add a loop-carried dependency with distance `dist` and the values
    /// used for the first `dist` iterations.
    pub fn connect_carried(
        &mut self,
        src: NodeId,
        dst: NodeId,
        port: u8,
        dist: u32,
        init: Vec<Value>,
    ) -> EdgeId {
        self.add_edge(Edge {
            src,
            dst,
            port,
            dist,
            init,
        })
    }

    /// Add a fully specified edge.
    pub fn add_edge(&mut self, e: Edge) -> EdgeId {
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(e);
        id
    }

    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    #[inline]
    pub fn op(&self, id: NodeId) -> OpKind {
        self.nodes[id.index()].op
    }

    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    #[inline]
    pub fn edge_mut(&mut self, id: EdgeId) -> &mut Edge {
        &mut self.edges[id.index()]
    }

    /// Iterate node ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterate edge ids in insertion order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Iterate `(id, node)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Iterate `(id, edge)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Incoming edges of `n`, in arbitrary order.
    pub fn in_edges(&self, n: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges().filter(move |(_, e)| e.dst == n)
    }

    /// Outgoing edges of `n`, in arbitrary order.
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges().filter(move |(_, e)| e.src == n)
    }

    /// The edge driving operand `port` of `n`, if any.
    pub fn operand(&self, n: NodeId, port: u8) -> Option<(EdgeId, &Edge)> {
        self.in_edges(n).find(|(_, e)| e.port == port)
    }

    /// Count of nodes whose op needs a multiplier cell.
    pub fn multiplier_ops(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.op.needs_multiplier())
            .count()
    }

    /// Count of memory operations.
    pub fn memory_ops(&self) -> usize {
        self.nodes.iter().filter(|n| n.op.is_memory()).count()
    }

    /// Structural validation; returns the first error found.
    pub fn validate(&self) -> Result<(), DfgError> {
        self.validate_impl(true)
    }

    /// Like [`validate`](Self::validate) but tolerates φ nodes (used on
    /// CDFG blocks before if-conversion).
    pub fn validate_with_phis(&self) -> Result<(), DfgError> {
        self.validate_impl(false)
    }

    fn validate_impl(&self, reject_pseudo: bool) -> Result<(), DfgError> {
        let n = self.nodes.len();
        for (id, e) in self.edges() {
            if e.src.index() >= n || e.dst.index() >= n {
                return Err(DfgError::DanglingEdge { edge: id });
            }
            let arity = self.op(e.dst).ports().count();
            if (e.port as usize) >= arity {
                return Err(DfgError::PortOutOfRange {
                    edge: id,
                    port: e.port,
                    arity,
                });
            }
            if e.init.len() != e.dist as usize {
                return Err(DfgError::BadInit {
                    edge: id,
                    dist: e.dist,
                    got: e.init.len(),
                });
            }
        }
        // Operand coverage.
        for (id, node) in self.nodes() {
            if reject_pseudo && node.op.is_pseudo() {
                return Err(DfgError::PseudoOp { node: id });
            }
            let arity = node.op.ports().count();
            let mut seen = vec![0usize; arity];
            for (_, e) in self.in_edges(id) {
                seen[e.port as usize] += 1;
            }
            for (port, &c) in seen.iter().enumerate() {
                if c == 0 {
                    return Err(DfgError::MissingOperand {
                        node: id,
                        port: port as u8,
                    });
                }
                if c > 1 {
                    return Err(DfgError::DuplicateOperand {
                        node: id,
                        port: port as u8,
                    });
                }
            }
        }
        // Zero-distance acyclicity.
        if let Err(node) = self.topo_order() {
            return Err(DfgError::ZeroDistanceCycle { involving: node });
        }
        Ok(())
    }

    /// Topological order of the distance-0 subgraph (Kahn's algorithm).
    /// Returns `Err(node)` naming a node on a zero-distance cycle.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, NodeId> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &self.edges {
            if e.dist == 0 {
                indeg[e.dst.index()] += 1;
                succ[e.src.index()].push(e.dst.index());
            }
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = stack.pop() {
            order.push(NodeId(v as u32));
            for &s in &succ[v] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    stack.push(s);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            let bad = indeg.iter().position(|&d| d > 0).unwrap();
            Err(NodeId(bad as u32))
        }
    }

    /// Remove every node for which `keep` is false, dropping incident
    /// edges and compacting ids. Returns the old-id → new-id map.
    pub fn retain_nodes(&mut self, mut keep: impl FnMut(NodeId) -> bool) -> Vec<Option<NodeId>> {
        let n = self.nodes.len();
        let mut remap: Vec<Option<NodeId>> = vec![None; n];
        let mut new_nodes = Vec::with_capacity(n);
        for (i, slot) in remap.iter_mut().enumerate() {
            let id = NodeId(i as u32);
            if keep(id) {
                *slot = Some(NodeId(new_nodes.len() as u32));
                new_nodes.push(self.nodes[i].clone());
            }
        }
        self.nodes = new_nodes;
        self.edges
            .retain_mut(|e| match (remap[e.src.index()], remap[e.dst.index()]) {
                (Some(s), Some(d)) => {
                    e.src = s;
                    e.dst = d;
                    true
                }
                _ => false,
            });
        remap
    }

    /// Redirect every edge that currently reads `from` to read `to`
    /// instead (used by CSE/const-fold to splice out a node).
    pub fn replace_uses(&mut self, from: NodeId, to: NodeId) {
        for e in &mut self.edges {
            if e.src == from {
                e.src = to;
            }
        }
    }

    /// Pretty multi-line rendering for docs and debugging.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "dfg {} ({} nodes, {} edges)",
            self.name,
            self.node_count(),
            self.edge_count()
        );
        for (id, node) in self.nodes() {
            let ins: Vec<String> = (0..node.op.ports().count() as u8)
                .map(|p| match self.operand(id, p) {
                    Some((_, e)) if e.dist > 0 => format!("{}@-{}", e.src, e.dist),
                    Some((_, e)) => format!("{}", e.src),
                    None => "?".into(),
                })
                .collect();
            let name = node
                .name
                .as_deref()
                .map(|n| format!(" ; {n}"))
                .unwrap_or_default();
            let _ = writeln!(s, "  {id} = {} [{}]{}", node.op, ins.join(", "), name);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `acc = acc + a*b` — the paper's Fig. 3 dot-product body.
    fn dot() -> Dfg {
        let mut g = Dfg::new("dot");
        let a = g.add_node(OpKind::Input(0));
        let b = g.add_node(OpKind::Input(1));
        let m = g.add_node(OpKind::Mul);
        let s = g.add_node(OpKind::Add);
        let o = g.add_node(OpKind::Output(0));
        g.connect(a, m, 0);
        g.connect(b, m, 1);
        g.connect(m, s, 0);
        g.connect_carried(s, s, 1, 1, vec![0]);
        g.connect(s, o, 0);
        g
    }

    #[test]
    fn dot_product_validates() {
        let g = dot();
        assert!(g.validate().is_ok());
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.multiplier_ops(), 1);
    }

    #[test]
    fn missing_operand_detected() {
        let mut g = Dfg::new("t");
        let a = g.add_node(OpKind::Input(0));
        let s = g.add_node(OpKind::Add);
        g.connect(a, s, 0);
        assert_eq!(
            g.validate(),
            Err(DfgError::MissingOperand { node: s, port: 1 })
        );
    }

    #[test]
    fn duplicate_operand_detected() {
        let mut g = Dfg::new("t");
        let a = g.add_node(OpKind::Input(0));
        let n = g.add_node(OpKind::Not);
        g.connect(a, n, 0);
        g.connect(a, n, 0);
        assert_eq!(
            g.validate(),
            Err(DfgError::DuplicateOperand { node: n, port: 0 })
        );
    }

    #[test]
    fn zero_distance_cycle_detected() {
        let mut g = Dfg::new("t");
        let x = g.add_node(OpKind::Not);
        let y = g.add_node(OpKind::Not);
        g.connect(x, y, 0);
        g.connect(y, x, 0);
        assert!(matches!(
            g.validate(),
            Err(DfgError::ZeroDistanceCycle { .. })
        ));
    }

    #[test]
    fn carried_cycle_is_fine() {
        let g = dot();
        assert!(g.topo_order().is_ok());
    }

    #[test]
    fn bad_init_detected() {
        let mut g = Dfg::new("t");
        let a = g.add_node(OpKind::Input(0));
        let n = g.add_node(OpKind::Not);
        g.connect_carried(a, n, 0, 2, vec![1]); // needs 2 init values
        assert!(matches!(g.validate(), Err(DfgError::BadInit { .. })));
    }

    #[test]
    fn port_out_of_range_detected() {
        let mut g = Dfg::new("t");
        let a = g.add_node(OpKind::Input(0));
        let n = g.add_node(OpKind::Not);
        g.connect(a, n, 0);
        g.connect(a, n, 5);
        assert!(matches!(
            g.validate(),
            Err(DfgError::PortOutOfRange { port: 5, .. })
        ));
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = dot();
        let order = g.topo_order().unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; g.node_count()];
            for (i, id) in order.iter().enumerate() {
                p[id.index()] = i;
            }
            p
        };
        for (_, e) in g.edges() {
            if e.dist == 0 {
                assert!(pos[e.src.index()] < pos[e.dst.index()]);
            }
        }
    }

    #[test]
    fn retain_nodes_remaps_edges() {
        // Drop node 4 (the Output sink) from the dot-product body.
        let mut g = dot();
        let remap = g.retain_nodes(|id| id.index() != 4);
        assert_eq!(g.node_count(), 4);
        assert_eq!(remap[4], None);
        assert_eq!(g.edge_count(), 4); // sink edge dropped with the node
        assert!(g
            .edges()
            .all(|(_, e)| e.dst.index() < 4 && e.src.index() < 4));
        // The remaining graph (sans the undriven-output check) still has
        // a consistent carried self-edge on the adder.
        let add = remap[3].unwrap();
        let carried = g.operand(add, 1).unwrap().1;
        assert_eq!(carried.src, add);
        assert_eq!(carried.dist, 1);
    }

    #[test]
    fn replace_uses_redirects() {
        let mut g = Dfg::new("t");
        let a = g.add_node(OpKind::Input(0));
        let b = g.add_node(OpKind::Input(1));
        let n = g.add_node(OpKind::Not);
        g.connect(a, n, 0);
        g.replace_uses(a, b);
        assert_eq!(g.operand(n, 0).unwrap().1.src, b);
    }

    #[test]
    fn render_contains_all_nodes() {
        let g = dot();
        let r = g.render();
        for (id, _) in g.nodes() {
            assert!(r.contains(&id.to_string()));
        }
    }
}
