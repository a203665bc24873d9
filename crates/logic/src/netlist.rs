//! The immutable gate-level netlist and its builder.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::delay::DelayBounds;
use crate::gate::GateKind;

/// Index of a node inside a [`Netlist`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Zero-based position of the node (topological by construction).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One gate (or primary input) of a netlist.
#[derive(Clone, Debug)]
pub struct Node {
    pub(crate) name: String,
    pub(crate) kind: GateKind,
    pub(crate) fanins: Vec<NodeId>,
    pub(crate) delay: DelayBounds,
}

impl Node {
    /// The node's name (unique within the netlist).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The gate kind.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The fanin nodes, in pin order.
    pub fn fanins(&self) -> &[NodeId] {
        &self.fanins
    }

    /// The delay bounds of this gate (zero for inputs and constants).
    pub fn delay(&self) -> DelayBounds {
        self.delay
    }
}

/// Errors from netlist construction and parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetlistError {
    /// A gate was declared with an arity its kind does not allow.
    BadArity {
        /// The offending node's name.
        name: String,
        /// Its kind.
        kind: GateKind,
        /// The number of fanins supplied.
        arity: usize,
    },
    /// Two nodes share a name.
    DuplicateName(String),
    /// An output or fanin references an unknown node name.
    UnknownNode(String),
    /// The netlist has no primary output.
    NoOutputs,
    /// A parse error with a line number and message.
    Parse {
        /// 1-based source line.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// A netlist cannot be expressed by the requested writer.
    Unwritable {
        /// The node or output name that blocked serialization.
        name: String,
        /// Why it cannot be written.
        detail: String,
    },
    /// A netlist file could not be read.
    Io {
        /// The path that failed.
        path: String,
        /// The underlying I/O error, stringified.
        detail: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::BadArity { name, kind, arity } => {
                write!(f, "gate `{name}` of kind {kind} cannot take {arity} fanins")
            }
            NetlistError::DuplicateName(n) => write!(f, "duplicate node name `{n}`"),
            NetlistError::UnknownNode(n) => write!(f, "reference to unknown node `{n}`"),
            NetlistError::NoOutputs => write!(f, "netlist has no primary outputs"),
            NetlistError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            NetlistError::Unwritable { name, detail } => {
                write!(f, "cannot serialize `{name}`: {detail}")
            }
            NetlistError::Io { path, detail } => {
                write!(f, "cannot read `{path}`: {detail}")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// An immutable combinational netlist: a DAG of gates in topological
/// order, with named primary inputs and outputs and per-gate delay bounds.
///
/// Construct with [`Netlist::builder`], a [parser](crate::parsers), or a
/// [generator](crate::generators).
#[derive(Clone, Debug)]
pub struct Netlist {
    pub(crate) nodes: Vec<Node>,
    pub(crate) inputs: Vec<NodeId>,
    pub(crate) outputs: Vec<(String, NodeId)>,
    pub(crate) fanouts: Vec<Vec<NodeId>>,
}

impl Netlist {
    /// Starts building a netlist.
    pub fn builder() -> NetlistBuilder {
        NetlistBuilder {
            nodes: Vec::new(),
            names: HashMap::new(),
            outputs: Vec::new(),
            output_names: HashSet::new(),
        }
    }

    /// All nodes in topological order (fanins precede fanouts).
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// The node payload for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this netlist.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of nodes (inputs + gates).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the netlist has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of gates (nodes that are neither inputs nor constants).
    pub fn gate_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !n.kind.is_input() && !n.kind.is_constant())
            .count()
    }

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs as `(name, node)`, in declaration order.
    pub fn outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// The fanout nodes of `id`.
    pub fn fanouts(&self, id: NodeId) -> &[NodeId] {
        &self.fanouts[id.index()]
    }

    /// Looks a node up by name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| NodeId(i as u32))
    }

    /// The position of `id` within the primary-input list, if it is one.
    pub fn input_position(&self, id: NodeId) -> Option<usize> {
        self.inputs.iter().position(|&i| i == id)
    }

    /// Evaluates the static (settled, `t = ∞`) function of every node
    /// under the given primary-input assignment (indexed like
    /// [`inputs`](Self::inputs)).
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != self.inputs().len()`.
    pub fn evaluate(&self, assignment: &[bool]) -> Vec<bool> {
        assert_eq!(
            assignment.len(),
            self.inputs.len(),
            "assignment arity mismatch"
        );
        let mut values = vec![false; self.nodes.len()];
        let mut input_pos = 0usize;
        let mut scratch = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            values[i] = match node.kind {
                GateKind::Input => {
                    let v = assignment[input_pos];
                    input_pos += 1;
                    v
                }
                kind => {
                    scratch.clear();
                    scratch.extend(node.fanins.iter().map(|f| values[f.index()]));
                    kind.eval(&scratch)
                }
            };
        }
        values
    }

    /// Evaluates only the primary outputs under an input assignment.
    pub fn evaluate_outputs(&self, assignment: &[bool]) -> Vec<bool> {
        let values = self.evaluate(assignment);
        self.outputs
            .iter()
            .map(|(_, id)| values[id.index()])
            .collect()
    }

    /// A canonical byte encoding of everything the delay engines read:
    /// node kinds, fanin wiring, scaled delay bounds, the primary-input
    /// list, and output names. Internal gate names are deliberately
    /// *excluded*, so two netlists that differ only in node naming get
    /// the same signature.
    ///
    /// Two netlists with equal signatures produce byte-identical analysis
    /// reports under equal options, which makes the signature a sound key
    /// for result caches (the long-running service keys its warm
    /// per-cone cache on it). Keying on the full byte string — rather
    /// than a hash of it — rules out collisions entirely.
    ///
    /// # Example
    ///
    /// ```
    /// use tbf_logic::generators::adders::paper_bypass_adder;
    /// let a = paper_bypass_adder();
    /// assert_eq!(a.structural_signature(), paper_bypass_adder().structural_signature());
    /// ```
    pub fn structural_signature(&self) -> Vec<u8> {
        // Version tag: bump if the encoding ever changes, so persisted
        // keys from older encodings can never alias new ones.
        let mut sig = vec![b'N', 1u8];
        let push_usize = |sig: &mut Vec<u8>, v: usize| {
            sig.extend_from_slice(&(v as u64).to_le_bytes());
        };
        push_usize(&mut sig, self.nodes.len());
        for node in &self.nodes {
            // GateKind is #[derive(Clone, Copy)] fieldless: its
            // discriminant is a stable small integer per variant order.
            sig.push(node.kind as u8);
            push_usize(&mut sig, node.fanins.len());
            for f in &node.fanins {
                sig.extend_from_slice(&f.0.to_le_bytes());
            }
            sig.extend_from_slice(&node.delay.min.scaled().to_le_bytes());
            sig.extend_from_slice(&node.delay.max.scaled().to_le_bytes());
        }
        push_usize(&mut sig, self.inputs.len());
        for i in &self.inputs {
            sig.extend_from_slice(&i.0.to_le_bytes());
        }
        push_usize(&mut sig, self.outputs.len());
        for (name, id) in &self.outputs {
            push_usize(&mut sig, name.len());
            sig.extend_from_slice(name.as_bytes());
            sig.extend_from_slice(&id.0.to_le_bytes());
        }
        sig
    }

    /// The structural signature of one output's fanin cone: the
    /// [`structural_signature`](Self::structural_signature) of the
    /// [`extract_cone_slice`](crate::transform::extract_cone_slice)
    /// netlist for `output_index`, under a distinct version tag so cone
    /// keys can never alias whole-netlist keys.
    ///
    /// Everything the per-cone delay engines read is inside the slice —
    /// gate kinds, fanin wiring, scaled delay annotations, the output
    /// name — and nothing outside it is, so the key has exactly the
    /// invalidation granularity an incremental (ECO) engine needs: an
    /// edit inside the cone always changes the signature, an edit
    /// outside it never does, and node renames or id shifts from
    /// unrelated edits are invisible (the slice renumbers its nodes in
    /// canonical ascending source order).
    ///
    /// # Panics
    ///
    /// Panics if `output_index` is out of range, like
    /// [`extract_cone_slice`](crate::transform::extract_cone_slice).
    ///
    /// # Example
    ///
    /// ```
    /// use tbf_logic::generators::adders::paper_bypass_adder;
    /// let a = paper_bypass_adder();
    /// let b = paper_bypass_adder();
    /// for i in 0..a.outputs().len() {
    ///     assert_eq!(a.cone_signature(i), b.cone_signature(i));
    /// }
    /// ```
    pub fn cone_signature(&self, output_index: usize) -> Vec<u8> {
        let slice = crate::transform::extract_cone_slice(self, output_index);
        // Distinct version tag (vs `[b'N', 1]`): a cone key and a
        // whole-netlist key must never collide even for a single-output
        // netlist that is its own cone.
        let mut sig = vec![b'C', 1u8];
        sig.extend_from_slice(&slice.netlist.structural_signature());
        sig
    }

    /// Returns a copy with every gate's delay bounds replaced by
    /// `f(current)` — e.g. to impose `dmin = 0.9·dmax` (paper §12) or the
    /// unbounded model. Inputs keep zero delay.
    pub fn map_delays(&self, mut f: impl FnMut(DelayBounds) -> DelayBounds) -> Netlist {
        let mut out = self.clone();
        for node in out.nodes.iter_mut() {
            if !node.kind.is_input() && !node.kind.is_constant() {
                node.delay = f(node.delay);
            }
        }
        out
    }
}

/// Incremental builder for [`Netlist`]. Nodes must be added before they
/// are referenced, which makes the node list topological by construction
/// and acyclicity structural.
#[derive(Debug)]
pub struct NetlistBuilder {
    nodes: Vec<Node>,
    names: HashMap<String, NodeId>,
    outputs: Vec<(String, NodeId)>,
    output_names: HashSet<String>,
}

impl NetlistBuilder {
    /// Declares a primary input.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names (inputs are the caller's fixed interface;
    /// a duplicate is a programming error, unlike parsed gate soup).
    pub fn input(&mut self, name: &str) -> NodeId {
        self.try_input(name)
            .unwrap_or_else(|e| panic!("input `{name}`: {e}"))
    }

    /// Fallible [`input`](Self::input) for parser use.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn try_input(&mut self, name: &str) -> Result<NodeId, NetlistError> {
        self.push(name, GateKind::Input, Vec::new(), DelayBounds::ZERO)
    }

    /// Adds a gate with the given fanins and delay bounds.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] for an invalid fanin count and
    /// [`NetlistError::DuplicateName`] for a name collision.
    pub fn gate(
        &mut self,
        kind: GateKind,
        name: &str,
        fanins: Vec<NodeId>,
        delay: DelayBounds,
    ) -> Result<NodeId, NetlistError> {
        if kind.is_input() || !kind.valid_arity(fanins.len()) {
            return Err(NetlistError::BadArity {
                name: name.to_owned(),
                kind,
                arity: fanins.len(),
            });
        }
        for f in &fanins {
            assert!(f.index() < self.nodes.len(), "fanin from another netlist");
        }
        self.push(name, kind, fanins, delay)
    }

    /// Marks `node` as the primary output `name`.
    ///
    /// Does not check for duplicate output names — generator code owns
    /// its naming. Parsers consuming untrusted text should use
    /// [`try_output`](Self::try_output) instead: two outputs sharing a
    /// name would make per-output reports ambiguous.
    pub fn output(&mut self, name: &str, node: NodeId) {
        self.output_names.insert(name.to_owned());
        self.outputs.push((name.to_owned(), node));
    }

    /// Fallible [`output`](Self::output) for parser use.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if an output of this name
    /// was already declared.
    pub fn try_output(&mut self, name: &str, node: NodeId) -> Result<(), NetlistError> {
        if !self.output_names.insert(name.to_owned()) {
            return Err(NetlistError::DuplicateName(name.to_owned()));
        }
        self.outputs.push((name.to_owned(), node));
        Ok(())
    }

    /// True if an output of this name was declared.
    pub(crate) fn has_output(&self, name: &str) -> bool {
        self.output_names.contains(name)
    }

    /// Looks up a previously added node by name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(
        &mut self,
        name: &str,
        kind: GateKind,
        fanins: Vec<NodeId>,
        delay: DelayBounds,
    ) -> Result<NodeId, NetlistError> {
        if self.names.contains_key(name) {
            return Err(NetlistError::DuplicateName(name.to_owned()));
        }
        let id = NodeId(u32::try_from(self.nodes.len()).expect("netlist too large"));
        self.names.insert(name.to_owned(), id);
        self.nodes.push(Node {
            name: name.to_owned(),
            kind,
            fanins,
            delay,
        });
        Ok(id)
    }

    /// Finalizes the netlist.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NoOutputs`] if no output was declared.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        if self.outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        let mut fanouts = vec![Vec::new(); self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for f in &node.fanins {
                fanouts[f.index()].push(NodeId(i as u32));
            }
        }
        let inputs = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind.is_input())
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        Ok(Netlist {
            nodes: self.nodes,
            inputs,
            outputs: self.outputs,
            fanouts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::Time;

    fn d(lo: i64, hi: i64) -> DelayBounds {
        DelayBounds::new(Time::from_int(lo), Time::from_int(hi))
    }

    fn tiny() -> Netlist {
        // f = (a NAND b) OR c
        let mut b = Netlist::builder();
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.input("c");
        let g1 = b.gate(GateKind::Nand, "g1", vec![a, bb], d(1, 2)).unwrap();
        let g2 = b.gate(GateKind::Or, "g2", vec![g1, c], d(1, 1)).unwrap();
        b.output("f", g2);
        b.finish().unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let n = tiny();
        assert_eq!(n.len(), 5);
        assert_eq!(n.gate_count(), 2);
        assert_eq!(n.inputs().len(), 3);
        assert_eq!(n.outputs().len(), 1);
        assert_eq!(n.outputs()[0].0, "f");
        let g1 = n.find("g1").unwrap();
        assert_eq!(n.node(g1).kind(), GateKind::Nand);
        assert_eq!(n.node(g1).fanins().len(), 2);
        assert_eq!(n.node(g1).delay(), d(1, 2));
        assert_eq!(n.node(g1).name(), "g1");
        assert!(n.find("nope").is_none());
        assert!(!n.is_empty());
    }

    #[test]
    fn fanouts_are_inverse_of_fanins() {
        let n = tiny();
        let a = n.find("a").unwrap();
        let g1 = n.find("g1").unwrap();
        let g2 = n.find("g2").unwrap();
        assert_eq!(n.fanouts(a), &[g1]);
        assert_eq!(n.fanouts(g1), &[g2]);
        assert!(n.fanouts(g2).is_empty());
    }

    #[test]
    fn evaluation_matches_spec() {
        let n = tiny();
        for i in 0..8u8 {
            let a = [(i & 1) != 0, (i & 2) != 0, (i & 4) != 0];
            let expect = !(a[0] && a[1]) || a[2];
            assert_eq!(n.evaluate_outputs(&a), vec![expect], "{a:?}");
        }
    }

    #[test]
    fn input_positions() {
        let n = tiny();
        let b = n.find("b").unwrap();
        let g1 = n.find("g1").unwrap();
        assert_eq!(n.input_position(b), Some(1));
        assert_eq!(n.input_position(g1), None);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = Netlist::builder();
        let a = b.input("a");
        let err = b.gate(GateKind::Buf, "a", vec![a], d(1, 1)).unwrap_err();
        assert_eq!(err, NetlistError::DuplicateName("a".into()));
    }

    #[test]
    fn duplicate_output_names_rejected_by_try_output() {
        let mut b = Netlist::builder();
        let a = b.input("a");
        let g = b.gate(GateKind::Not, "g", vec![a], d(1, 1)).unwrap();
        b.try_output("y", a).unwrap();
        let err = b.try_output("y", g).unwrap_err();
        assert_eq!(err, NetlistError::DuplicateName("y".into()));
        // The failed declaration must not have been recorded.
        b.try_output("z", g).unwrap();
        let n = b.finish().unwrap();
        assert_eq!(n.outputs().len(), 2);
    }

    #[test]
    fn bad_arity_rejected() {
        let mut b = Netlist::builder();
        let a = b.input("a");
        let err = b.gate(GateKind::Not, "n", vec![a, a], d(1, 1)).unwrap_err();
        assert!(matches!(err, NetlistError::BadArity { arity: 2, .. }));
        let err2 = b.gate(GateKind::Input, "i", vec![], d(1, 1)).unwrap_err();
        assert!(matches!(err2, NetlistError::BadArity { .. }));
    }

    #[test]
    fn no_outputs_rejected() {
        let mut b = Netlist::builder();
        b.input("a");
        assert_eq!(b.finish().unwrap_err(), NetlistError::NoOutputs);
    }

    #[test]
    fn map_delays_skips_inputs() {
        let n = tiny().map_delays(|b| DelayBounds::new(b.max, b.max));
        let a = n.find("a").unwrap();
        let g1 = n.find("g1").unwrap();
        assert_eq!(n.node(a).delay(), DelayBounds::ZERO);
        assert_eq!(n.node(g1).delay(), d(2, 2));
    }

    #[test]
    fn multi_output_netlists() {
        let mut b = Netlist::builder();
        let a = b.input("a");
        let g = b.gate(GateKind::Not, "g", vec![a], d(1, 1)).unwrap();
        b.output("o1", g);
        b.output("o2", a);
        let n = b.finish().unwrap();
        assert_eq!(n.outputs().len(), 2);
        assert_eq!(n.evaluate_outputs(&[true]), vec![false, true]);
    }

    #[test]
    fn structural_signature_ignores_gate_names() {
        let build = |gate_name: &str| {
            let mut b = Netlist::builder();
            let a = b.input("a");
            let bb = b.input("b");
            let g = b
                .gate(GateKind::And, gate_name, vec![a, bb], d(1, 2))
                .unwrap();
            b.output("f", g);
            b.finish().unwrap()
        };
        assert_eq!(
            build("g1").structural_signature(),
            build("renamed").structural_signature()
        );
    }

    #[test]
    fn structural_signature_distinguishes_structure() {
        let base = tiny();
        // Kind change.
        let mut b = Netlist::builder();
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.input("c");
        let g1 = b.gate(GateKind::And, "g1", vec![a, bb], d(1, 2)).unwrap();
        let g2 = b.gate(GateKind::Or, "g2", vec![g1, c], d(1, 1)).unwrap();
        b.output("f", g2);
        let kind_changed = b.finish().unwrap();
        assert_ne!(
            base.structural_signature(),
            kind_changed.structural_signature()
        );
        // Delay change.
        let delay_changed = base.map_delays(|db| DelayBounds::new(db.min, db.max + d(1, 1).max));
        assert_ne!(
            base.structural_signature(),
            delay_changed.structural_signature()
        );
        // Output-name change.
        let mut b = Netlist::builder();
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.input("c");
        let g1 = b.gate(GateKind::Nand, "g1", vec![a, bb], d(1, 2)).unwrap();
        let g2 = b.gate(GateKind::Or, "g2", vec![g1, c], d(1, 1)).unwrap();
        b.output("other", g2);
        let renamed_output = b.finish().unwrap();
        assert_ne!(
            base.structural_signature(),
            renamed_output.structural_signature()
        );
    }

    #[test]
    fn structural_signature_is_pin_order_sensitive() {
        // Mux pin order (s, d0, d1) is semantic: swapping d0/d1 is a
        // different circuit and must not share a signature.
        let build = |swap: bool| {
            let mut b = Netlist::builder();
            let s = b.input("s");
            let d0 = b.input("d0");
            let d1 = b.input("d1");
            let pins = if swap {
                vec![s, d1, d0]
            } else {
                vec![s, d0, d1]
            };
            let m = b.gate(GateKind::Mux, "m", pins, d(1, 1)).unwrap();
            b.output("y", m);
            b.finish().unwrap()
        };
        assert_ne!(
            build(false).structural_signature(),
            build(true).structural_signature()
        );
    }

    #[test]
    fn error_display() {
        assert!(NetlistError::NoOutputs.to_string().contains("no primary"));
        assert!(NetlistError::UnknownNode("x".into())
            .to_string()
            .contains("`x`"));
        let e = NetlistError::Parse {
            line: 3,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }
}
