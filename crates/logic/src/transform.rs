//! Structural netlist transformations: sweeping, cone extraction,
//! decomposition and structural hashing.
//!
//! These preserve the static functions of the (kept) outputs and the
//! *delay bounds along every surviving path*, so exact-delay results
//! before and after are comparable. Decomposition changes path/gate
//! granularity deliberately (see [`decompose_to_binary`]) — the paper's
//! analysis operates on whatever gate-level the mapper produced, and
//! these utilities let one study how granularity affects the exact
//! delays.

use std::collections::HashMap;

use crate::delay::DelayBounds;
use crate::gate::GateKind;
use crate::netlist::{Netlist, NetlistBuilder, NetlistError, NodeId};

/// Removes every node that reaches no primary output ("dangling" logic,
/// e.g. the provably-zero top carries of an array multiplier).
///
/// Output order and names are preserved; surviving nodes keep their
/// names and delays.
///
/// # Example
///
/// ```
/// use tbf_logic::generators::datapath::array_multiplier;
/// use tbf_logic::transform::sweep;
/// use tbf_logic::{DelayBounds, Time};
///
/// let m = array_multiplier(4, DelayBounds::fixed(Time::from_int(1)));
/// let swept = sweep(&m);
/// assert!(swept.gate_count() <= m.gate_count());
/// assert_eq!(swept.outputs().len(), m.outputs().len());
/// ```
pub fn sweep(netlist: &Netlist) -> Netlist {
    // Mark the cone of every output.
    let mut keep = vec![false; netlist.len()];
    let mut stack: Vec<NodeId> = netlist.outputs().iter().map(|&(_, o)| o).collect();
    while let Some(n) = stack.pop() {
        if keep[n.index()] {
            continue;
        }
        keep[n.index()] = true;
        stack.extend(netlist.node(n).fanins().iter().copied());
    }
    // Inputs are interface: always kept (an unused input stays an input).
    for &i in netlist.inputs() {
        keep[i.index()] = true;
    }
    rebuild(netlist, &keep).expect("sweeping cannot create errors")
}

/// A single-output cone extracted by [`extract_cone_slice`], with the
/// index map needed to translate cone-local results (witness vectors,
/// per-node delay assignments) back into the source netlist's
/// coordinates.
#[derive(Clone, Debug)]
pub struct ConeSlice {
    /// The standalone cone netlist (one output; unused inputs dropped).
    pub netlist: Netlist,
    /// `node_map[i]` is the source-netlist [`NodeId`] of cone node `i`.
    /// Nodes are emitted in ascending source order, so the map is
    /// strictly increasing and the cone stays topological.
    pub node_map: Vec<NodeId>,
}

/// Extracts the fanin cone of the `output_index`-th primary output as a
/// standalone netlist plus the node map back to `netlist` — the per-cone
/// work unit of the parallel analysis driver. Outputs are addressed by
/// position, so duplicate output names and several outputs sharing one
/// driver node stay unambiguous.
///
/// # Panics
///
/// Panics if `output_index` is out of range.
pub fn extract_cone_slice(netlist: &Netlist, output_index: usize) -> ConeSlice {
    let (name, root) = &netlist.outputs()[output_index];
    let mut keep = vec![false; netlist.len()];
    let mut stack = vec![*root];
    while let Some(n) = stack.pop() {
        if keep[n.index()] {
            continue;
        }
        keep[n.index()] = true;
        stack.extend(netlist.node(n).fanins().iter().copied());
    }
    let mut b = Netlist::builder();
    let mut node_map = Vec::new();
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    for (id, node) in netlist.nodes() {
        if !keep[id.index()] {
            continue;
        }
        let new_id = if node.kind().is_input() {
            b.input(node.name())
        } else {
            let fanins = node.fanins().iter().map(|f| map[f]).collect();
            b.gate(node.kind(), node.name(), fanins, node.delay())
                .expect("names unique in the source netlist")
        };
        debug_assert_eq!(new_id.index(), node_map.len());
        node_map.push(id);
        map.insert(id, new_id);
    }
    b.output(name, map[root]);
    ConeSlice {
        netlist: b.finish().expect("one output was declared"),
        node_map,
    }
}

/// Rebuilds keeping only flagged nodes.
fn rebuild(netlist: &Netlist, keep: &[bool]) -> Result<Netlist, NetlistError> {
    let mut b = Netlist::builder();
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    for (id, node) in netlist.nodes() {
        if !keep[id.index()] {
            continue;
        }
        let new_id = if node.kind().is_input() {
            b.try_input(node.name())?
        } else {
            let fanins = node.fanins().iter().map(|f| map[f]).collect();
            b.gate(node.kind(), node.name(), fanins, node.delay())?
        };
        map.insert(id, new_id);
    }
    for (name, id) in netlist.outputs() {
        b.output(name, map[id]);
    }
    b.finish()
}

/// Decomposes every gate with more than two fanins into a balanced tree
/// of two-input gates of the same family (`AND`/`OR`/`XOR` trees with a
/// final inversion for the negated kinds). `MAJ` and `MUX` expand to
/// their AND/OR forms.
///
/// Delay bounds: the original gate's bounds go on the tree's **root**
/// gate and the added interior gates get zero delay, so every original
/// path keeps its exact delay interval (and the exact circuit delays are
/// unchanged — tested in `transform::tests`).
pub fn decompose_to_binary(netlist: &Netlist) -> Netlist {
    let mut b = Netlist::builder();
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    let mut fresh = 0usize;
    for (id, node) in netlist.nodes() {
        let new_id = match node.kind() {
            GateKind::Input => b.input(node.name()),
            kind => {
                let fanins: Vec<NodeId> = node.fanins().iter().map(|f| map[f]).collect();
                lower_gate(&mut b, kind, node.name(), &fanins, node.delay(), &mut fresh)
            }
        };
        map.insert(id, new_id);
    }
    for (name, id) in netlist.outputs() {
        b.output(name, map[id]);
    }
    b.finish().expect("outputs preserved")
}

/// Emits `kind(fanins)` as two-input logic; the node named `name` is the
/// tree root carrying `delay`.
fn lower_gate(
    b: &mut NetlistBuilder,
    kind: GateKind,
    name: &str,
    fanins: &[NodeId],
    delay: DelayBounds,
    fresh: &mut usize,
) -> NodeId {
    let mut aux = |b: &mut NetlistBuilder, kind: GateKind, fi: Vec<NodeId>| -> NodeId {
        *fresh += 1;
        b.gate(kind, &format!("{name}__t{fresh}"), fi, DelayBounds::ZERO)
            .expect("fresh names are unique")
    };
    // Balanced zero-delay reduction of `fanins` under `base`, leaving the
    // LAST combine for the named, delay-carrying root (possibly inverted).
    let reduce =
        |b: &mut NetlistBuilder,
         base: GateKind,
         fanins: &[NodeId],
         fresh_aux: &mut dyn FnMut(&mut NetlistBuilder, GateKind, Vec<NodeId>) -> NodeId|
         -> Vec<NodeId> {
            let mut layer: Vec<NodeId> = fanins.to_vec();
            while layer.len() > 2 {
                let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                for pair in layer.chunks(2) {
                    match pair {
                        [only] => next.push(*only),
                        [l, r] => next.push(fresh_aux(b, base, vec![*l, *r])),
                        _ => unreachable!("chunks(2)"),
                    }
                }
                layer = next;
            }
            layer
        };
    match kind {
        GateKind::Input => unreachable!("handled by caller"),
        GateKind::Const0 | GateKind::Const1 | GateKind::Not | GateKind::Buf => b
            .gate(kind, name, fanins.to_vec(), delay)
            .expect("source names are unique"),
        GateKind::And | GateKind::Or | GateKind::Xor => {
            let layer = reduce(b, kind, fanins, &mut aux);
            b.gate(kind, name, layer, delay)
                .expect("source names are unique")
        }
        GateKind::Nand | GateKind::Nor | GateKind::Xnor => {
            let base = match kind {
                GateKind::Nand => GateKind::And,
                GateKind::Nor => GateKind::Or,
                _ => GateKind::Xor,
            };
            let layer = reduce(b, base, fanins, &mut aux);
            let inner = if layer.len() == 1 {
                layer[0]
            } else {
                aux(b, base, layer)
            };
            b.gate(GateKind::Not, name, vec![inner], delay)
                .expect("source names are unique")
        }
        GateKind::Maj => {
            // ab + ac + bc with zero-delay structure, named OR root.
            let ab = aux(b, GateKind::And, vec![fanins[0], fanins[1]]);
            let ac = aux(b, GateKind::And, vec![fanins[0], fanins[2]]);
            let bc = aux(b, GateKind::And, vec![fanins[1], fanins[2]]);
            let left = aux(b, GateKind::Or, vec![ab, ac]);
            b.gate(GateKind::Or, name, vec![left, bc], delay)
                .expect("source names are unique")
        }
        GateKind::Mux => {
            // s̄·d0 + s·d1.
            let ns = aux(b, GateKind::Not, vec![fanins[0]]);
            let d0 = aux(b, GateKind::And, vec![ns, fanins[1]]);
            let d1 = aux(b, GateKind::And, vec![fanins[0], fanins[2]]);
            b.gate(GateKind::Or, name, vec![d0, d1], delay)
                .expect("source names are unique")
        }
    }
}

/// Structural hashing: merges gates with identical `(kind, fanins,
/// delay)` signatures (fanins sorted for the commutative kinds). The
/// first occurrence's name survives; outputs are re-pointed.
///
/// Static functions are preserved exactly. Exact *delays* are preserved
/// too: duplicate gates with identical bounds denote interchangeable
/// delay variables (any behaviour of the merged circuit is a behaviour
/// of the original with the duplicates tracking each other, and the
/// worst case is invariant under that restriction — the merged circuit's
/// path set maps onto a subset with identical k-functions).
pub fn strash(netlist: &Netlist) -> Netlist {
    #[derive(PartialEq, Eq, Hash)]
    struct Sig {
        kind_tag: u8,
        fanins: Vec<NodeId>,
        delay: DelayBounds,
    }
    let commutative = |k: GateKind| {
        matches!(
            k,
            GateKind::And
                | GateKind::Or
                | GateKind::Nand
                | GateKind::Nor
                | GateKind::Xor
                | GateKind::Xnor
                | GateKind::Maj
        )
    };
    let tag = |k: GateKind| -> u8 {
        match k {
            GateKind::Input => 0,
            GateKind::And => 1,
            GateKind::Or => 2,
            GateKind::Nand => 3,
            GateKind::Nor => 4,
            GateKind::Xor => 5,
            GateKind::Xnor => 6,
            GateKind::Not => 7,
            GateKind::Buf => 8,
            GateKind::Maj => 9,
            GateKind::Mux => 10,
            GateKind::Const0 => 11,
            GateKind::Const1 => 12,
        }
    };
    let mut b = Netlist::builder();
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    let mut seen: HashMap<Sig, NodeId> = HashMap::new();
    for (id, node) in netlist.nodes() {
        let new_id = if node.kind().is_input() {
            b.input(node.name())
        } else {
            let mut fanins: Vec<NodeId> = node.fanins().iter().map(|f| map[f]).collect();
            let mut key_fanins = fanins.clone();
            if commutative(node.kind()) {
                key_fanins.sort_unstable();
                fanins = key_fanins.clone();
            }
            let sig = Sig {
                kind_tag: tag(node.kind()),
                fanins: key_fanins,
                delay: node.delay(),
            };
            match seen.get(&sig) {
                Some(&existing) => existing,
                None => {
                    let created = b
                        .gate(node.kind(), node.name(), fanins, node.delay())
                        .expect("source names are unique");
                    seen.insert(sig, created);
                    created
                }
            }
        };
        map.insert(id, new_id);
    }
    for (name, id) in netlist.outputs() {
        b.output(name, map[id]);
    }
    b.finish().expect("outputs preserved")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::Time;
    use crate::generators::adders::paper_bypass_adder;
    use crate::generators::datapath::array_multiplier;
    use crate::generators::trees::parity_tree;

    fn d(lo: i64, hi: i64) -> DelayBounds {
        DelayBounds::new(Time::from_int(lo), Time::from_int(hi))
    }

    fn same_function(a: &Netlist, b: &Netlist, n_in: usize) {
        assert!(n_in <= 12, "exhaustive check only");
        for bits in 0..(1u64 << n_in) {
            let v: Vec<bool> = (0..n_in).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(a.evaluate_outputs(&v), b.evaluate_outputs(&v), "{bits:#b}");
        }
    }

    #[test]
    fn sweep_drops_dangling_logic() {
        let m = array_multiplier(3, DelayBounds::fixed(Time::from_int(1)));
        let swept = sweep(&m);
        assert!(
            swept.gate_count() < m.gate_count(),
            "multiplier has dead carries"
        );
        same_function(&m, &swept, 6);
        assert_eq!(swept.topological_delay(), m.topological_delay());
    }

    #[test]
    fn extract_cone_slice_isolates_one_output() {
        let n = paper_bypass_adder();
        let cone = extract_cone_slice(&n, 0).netlist;
        assert_eq!(cone.outputs().len(), 1);
        assert_eq!(cone.topological_delay(), Time::from_int(40));
        // Function agrees on shared inputs (same order by construction).
        for bits in 0..512u64 {
            let v: Vec<bool> = (0..9).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(cone.evaluate_outputs(&v), n.evaluate_outputs(&v));
        }
    }

    #[test]
    fn extract_cone_slice_maps_back_to_the_source() {
        let n = paper_bypass_adder();
        for (idx, (name, root)) in n.outputs().iter().enumerate() {
            let slice = extract_cone_slice(&n, idx);
            assert_eq!(slice.netlist.outputs().len(), 1);
            assert_eq!(&slice.netlist.outputs()[0].0, name);
            assert_eq!(slice.node_map.len(), slice.netlist.len());
            // The map is strictly increasing (cone order = source order)
            // and every cone node mirrors its source node.
            for (cone_id, node) in slice.netlist.nodes() {
                let src = slice.node_map[cone_id.index()];
                assert_eq!(n.node(src).name(), node.name());
                assert_eq!(n.node(src).kind(), node.kind());
                assert_eq!(n.node(src).delay(), node.delay());
            }
            assert!(slice.node_map.windows(2).all(|w| w[0] < w[1]));
            // The cone's output node maps to the source output driver.
            assert_eq!(slice.node_map[slice.netlist.outputs()[0].1.index()], *root);
            // Per-output topological delay is preserved.
            assert_eq!(
                slice.netlist.topological_delay(),
                n.topological_delay_of(*root)
            );
        }
    }

    #[test]
    fn extract_cone_slice_disambiguates_shared_drivers() {
        // Two outputs on the SAME driver node: by-index extraction must
        // keep them distinct even though the cones are identical.
        let mut b = Netlist::builder();
        let x = b.input("x");
        let g = b.gate(GateKind::Not, "g", vec![x], d(1, 2)).unwrap();
        b.output("o1", g);
        b.output("o2", g);
        let n = b.finish().unwrap();
        let s0 = extract_cone_slice(&n, 0);
        let s1 = extract_cone_slice(&n, 1);
        assert_eq!(s0.netlist.outputs()[0].0, "o1");
        assert_eq!(s1.netlist.outputs()[0].0, "o2");
        assert_eq!(s0.node_map, s1.node_map);
    }

    #[test]
    fn decompose_preserves_function_and_lengths() {
        let n = paper_bypass_adder();
        let bin = decompose_to_binary(&n);
        for (_, node) in bin.nodes() {
            assert!(node.fanins().len() <= 2, "{} still wide", node.name());
        }
        for bits in 0..512u64 {
            let v: Vec<bool> = (0..9).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(bin.evaluate_outputs(&v), n.evaluate_outputs(&v));
        }
        // Zero-delay interior gates keep the topological delay intact.
        assert_eq!(bin.topological_delay(), n.topological_delay());
    }

    #[test]
    fn decompose_preserves_exact_path_intervals() {
        // The 4-wide propagate AND becomes a tree; the root carries the
        // original [2,4] bounds and interior gates are free.
        let n = paper_bypass_adder();
        let bin = decompose_to_binary(&n);
        let arr_max = bin.arrivals(false, true);
        let arr_min = bin.arrivals(true, false);
        let bp = bin.find("bp").expect("root keeps the name");
        assert_eq!(
            arr_max[bp.index()],
            Time::from_int(8),
            "xor (4) + AND-root (4)"
        );
        assert_eq!(arr_min[bp.index()], Time::from_int(4));
    }

    #[test]
    fn strash_merges_duplicates() {
        let mut b = Netlist::builder();
        let x = b.input("x");
        let y = b.input("y");
        let g1 = b.gate(GateKind::And, "g1", vec![x, y], d(1, 2)).unwrap();
        let g2 = b.gate(GateKind::And, "g2", vec![y, x], d(1, 2)).unwrap(); // commutative dup
        let g3 = b.gate(GateKind::And, "g3", vec![x, y], d(1, 3)).unwrap(); // different delay
        let o1 = b.gate(GateKind::Or, "o1", vec![g1, g2], d(1, 1)).unwrap();
        b.output("f", o1);
        b.output("g", g3);
        let n = b.finish().unwrap();
        let hashed = strash(&n);
        // g2 merged into g1; g3 kept (delay differs).
        assert_eq!(hashed.gate_count(), n.gate_count() - 1);
        same_function(&n, &hashed, 2);
    }

    #[test]
    fn strash_is_idempotent() {
        let n = parity_tree(8, d(1, 2));
        let once = strash(&n);
        let twice = strash(&once);
        assert_eq!(once.gate_count(), twice.gate_count());
    }

    #[test]
    fn pipeline_compose() {
        // sweep ∘ strash ∘ decompose on the multiplier keeps the function.
        let m = array_multiplier(3, DelayBounds::fixed(Time::from_int(1)));
        let cooked = sweep(&strash(&decompose_to_binary(&m)));
        same_function(&m, &cooked, 6);
        assert!(cooked.gate_count() <= decompose_to_binary(&m).gate_count());
    }
}
