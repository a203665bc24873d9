//! Static (settled, `t = ∞`) circuit functions as BDDs.

use tbf_bdd::{Bdd, BddManager, OpAbort, OpBudget};
use tbf_logic::{GateKind, Netlist};

/// Builds the BDD of a single gate from its fanin BDDs, aborting cleanly
/// if the manager outgrows the budget's node cap or its cancel probe
/// fires mid-operation.
pub(crate) fn gate_bdd(
    manager: &mut BddManager,
    kind: GateKind,
    fanins: &[Bdd],
    budget: &OpBudget<'_>,
) -> Result<Bdd, OpAbort> {
    let and_all = |m: &mut BddManager, fs: &[Bdd]| -> Result<Bdd, OpAbort> {
        let mut acc = Bdd::TRUE;
        for &f in fs {
            acc = m.try_and_b(acc, f, budget)?;
        }
        Ok(acc)
    };
    let or_all = |m: &mut BddManager, fs: &[Bdd]| -> Result<Bdd, OpAbort> {
        let mut acc = Bdd::FALSE;
        for &f in fs {
            acc = m.try_or_b(acc, f, budget)?;
        }
        Ok(acc)
    };
    let xor_all = |m: &mut BddManager, fs: &[Bdd]| -> Result<Bdd, OpAbort> {
        let mut acc = Bdd::FALSE;
        for &f in fs {
            acc = m.try_xor_b(acc, f, budget)?;
        }
        Ok(acc)
    };
    Ok(match kind {
        GateKind::Input => unreachable!("inputs are leaves"),
        GateKind::And => and_all(manager, fanins)?,
        GateKind::Or => or_all(manager, fanins)?,
        GateKind::Nand => {
            let a = and_all(manager, fanins)?;
            manager.not(a)
        }
        GateKind::Nor => {
            let a = or_all(manager, fanins)?;
            manager.not(a)
        }
        GateKind::Xor => xor_all(manager, fanins)?,
        GateKind::Xnor => {
            let x = xor_all(manager, fanins)?;
            manager.not(x)
        }
        GateKind::Not => manager.not(fanins[0]),
        GateKind::Buf => fanins[0],
        GateKind::Maj => {
            let ab = manager.try_and_b(fanins[0], fanins[1], budget)?;
            let ac = manager.try_and_b(fanins[0], fanins[2], budget)?;
            let bc = manager.try_and_b(fanins[1], fanins[2], budget)?;
            let t = manager.try_or_b(ab, ac, budget)?;
            manager.try_or_b(t, bc, budget)?
        }
        GateKind::Mux => manager.try_ite_b(fanins[0], fanins[2], fanins[1], budget)?,
        GateKind::Const0 => Bdd::FALSE,
        GateKind::Const1 => Bdd::TRUE,
    })
}

/// Builds the static function of every node over the given per-input leaf
/// BDDs (one per primary input, in input order), aborting if the manager
/// outgrows the budget or its cancel probe fires.
///
/// Called twice per analysis: once over the `x(0⁺)` variables (this is
/// `f(∞)`) and once over the `x(0⁻)` variables (the all-negative collapse
/// of the TBF network).
pub(crate) fn build_statics(
    manager: &mut BddManager,
    netlist: &Netlist,
    leaves: &[Bdd],
    budget: &OpBudget<'_>,
) -> Result<Vec<Bdd>, OpAbort> {
    assert_eq!(leaves.len(), netlist.inputs().len());
    let mut out: Vec<Bdd> = Vec::with_capacity(netlist.len());
    let mut input_pos = 0usize;
    for (_, node) in netlist.nodes() {
        let b = if node.kind().is_input() {
            let b = leaves[input_pos];
            input_pos += 1;
            b
        } else {
            let fanins: Vec<Bdd> = node.fanins().iter().map(|f| out[f.index()]).collect();
            gate_bdd(manager, node.kind(), &fanins, budget)?
        };
        out.push(b);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbf_logic::{DelayBounds, Time};

    fn d1() -> DelayBounds {
        DelayBounds::fixed(Time::from_int(1))
    }

    fn generous() -> OpBudget<'static> {
        OpBudget::nodes_only(1_000_000)
    }

    #[test]
    fn statics_match_evaluation() {
        // f = MUX(s, a·b, a⊕b); exhaustively compare BDD vs netlist eval.
        let mut b = Netlist::builder();
        let s = b.input("s");
        let a = b.input("a");
        let bb = b.input("b");
        let g1 = b.gate(GateKind::And, "g1", vec![a, bb], d1()).unwrap();
        let g2 = b.gate(GateKind::Xor, "g2", vec![a, bb], d1()).unwrap();
        let g3 = b.gate(GateKind::Mux, "g3", vec![s, g1, g2], d1()).unwrap();
        b.output("f", g3);
        let n = b.finish().unwrap();

        let mut m = BddManager::new();
        let vars: Vec<Bdd> = (0..3)
            .map(|i| {
                let v = m.new_named_var(&format!("x{i}"));
                m.var(v)
            })
            .collect();
        let statics = build_statics(&mut m, &n, &vars, &generous()).unwrap();
        let out = n.find("g3").unwrap();
        for i in 0..8u8 {
            let assignment = [(i & 1) != 0, (i & 2) != 0, (i & 4) != 0];
            assert_eq!(
                m.eval(statics[out.index()], &assignment),
                n.evaluate_outputs(&assignment)[0],
                "{assignment:?}"
            );
        }
    }

    #[test]
    fn all_gate_kinds_build() {
        let mut b = Netlist::builder();
        let x = b.input("x");
        let y = b.input("y");
        let z = b.input("z");
        let mut nodes = Vec::new();
        for (i, kind) in [
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ]
        .iter()
        .enumerate()
        {
            nodes.push(
                b.gate(*kind, &format!("g{i}"), vec![x, y, z], d1())
                    .unwrap(),
            );
        }
        let n1 = b.gate(GateKind::Not, "n1", vec![x], d1()).unwrap();
        let b1 = b.gate(GateKind::Buf, "b1", vec![y], d1()).unwrap();
        let mj = b.gate(GateKind::Maj, "mj", vec![x, y, z], d1()).unwrap();
        let c0 = b
            .gate(GateKind::Const0, "c0", vec![], DelayBounds::ZERO)
            .unwrap();
        let c1 = b
            .gate(GateKind::Const1, "c1", vec![], DelayBounds::ZERO)
            .unwrap();
        nodes.extend([n1, b1, mj, c0, c1]);
        for (i, id) in nodes.iter().enumerate() {
            b.output(&format!("o{i}"), *id);
        }
        let n = b.finish().unwrap();

        let mut m = BddManager::new();
        let vars: Vec<Bdd> = (0..3)
            .map(|_| {
                let v = m.new_var();
                m.var(v)
            })
            .collect();
        let statics = build_statics(&mut m, &n, &vars, &generous()).unwrap();
        for i in 0..8u8 {
            let assignment = [(i & 1) != 0, (i & 2) != 0, (i & 4) != 0];
            let eval = n.evaluate(&assignment);
            for (id, _) in n.nodes() {
                if n.node(id).kind().is_input() {
                    continue;
                }
                assert_eq!(
                    m.eval(statics[id.index()], &assignment),
                    eval[id.index()],
                    "node {} on {assignment:?}",
                    n.node(id).name()
                );
            }
        }
    }

    #[test]
    fn cancelled_probe_aborts_static_build() {
        let mut b = Netlist::builder();
        let x = b.input("x");
        let y = b.input("y");
        let g = b.gate(GateKind::Xor, "g", vec![x, y], d1()).unwrap();
        b.output("f", g);
        let n = b.finish().unwrap();
        let mut m = BddManager::new();
        let vars: Vec<Bdd> = (0..2)
            .map(|_| {
                let v = m.new_var();
                m.var(v)
            })
            .collect();
        let probe = || true;
        let budget = OpBudget::with_cancel(1_000_000, &probe);
        let r = build_statics(&mut m, &n, &vars, &budget);
        assert_eq!(r, Err(OpAbort::Cancelled));
    }
}
