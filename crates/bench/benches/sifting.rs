//! Microbench: Rudell sifting on the substrate. Bypass adders are built
//! from their operand-major netlist declaration order — the classic bad
//! order for a carry chain — and sifted until the live size stops
//! shrinking. The before/after series over growing adder width feeds the
//! EXPERIMENTS.md `EXP-ORD` table.

use tbf_bdd::{Bdd, BddManager};
use tbf_bench::harness::section;
use tbf_logic::generators::adders::carry_bypass;
use tbf_logic::generators::unit_ninety_percent;
use tbf_logic::{GateKind, Netlist};

/// Builds the combinational output BDDs of `netlist` with one variable
/// per primary input in *declaration order*. For the adder generators
/// that is operand-major (all a's, then all b's) — the classic bad
/// order for a carry chain, which has to remember every a-bit until the
/// matching b-bit arrives. (The delay engines are immune: their layout
/// interleaves variables in fanin-DFS order.)
fn declaration_order_bdds(m: &mut BddManager, netlist: &Netlist) -> Vec<Bdd> {
    let mut of: Vec<Bdd> = Vec::with_capacity(netlist.len());
    for (_, node) in netlist.nodes() {
        let f = match node.kind() {
            GateKind::Input => {
                let v = m.new_var();
                m.var(v)
            }
            kind => {
                let ins: Vec<Bdd> = node.fanins().iter().map(|&x| of[x.index()]).collect();
                match kind {
                    GateKind::And => m.and_all(ins),
                    GateKind::Or => m.or_all(ins),
                    GateKind::Nand => {
                        let t = m.and_all(ins);
                        m.not(t)
                    }
                    GateKind::Nor => {
                        let t = m.or_all(ins);
                        m.not(t)
                    }
                    GateKind::Xor => ins.into_iter().fold(Bdd::FALSE, |a, b| m.xor(a, b)),
                    GateKind::Xnor => {
                        let t = ins.into_iter().fold(Bdd::FALSE, |a, b| m.xor(a, b));
                        m.not(t)
                    }
                    GateKind::Not => m.not(ins[0]),
                    GateKind::Buf => ins[0],
                    GateKind::Maj => {
                        let ab = m.and(ins[0], ins[1]);
                        let bc = m.and(ins[1], ins[2]);
                        let ac = m.and(ins[0], ins[2]);
                        let t = m.or(ab, bc);
                        m.or(t, ac)
                    }
                    GateKind::Mux => m.ite(ins[0], ins[2], ins[1]),
                    GateKind::Const0 => Bdd::FALSE,
                    GateKind::Const1 => Bdd::TRUE,
                    GateKind::Input => unreachable!("matched above"),
                }
            }
        };
        of.push(f);
    }
    netlist
        .outputs()
        .iter()
        .map(|(_, id)| of[id.index()])
        .collect()
}

/// Sifts `roots` in bounded passes until the live size stops shrinking,
/// returning the live size before the first and after the last pass.
fn sift_to_convergence(m: &mut BddManager, roots: &[Bdd]) -> (usize, usize) {
    let before = m.live_size(roots);
    let mut best = before;
    loop {
        let abort = m.sift_abort_bound(roots);
        let (_, after) = m.sift(roots, 150, abort);
        if after >= best {
            return (before, best.min(after));
        }
        best = after;
    }
}

fn main() {
    // Sifting recovers the interleaved order and the live size
    // collapses, increasingly so with width. (Width 10 is deliberately
    // absent: its declaration-order build alone needs ~2^20 nodes.)
    section("EXP-ORD: sifting declaration-order BDDs of growing width");
    for width in [4usize, 6, 8] {
        let n = carry_bypass(width, 2, unit_ninety_percent());
        let mut m = BddManager::new();
        let roots = declaration_order_bdds(&mut m, &n);
        let (before, after) = sift_to_convergence(&mut m, &roots);
        println!(
            "  bypass_{width}x2 declaration order: live {before} -> {after} ({:.2}x)",
            before as f64 / after as f64
        );
    }
}
