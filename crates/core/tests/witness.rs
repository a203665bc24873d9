//! The extracted sensitizing witness must actually drive the circuit:
//! simulating it reproduces the computed exact delay on the paper's
//! circuits and never exceeds it anywhere.

use tbf_core::{analyze, two_vector_delay, AnalysisPolicy, DelayOptions, DelayWitness};
use tbf_logic::generators::adders::{carry_bypass, paper_bypass_adder, ripple_carry};
use tbf_logic::generators::figures::figure4_example3;
use tbf_logic::generators::trees::parity_tree;
use tbf_logic::generators::unit_ninety_percent;
use tbf_logic::transform::extract_cone_slice;
use tbf_logic::{Netlist, Time};
use tbf_sim::{simulate, Stimulus};

fn opts() -> DelayOptions {
    DelayOptions::default()
}

/// Simulates the witness and returns the last transition of the witness
/// output.
fn replay(n: &Netlist, report: &tbf_core::DelayReport) -> Option<Time> {
    replay_witness(
        n,
        report
            .witness
            .as_ref()
            .expect("nonzero delay has a witness"),
    )
}

fn replay_witness(n: &Netlist, w: &DelayWitness) -> Option<Time> {
    let stim = Stimulus::vector_pair(&w.before, &w.after);
    let r = simulate(n, &w.delays, &stim.waveforms(n));
    let out = n
        .outputs()
        .iter()
        .find(|(name, _)| *name == w.output)
        .expect("witness names a real output")
        .1;
    r.waveform(out).last_transition()
}

#[test]
fn witness_attains_the_bound_on_figure4() {
    let n = figure4_example3();
    let report = two_vector_delay(&n, &opts()).unwrap();
    assert_eq!(replay(&n, &report), Some(report.delay));
}

#[test]
fn witness_attains_the_bound_on_the_bypass_adder() {
    let n = paper_bypass_adder();
    let report = two_vector_delay(&n, &opts()).unwrap();
    assert_eq!(report.delay, Time::from_int(24));
    assert_eq!(replay(&n, &report), Some(Time::from_int(24)));
}

#[test]
fn witness_attains_the_bound_on_suite_circuits() {
    let d = unit_ninety_percent();
    for (name, n) in [
        ("rca4", ripple_carry(4, d)),
        ("bypass2x2", carry_bypass(2, 2, d)),
        ("parity8", parity_tree(8, d)),
    ] {
        let report = two_vector_delay(&n, &opts()).unwrap();
        let observed = replay(&n, &report);
        assert_eq!(
            observed,
            Some(report.delay),
            "{name}: witness replay missed the bound"
        );
    }
}

#[test]
fn witness_delays_respect_bounds() {
    let n = paper_bypass_adder();
    let report = two_vector_delay(&n, &opts()).unwrap();
    let w = report.witness.unwrap();
    assert_eq!(w.delays.len(), n.len());
    for (id, node) in n.nodes() {
        let d = w.delays[id.index()];
        assert!(
            node.delay().min <= d && d <= node.delay().max,
            "node {} delay {d} outside {}",
            node.name(),
            node.delay()
        );
    }
    assert_eq!(w.before.len(), n.inputs().len());
    assert_eq!(w.after.len(), n.inputs().len());
}

#[test]
fn zero_delay_circuits_have_no_witness() {
    use tbf_logic::{DelayBounds, GateKind};
    let mut b = Netlist::builder();
    let x = b.input("x");
    let c = b
        .gate(GateKind::Const0, "c", vec![], DelayBounds::ZERO)
        .unwrap();
    let g = b
        .gate(
            GateKind::And,
            "g",
            vec![x, c],
            DelayBounds::fixed(Time::from_int(3)),
        )
        .unwrap();
    b.output("f", g);
    let n = b.finish().unwrap();
    let report = two_vector_delay(&n, &opts()).unwrap();
    assert_eq!(report.delay, Time::ZERO);
    assert!(report.witness.is_none());
}

/// FNV-1a over a witness's scaled per-node delays: a compact exact pin.
fn delays_fingerprint(delays: &[Time]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in delays {
        for b in d.scaled().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn bits(v: &[bool]) -> String {
    v.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// `(output, delay, topological delay)` in time units.
type Pin = (&'static str, i64, i64);

fn output_view(outputs: &[tbf_core::OutputDelay]) -> Vec<(&str, Time, Time)> {
    outputs
        .iter()
        .map(|o| {
            assert!(o.is_exact(), "{} degraded", o.name);
            (o.name.as_str(), o.delay, o.topological)
        })
        .collect()
}

fn pinned(pins: &[Pin]) -> Vec<(&'static str, Time, Time)> {
    pins.iter()
        .map(|&(name, delay, topo)| (name, Time::from_int(delay), Time::from_int(topo)))
        .collect()
}

/// `carry_bypass(4, 4)`'s whole-netlist build is the smallest suite
/// case that crosses the BDD garbage-collection trigger (56 gates, 77
/// breakpoints), so it is where the engine's sweeping path meets a
/// referee. Its report — per-output delays, the witness — is pinned as
/// every earlier engine reported it, through both the direct engine
/// (which sweeps) and the per-cone `analyze` path (which does not), and the
/// witness replays in the gate-level simulator to a last transition at
/// exactly the circuit delay, which therefore is attained.
#[test]
fn carry_bypass_4x4_report_is_pinned_and_its_witness_replays() {
    const OUTPUTS: [Pin; 17] = [
        ("sum0", 2, 2),
        ("sum1", 2, 2),
        ("sum2", 3, 3),
        ("sum3", 4, 4),
        ("sum4", 6, 6),
        ("sum5", 7, 7),
        ("sum6", 8, 8),
        ("sum7", 9, 9),
        ("sum8", 7, 11),
        ("sum9", 8, 12),
        ("sum10", 9, 13),
        ("sum11", 10, 14),
        ("sum12", 8, 16),
        ("sum13", 9, 17),
        ("sum14", 10, 18),
        ("sum15", 11, 19),
        ("cout", 8, 20),
    ];
    let t = Time::from_int;
    let n = carry_bypass(4, 4, unit_ninety_percent());
    let direct = two_vector_delay(&n, &opts()).expect("stays within default caps");
    assert!(direct.stats.gc_sweeps > 0, "the build must sweep");
    let per_cone = analyze(&n, &AnalysisPolicy::default());
    assert_eq!(output_view(&direct.outputs), pinned(&OUTPUTS));
    assert_eq!(output_view(&per_cone.outputs), pinned(&OUTPUTS));
    assert_eq!((direct.delay, direct.topological), (t(11), t(20)));
    assert_eq!(
        (per_cone.lower, per_cone.upper, per_cone.exact),
        (t(11), t(11), Some(t(11)))
    );
    for s in [&direct.stats, &per_cone.stats] {
        assert_eq!(
            (s.breakpoints_visited, s.resolvents, s.lps_solved, s.retries),
            (77, 953, 17, 0)
        );
    }
    for w in [&direct.witness, &per_cone.witness] {
        let w = w.as_ref().expect("a nonzero exact delay has a witness");
        assert_eq!(w.output, "sum15");
        assert_eq!(bits(&w.before), "000000000000000010000000000000001");
        assert_eq!(bits(&w.after), "000000000000000001111111111111100");
        assert_eq!(delays_fingerprint(&w.delays), 0x7e22_9b67_729e_17f1);
        assert_eq!(replay_witness(&n, w), Some(t(11)));
    }
}

/// Every output of the corpus's `adder_bypass_2x8` (`carry_bypass(2,
/// 8)`), certified outside the engine: each output cone's witness
/// replays in the gate-level simulator to a last transition at exactly
/// the pinned delay (so it is attained), and the delay lies at or below
/// the cone's topological bound. The larger cones' builds sweep.
#[test]
fn bypass_2x8_outputs_are_witnessed_through_sweeping_builds() {
    const OUTPUTS: [Pin; 17] = [
        ("sum0", 2, 2),
        ("sum1", 2, 2),
        ("sum2", 4, 4),
        ("sum3", 5, 5),
        ("sum4", 5, 7),
        ("sum5", 6, 8),
        ("sum6", 6, 10),
        ("sum7", 7, 11),
        ("sum8", 7, 13),
        ("sum9", 8, 14),
        ("sum10", 8, 16),
        ("sum11", 9, 17),
        ("sum12", 9, 19),
        ("sum13", 10, 20),
        ("sum14", 10, 22),
        ("sum15", 11, 23),
        ("cout", 10, 24),
    ];
    let n = carry_bypass(2, 8, unit_ninety_percent());
    let mut sweeps = 0;
    let mut got = Vec::new();
    for i in 0..n.outputs().len() {
        let cone = extract_cone_slice(&n, i).netlist;
        let report = two_vector_delay(&cone, &opts()).expect("cones stay within default caps");
        sweeps += report.stats.gc_sweeps;
        let out = &report.outputs[0];
        assert!(out.delay <= out.topological, "{}", out.name);
        assert_eq!(out.topological, cone.topological_delay(), "{}", out.name);
        assert_eq!(replay(&cone, &report), Some(out.delay), "{}", out.name);
        got.push(out.clone());
    }
    assert_eq!(output_view(&got), pinned(&OUTPUTS));
    assert!(sweeps > 0, "the larger cones' builds must sweep");
}
