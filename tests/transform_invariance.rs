//! Exact delays must be invariant under the semantics- and
//! timing-preserving structural transformations.

use tbf_suite::core::{sequences_delay, two_vector_delay, DelayOptions};
use tbf_suite::logic::generators::adders::{carry_bypass, paper_bypass_adder};
use tbf_suite::logic::generators::figures::figure4_example3;
use tbf_suite::logic::generators::unit_ninety_percent;
use tbf_suite::logic::transform::{decompose_to_binary, extract_cone_slice, strash, sweep};
use tbf_suite::logic::Time;

fn opts() -> DelayOptions {
    DelayOptions::default()
}

#[test]
fn decompose_preserves_exact_delays() {
    for n in [figure4_example3(), paper_bypass_adder()] {
        let base = two_vector_delay(&n, &opts()).unwrap().delay;
        let bin = decompose_to_binary(&n);
        let after = two_vector_delay(&bin, &opts()).unwrap().delay;
        assert_eq!(base, after, "decomposition changed the exact delay");
    }
}

#[test]
fn strash_preserves_exact_delays() {
    let n = carry_bypass(2, 2, unit_ninety_percent());
    let base = two_vector_delay(&n, &opts()).unwrap().delay;
    let hashed = strash(&n);
    let after = two_vector_delay(&hashed, &opts()).unwrap().delay;
    assert_eq!(base, after);
    let seq_base = sequences_delay(&n, &opts()).unwrap().delay;
    let seq_after = sequences_delay(&hashed, &opts()).unwrap().delay;
    assert_eq!(seq_base, seq_after);
}

#[test]
fn cone_extraction_matches_per_output_delay() {
    let n = paper_bypass_adder();
    let full = two_vector_delay(&n, &opts()).unwrap();
    let cone = extract_cone_slice(&n, 0).netlist;
    let cone_delay = two_vector_delay(&cone, &opts()).unwrap().delay;
    assert_eq!(full.output_delay("cout"), Some(cone_delay));
    assert_eq!(cone_delay, Time::from_int(24));
}

#[test]
fn sweep_preserves_exact_delays() {
    use tbf_suite::logic::generators::datapath::array_multiplier;
    use tbf_suite::logic::DelayBounds;
    let m = array_multiplier(
        2,
        DelayBounds::new(Time::from_units(0.9), Time::from_int(1)),
    );
    let base = two_vector_delay(&m, &opts()).unwrap().delay;
    let swept = sweep(&m);
    let after = two_vector_delay(&swept, &opts()).unwrap().delay;
    assert_eq!(base, after);
}
