//! Engine-equivalence goldens: the refactor's safety net.
//!
//! Every circuit here has its full `CircuitReport` Display output
//! committed under `tests/goldens/`. The test renders the report at 1
//! and 4 threads and asserts each is byte-identical to the golden — so
//! any engine change that perturbs a reported value (delay, bounds,
//! breakpoint/LP/retry counts, witness) fails loudly with a diff.
//!
//! The goldens were blessed from the pre-refactor engine; re-bless
//! (after deliberately changing reported behavior) with:
//!
//! ```text
//! TBF_BLESS=1 cargo test -p tbf-core --test engine_equivalence
//! ```
//!
//! The suite compiles with and without the `obs` feature, so CI can
//! prove instrumentation does not perturb reports either.

use std::fmt::Write as _;
use std::path::PathBuf;

use tbf_core::{analyze, AnalysisPolicy};
use tbf_logic::generators::adders::{carry_bypass, paper_bypass_adder, ripple_carry};
use tbf_logic::generators::figures::{figure1_three_paths, figure4_example3, figure6_glitch};
use tbf_logic::generators::random::random_dag;
use tbf_logic::generators::trees::parity_tree;
use tbf_logic::generators::unit_ninety_percent;
use tbf_logic::parsers::bench::c17;
use tbf_logic::parsers::mcnc_like_delays;
use tbf_logic::Netlist;

/// The golden suite: the paper's figure circuits, c17, the generator
/// family, and one seeded random DAG. Names key the golden files, so
/// they must stay stable.
fn suite() -> Vec<(&'static str, Netlist)> {
    let d = unit_ninety_percent();
    vec![
        ("c17", c17(mcnc_like_delays)),
        ("paper_bypass_adder", paper_bypass_adder()),
        ("ripple_carry_4", ripple_carry(4, d)),
        ("carry_bypass_2x2", carry_bypass(2, 2, d)),
        ("parity_tree_6", parity_tree(6, d)),
        ("figure1_three_paths", figure1_three_paths()),
        ("figure4_example3", figure4_example3()),
        ("figure6_glitch", figure6_glitch()),
        ("random_dag_6x30", random_dag(6, 30, 3, 0x5EED)),
    ]
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.txt"))
}

/// Renders one circuit's report, asserting the 4-thread report is
/// identical to the sequential one first.
fn render_matrix(name: &str, netlist: &Netlist) -> String {
    let baseline = format!("{}\n", analyze(netlist, &AnalysisPolicy::default()));
    let parallel = format!(
        "{}\n",
        analyze(netlist, &AnalysisPolicy::default().with_threads(4))
    );
    assert_eq!(parallel, baseline, "{name}: report differs at threads=4");
    baseline
}

#[test]
fn reports_match_committed_goldens_across_the_matrix() {
    let bless = std::env::var_os("TBF_BLESS").is_some();
    let mut failures = String::new();
    for (name, netlist) in suite() {
        let rendered = render_matrix(name, &netlist);
        let path = golden_path(name);
        if bless {
            std::fs::create_dir_all(path.parent().expect("goldens dir has a parent"))
                .expect("create goldens dir");
            std::fs::write(&path, &rendered).expect("write golden");
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); run with TBF_BLESS=1",
                path.display()
            )
        });
        if rendered != golden {
            let _ = writeln!(
                failures,
                "== {name}: report drifted from golden ==\n--- golden\n{golden}\n--- got\n{rendered}"
            );
        }
    }
    assert!(failures.is_empty(), "{failures}");
}
