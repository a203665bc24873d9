//! Explicit path manipulation: breakpoint search and straddling-path
//! enumeration.
//!
//! The exact-delay search (paper §6.2) walks the breakpoints `{kᵢᵐᵃˣ}` —
//! the distinct maximum path lengths — in descending order, and at each
//! breakpoint `b` needs exactly the *delay-dependent* paths: those with
//! `kᵐⁱⁿ < b ≤ kᵐᵃˣ` ("straddling" the query time `t = b⁻`). Both
//! queries are answered here without global path enumeration, by
//! branch-and-bound over the netlist DAG with arrival-bound pruning —
//! this is what lets the algorithm "consider a subset of paths at one
//! time".

use std::collections::HashMap;

use crate::delay::Time;
use crate::netlist::{Netlist, NodeId};

/// A single input-to-output path, stored in forward (input-first) order.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Path {
    nodes: Vec<NodeId>,
}

impl Path {
    /// The nodes of the path, input first.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The primary input the path starts at.
    pub fn input(&self) -> NodeId {
        self.nodes[0]
    }

    /// The output node the path ends at.
    pub fn output(&self) -> NodeId {
        *self.nodes.last().expect("paths are non-empty")
    }

    /// The gates along the path (every node except the leading input).
    pub fn gates(&self) -> &[NodeId] {
        &self.nodes[1..]
    }

    /// Sum of maximum gate delays along the path (`kᵐᵃˣ`).
    pub fn length_max(&self, netlist: &Netlist) -> Time {
        self.gates()
            .iter()
            .map(|g| netlist.node(*g).delay().max)
            .sum()
    }

    /// Sum of minimum gate delays along the path (`kᵐⁱⁿ`).
    pub fn length_min(&self, netlist: &Netlist) -> Time {
        self.gates()
            .iter()
            .map(|g| netlist.node(*g).delay().min)
            .sum()
    }

    /// True if the path straddles the query point `t = b⁻`:
    /// `kᵐⁱⁿ < b ≤ kᵐᵃˣ`.
    pub fn straddles(&self, netlist: &Netlist, b: Time) -> bool {
        self.length_min(netlist) < b && b <= self.length_max(netlist)
    }
}

/// The straddling-path cap was exceeded; the exact answer would require
/// expanding more simultaneously delay-dependent paths than allowed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathLimitExceeded {
    /// The configured cap that was hit.
    pub limit: usize,
}

impl std::fmt::Display for PathLimitExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "more than {} simultaneously delay-dependent paths",
            self.limit
        )
    }
}

impl std::error::Error for PathLimitExceeded {}

/// Largest maximum path length to `output` strictly below `below`
/// (the "next `Kᵢᵐᵃˣ`" of the search loop), or `None` if no path is
/// shorter.
///
/// Runs in (memoized) time proportional to the number of distinct
/// `(node, residual)` pairs actually reachable — near-critical regions
/// only, never a full path enumeration.
///
/// # Example
///
/// ```
/// use tbf_logic::{GateKind, Netlist, DelayBounds, Time};
/// use tbf_logic::paths::next_breakpoint;
///
/// let mut b = Netlist::builder();
/// let a = b.input("a");
/// let d = |x| DelayBounds::fixed(Time::from_int(x));
/// let g1 = b.gate(GateKind::Buf, "g1", vec![a], d(5))?;
/// let g2 = b.gate(GateKind::Not, "g2", vec![a], d(2))?;
/// let g3 = b.gate(GateKind::And, "g3", vec![g1, g2], d(1))?;
/// b.output("f", g3);
/// let n = b.finish()?;
/// let out = n.find("g3").unwrap();
/// // Path lengths: 6 (via g1) and 3 (via g2).
/// assert_eq!(next_breakpoint(&n, out, Time::from_int(100)), Some(Time::from_int(6)));
/// assert_eq!(next_breakpoint(&n, out, Time::from_int(6)), Some(Time::from_int(3)));
/// assert_eq!(next_breakpoint(&n, out, Time::from_int(3)), None);
/// # Ok::<(), tbf_logic::NetlistError>(())
/// ```
pub fn next_breakpoint(netlist: &Netlist, output: NodeId, below: Time) -> Option<Time> {
    Breakpoints::from_output(netlist, output).next_below(below)
}

/// The descending sweep through a cone's distinct maximum path lengths
/// `{Kᵢᵐᵃˣ}` — the shared breakpoint enumeration every delay model
/// walks.
///
/// Construct one per analyzed output and reuse it for the whole sweep:
/// the arrival profile is computed once and the `(node, residual)` memo
/// persists across queries, so descending through all breakpoints costs
/// one memoized traversal total instead of one per step.
///
/// The iterator protocol yields the breakpoints in strictly descending
/// order starting from the longest path; [`next_below`] answers the
/// same question from an arbitrary starting point.
///
/// [`next_below`]: Breakpoints::next_below
///
/// # Example
///
/// ```
/// use tbf_logic::generators::figures::figure1_three_paths;
/// use tbf_logic::paths::Breakpoints;
/// use tbf_logic::Time;
///
/// let n = figure1_three_paths();
/// let out = n.outputs()[0].1;
/// let ks: Vec<Time> = Breakpoints::from_output(&n, out).collect();
/// assert!(ks.windows(2).all(|w| w[0] > w[1]), "strictly descending");
/// assert_eq!(ks[0], n.topological_delay(), "starts at the longest path");
/// ```
#[derive(Debug)]
pub struct Breakpoints<'a> {
    netlist: &'a Netlist,
    sweep: BreakpointSweep,
    cursor: Time,
}

impl<'a> Breakpoints<'a> {
    /// A sweep over the distinct max path lengths of `output`'s cone.
    pub fn from_output(netlist: &'a Netlist, output: NodeId) -> Breakpoints<'a> {
        Breakpoints {
            netlist,
            sweep: BreakpointSweep::new(netlist, output),
            cursor: Time::MAX,
        }
    }

    /// Largest maximum path length strictly below `below`, or `None`
    /// if no path is shorter. Does not move the iterator cursor.
    pub fn next_below(&mut self, below: Time) -> Option<Time> {
        self.sweep.next_below(self.netlist, below)
    }
}

/// The borrow-free state of a [`Breakpoints`] sweep: the arrival
/// profile and the `(node, residual)` memo, without the netlist
/// reference. Callers that own the netlist behind an `Arc` (the
/// per-cone engine contexts) hold this and pass the netlist back in per
/// query.
///
/// Every call must pass the netlist the sweep was built from; the memo
/// is meaningless against any other netlist.
#[derive(Debug)]
pub struct BreakpointSweep {
    output: NodeId,
    pmax: Vec<Time>,
    memo: HashMap<(NodeId, Time), Option<Time>>,
}

impl BreakpointSweep {
    /// The sweep state for `output`'s cone in `netlist`.
    pub fn new(netlist: &Netlist, output: NodeId) -> BreakpointSweep {
        BreakpointSweep {
            output,
            pmax: netlist.arrivals(false, true),
            memo: HashMap::new(),
        }
    }

    /// Largest maximum path length strictly below `below`, or `None`
    /// if no path is shorter.
    pub fn next_below(&mut self, netlist: &Netlist, below: Time) -> Option<Time> {
        self.go(netlist, self.output, below)
    }

    // Longest arrival (including `n`'s own delay) strictly below
    // `residual`.
    fn go(&mut self, netlist: &Netlist, n: NodeId, residual: Time) -> Option<Time> {
        if self.pmax[n.index()] < residual {
            return Some(self.pmax[n.index()]);
        }
        if let Some(&r) = self.memo.get(&(n, residual)) {
            return r;
        }
        let node = netlist.node(n);
        let d = node.delay().max;
        let mut best: Option<Time> = None;
        if node.fanins().is_empty() {
            // A source with arrival 0 ≥ residual: no path below residual.
            self.memo.insert((n, residual), None);
            return None;
        }
        for &f in node.fanins() {
            if let Some(sub) = self.go(netlist, f, residual - d) {
                let total = sub + d;
                best = Some(best.map_or(total, |b: Time| b.max(total)));
            }
        }
        self.memo.insert((n, residual), best);
        best
    }
}

impl Iterator for Breakpoints<'_> {
    type Item = Time;

    fn next(&mut self) -> Option<Time> {
        let below = self.cursor;
        let k = self.next_below(below)?;
        self.cursor = k;
        Some(k)
    }
}

/// Enumerates the paths to `output` that straddle the query point
/// `t = b⁻` (`kᵐⁱⁿ < b ≤ kᵐᵃˣ`) — the delay-dependent paths of the TBF
/// network at that time.
///
/// # Errors
///
/// Returns [`PathLimitExceeded`] if more than `limit` straddling paths
/// exist; the caller (the delay engine) surfaces this as a typed,
/// bounded-but-not-exact result rather than silently truncating.
pub fn straddling_paths(
    netlist: &Netlist,
    output: NodeId,
    b: Time,
    limit: usize,
) -> Result<Vec<Path>, PathLimitExceeded> {
    let pmax = netlist.arrivals(false, true);
    let pmin = netlist.arrivals(true, false);
    let mut out_paths = Vec::new();
    // DFS from the output toward the inputs. `suffix` holds the nodes
    // popped so far (output-first); `acc_*` the delay sums of the gates
    // strictly after the current node.
    struct Dfs<'a> {
        netlist: &'a Netlist,
        pmax: &'a [Time],
        pmin: &'a [Time],
        b: Time,
        limit: usize,
        stack_nodes: Vec<NodeId>,
    }
    impl Dfs<'_> {
        fn visit(
            &mut self,
            n: NodeId,
            acc_min: Time,
            acc_max: Time,
            out: &mut Vec<Path>,
        ) -> Result<(), PathLimitExceeded> {
            // Prune: no completion can reach kᵐᵃˣ ≥ b.
            if acc_max + self.pmax[n.index()] < self.b {
                return Ok(());
            }
            // Prune: every completion has kᵐⁱⁿ ≥ b.
            if acc_min + self.pmin[n.index()] >= self.b {
                return Ok(());
            }
            self.stack_nodes.push(n);
            let node = self.netlist.node(n);
            if node.fanins().is_empty() {
                // Totals are exactly the accumulators.
                if acc_min < self.b && self.b <= acc_max {
                    if out.len() >= self.limit {
                        return Err(PathLimitExceeded { limit: self.limit });
                    }
                    let mut nodes = self.stack_nodes.clone();
                    nodes.reverse();
                    out.push(Path { nodes });
                }
            } else {
                let d = node.delay();
                for &f in node.fanins() {
                    self.visit(f, acc_min + d.min, acc_max + d.max, out)?;
                }
            }
            self.stack_nodes.pop();
            Ok(())
        }
    }
    let mut dfs = Dfs {
        netlist,
        pmax: &pmax,
        pmin: &pmin,
        b,
        limit,
        stack_nodes: Vec::new(),
    };
    dfs.visit(output, Time::ZERO, Time::ZERO, &mut out_paths)?;
    Ok(out_paths)
}

/// Enumerates **all** input-to-`output` paths, up to `limit`.
///
/// Exponential in general — intended for tests and small circuits.
///
/// # Errors
///
/// Returns [`PathLimitExceeded`] beyond `limit` paths.
pub fn all_paths(
    netlist: &Netlist,
    output: NodeId,
    limit: usize,
) -> Result<Vec<Path>, PathLimitExceeded> {
    let mut out = Vec::new();
    let mut stack = Vec::new();
    fn go(
        netlist: &Netlist,
        n: NodeId,
        stack: &mut Vec<NodeId>,
        out: &mut Vec<Path>,
        limit: usize,
    ) -> Result<(), PathLimitExceeded> {
        stack.push(n);
        if netlist.node(n).fanins().is_empty() {
            if out.len() >= limit {
                return Err(PathLimitExceeded { limit });
            }
            let mut nodes = stack.clone();
            nodes.reverse();
            out.push(Path { nodes });
        } else {
            for &f in netlist.node(n).fanins() {
                go(netlist, f, stack, out, limit)?;
            }
        }
        stack.pop();
        Ok(())
    }
    go(netlist, output, &mut stack, &mut out, limit)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::DelayBounds;
    use crate::gate::GateKind;

    fn d(lo: i64, hi: i64) -> DelayBounds {
        DelayBounds::new(Time::from_int(lo), Time::from_int(hi))
    }

    fn t(x: i64) -> Time {
        Time::from_int(x)
    }

    /// Diamond with bounds: g1 ∈ [1,2], g2 ∈ [3,5], g3 ∈ [1,1].
    fn diamond() -> Netlist {
        let mut b = Netlist::builder();
        let a = b.input("a");
        let g1 = b.gate(GateKind::Buf, "g1", vec![a], d(1, 2)).unwrap();
        let g2 = b.gate(GateKind::Not, "g2", vec![a], d(3, 5)).unwrap();
        let g3 = b.gate(GateKind::And, "g3", vec![g1, g2], d(1, 1)).unwrap();
        b.output("f", g3);
        b.finish().unwrap()
    }

    #[test]
    fn all_paths_enumeration() {
        let n = diamond();
        let out = n.find("g3").unwrap();
        let ps = all_paths(&n, out, 100).unwrap();
        assert_eq!(ps.len(), 2);
        for p in &ps {
            assert_eq!(p.input(), n.find("a").unwrap());
            assert_eq!(p.output(), out);
            assert_eq!(p.gates().len(), 2);
        }
        let lens: Vec<_> = ps.iter().map(|p| p.length_max(&n)).collect();
        assert!(lens.contains(&t(3)));
        assert!(lens.contains(&t(6)));
    }

    #[test]
    fn all_paths_limit() {
        let n = diamond();
        let out = n.find("g3").unwrap();
        assert_eq!(all_paths(&n, out, 1), Err(PathLimitExceeded { limit: 1 }));
    }

    #[test]
    fn breakpoints_descend_through_distinct_kmax() {
        let n = diamond();
        let out = n.find("g3").unwrap();
        assert_eq!(next_breakpoint(&n, out, Time::MAX), Some(t(6)));
        assert_eq!(next_breakpoint(&n, out, t(6)), Some(t(3)));
        assert_eq!(next_breakpoint(&n, out, t(3)), None);
    }

    #[test]
    fn breakpoint_sweep_matches_one_shot_queries() {
        let n = diamond();
        let out = n.find("g3").unwrap();
        let mut sweep = Breakpoints::from_output(&n, out);
        assert_eq!(sweep.next_below(Time::MAX), Some(t(6)));
        assert_eq!(sweep.next_below(t(6)), Some(t(3)));
        assert_eq!(sweep.next_below(t(3)), None);
        // `next_below` never moves the iterator cursor.
        let collected: Vec<Time> = Breakpoints::from_output(&n, out).collect();
        assert_eq!(collected, vec![t(6), t(3)]);
    }

    /// The sweep on the paper's figure circuits agrees, breakpoint by
    /// breakpoint, with the memo-per-call `next_breakpoint`, and
    /// descends strictly from the cone's longest path.
    #[test]
    fn breakpoint_sweep_agrees_on_paper_figures() {
        use crate::generators::figures::{
            figure1_three_paths, figure4_example3, figure5_example4, figure6_glitch,
        };
        for n in [
            figure1_three_paths(),
            figure4_example3(),
            figure5_example4(),
            figure6_glitch(),
        ] {
            for &(ref name, out) in n.outputs() {
                let swept: Vec<Time> = Breakpoints::from_output(&n, out).collect();
                let mut stepped = Vec::new();
                let mut below = Time::MAX;
                while let Some(k) = next_breakpoint(&n, out, below) {
                    stepped.push(k);
                    below = k;
                }
                assert_eq!(swept, stepped, "{name}: sweep disagrees with one-shots");
                assert!(
                    swept.windows(2).all(|w| w[0] > w[1]),
                    "{name}: not strictly descending: {swept:?}"
                );
                assert_eq!(
                    swept.first().copied(),
                    Some(n.arrivals(false, true)[out.index()]),
                    "{name}: first breakpoint must be the cone's longest path"
                );
            }
        }
    }

    #[test]
    fn breakpoints_match_brute_force_on_multi_level() {
        // 3 stages of 2-way diamonds → 8 paths with various lengths.
        let mut b = Netlist::builder();
        let mut cur = b.input("a");
        let ds = [(1, 2), (2, 3), (4, 7)];
        for (i, &(lo, hi)) in ds.iter().enumerate() {
            let g1 = b
                .gate(GateKind::Buf, &format!("u{i}"), vec![cur], d(lo, lo))
                .unwrap();
            let g2 = b
                .gate(GateKind::Not, &format!("v{i}"), vec![cur], d(hi, hi))
                .unwrap();
            cur = b
                .gate(GateKind::Or, &format!("m{i}"), vec![g1, g2], d(1, 1))
                .unwrap();
        }
        b.output("f", cur);
        let n = b.finish().unwrap();
        let out = n.find("m2").unwrap();
        // Brute-force distinct kmax values.
        let mut lens: Vec<Time> = all_paths(&n, out, 1000)
            .unwrap()
            .iter()
            .map(|p| p.length_max(&n))
            .collect();
        lens.sort_unstable();
        lens.dedup();
        lens.reverse();
        let mut cur = Time::MAX;
        for &expect in &lens {
            let got = next_breakpoint(&n, out, cur).unwrap();
            assert_eq!(got, expect);
            cur = got;
        }
        assert_eq!(next_breakpoint(&n, out, cur), None);
    }

    #[test]
    fn straddling_paths_basic() {
        let n = diamond();
        let out = n.find("g3").unwrap();
        // Path lengths: via g1 [2,3], via g2 [4,6].
        // b=6 (t=6⁻): straddles iff kmin<6≤kmax → only the g2 path.
        let ps = straddling_paths(&n, out, t(6), 10).unwrap();
        assert_eq!(ps.len(), 1);
        assert!(ps[0].nodes().iter().any(|&id| n.node(id).name() == "g2"));
        // b=3: g1 path [2,3] straddles (2<3≤3); g2 path kmin=4 ≥ 3 doesn't.
        let ps = straddling_paths(&n, out, t(3), 10).unwrap();
        assert_eq!(ps.len(), 1);
        assert!(ps[0].nodes().iter().any(|&id| n.node(id).name() == "g1"));
        // b=10: nothing reaches kmax ≥ 10.
        assert!(straddling_paths(&n, out, t(10), 10).unwrap().is_empty());
    }

    #[test]
    fn straddling_agrees_with_brute_force() {
        let n = diamond();
        let out = n.find("g3").unwrap();
        let all = all_paths(&n, out, 100).unwrap();
        for b in 1..9 {
            let b = t(b);
            let fast = straddling_paths(&n, out, b, 100).unwrap();
            let slow: Vec<_> = all.iter().filter(|p| p.straddles(&n, b)).cloned().collect();
            assert_eq!(fast.len(), slow.len(), "at b={b:?}");
            for p in &slow {
                assert!(fast.contains(p), "missing {p:?} at b={b:?}");
            }
        }
    }

    #[test]
    fn straddling_limit_error() {
        // Many identical-straddle paths: wide AND of buffers.
        let mut b = Netlist::builder();
        let a = b.input("a");
        let mut bufs = Vec::new();
        for i in 0..8 {
            bufs.push(
                b.gate(GateKind::Buf, &format!("b{i}"), vec![a], d(1, 3))
                    .unwrap(),
            );
        }
        let g = b.gate(GateKind::And, "g", bufs, d(1, 1)).unwrap();
        b.output("f", g);
        let n = b.finish().unwrap();
        let out = n.find("g").unwrap();
        let r = straddling_paths(&n, out, t(3), 4);
        assert_eq!(r, Err(PathLimitExceeded { limit: 4 }));
        assert_eq!(straddling_paths(&n, out, t(3), 8).unwrap().len(), 8);
    }

    #[test]
    fn path_length_helpers() {
        let n = diamond();
        let out = n.find("g3").unwrap();
        let ps = all_paths(&n, out, 10).unwrap();
        let long = ps.iter().find(|p| p.length_max(&n) == t(6)).unwrap();
        assert_eq!(long.length_min(&n), t(4));
        assert!(long.straddles(&n, t(5)));
        assert!(!long.straddles(&n, t(4))); // kmin = 4 not < 4
        assert!(!long.straddles(&n, t(7))); // kmax = 6 < 7
    }
}
