//! The persistent ECO workspace: named incremental sessions that
//! survive across requests.
//!
//! A plain `tbf serve` request keeps nothing at cone granularity — its
//! per-cone results die with the response. An **ECO session** keeps
//! the exact ones alive: an analyze request carrying `"session":"NAME"`
//! establishes (or re-bases) the named session, snapshotting the
//! request's netlist as the session *base* and retaining every
//! exactly-solved cone in a [`ConeStore`] keyed by cone slice
//! signature ([`Netlist::cone_signature`]). A follow-up
//! `"kind":"eco"` request against the same name is then answered
//! incrementally: the incoming netlist is diffed against the base at
//! cone granularity, only the cones whose slice signature changed are
//! recomputed, and the merged [`CircuitReport`](tbf_core::CircuitReport)
//! is byte-identical to what a cold run over the edited netlist would
//! report.
//!
//! # Invalidation rules
//!
//! * The unit of retention is the **cone slice**: gate kinds, fanin
//!   wiring, scaled delay annotations and the output name, renumbered
//!   canonically. An edit inside a cone always flips its signature; an
//!   edit outside never does; adding or removing an unrelated output
//!   is invisible to the others.
//! * Sessions pin no engine options. Exact cone results depend only on
//!   the cone slice, so a request under any options (a different delay
//!   model included: its scaled delays change the slice signatures) may
//!   reuse whatever still matches.
//! * A request-level panic inside an ECO attempt clears the session's
//!   store — post-panic hygiene mirrors the warm result cache's poison
//!   quarantine, with the session's own store as the blast radius.
//!
//! Sessions are evicted least-recently-used once `capacity` names are
//! live; the warm result cache is bypassed entirely for session-bound
//! requests (their reuse happens at cone granularity here instead).

use std::collections::HashMap;

use tbf_core::{ConeStore, EcoStats};
use tbf_logic::Netlist;

/// Retained cones per session. Generous relative to suite circuits;
/// the per-session [`ConeStore`] evicts LRU beyond it.
pub const ECO_STORE_CAPACITY: usize = 256;

/// One named incremental session: the base netlist the next `eco`
/// request diffs against and the retained exact cone results.
pub struct EcoSession {
    base: Netlist,
    store: ConeStore,
    touched: u64,
}

impl EcoSession {
    /// The netlist the next `eco` request is diffed against (the last
    /// successfully analyzed one).
    #[must_use]
    pub fn base(&self) -> &Netlist {
        &self.base
    }

    /// The retained cone store, for the incremental analysis call.
    pub fn store_mut(&mut self) -> &mut ConeStore {
        &mut self.store
    }
}

/// Whole-workspace effort totals, reported in the final artifact.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkspaceStats {
    /// Sessions established (first establishment per name).
    pub sessions_created: u64,
    /// Sessions evicted by the LRU capacity bound.
    pub sessions_evicted: u64,
    /// Stores cleared for post-panic hygiene.
    pub resets: u64,
    /// Cones answered from retained results, across all sessions.
    pub cones_reused: u64,
    /// Cones that ran the ladder, across all sessions.
    pub cones_recomputed: u64,
}

/// The workspace: every live [`EcoSession`] by name, LRU-bounded.
pub struct SessionWorkspace {
    sessions: HashMap<String, EcoSession>,
    epoch: u64,
    capacity: usize,
    /// Workspace-wide effort totals.
    pub stats: WorkspaceStats,
}

impl SessionWorkspace {
    /// An empty workspace holding at most `capacity` sessions (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> SessionWorkspace {
        SessionWorkspace {
            sessions: HashMap::new(),
            epoch: 0,
            capacity: capacity.max(1),
            stats: WorkspaceStats::default(),
        }
    }

    /// Number of live sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no session is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Establishes (or refreshes) the named session for an analyze
    /// request: the request's netlist becomes the base. A re-base keeps
    /// the retained store, so unchanged cones stay warm across it.
    pub fn establish(&mut self, name: &str, base: &Netlist) {
        self.epoch += 1;
        let epoch = self.epoch;
        match self.sessions.get_mut(name) {
            Some(sess) => {
                sess.base = base.clone();
                sess.touched = epoch;
            }
            None => {
                self.stats.sessions_created += 1;
                self.sessions.insert(
                    name.to_owned(),
                    EcoSession {
                        base: base.clone(),
                        store: ConeStore::new(ECO_STORE_CAPACITY),
                        touched: epoch,
                    },
                );
                self.evict_over_capacity();
            }
        }
    }

    /// Routes an `eco` request: the named session must already exist.
    /// Returns a deterministically worded rejection detail otherwise.
    pub fn route_eco(&mut self, name: &str) -> Result<(), String> {
        self.epoch += 1;
        let epoch = self.epoch;
        match self.sessions.get_mut(name) {
            None => Err(format!(
                "eco request names unknown session `{name}`; establish it first with an \
                 analyze request carrying `session`"
            )),
            Some(sess) => {
                sess.touched = epoch;
                Ok(())
            }
        }
    }

    /// The named session, for the analysis path. `None` only if the
    /// name was never routed (a caller bug, not a client one).
    pub fn session_mut(&mut self, name: &str) -> Option<&mut EcoSession> {
        self.sessions.get_mut(name)
    }

    /// The cone-granular diff of `edited` against the session's base:
    /// how many of `edited`'s output cones have no signature-identical
    /// counterpart among the base's. This is what the incremental path
    /// will recompute (modulo same-request duplicate cones).
    #[must_use]
    pub fn changed_cones(&self, name: &str, edited: &Netlist) -> Option<u64> {
        let sess = self.sessions.get(name)?;
        let base_sigs: Vec<Vec<u8>> = (0..sess.base.outputs().len())
            .map(|i| sess.base.cone_signature(i))
            .collect();
        let changed = (0..edited.outputs().len())
            .filter(|&i| !base_sigs.contains(&edited.cone_signature(i)))
            .count();
        Some(changed as u64)
    }

    /// Commits a successful request's netlist as the session's new
    /// base, so the next `eco` diffs against what was last answered.
    pub fn commit(&mut self, name: &str, netlist: &Netlist) {
        if let Some(sess) = self.sessions.get_mut(name) {
            sess.base = netlist.clone();
        }
    }

    /// Folds one request's incremental effort into the totals.
    pub fn record(&mut self, eco: EcoStats) {
        self.stats.cones_reused += eco.reused as u64;
        self.stats.cones_recomputed += eco.recomputed as u64;
    }

    /// Post-panic hygiene: clears the named session's retained store
    /// (the base survives — the client can retry immediately).
    pub fn clear_session(&mut self, name: &str) {
        if let Some(sess) = self.sessions.get_mut(name) {
            sess.store.clear();
            self.stats.resets += 1;
        }
    }

    /// Deterministic LRU eviction: drop the stalest (then
    /// lexicographically first) names beyond capacity.
    fn evict_over_capacity(&mut self) {
        while self.sessions.len() > self.capacity {
            let Some(name) = self
                .sessions
                .iter()
                .min_by(|a, b| (a.1.touched, a.0).cmp(&(b.1.touched, b.0)))
                .map(|(name, _)| name.clone())
            else {
                return;
            };
            self.sessions.remove(&name);
            self.stats.sessions_evicted += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbf_logic::parsers::bench::parse_bench;
    use tbf_logic::parsers::mcnc_like_delays;

    fn net(text: &str) -> Netlist {
        parse_bench(text, mcnc_like_delays).expect("parses")
    }

    const TWO: &str = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(f)\nOUTPUT(g)\n\
                       f = AND(a, b)\ng = OR(b, c)\n";
    const TWO_EDIT: &str = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(f)\nOUTPUT(g)\n\
                            f = AND(a, b)\ng = XOR(b, c)\n";

    #[test]
    fn eco_requires_an_established_session() {
        let mut ws = SessionWorkspace::new(4);
        assert!(ws.route_eco("s").is_err(), "unknown session");
        ws.establish("s", &net(TWO));
        assert!(ws.route_eco("s").is_ok());
        assert_eq!(ws.stats.sessions_created, 1);
    }

    #[test]
    fn changed_cones_counts_only_edited_slices() {
        let mut ws = SessionWorkspace::new(4);
        ws.establish("s", &net(TWO));
        assert_eq!(ws.changed_cones("s", &net(TWO)), Some(0));
        assert_eq!(ws.changed_cones("s", &net(TWO_EDIT)), Some(1));
    }

    #[test]
    fn capacity_evicts_the_stalest_session() {
        let mut ws = SessionWorkspace::new(2);
        ws.establish("a", &net(TWO));
        ws.establish("b", &net(TWO));
        ws.establish("a", &net(TWO)); // refresh a
        ws.establish("c", &net(TWO)); // evicts b
        assert_eq!(ws.len(), 2);
        assert!(ws.session_mut("b").is_none());
        assert!(ws.session_mut("a").is_some());
        assert_eq!(ws.stats.sessions_evicted, 1);
    }
}
