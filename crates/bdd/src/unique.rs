//! Per-variable open-addressing unique subtables.
//!
//! The manager's unique table is split into one subtable per variable,
//! each an open-addressing array of **arena slot indices** over the flat
//! node arena. Splitting per variable means:
//!
//! * `mk` probes one small, cache-resident array instead of a global
//!   SipHash map: the key is hashed with a single Fibonacci multiply and
//!   linear probing walks consecutive `u32` slots (one cache line holds
//!   16 of them);
//! * capacity tracks the *live* population of each variable: entries are
//!   never removed one by one, and a GC sweep empties each subtable of a
//!   variable that lost a node, sizes it once for its survivors and
//!   reinserts them.
//!
//! The subtable stores slot indices only; node payloads `(lo, hi)` live
//! in the arena and every operation takes `&[Node]` to compare keys.
//! This keeps the entry size at 4 bytes and lets the manager
//! borrow-split `self.unique` against `self.nodes`.

use crate::node::{Bdd, Node};

/// Vacant-slot marker. Arena slot 0 is the terminal, which is never
/// interned, so reserving `u32::MAX` costs nothing real.
const EMPTY: u32 = u32::MAX;

/// Smallest non-empty capacity (a power of two).
const MIN_CAP: usize = 8;

/// Fibonacci mix of a node key `(lo, hi)`. The two raw handles are
/// packed into 64 bits and multiplied by 2⁶⁴/φ; the high bits (taken by
/// the caller via a shift) are well distributed even for the
/// consecutive, low-entropy handle values an arena produces.
#[inline]
fn mix(lo: Bdd, hi: Bdd) -> u64 {
    let x = (u64::from(lo.0) << 32) | u64::from(hi.0);
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One variable's unique subtable: open addressing, linear probing,
/// power-of-two capacity.
pub(crate) struct SubTable {
    /// `slots[i]` is an arena index or [`EMPTY`]. Length is a power of
    /// two (or zero before the first insert).
    slots: Vec<u32>,
    len: usize,
}

impl SubTable {
    pub(crate) const fn new() -> SubTable {
        SubTable {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Current slot-array capacity (0 before the first insert).
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Home bucket of a key for the current capacity.
    #[inline]
    fn bucket(&self, lo: Bdd, hi: Bdd) -> usize {
        // Capacity is a power of two: take the top `log2(cap)` bits of
        // the mix (Fibonacci hashing), which is where the multiply put
        // the entropy.
        debug_assert!(self.slots.len().is_power_of_two());
        let shift = 64 - self.slots.len().trailing_zeros();
        (mix(lo, hi) >> shift) as usize
    }

    /// The arena slot interned for `(lo, hi)`, if any.
    #[inline]
    pub(crate) fn get(&self, lo: Bdd, hi: Bdd, nodes: &[Node]) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.bucket(lo, hi);
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return None;
            }
            let n = &nodes[s as usize];
            if n.lo == lo && n.hi == hi {
                return Some(s);
            }
            i = (i + 1) & mask;
        }
    }

    /// Interns arena slot `slot` (whose payload in `nodes` carries the
    /// key). The caller guarantees the key is absent.
    pub(crate) fn insert(&mut self, slot: u32, nodes: &[Node]) {
        // Grow at 7/8 load so probe chains stay short.
        if self.slots.is_empty() || (self.len + 1) * 8 > self.slots.len() * 7 {
            self.resize((self.slots.len() * 2).max(MIN_CAP), nodes);
        }
        let mask = self.slots.len() - 1;
        let n = &nodes[slot as usize];
        let mut i = self.bucket(n.lo, n.hi);
        while self.slots[i] != EMPTY {
            debug_assert!(
                {
                    let e = &nodes[self.slots[i] as usize];
                    (e.lo, e.hi) != (n.lo, n.hi)
                },
                "unique subtable: duplicate key"
            );
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
        self.len += 1;
    }

    /// Drops all entries and sizes the slot array for `n` entries: the
    /// capacity `n` inserts into an empty table grow it to (the smallest
    /// power of two ≥ [`MIN_CAP`] at 7/8 load), or no storage when
    /// `n == 0`. A slot array already of that size is reused.
    pub(crate) fn reset(&mut self, n: usize) {
        let cap = if n == 0 {
            0
        } else {
            (n * 8).div_ceil(7).next_power_of_two().max(MIN_CAP)
        };
        if self.slots.len() == cap {
            self.slots.fill(EMPTY);
        } else {
            self.slots = vec![EMPTY; cap];
        }
        self.len = 0;
    }

    fn resize(&mut self, new_cap: usize, nodes: &[Node]) {
        debug_assert!(new_cap.is_power_of_two() && new_cap >= self.len * 2);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; new_cap]);
        let mask = new_cap - 1;
        for s in old {
            if s == EMPTY {
                continue;
            }
            let n = &nodes[s as usize];
            let mut i = self.bucket(n.lo, n.hi);
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }
}

/// The manager's unique table: one [`SubTable`] per declared variable.
pub(crate) struct UniqueTables {
    tables: Vec<SubTable>,
}

impl UniqueTables {
    pub(crate) const fn new() -> UniqueTables {
        UniqueTables { tables: Vec::new() }
    }

    /// Registers a freshly declared variable.
    pub(crate) fn push_var(&mut self) {
        self.tables.push(SubTable::new());
    }

    #[inline]
    pub(crate) fn get(&self, var: u32, lo: Bdd, hi: Bdd, nodes: &[Node]) -> Option<u32> {
        self.tables[var as usize].get(lo, hi, nodes)
    }

    #[inline]
    pub(crate) fn insert(&mut self, var: u32, slot: u32, nodes: &[Node]) {
        self.tables[var as usize].insert(slot, nodes);
    }

    /// Drops every entry of `var`'s subtable and sizes it for `n`
    /// entries (GC sweep prelude: reinserting the survivors then never
    /// resizes).
    pub(crate) fn reset(&mut self, var: u32, n: usize) {
        self.tables[var as usize].reset(n);
    }

    /// Slot-array capacity of `var`'s subtable.
    #[cfg(test)]
    pub(crate) fn capacity(&self, var: u32) -> usize {
        self.tables[var as usize].capacity()
    }

    /// `var`'s slot array, vacant slots included.
    #[cfg(test)]
    pub(crate) fn slots(&self, var: u32) -> &[u32] {
        &self.tables[var as usize].slots
    }

    /// Total slot-array bytes across all subtables (memory telemetry).
    pub(crate) fn slot_bytes(&self) -> usize {
        self.tables
            .iter()
            .map(|t| t.capacity() * std::mem::size_of::<u32>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a fake arena of single-var chain nodes so subtable ops can
    /// be exercised without a manager.
    fn arena(n: usize) -> Vec<Node> {
        (0..n)
            .map(|i| Node {
                var: 0,
                lo: Bdd(2 * i as u32),
                hi: Bdd(2 * i as u32 + 2),
            })
            .collect()
    }

    #[test]
    fn insert_get_roundtrip() {
        let nodes = arena(100);
        let mut t = SubTable::new();
        for i in 1..100u32 {
            t.insert(i, &nodes);
        }
        for i in 1..100u32 {
            let n = &nodes[i as usize];
            assert_eq!(t.get(n.lo, n.hi, &nodes), Some(i), "slot {i}");
        }
        let missing = Bdd(9999);
        assert_eq!(t.get(missing, missing, &nodes), None);
    }
}
