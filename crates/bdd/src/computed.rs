//! The computed table: one memo for every operation.
//!
//! `ite`, quantification and `compose` memoize their results in a single
//! direct-mapped, lossy table, as CUDD's cache does. An entry is four
//! `u32` words, 16 bytes: three key words and the result. A key's first
//! word is the operation's regular first operand; its second word is
//! either ITE's regular then-handle (bit 0 clear) or a variable index
//! shifted past an operation tag that sets bit 0, so keys of different
//! operations never compare equal. Each key has exactly one slot, and an
//! insert overwrites whatever held it: a lost entry costs a
//! recomputation, never a wrong answer, because canonicity lives in the
//! unique table.
//!
//! Nothing in the engine flushes the table. Its length is a power of two
//! that follows the arena: it doubles whenever the arena outgrows it,
//! from [`MIN_ENTRIES`] up to [`MAX_ENTRIES`], and keeps every entry,
//! since distinct slots stay distinct under more index bits. A GC sweep
//! drops exactly the entries that touch a freed slot, since a reused
//! slot may hold a different function.

use crate::node::{Bdd, Var};

/// Entries of a fresh table (64 KiB): a manager per small cone stays
/// cheap to create.
const MIN_ENTRIES: usize = 1 << 12;

/// Entries at which the table stops growing (16 MiB).
const MAX_ENTRIES: usize = 1 << 20;

/// Tags of the non-ITE operations, in the low three bits of a key's
/// second word. Each sets bit 0, which a regular handle never does.
const EXISTS: u32 = 0b001;
const FORALL: u32 = 0b011;
const COMPOSE: u32 = 0b101;

/// The key of one memoized operation.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Key([u32; 3]);

impl Key {
    /// `ite(f, g, h)` with `f` and `g` regular (the canonical form
    /// `try_ite_b` reduces every call to).
    #[inline]
    pub(crate) fn ite(f: Bdd, g: Bdd, h: Bdd) -> Key {
        debug_assert!(!f.is_complemented() && !g.is_complemented());
        Key([f.0, g.0, h.0])
    }

    /// `∃v. f` (`existential`) or `∀v. f`, with `f` regular.
    #[inline]
    pub(crate) fn quantify(f: Bdd, v: Var, existential: bool) -> Key {
        let tag = if existential { EXISTS } else { FORALL };
        Key([f.0, tagged(v, tag), Bdd::TRUE.0])
    }

    /// `f[v := g]`, with `f` regular.
    #[inline]
    pub(crate) fn compose(f: Bdd, v: Var, g: Bdd) -> Key {
        Key([f.0, tagged(v, COMPOSE), g.0])
    }

    /// Slot of this key in a table of `64 − shift` index bits: the
    /// words are folded by multiply and xor, and the top bits of the
    /// last product, where the multiplies put the entropy, are the index.
    #[inline]
    fn slot(self, shift: u32) -> usize {
        let [a, b, c] = self.0;
        let ab = ((u64::from(a) << 32) | u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((ab ^ u64::from(c)).wrapping_mul(0xD6E8_FEB8_6659_FD93) >> shift) as usize
    }
}

#[inline]
fn tagged(v: Var, tag: u32) -> u32 {
    debug_assert!(v.0 < 1 << 29, "variable index overflows a tagged key word");
    (v.0 << 3) | tag
}

/// One slot: a key and its result. A vacant slot is all zeros; its first
/// word is the `TRUE` handle, which no key starts with, since every
/// operation returns before memoizing a constant first operand.
#[derive(Clone, Copy, Default)]
struct Entry {
    key: [u32; 3],
    result: u32,
}

/// The manager's computed table (see the module docs).
pub(crate) struct ComputedTable {
    entries: Vec<Entry>,
    /// `64 − log2(entries.len())`.
    shift: u32,
}

impl ComputedTable {
    pub(crate) fn new() -> ComputedTable {
        ComputedTable::with_len(MIN_ENTRIES)
    }

    fn with_len(len: usize) -> ComputedTable {
        debug_assert!(len.is_power_of_two());
        ComputedTable {
            entries: vec![Entry::default(); len],
            shift: 64 - len.trailing_zeros(),
        }
    }

    /// The memoized result of `key`, if its slot still holds it.
    #[inline]
    pub(crate) fn get(&self, key: Key) -> Option<Bdd> {
        let e = &self.entries[key.slot(self.shift)];
        (e.key == key.0).then_some(Bdd(e.result))
    }

    /// Memoizes `key ↦ result`, evicting whatever held the slot.
    #[inline]
    pub(crate) fn insert(&mut self, key: Key, result: Bdd) {
        self.entries[key.slot(self.shift)] = Entry {
            key: key.0,
            result: result.0,
        };
    }

    /// Grows the table once an arena of `arena_slots` outgrows it (up to
    /// [`MAX_ENTRIES`]), carrying the entries over to their new slots.
    #[inline]
    pub(crate) fn fit(&mut self, arena_slots: usize) {
        if arena_slots > self.entries.len() && self.entries.len() < MAX_ENTRIES {
            self.grow(arena_slots);
        }
    }

    fn grow(&mut self, arena_slots: usize) {
        let len = arena_slots.next_power_of_two().min(MAX_ENTRIES);
        let old = std::mem::replace(self, ComputedTable::with_len(len));
        for e in old.entries {
            if e.key[0] != 0 {
                self.entries[Key(e.key).slot(self.shift)] = e;
            }
        }
    }

    /// Resident bytes of the slot array.
    pub(crate) fn bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Entry>()
    }

    /// Empties every slot.
    pub(crate) fn clear(&mut self) {
        self.entries.fill(Entry::default());
    }

    /// Keeps exactly the entries whose operand handles and result are
    /// all `live` (GC purge).
    pub(crate) fn retain(&mut self, live: impl Fn(Bdd) -> bool) {
        for e in &mut self.entries {
            let [a, b, c] = e.key;
            if a == 0 {
                continue;
            }
            // A second word with bit 0 set is a tagged variable, not a
            // handle; the quantifier's third word is `TRUE`, always live.
            let keep =
                live(Bdd(a)) && (b & 1 == 1 || live(Bdd(b))) && live(Bdd(c)) && live(Bdd(e.result));
            if !keep {
                *e = Entry::default();
            }
        }
    }

    /// Number of slots.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_of_different_operations_differ() {
        let (f, g) = (Bdd(4), Bdd(6));
        let v = Var(0);
        let keys = [
            Key::ite(f, g, Bdd::TRUE),
            Key::quantify(f, v, true),
            Key::quantify(f, v, false),
            Key::compose(f, v, Bdd::TRUE),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert!(a != b, "{:?} == {:?}", a.0, b.0);
            }
        }
    }

    #[test]
    fn a_vacant_slot_answers_no_key() {
        let t = ComputedTable::new();
        assert_eq!(t.get(Key::ite(Bdd(2), Bdd(4), Bdd(6))), None);
        assert_eq!(t.get(Key::quantify(Bdd(2), Var(0), true)), None);
    }

    #[test]
    fn growth_follows_the_arena_and_keeps_entries() {
        let mut t = ComputedTable::new();
        let keys: Vec<Key> = (1..200u32)
            .map(|i| Key::ite(Bdd(2 * i), Bdd(2 * i + 2), Bdd(i)))
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            t.insert(k, Bdd(i as u32));
        }
        let before: Vec<_> = keys.iter().map(|&k| t.get(k)).collect();
        t.fit(MIN_ENTRIES);
        assert_eq!(t.len(), MIN_ENTRIES, "an arena that fits changes nothing");
        t.fit(MIN_ENTRIES + 1);
        assert_eq!(t.len(), 2 * MIN_ENTRIES);
        // A key held before the growth is held after it.
        for (&k, held) in keys.iter().zip(before) {
            if held.is_some() {
                assert_eq!(t.get(k), held);
            }
        }
        t.fit(usize::MAX / 2);
        assert_eq!(t.len(), MAX_ENTRIES, "the ceiling caps growth");
    }
}
