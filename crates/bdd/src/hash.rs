//! The operation caches' hasher.
//!
//! Op-cache keys are two or three `u32` handles and variable indices the
//! manager assigns itself; no client chooses them, so the standard
//! library's SipHash buys a flooding resistance nothing here needs. The
//! caches hash with rustc's FxHash step instead: one rotate, xor and
//! multiply per word.
//!
//! The standard map takes its bucket index from the *low* bits of the
//! hash, so `unique.rs`'s multiply-then-take-the-top-bits mix would not
//! serve as a [`Hasher::finish`]; the rotate here feeds the well-mixed
//! high bits of the running state into the low bits of the next word.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::node::Bdd;

/// An operation cache: memoized results keyed by their operands.
pub(crate) type OpCache<K> = HashMap<K, Bdd, BuildHasherDefault<FxHasher>>;

/// rustc's FxHash: `state = (state.rotl(5) ^ word) · K` per word.
#[derive(Default)]
pub(crate) struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}
