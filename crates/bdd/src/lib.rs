//! # tbf-bdd — Reduced Ordered Binary Decision Diagrams
//!
//! A self-contained ROBDD package sized for exact timing analysis with
//! [Timed Boolean Functions](https://www2.eecs.berkeley.edu/Pubs/TechRpts/1993/2215.html)
//! (Lam, Brayton, Sangiovanni-Vincentelli, UCB/ERL M93/6, 1993). It plays
//! the role CUDD plays in the original work: the delay algorithms compare a
//! circuit's TBF against its static function by building both as BDDs,
//! XOR-ing them, and enumerating cubes of the difference.
//!
//! The package provides:
//!
//! * a [`BddManager`] with a unique table (canonicity) and one computed
//!   table memoizing every operation,
//! * the usual Boolean operations ([`BddManager::and`], [`BddManager::or`],
//!   [`BddManager::xor`], [`BddManager::not`], [`BddManager::ite`], ...),
//! * cofactor/restriction, functional [composition](BddManager::compose),
//!   and existential/universal quantification,
//! * model counting, [cube enumeration](BddManager::cubes) and
//!   [support](BddManager::support) extraction,
//! * one variable order, the creation order: a [`Var`]'s index is its
//!   position, and the first [`new_var`](BddManager::new_var) is tested
//!   closest to the root,
//! * a cache-conscious memory subsystem: per-variable open-addressing
//!   unique subtables over a flat node arena, and optional mark-and-sweep
//!   [garbage collection](BddManager::collect_garbage) under a
//!   [`GcPolicy`] — the one operation that *does* invalidate handles,
//!   but only those not reachable from its declared roots or the
//!   [protected stack](BddManager::protect).
//!
//! # Example
//!
//! ```
//! use tbf_bdd::BddManager;
//!
//! let mut m = BddManager::new();
//! let a = m.new_var();
//! let b = m.new_var();
//! let fa = m.var(a);
//! let fb = m.var(b);
//! // f = a XOR b differs from g = a OR b exactly when a AND b.
//! let f = m.xor(fa, fb);
//! let g = m.or(fa, fb);
//! let diff = m.xor(f, g);
//! let ab = m.and(fa, fb);
//! assert_eq!(diff, ab);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod computed;
mod cube;
mod gc;
mod limit;
mod manager;
mod node;
mod obs;
mod ops;
mod unique;

pub use cube::{Cube, Cubes};
pub use gc::{GcPolicy, GcStats};
pub use limit::{NodeLimitExceeded, OpAbort, OpBudget};
pub use manager::BddManager;
pub use node::{Bdd, Var};
