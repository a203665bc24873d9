//! Handle types for BDD nodes and variables.

use std::fmt;

/// A handle to a BDD node owned by a [`BddManager`](crate::BddManager).
///
/// Handles are *tagged* indices: the low bit is a complement tag and the
/// remaining bits index the manager's node arena, so handles stay cheap
/// to copy, hash and compare while negation can be a constant-time tag
/// flip. Two handles from the *same* manager are equal if and only if
/// they denote the same Boolean function (ROBDDs with a canonical
/// then-edge rule are canonical). Mixing handles across managers is a
/// logic error; the manager panics on out-of-range indices.
///
/// Both constants share one terminal node at arena index 0:
/// [`Bdd::TRUE`] is the plain handle, [`Bdd::FALSE`] its complement.
///
/// # Example
///
/// ```
/// use tbf_bdd::BddManager;
/// let mut m = BddManager::new();
/// let x = m.new_var();
/// let f = m.var(x);
/// let g = m.var(x);
/// assert_eq!(f, g); // canonical
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// The constant-true function: the terminal node, untagged.
    pub const TRUE: Bdd = Bdd(0);
    /// The constant-false function: the complement of the terminal.
    pub const FALSE: Bdd = Bdd(1);

    /// Returns `true` if this handle is the constant-false function.
    #[inline]
    pub fn is_false(self) -> bool {
        self == Bdd::FALSE
    }

    /// Returns `true` if this handle is the constant-true function.
    #[inline]
    pub fn is_true(self) -> bool {
        self == Bdd::TRUE
    }

    /// Returns `true` if this handle is one of the two constants.
    #[inline]
    pub fn is_const(self) -> bool {
        self.0 < 2
    }

    /// The arena index of the node this handle references (complement
    /// tag stripped).
    #[inline]
    pub fn index(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Whether the complement tag is set on this handle.
    #[inline]
    pub(crate) fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// The same node with the complement tag flipped (¬f, in O(1)).
    #[inline]
    pub(crate) fn negate(self) -> Bdd {
        Bdd(self.0 ^ 1)
    }

    /// The same node with the complement tag cleared (the "regular"
    /// representative of the {f, ¬f} pair).
    #[inline]
    pub(crate) fn regular(self) -> Bdd {
        Bdd(self.0 & !1)
    }

    /// The tagged handle for arena index `i` with no complement bit.
    #[inline]
    pub(crate) fn from_index(i: usize) -> Bdd {
        Bdd(u32::try_from(i << 1).expect("BDD node index overflow"))
    }
}

impl fmt::Debug for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Bdd::FALSE => write!(f, "Bdd(FALSE)"),
            Bdd::TRUE => write!(f, "Bdd(TRUE)"),
            Bdd(raw) => {
                let i = raw >> 1;
                if raw & 1 == 1 {
                    write!(f, "Bdd(!{i})")
                } else {
                    write!(f, "Bdd({i})")
                }
            }
        }
    }
}

/// A BDD variable.
///
/// A `Var`'s index is its position in the order: the first
/// [`new_var`](crate::BddManager::new_var) is tested closest to the root,
/// and every later one below all earlier ones.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Zero-based creation index of this variable, which is also its
    /// position in the order.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Var({})", self.0)
    }
}

/// Internal node representation: `(var, lo, hi)` with `lo` taken when the
/// tested variable is 0; `var` is the variable's index, which is also its
/// order position. The single terminal lives at arena index 0 with a
/// sentinel variable so that every internal node sorts strictly above it.
/// The stored `hi` edge is always regular (canonical then-edge rule).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Node {
    pub var: u32,
    pub lo: Bdd,
    pub hi: Bdd,
}

/// Sentinel marking the terminal node; also used as the "below every
/// variable" level (larger than any variable index).
pub(crate) const TERMINAL_LEVEL: u32 = u32::MAX;

/// Sentinel `var` payload of a *freed* arena slot (reclaimed by
/// mark-and-sweep GC, awaiting reuse through the manager's free list).
/// Distinct from [`TERMINAL_LEVEL`] so the terminal can never be confused
/// with garbage, and larger than any real variable index.
pub(crate) const FREE_LEVEL: u32 = u32::MAX - 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_distinct_and_const() {
        assert!(Bdd::FALSE.is_false());
        assert!(Bdd::TRUE.is_true());
        assert!(Bdd::FALSE.is_const());
        assert!(Bdd::TRUE.is_const());
        assert_ne!(Bdd::FALSE, Bdd::TRUE);
        assert!(!Bdd::TRUE.is_false());
        assert!(!Bdd::FALSE.is_true());
    }

    #[test]
    fn constants_are_one_complement_pair() {
        assert_eq!(Bdd::TRUE.negate(), Bdd::FALSE);
        assert_eq!(Bdd::FALSE.negate(), Bdd::TRUE);
        assert_eq!(Bdd::FALSE.regular(), Bdd::TRUE);
        assert_eq!(Bdd::TRUE.index(), Bdd::FALSE.index());
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", Bdd::FALSE), "Bdd(FALSE)");
        assert_eq!(format!("{:?}", Bdd::TRUE), "Bdd(TRUE)");
        assert_eq!(format!("{:?}", Bdd(14)), "Bdd(7)");
        assert_eq!(format!("{:?}", Bdd(15)), "Bdd(!7)");
        assert_eq!(format!("{:?}", Var(3)), "Var(3)");
    }

    #[test]
    fn index_strips_the_tag() {
        assert_eq!(Var(11).index(), 11);
        assert_eq!(Bdd(22).index(), 11);
        assert_eq!(Bdd(23).index(), 11);
        assert_eq!(Bdd::from_index(11), Bdd(22));
    }
}
