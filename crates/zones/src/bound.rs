//! DBM entries: bounds of the form `x − y ≺ c` with `≺ ∈ {<, ≤}` or `∞`.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Add;

use tempo_math::Rat;

/// A difference bound: `< c`, `≤ c`, or unbounded.
///
/// Bounds are totally ordered by tightness: `(< c)` is tighter than
/// `(≤ c)`, and any finite bound is tighter than `∞`. Addition follows the
/// min-plus algebra used by Floyd–Warshall closure: values add, strictness
/// is contagious.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum DbmBound {
    /// `x − y < c`.
    Strict(Rat),
    /// `x − y ≤ c`.
    Weak(Rat),
    /// No constraint.
    Unbounded,
}

impl DbmBound {
    /// The bound `≤ 0`.
    pub const LE_ZERO: DbmBound = DbmBound::Weak(Rat::ZERO);

    /// Returns the finite bound value, if any.
    pub fn value(self) -> Option<Rat> {
        match self {
            DbmBound::Strict(c) | DbmBound::Weak(c) => Some(c),
            DbmBound::Unbounded => None,
        }
    }

    /// Returns `true` for a strict (`<`) bound.
    pub fn is_strict(self) -> bool {
        matches!(self, DbmBound::Strict(_))
    }

    /// Returns `true` if a difference equal to `v` satisfies the bound.
    pub fn admits(self, v: Rat) -> bool {
        match self {
            DbmBound::Strict(c) => v < c,
            DbmBound::Weak(c) => v <= c,
            DbmBound::Unbounded => true,
        }
    }

    /// Translates the bound by a constant: `x − y ≺ c` becomes
    /// `x − y ≺ c + d`, preserving strictness; `∞` is unaffected.
    pub fn add_const(self, d: Rat) -> DbmBound {
        match self {
            DbmBound::Strict(c) => DbmBound::Strict(c + d),
            DbmBound::Weak(c) => DbmBound::Weak(c + d),
            DbmBound::Unbounded => DbmBound::Unbounded,
        }
    }

    /// The negated bound for emptiness reasoning: `¬(x − y ≺ c)` is
    /// `y − x ≺' −c` with strictness flipped.
    ///
    /// # Panics
    ///
    /// Panics on `Unbounded`, whose negation is empty.
    pub fn negate(self) -> DbmBound {
        match self {
            DbmBound::Strict(c) => DbmBound::Weak(-c),
            DbmBound::Weak(c) => DbmBound::Strict(-c),
            DbmBound::Unbounded => panic!("cannot negate an unbounded DBM bound"),
        }
    }

    fn rank(self) -> (Option<Rat>, bool) {
        // (value, is_weak): None = ∞. Used for ordering.
        match self {
            DbmBound::Strict(c) => (Some(c), false),
            DbmBound::Weak(c) => (Some(c), true),
            DbmBound::Unbounded => (None, true),
        }
    }
}

impl PartialOrd for DbmBound {
    fn partial_cmp(&self, other: &DbmBound) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DbmBound {
    /// Tightness order: smaller = tighter. `(< c) < (≤ c) < (< c′)` for
    /// `c < c′`, and everything `< ∞`.
    fn cmp(&self, other: &DbmBound) -> Ordering {
        match (self.rank(), other.rank()) {
            ((None, _), (None, _)) => Ordering::Equal,
            ((None, _), _) => Ordering::Greater,
            (_, (None, _)) => Ordering::Less,
            ((Some(a), wa), (Some(b), wb)) => a.cmp(&b).then(wa.cmp(&wb)),
        }
    }
}

impl Add for DbmBound {
    type Output = DbmBound;
    fn add(self, other: DbmBound) -> DbmBound {
        match (self, other) {
            (DbmBound::Unbounded, _) | (_, DbmBound::Unbounded) => DbmBound::Unbounded,
            (DbmBound::Weak(a), DbmBound::Weak(b)) => DbmBound::Weak(a + b),
            (a, b) => DbmBound::Strict(a.value().expect("finite") + b.value().expect("finite")),
        }
    }
}

impl fmt::Debug for DbmBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbmBound::Strict(c) => write!(f, "<{c}"),
            DbmBound::Weak(c) => write!(f, "<={c}"),
            DbmBound::Unbounded => write!(f, "<inf"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: i64) -> Rat {
        Rat::from(v)
    }

    #[test]
    fn ordering_by_tightness() {
        assert!(DbmBound::Strict(r(3)) < DbmBound::Weak(r(3)));
        assert!(DbmBound::Weak(r(3)) < DbmBound::Strict(r(4)));
        assert!(DbmBound::Weak(r(100)) < DbmBound::Unbounded);
        assert_eq!(
            DbmBound::Weak(r(3)).min(DbmBound::Strict(r(3))),
            DbmBound::Strict(r(3))
        );
    }

    #[test]
    fn addition() {
        assert_eq!(
            DbmBound::Weak(r(2)) + DbmBound::Weak(r(3)),
            DbmBound::Weak(r(5))
        );
        assert_eq!(
            DbmBound::Strict(r(2)) + DbmBound::Weak(r(3)),
            DbmBound::Strict(r(5))
        );
        assert_eq!(
            DbmBound::Weak(r(2)) + DbmBound::Unbounded,
            DbmBound::Unbounded
        );
    }

    #[test]
    fn admits() {
        assert!(DbmBound::Weak(r(2)).admits(r(2)));
        assert!(!DbmBound::Strict(r(2)).admits(r(2)));
        assert!(DbmBound::Strict(r(2)).admits(r(1)));
        assert!(DbmBound::Unbounded.admits(r(1_000_000)));
    }

    #[test]
    fn add_const_translates_preserving_strictness() {
        assert_eq!(DbmBound::Weak(r(2)).add_const(r(3)), DbmBound::Weak(r(5)));
        assert_eq!(
            DbmBound::Strict(r(2)).add_const(r(-3)),
            DbmBound::Strict(r(-1))
        );
        assert_eq!(DbmBound::Unbounded.add_const(r(7)), DbmBound::Unbounded);
    }

    #[test]
    fn negation() {
        assert_eq!(DbmBound::Weak(r(2)).negate(), DbmBound::Strict(r(-2)));
        assert_eq!(DbmBound::Strict(r(2)).negate(), DbmBound::Weak(r(-2)));
    }

    #[test]
    #[should_panic(expected = "cannot negate")]
    fn negate_unbounded_panics() {
        let _ = DbmBound::Unbounded.negate();
    }
}
