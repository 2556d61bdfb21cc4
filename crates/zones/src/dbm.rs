//! Difference Bound Matrices over exact rationals.

use std::fmt;

use tempo_math::{Rat, TimeVal};

use crate::DbmBound;

/// A zone over `n` clocks, represented as an `(n+1) × (n+1)` matrix of
/// [`DbmBound`]s; index 0 is the reference clock (constant 0), entry
/// `(i, j)` bounds `x_i − x_j`.
///
/// All public operations keep the matrix in **canonical form** (tightest
/// bounds, via Floyd–Warshall closure), so structural equality coincides
/// with zone equality.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Dbm {
    dim: usize, // number of clocks + 1
    m: Vec<DbmBound>,
}

impl Dbm {
    /// The zone `{0}^n`: all clocks exactly zero.
    pub fn zero(clocks: usize) -> Dbm {
        let dim = clocks + 1;
        let mut m = vec![DbmBound::LE_ZERO; dim * dim];
        for i in 0..dim {
            m[i * dim + i] = DbmBound::LE_ZERO;
        }
        Dbm { dim, m } // already canonical: every difference ≤ 0 and ≥ 0
    }

    /// The zone of all nonnegative clock valuations.
    pub fn universe(clocks: usize) -> Dbm {
        let dim = clocks + 1;
        let mut m = vec![DbmBound::Unbounded; dim * dim];
        for i in 0..dim {
            m[i * dim + i] = DbmBound::LE_ZERO;
            // x_0 − x_i ≤ 0: clocks are nonnegative.
            m[i] = DbmBound::LE_ZERO; // row 0
        }
        Dbm { dim, m }
    }

    /// Number of clocks (excluding the reference clock).
    pub fn clocks(&self) -> usize {
        self.dim - 1
    }

    fn at(&self, i: usize, j: usize) -> DbmBound {
        self.m[i * self.dim + j]
    }

    fn set(&mut self, i: usize, j: usize, b: DbmBound) {
        self.m[i * self.dim + j] = b;
    }

    /// The bound on `x_i − x_j` (0 = reference clock).
    pub fn bound(&self, i: usize, j: usize) -> DbmBound {
        assert!(i < self.dim && j < self.dim, "clock index out of range");
        self.at(i, j)
    }

    /// Returns `true` if the zone contains no valuation.
    pub fn is_empty(&self) -> bool {
        (0..self.dim).any(|i| self.at(i, i) < DbmBound::LE_ZERO)
    }

    /// Floyd–Warshall closure: tightens every bound through every
    /// intermediate clock. Idempotent; empty zones (negative cycles) are
    /// normalized to a single canonical empty form.
    pub fn canonicalize(&mut self) {
        for k in 0..self.dim {
            for i in 0..self.dim {
                for j in 0..self.dim {
                    let via = self.at(i, k) + self.at(k, j);
                    if via < self.at(i, j) {
                        self.set(i, j, via);
                    }
                }
            }
        }
        if self.is_empty() {
            // Without normalization, repeated closure would keep pumping
            // the negative cycle and structural equality would break.
            for b in &mut self.m {
                *b = DbmBound::Strict(Rat::ZERO);
            }
        }
    }

    /// Intersects with the constraint `x_i − x_j ≺ c` and re-canonicalizes.
    /// Use `j = 0` for upper bounds on `x_i` and `i = 0` for lower bounds
    /// (`x_0 − x_j ≤ −c` encodes `x_j ≥ c`).
    pub fn and(&mut self, i: usize, j: usize, b: DbmBound) {
        if b < self.at(i, j) {
            self.set(i, j, b);
            self.canonicalize();
        }
    }

    /// Adds the lower-bound constraint `x_i ≥ c` (weak) or `> c` (strict).
    pub fn and_lower(&mut self, clock: usize, c: Rat, strict: bool) {
        let b = if strict {
            DbmBound::Strict(-c)
        } else {
            DbmBound::Weak(-c)
        };
        self.and(0, clock, b);
    }

    /// Adds the upper-bound constraint `x_i ≤ c` (weak) or `< c` (strict).
    pub fn and_upper(&mut self, clock: usize, c: Rat, strict: bool) {
        let b = if strict {
            DbmBound::Strict(c)
        } else {
            DbmBound::Weak(c)
        };
        self.and(clock, 0, b);
    }

    /// Time elapse (`up`): removes all upper bounds on clocks, letting time
    /// advance uniformly. Preserves canonical form.
    pub fn up(&mut self) {
        for i in 1..self.dim {
            self.set(i, 0, DbmBound::Unbounded);
        }
    }

    /// Resets clock `i` to 0.
    pub fn reset(&mut self, clock: usize) {
        assert!(
            clock >= 1 && clock < self.dim,
            "cannot reset the reference clock"
        );
        for j in 0..self.dim {
            self.set(clock, j, self.at(0, j));
            self.set(j, clock, self.at(j, 0));
        }
        self.set(clock, clock, DbmBound::LE_ZERO);
    }

    /// Returns `true` if this zone includes (is a superset of) `other`.
    /// The empty zone is included in everything.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn includes(&self, other: &Dbm) -> bool {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        if other.is_empty() {
            return true;
        }
        self.m
            .iter()
            .zip(other.m.iter())
            .all(|(mine, theirs)| theirs <= mine)
    }

    /// Returns `true` if the valuation `v` (one value per clock) lies in
    /// the zone.
    pub fn contains(&self, v: &[Rat]) -> bool {
        assert_eq!(v.len(), self.clocks(), "valuation arity mismatch");
        let val = |i: usize| if i == 0 { Rat::ZERO } else { v[i - 1] };
        for i in 0..self.dim {
            for j in 0..self.dim {
                if !self.at(i, j).admits(val(i) - val(j)) {
                    return false;
                }
            }
        }
        true
    }

    /// The minimum value clock `i` takes in the zone (with the convention
    /// that an empty zone has no minimum — check emptiness first).
    pub fn clock_min(&self, clock: usize) -> Rat {
        // x_0 − x_i ≺ c ⇔ x_i ⪰ −c.
        match self.at(0, clock).value() {
            Some(c) => -c,
            None => Rat::ZERO, // clocks are nonnegative anyway
        }
    }

    /// The supremum of clock `i` in the zone (`∞` if unbounded).
    pub fn clock_max(&self, clock: usize) -> TimeVal {
        match self.at(clock, 0).value() {
            Some(c) => TimeVal::from(c),
            None => TimeVal::INFINITY,
        }
    }

    /// Per-clock max-constant extrapolation (ExtraM): bounds above `k_i`
    /// become unbounded, lower bounds below `−k_j` are weakened to
    /// `> k_j`. Guarantees termination of zone-graph exploration while
    /// preserving reachability up to the constants.
    pub fn extrapolate(&mut self, max_consts: &[Rat]) {
        assert_eq!(max_consts.len(), self.clocks(), "constants arity mismatch");
        let k = |i: usize| max_consts[i - 1];
        let mut changed = false;
        for i in 1..self.dim {
            for j in 0..self.dim {
                if i == j {
                    continue;
                }
                if let Some(c) = self.at(i, j).value() {
                    if c > k(i) {
                        self.set(i, j, DbmBound::Unbounded);
                        changed = true;
                    }
                }
            }
        }
        for j in 1..self.dim {
            for i in 0..self.dim {
                if i == j {
                    continue;
                }
                if let Some(c) = self.at(i, j).value() {
                    if c < -k(j) {
                        self.set(i, j, DbmBound::Strict(-k(j)));
                        changed = true;
                    }
                }
            }
        }
        if changed {
            self.canonicalize();
        }
    }
}

impl fmt::Debug for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Dbm[{} clocks]", self.clocks())?;
        for i in 0..self.dim {
            write!(f, "  ")?;
            for j in 0..self.dim {
                write!(f, "{:?} ", self.at(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: i64) -> Rat {
        Rat::from(v)
    }

    #[test]
    fn zero_zone_contains_only_origin() {
        let z = Dbm::zero(2);
        assert!(z.contains(&[r(0), r(0)]));
        assert!(!z.contains(&[r(0), r(1)]));
        assert!(!z.is_empty());
        assert_eq!(z.clock_min(1), r(0));
        assert_eq!(z.clock_max(1), TimeVal::from(r(0)));
    }

    #[test]
    fn up_lets_clocks_grow_together() {
        let mut z = Dbm::zero(2);
        z.up();
        assert!(z.contains(&[r(5), r(5)]));
        assert!(!z.contains(&[r(5), r(4)])); // diagonal preserved
        assert_eq!(z.clock_max(1), TimeVal::INFINITY);
    }

    #[test]
    fn constraints_and_emptiness() {
        let mut z = Dbm::zero(1);
        z.up();
        z.and_upper(1, r(3), false);
        assert!(z.contains(&[r(3)]));
        assert!(!z.contains(&[r(4)]));
        z.and_lower(1, r(5), false);
        assert!(z.is_empty());
    }

    #[test]
    fn reset_after_delay() {
        let mut z = Dbm::zero(2);
        z.up();
        z.and_lower(1, r(2), false);
        z.and_upper(1, r(4), false);
        // Both clocks in [2, 4], equal; reset clock 2.
        z.reset(2);
        assert!(z.contains(&[r(3), r(0)]));
        assert!(!z.contains(&[r(3), r(1)]));
        // Difference x1 − x2 now in [2, 4].
        assert_eq!(z.bound(1, 2), DbmBound::Weak(r(4)));
        assert_eq!(z.bound(2, 1), DbmBound::Weak(r(-2)));
    }

    #[test]
    fn canonicalization_tightens_via_paths() {
        let mut z = Dbm::universe(2);
        // x1 ≤ 3, x2 − x1 ≤ 2 ⇒ x2 ≤ 5 after closure.
        z.and_upper(1, r(3), false);
        z.and(2, 1, DbmBound::Weak(r(2)));
        assert_eq!(z.bound(2, 0), DbmBound::Weak(r(5)));
        // Canonicalization is idempotent.
        let before = z.clone();
        z.canonicalize();
        assert_eq!(z, before);
    }

    #[test]
    fn inclusion() {
        let mut small = Dbm::zero(1);
        small.up();
        small.and_upper(1, r(2), false);
        let mut big = Dbm::zero(1);
        big.up();
        big.and_upper(1, r(5), false);
        assert!(big.includes(&small));
        assert!(!small.includes(&big));
        assert!(big.includes(&big));
    }

    #[test]
    fn strict_bounds() {
        let mut z = Dbm::zero(1);
        z.up();
        z.and_upper(1, r(3), true); // x < 3
        assert!(z.contains(&[Rat::new(29, 10)]));
        assert!(!z.contains(&[r(3)]));
        assert_eq!(z.clock_max(1), TimeVal::from(r(3)));
        assert!(z.bound(1, 0).is_strict(), "the supremum 3 is not attained");
    }

    #[test]
    fn mins_and_maxes() {
        let mut z = Dbm::zero(2);
        z.up();
        z.and_lower(1, r(1), false);
        z.and_upper(1, r(4), false);
        assert_eq!(z.clock_min(1), r(1));
        assert_eq!(z.clock_max(1), TimeVal::from(r(4)));
        // Clock 2 equals clock 1 here (never reset since zero).
        assert_eq!(z.clock_min(2), r(1));
    }

    #[test]
    fn extrapolation_saturates_large_bounds() {
        let mut z = Dbm::zero(1);
        z.up();
        z.and_lower(1, r(10), false);
        z.and_upper(1, r(12), false);
        // Max constant 5: upper bound vanishes, lower weakens to > 5.
        z.extrapolate(&[r(5)]);
        assert_eq!(z.clock_max(1), TimeVal::INFINITY);
        assert!(z.contains(&[r(100)]));
        assert!(!z.contains(&[r(5)]));
        assert!(z.contains(&[Rat::new(51, 10)]));
    }

    #[test]
    fn extrapolation_preserves_small_zones() {
        let mut z = Dbm::zero(2);
        z.up();
        z.and_upper(1, r(3), false);
        z.and_lower(1, r(1), false);
        let before = z.clone();
        z.extrapolate(&[r(5), r(5)]);
        assert_eq!(z, before);
    }
}
