//! Interval abstract interpretation over the kernel IR.
//!
//! The affine walker in [`crate::extract`] gives up (`None`) on any
//! expression outside the affine fragment — products of variables,
//! division, remainders, data-dependent loads — which rejects whole
//! classes of irregular kernels even though §4 of the paper permits
//! over-approximated *reads*. This module supplies the complementary
//! domain: every integer expression evaluates to an [`AbsVal`], a
//! product of the exact affine value (when one exists) and a pair of
//! symbolic inclusive bounds, each an affine [`LinExpr`] over the
//! current `[dims | params]` space.
//!
//! The lattice of one component is flat: a bound is either a concrete
//! affine expression or "unknown" (`None` = ±∞). The [`widen`] operator
//! used at loop heads keeps a bound only when it is syntactically stable
//! across an iteration (or when both sides are constants moving away
//! from the bound, where the stable side is kept); everything else drops
//! to unknown. Each component can only move downward (`Some → None`), so
//! a loop-head fixpoint is reached in at most `3 · |vars| + 1` rounds —
//! the widening termination guarantee the tests pin down.
//!
//! Bounds feed [`crate::extract`]'s access recording: a read index with
//! no affine value but known bounds becomes a pair of inequality
//! constraints (`lo ≤ e ≤ hi`) in the access-map piece — a sound
//! *may-read box* — instead of degrading the whole array to an
//! unmodeled fallback. Writes are never allowed to use bounds: an
//! inexact write still rejects partitioning exactly as before.

use mekong_poly::LinExpr;

/// Abstract value of an integer expression: the product of the affine
/// domain (exact value) and the interval domain (inclusive bounds).
///
/// Invariant: when `affine` is `Some`, the bounds are implied (the value
/// *is* the expression) and `lo`/`hi` are ignored; accessors take care
/// of the fallback. All `LinExpr`s share the width of the extraction
/// space at the point of evaluation (`n_dims + n_params`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsVal {
    /// Exact affine value, when the expression is in the affine fragment.
    pub affine: Option<LinExpr>,
    /// Inclusive lower bound (`None` = −∞), used when `affine` is `None`.
    pub lo: Option<LinExpr>,
    /// Inclusive upper bound (`None` = +∞), used when `affine` is `None`.
    pub hi: Option<LinExpr>,
}

impl AbsVal {
    /// The completely unknown value (⊤).
    pub fn top() -> AbsVal {
        AbsVal {
            affine: None,
            lo: None,
            hi: None,
        }
    }

    /// An exact affine value.
    pub fn affine(e: LinExpr) -> AbsVal {
        AbsVal {
            affine: Some(e),
            lo: None,
            hi: None,
        }
    }

    /// A pure interval `[lo, hi]` (either side may be unbounded).
    pub fn interval(lo: Option<LinExpr>, hi: Option<LinExpr>) -> AbsVal {
        AbsVal {
            affine: None,
            lo,
            hi,
        }
    }

    /// A constant.
    pub fn constant(width: usize, k: i64) -> AbsVal {
        AbsVal::affine(LinExpr::constant(width, k))
    }

    /// Effective inclusive lower bound (the affine value when exact).
    pub(crate) fn lo_bound(&self) -> Option<&LinExpr> {
        self.affine.as_ref().or(self.lo.as_ref())
    }

    /// Effective inclusive upper bound (the affine value when exact).
    pub(crate) fn hi_bound(&self) -> Option<&LinExpr> {
        self.affine.as_ref().or(self.hi.as_ref())
    }

    /// Demote to the interval domain: the affine value (if any) becomes
    /// both bounds. Used by the affine-vs-interval cross-check.
    pub fn boxed(&self) -> AbsVal {
        AbsVal::interval(self.lo_bound().cloned(), self.hi_bound().cloned())
    }

    /// Both bounds as constants, when fully constant-bounded.
    fn const_bounds(&self) -> Option<(i64, i64)> {
        let lo = self.lo_bound()?;
        let hi = self.hi_bound()?;
        if lo.is_constant() && hi.is_constant() {
            Some((lo.konst, hi.konst))
        } else {
            None
        }
    }

    // ---- arithmetic ------------------------------------------------------

    /// Pointwise sum.
    pub fn add(&self, other: &AbsVal) -> AbsVal {
        if let (Some(a), Some(b)) = (&self.affine, &other.affine) {
            if let Ok(e) = a.add(b) {
                return AbsVal::affine(e);
            }
        }
        AbsVal::interval(
            opt_add(self.lo_bound(), other.lo_bound()),
            opt_add(self.hi_bound(), other.hi_bound()),
        )
    }

    /// Pointwise difference `self − other`.
    pub fn sub(&self, other: &AbsVal) -> AbsVal {
        self.add(&other.neg())
    }

    /// Negation: the interval flips. A component with an `i64::MIN`
    /// term has no negation and becomes unknown.
    pub fn neg(&self) -> AbsVal {
        let neg = |e: &LinExpr| e.scale(-1).ok();
        AbsVal {
            affine: self.affine.as_ref().and_then(neg),
            lo: self.hi.as_ref().and_then(neg),
            hi: self.lo.as_ref().and_then(neg),
        }
    }

    /// Multiplication by a known constant.
    pub fn scale(&self, s: i64) -> AbsVal {
        if let Some(a) = &self.affine {
            if let Ok(e) = a.scale(s) {
                return AbsVal::affine(e);
            }
            return AbsVal::top();
        }
        let (lo, hi) = (opt_scale(self.lo_bound(), s), opt_scale(self.hi_bound(), s));
        if s >= 0 {
            AbsVal::interval(lo, hi)
        } else {
            AbsVal::interval(hi, lo)
        }
    }

    /// Product. Exact when one side is a known constant; otherwise falls
    /// back to the four-corner interval product when both sides have
    /// fully constant bounds.
    pub fn mul(&self, other: &AbsVal) -> AbsVal {
        if let Some(a) = &self.affine {
            if a.is_constant() {
                return other.scale(a.konst);
            }
        }
        if let Some(b) = &other.affine {
            if b.is_constant() {
                return self.scale(b.konst);
            }
        }
        match (self.const_bounds(), other.const_bounds()) {
            (Some((la, ha)), Some((lb, hb))) => {
                let cands = [
                    la as i128 * lb as i128,
                    la as i128 * hb as i128,
                    ha as i128 * lb as i128,
                    ha as i128 * hb as i128,
                ];
                let lo = cands.iter().copied().min().unwrap();
                let hi = cands.iter().copied().max().unwrap();
                match (i64::try_from(lo), i64::try_from(hi)) {
                    (Ok(lo), Ok(hi)) => {
                        let w = self.width().or(other.width()).unwrap_or(0);
                        AbsVal::interval(
                            Some(LinExpr::constant(w, lo)),
                            Some(LinExpr::constant(w, hi)),
                        )
                    }
                    _ => AbsVal::top(),
                }
            }
            _ => AbsVal::top(),
        }
    }

    /// Truncating division (C semantics) by a known constant divisor.
    pub fn div(&self, other: &AbsVal) -> AbsVal {
        let Some(c) = other.affine.as_ref().filter(|e| e.is_constant()) else {
            return AbsVal::top();
        };
        let c = c.konst;
        if c == 0 {
            return AbsVal::top();
        }
        // Exact when the divisor divides every coefficient and the
        // constant: the value is always divisible, so truncation is
        // identity.
        if let Some(a) = &self.affine {
            if a.coeffs
                .iter()
                .chain(std::iter::once(&a.konst))
                .all(|&x| x % c == 0)
            {
                let mut e = a.clone();
                for x in e.coeffs.iter_mut() {
                    *x /= c;
                }
                e.konst /= c;
                return AbsVal::affine(e);
            }
        }
        // Truncating division is monotone in the dividend, so constant
        // bounds map through directly (reversed for negative divisors).
        if let Some((l, h)) = self.const_bounds() {
            let w = self.width().unwrap_or(0);
            let (a, b) = (l / c, h / c);
            let (lo, hi) = if c > 0 { (a, b) } else { (b, a) };
            return AbsVal::interval(
                Some(LinExpr::constant(w, lo)),
                Some(LinExpr::constant(w, hi)),
            );
        }
        AbsVal::top()
    }

    /// Remainder (C semantics: sign follows the dividend) by a known
    /// constant divisor: `x % c ∈ (−|c|, |c|)`, narrowed to one side when
    /// the dividend's sign is known.
    pub fn rem(&self, other: &AbsVal) -> AbsVal {
        let Some(c) = other.affine.as_ref().filter(|e| e.is_constant()) else {
            return AbsVal::top();
        };
        let Some(m) = c.konst.checked_abs().filter(|&m| m != 0) else {
            return AbsVal::top();
        };
        let w = c.width();
        let nonneg = self
            .lo_bound()
            .is_some_and(|l| l.is_constant() && l.konst >= 0);
        let nonpos = self
            .hi_bound()
            .is_some_and(|h| h.is_constant() && h.konst <= 0);
        let (lo, hi) = if nonneg {
            (0, m - 1)
        } else if nonpos {
            (-(m - 1), 0)
        } else {
            (-(m - 1), m - 1)
        };
        AbsVal::interval(
            Some(LinExpr::constant(w, lo)),
            Some(LinExpr::constant(w, hi)),
        )
    }

    /// `min(self, other)`: a lower bound must bound *both* operands; an
    /// upper bound from either side is sound.
    pub fn min(&self, other: &AbsVal) -> AbsVal {
        if let (Some(a), Some(b)) = (&self.affine, &other.affine) {
            if a == b {
                return AbsVal::affine(a.clone());
            }
        }
        let lo = both_bound(self.lo_bound(), other.lo_bound(), i64::min);
        let hi = either_bound(self.hi_bound(), other.hi_bound(), i64::min);
        AbsVal::interval(lo, hi)
    }

    /// `max(self, other)`: dual of [`AbsVal::min`].
    pub fn max(&self, other: &AbsVal) -> AbsVal {
        if let (Some(a), Some(b)) = (&self.affine, &other.affine) {
            if a == b {
                return AbsVal::affine(a.clone());
            }
        }
        let lo = either_bound(self.lo_bound(), other.lo_bound(), i64::max);
        let hi = both_bound(self.hi_bound(), other.hi_bound(), i64::max);
        AbsVal::interval(lo, hi)
    }

    /// Least upper bound: the value may be either operand (ternary
    /// select, control-flow join).
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        let affine = match (&self.affine, &other.affine) {
            (Some(a), Some(b)) if a == b => Some(a.clone()),
            _ => None,
        };
        if let Some(a) = affine {
            return AbsVal::affine(a);
        }
        AbsVal::interval(
            both_bound(self.lo_bound(), other.lo_bound(), i64::min),
            both_bound(self.hi_bound(), other.hi_bound(), i64::max),
        )
    }

    // ---- space surgery ---------------------------------------------------

    /// Widen every component for `count` fresh dims inserted at `at`.
    pub fn insert_vars(&self, at: usize, count: usize) -> AbsVal {
        AbsVal {
            affine: self.affine.as_ref().map(|e| e.insert_vars(at, count)),
            lo: self.lo.as_ref().map(|e| e.insert_vars(at, count)),
            hi: self.hi.as_ref().map(|e| e.insert_vars(at, count)),
        }
    }

    /// Drop dim `at`: components that mention it become unknown.
    pub fn remove_var(&self, at: usize) -> AbsVal {
        let drop = |e: &Option<LinExpr>| -> Option<LinExpr> {
            e.as_ref()
                .filter(|x| x.coeff(at) == 0)
                .map(|x| x.remove_var(at))
        };
        AbsVal {
            affine: drop(&self.affine),
            lo: drop(&self.lo),
            hi: drop(&self.hi),
        }
    }

    /// Width of the underlying expressions, if any component is known.
    fn width(&self) -> Option<usize> {
        self.affine
            .as_ref()
            .or(self.lo.as_ref())
            .or(self.hi.as_ref())
            .map(|e| e.width())
    }
}

fn opt_add(a: Option<&LinExpr>, b: Option<&LinExpr>) -> Option<LinExpr> {
    a?.add(b?).ok()
}

fn opt_scale(e: Option<&LinExpr>, s: i64) -> Option<LinExpr> {
    e?.scale(s).ok()
}

/// A bound valid only when derivable from *both* operands: equal
/// expressions are kept; constant pairs combine with `pick`; anything
/// else is unknown.
fn both_bound(
    a: Option<&LinExpr>,
    b: Option<&LinExpr>,
    pick: fn(i64, i64) -> i64,
) -> Option<LinExpr> {
    let (a, b) = (a?, b?);
    if a == b {
        return Some(a.clone());
    }
    if a.is_constant() && b.is_constant() {
        return Some(LinExpr::constant(a.width(), pick(a.konst, b.konst)));
    }
    None
}

/// A bound for which *either* operand suffices (e.g. any upper bound of
/// one `min` operand bounds the whole `min`). Prefers the tighter
/// constant when both are constants.
fn either_bound(
    a: Option<&LinExpr>,
    b: Option<&LinExpr>,
    pick: fn(i64, i64) -> i64,
) -> Option<LinExpr> {
    match (a, b) {
        (Some(a), Some(b)) => {
            if a.is_constant() && b.is_constant() {
                Some(LinExpr::constant(a.width(), pick(a.konst, b.konst)))
            } else {
                Some(a.clone())
            }
        }
        (Some(e), None) | (None, Some(e)) => Some(e.clone()),
        (None, None) => None,
    }
}

/// Loop-head widening: `old ∇ new`. Components are kept only when
/// syntactically stable across the iteration; a constant bound moving
/// *away* from its side keeps the stable old value (the classic
/// "widen to the threshold that held on entry"); everything else drops
/// to unknown. Each application either returns `old` unchanged or turns
/// at least one `Some` into `None` / keeps a strictly stable constant,
/// so iterating `widen` at a loop head terminates.
pub fn widen(old: &AbsVal, new: &AbsVal) -> AbsVal {
    let affine = match (&old.affine, &new.affine) {
        (Some(a), Some(b)) if a == b => Some(a.clone()),
        _ => None,
    };
    if let Some(a) = affine {
        return AbsVal::affine(a);
    }
    let widen_lo = |o: Option<&LinExpr>, n: Option<&LinExpr>| -> Option<LinExpr> {
        let (o, n) = (o?, n?);
        if o == n || (o.is_constant() && n.is_constant() && n.konst >= o.konst) {
            Some(o.clone())
        } else {
            None
        }
    };
    let widen_hi = |o: Option<&LinExpr>, n: Option<&LinExpr>| -> Option<LinExpr> {
        let (o, n) = (o?, n?);
        if o == n || (o.is_constant() && n.is_constant() && n.konst <= o.konst) {
            Some(o.clone())
        } else {
            None
        }
    };
    AbsVal::interval(
        widen_lo(old.lo_bound(), new.lo_bound()),
        widen_hi(old.hi_bound(), new.hi_bound()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(k: i64) -> AbsVal {
        AbsVal::constant(3, k)
    }

    fn iv(lo: i64, hi: i64) -> AbsVal {
        AbsVal::interval(
            Some(LinExpr::constant(3, lo)),
            Some(LinExpr::constant(3, hi)),
        )
    }

    fn bounds(v: &AbsVal) -> (i64, i64) {
        (v.lo_bound().unwrap().konst, v.hi_bound().unwrap().konst)
    }

    #[test]
    fn affine_ops_stay_exact() {
        let x = AbsVal::affine(LinExpr::var(3, 0));
        let s = x.add(&c(2)).scale(3);
        let e = s.affine.expect("affine preserved");
        assert_eq!(e.coeffs, vec![3, 0, 0]);
        assert_eq!(e.konst, 6);
    }

    #[test]
    fn interval_arith() {
        let v = iv(2, 5);
        assert_eq!(bounds(&v.add(&iv(-1, 1))), (1, 6));
        assert_eq!(bounds(&v.neg()), (-5, -2));
        assert_eq!(bounds(&v.scale(-2)), (-10, -4));
        assert_eq!(bounds(&v.mul(&iv(-1, 3))), (-5, 15));
        assert_eq!(bounds(&v.div(&c(2))), (1, 2));
        assert_eq!(bounds(&iv(-7, 5).div(&c(-2))), (-2, 3));
        // Remainder: nonnegative dividend narrows to [0, m-1].
        assert_eq!(bounds(&iv(0, 100).rem(&c(8))), (0, 7));
        assert_eq!(bounds(&iv(-100, 100).rem(&c(8))), (-7, 7));
    }

    #[test]
    fn exact_divisibility_keeps_affine() {
        // (4*v0 + 8) / 4 = v0 + 2, exactly.
        let e = LinExpr::var(3, 0).scale(4).unwrap().with_konst(8);
        let q = AbsVal::affine(e).div(&c(4));
        let a = q.affine.expect("divisible affine stays exact");
        assert_eq!(a.coeffs, vec![1, 0, 0]);
        assert_eq!(a.konst, 2);
        // Non-divisible constant term degrades (truncation).
        let e = LinExpr::var(3, 0).scale(4).unwrap().with_konst(3);
        assert!(AbsVal::affine(e).div(&c(4)).affine.is_none());
    }

    #[test]
    fn min_max_clamp() {
        // clamp(v, 0, 9) via max(min(v, 9), 0)
        let v = iv(-100, 100);
        let clamped = v.min(&c(9)).max(&c(0));
        assert_eq!(bounds(&clamped), (0, 9));
        // min against an unbounded side still yields the constant cap.
        let top = AbsVal::top();
        let m = top.min(&c(9));
        assert!(m.lo_bound().is_none());
        assert_eq!(m.hi_bound().unwrap().konst, 9);
    }

    #[test]
    fn join_takes_hull() {
        assert_eq!(bounds(&c(1).join(&c(5))), (1, 5));
        let j = c(1).join(&AbsVal::top());
        assert_eq!(j, AbsVal::top());
        // Symbolic equal bounds survive the join.
        let x = AbsVal::affine(LinExpr::var(3, 1));
        let j = x.join(&x.clone());
        assert_eq!(j.affine, Some(LinExpr::var(3, 1)));
    }

    #[test]
    fn widening_terminates_on_climbing_chains() {
        // x := x + 1 from [0,0]: lo stays 0 (stable), hi climbs and must
        // be widened away in a bounded number of rounds.
        let mut x = c(0);
        let mut rounds = 0;
        loop {
            let next = x.add(&c(1));
            let w = widen(&x, &next);
            rounds += 1;
            if w == x {
                break;
            }
            x = w;
            assert!(rounds < 8, "widening failed to stabilize");
        }
        assert_eq!(x.lo_bound().unwrap().konst, 0);
        assert!(x.hi_bound().is_none());
        // Descending chains stabilize on the hi side instead.
        let mut y = c(10);
        let mut rounds = 0;
        loop {
            let next = y.sub(&c(3));
            let w = widen(&y, &next);
            rounds += 1;
            if w == y {
                break;
            }
            y = w;
            assert!(rounds < 8, "widening failed to stabilize");
        }
        assert!(y.lo_bound().is_none());
        assert_eq!(y.hi_bound().unwrap().konst, 10);
    }

    #[test]
    fn dim_surgery() {
        let v = AbsVal::interval(Some(LinExpr::var(2, 0)), Some(LinExpr::var(2, 1)));
        let w = v.insert_vars(1, 1);
        assert_eq!(w.lo.as_ref().unwrap().width(), 3);
        // Dropping the dim the hi bound depends on loses only that side.
        let d = w.remove_var(2);
        assert!(d.lo.is_some());
        assert!(d.hi.is_none());
    }
}
