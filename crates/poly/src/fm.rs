//! Fourier–Motzkin variable elimination with integer-exactness tracking.
//!
//! Eliminating a variable `v` from a conjunction of affine constraints:
//!
//! 1. If an **equality** mentions `v` with coefficient ±1, solve for `v`
//!    and substitute — exact over the integers.
//! 2. If an equality mentions `v` with coefficient `c`, `|c| > 1`, use it
//!    to cancel `v` from every other constraint. This is exact over the
//!    rationals; integer exactness requires a divisibility argument we do
//!    not track, so the result is flagged approximate. (Toolchain access
//!    maps have unit coefficients, so this path is cold.)
//! 3. Otherwise pair every lower bound `a·v + l >= 0` (`a > 0`) with every
//!    upper bound `-b·v + u >= 0` (`b > 0`) to produce `b·l + a·u >= 0`.
//!    The combination is exact over the integers when `a == 1 || b == 1`
//!    (the *real shadow* equals the *dark shadow*, cf. Pugh's Omega test).
//!
//! Results are normalized; trivially false results mark the system empty.
//!
//! # The matrix
//!
//! Elimination runs on one `Matrix`: a row-major `Vec<i64>` with stride
//! `width + 1` (a row's coefficients, then its constant) and one kind per
//! row, kept with a hash of the row's coefficients. An elimination reads
//! the rows and writes its result into a second pair of buffers; the two
//! pairs swap afterwards and are reused, so a whole emptiness test
//! allocates its buffers once, not once per constraint. Invariants:
//!
//! * **Dead columns are zero.** An eliminated column stays in place, zero
//!   in every row; the matrix never changes shape. Only converting back to
//!   [`Constraint`]s drops the dead columns.
//! * **Two facts about the rows, each a flag.** `canonical`: every row is
//!   canonical (gcd-divided, an inequality's constant tightened, an
//!   equality's first nonzero coefficient positive) and unequal to every
//!   other. `irredundant`: no inequality is implied by another with the
//!   same coefficients and a smaller constant. A raw load sets neither;
//!   every elimination sets `canonical` (`Matrix::add` keeps it); step 3
//!   sets `irredundant`, steps 1 and 2 and `add` clear it.
//! * **An elimination redoes only the rows it writes.** Step 3 copies
//!   canonical rows without `v` verbatim and skips the redundancy filter
//!   if it keeps no pair of already irredundant rows (their subset is
//!   irredundant), so a one-sided or absent column costs one pass.
//! * **The output order is fixed.** Step 1 and 2 keep the other rows in
//!   their order; step 3 writes the rows without `v` first, then every
//!   lower bound × every upper bound, lower-major. The enumerator code
//!   generator emits bounds and guards in this order, so enumerator ASTs,
//!   model JSON and check witnesses depend on it.

use crate::constraint::{canonicalize, Canon, Constraint, ConstraintKind};
use crate::expr::{term, LinExpr};
use crate::{PolyError, Result};
use std::ops::Range;

/// A row's kind and the hash of its coefficients; the hash lets
/// deduplication and the redundancy filter skip most row compares.
#[derive(Clone, Copy)]
struct Meta {
    kind: ConstraintKind,
    hash: u64,
}

/// A conjunction of constraints as one flat row-major matrix (see the
/// module docs for its layout and invariants).
pub(crate) struct Matrix {
    width: usize,
    rows: Vec<i64>,
    meta: Vec<Meta>,
    next_rows: Vec<i64>,
    next_meta: Vec<Meta>,
    empty: bool,
    /// Rows canonical and distinct (see the module docs).
    canonical: bool,
    /// No row implied by one with the same coefficients.
    irredundant: bool,
}

impl Matrix {
    /// An empty system of `width` columns with room for `capacity` rows
    /// in each buffer pair.
    fn new(width: usize, capacity: usize) -> Matrix {
        let capacity = capacity.max(MIN_ROWS);
        let cells = capacity * (width + 1);
        Matrix {
            width,
            rows: Vec::with_capacity(cells),
            meta: Vec::with_capacity(capacity),
            next_rows: Vec::with_capacity(cells),
            next_meta: Vec::with_capacity(capacity),
            empty: false,
            canonical: false,
            irredundant: false,
        }
    }

    /// `constraints` (each of width `width`) loaded raw, in order.
    pub(crate) fn from_constraints(width: usize, constraints: &[Constraint]) -> Matrix {
        let mut m = Matrix::new(width, constraints.len());
        for c in constraints {
            m.push_raw(c.kind, &c.expr.coeffs, c.expr.konst);
        }
        m
    }

    fn stride(&self) -> usize {
        self.width + 1
    }

    /// Was the system found to be empty?
    pub(crate) fn is_empty(&self) -> bool {
        self.empty
    }

    /// Mark the system empty, dropping its rows.
    fn set_empty(&mut self) {
        self.rows.clear();
        self.meta.clear();
        self.empty = true;
    }

    /// Append a row as given.
    fn push_raw(&mut self, kind: ConstraintKind, coeffs: &[i64], konst: i64) {
        debug_assert_eq!(coeffs.len(), self.width, "constraint width mismatch");
        self.rows.extend_from_slice(coeffs);
        self.rows.push(konst);
        self.meta.push(Meta {
            kind,
            hash: hash(coeffs),
        });
    }

    /// Append a row the way [`crate::Polyhedron::add_constraint`] does:
    /// `fill` writes its coefficients and constant into a zeroed row,
    /// which is then canonicalised; a trivially true row or a copy of an
    /// earlier one is dropped, a trivially false one empties the system.
    pub(crate) fn add(&mut self, kind: ConstraintKind, fill: impl FnOnce(&mut [i64])) {
        if self.empty {
            return;
        }
        let start = self.rows.len();
        self.rows.resize(start + self.stride(), 0);
        fill(&mut self.rows[start..]);
        self.irredundant = false;
        if !keep_last(&mut self.rows, &mut self.meta, self.width, kind) {
            self.set_empty();
        }
    }

    /// Index of the first equality whose coefficient on `var` passes `pick`.
    fn find_eq(&self, var: usize, pick: impl Fn(i64) -> bool) -> Option<usize> {
        let s = self.stride();
        (0..self.meta.len())
            .find(|&i| self.meta[i].kind == ConstraintKind::Eq && pick(self.rows[i * s + var]))
    }

    /// Eliminate column `var`, which stays in place as zeros. Returns
    /// whether the projection is integer-exact; [`Matrix::is_empty`] tells
    /// whether it found the system empty.
    pub(crate) fn eliminate(&mut self, var: usize) -> Result<bool> {
        if self.empty {
            return Ok(true);
        }
        debug_assert!(var < self.width);
        self.next_rows.clear();
        self.next_meta.clear();
        let mut exact = true;
        let feasible = if let Some(pos) = self.find_eq(var, |a| a == 1 || a == -1) {
            self.substitute(var, pos)?
        } else if let Some(pos) = self.find_eq(var, |a| a != 0) {
            exact = false;
            self.cancel(var, pos)?
        } else {
            self.pair_bounds(var, &mut exact)?
        };
        if feasible {
            std::mem::swap(&mut self.rows, &mut self.next_rows);
            std::mem::swap(&mut self.meta, &mut self.next_meta);
            self.canonical = true;
        } else {
            self.set_empty();
        }
        Ok(exact)
    }

    /// Step 1: substitute `var` through the unit equality at row `pos`
    /// into every other row. `false` if a row turned trivially false.
    fn substitute(&mut self, var: usize, pos: usize) -> Result<bool> {
        let eq = &self.rows[pos * self.stride()..][..self.stride()];
        let c = eq[var] as i128;
        // var = -c·(eq without var). Building that replacement overflows
        // on an i64::MIN entry, whether or not a row then needs it.
        if eq
            .iter()
            .enumerate()
            .any(|(j, &e)| j != var && e == i64::MIN)
        {
            return Err(PolyError::Overflow);
        }
        self.combine_with_eq(var, pos, |j, x, e, d| {
            if j == var {
                Ok(0)
            } else {
                term(x as i128 + term(-c * e as i128 * d as i128)? as i128)
            }
        })
    }

    /// Step 2: cancel `var` from every other row with the non-unit
    /// equality at row `pos`. `false` if a row turned trivially false.
    fn cancel(&mut self, var: usize, pos: usize) -> Result<bool> {
        let c = self.rows[pos * self.stride() + var];
        let scale = c.abs() as i128;
        // |c|·row - sign(c)·d·eq cancels var.
        self.combine_with_eq(var, pos, |_, x, e, d| {
            term(scale * x as i128 + -(c.signum() * d) as i128 * e as i128)
        })
    }

    /// Steps 1 and 2: write every row but the equality at row `pos`, a row
    /// whose coefficient `d` on `var` is not zero as `comb(column, entry,
    /// the equality's entry, d)` per column; the result may be redundant.
    /// `false` if a row turned trivially false.
    fn combine_with_eq(
        &mut self,
        var: usize,
        pos: usize,
        comb: impl Fn(usize, i64, i64, i64) -> Result<i64>,
    ) -> Result<bool> {
        let (width, s) = (self.width, self.stride());
        self.irredundant = false;
        let eq = &self.rows[pos * s..][..s];
        let n = self.meta.len();
        self.next_rows.reserve((n - 1) * s);
        self.next_meta.reserve(n - 1);
        for (i, (row, meta)) in self.rows.chunks_exact(s).zip(&self.meta).enumerate() {
            if i == pos {
                continue;
            }
            let d = row[var];
            if d == 0 {
                self.next_rows.extend_from_slice(row);
            } else {
                for (j, (&x, &e)) in row.iter().zip(eq).enumerate() {
                    self.next_rows.push(comb(j, x, e, d)?);
                }
                debug_assert_eq!(self.next_rows[self.next_rows.len() - s + var], 0);
            }
            if !keep_last(&mut self.next_rows, &mut self.next_meta, width, meta.kind) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Step 3: keep the rows without `var`, then pair every lower bound
    /// with every upper bound. Clears `exact` at a pair with two non-unit
    /// coefficients. `false` if a row turned trivially false. Canonical
    /// rows are copied as they are (see the module docs).
    fn pair_bounds(&mut self, var: usize, exact: &mut bool) -> Result<bool> {
        let (width, s) = (self.width, self.stride());
        let coeff = |row: &[i64]| row[var];
        let (mut rest, mut lowers, mut uppers) = (0, 0, 0);
        for row in self.rows.chunks_exact(s) {
            match coeff(row) {
                0 => rest += 1,
                a if a > 0 => lowers += 1,
                _ => uppers += 1,
            }
        }
        let n_out = rest + lowers * uppers;
        self.next_rows.reserve(n_out * s);
        self.next_meta.reserve(n_out);
        for (row, meta) in self.rows.chunks_exact(s).zip(&self.meta) {
            if coeff(row) == 0 {
                self.next_rows.extend_from_slice(row);
                if self.canonical {
                    self.next_meta.push(*meta);
                } else if !keep_last(&mut self.next_rows, &mut self.next_meta, width, meta.kind) {
                    return Ok(false);
                }
            }
        }
        let kept_rest = self.next_meta.len();
        for lo in self.rows.chunks_exact(s).filter(|r| coeff(r) > 0) {
            let a = coeff(lo);
            for up in self.rows.chunks_exact(s).filter(|r| coeff(r) < 0) {
                let b = -coeff(up);
                if a != 1 && b != 1 {
                    *exact = false;
                }
                // b·(a·v + l) + a·(-b·v + u) = b·l + a·u >= 0
                for (&l, &u) in lo.iter().zip(up) {
                    self.next_rows
                        .push(term(b as i128 * l as i128 + a as i128 * u as i128)?);
                }
                debug_assert_eq!(self.next_rows[self.next_rows.len() - s + var], 0);
                let kind = ConstraintKind::GeZero;
                if !keep_last(&mut self.next_rows, &mut self.next_meta, width, kind) {
                    return Ok(false);
                }
            }
        }
        if self.next_meta.len() > kept_rest || !self.irredundant {
            drop_redundant(&mut self.next_rows, &mut self.next_meta, width);
        }
        self.irredundant = true;
        Ok(true)
    }

    /// The live column whose elimination pairs the fewest bounds (the
    /// classic FM heuristic): free if an equality mentions it, else
    /// lowers × uppers. The first minimum wins.
    fn cheapest_var(&self, live: &Live) -> usize {
        let s = self.stride();
        let mut best = 0;
        let mut best_cost = usize::MAX;
        for v in (0..self.width).filter(|&v| live.get(v)) {
            let (mut lo, mut hi) = (0usize, 0usize);
            let mut in_eq = false;
            for (row, meta) in self.rows.chunks_exact(s).zip(&self.meta) {
                let a = row[v];
                if a == 0 {
                    continue;
                }
                if meta.kind == ConstraintKind::Eq {
                    in_eq = true;
                    break;
                }
                if a > 0 {
                    lo += 1;
                } else {
                    hi += 1;
                }
            }
            let cost = if in_eq { 0 } else { lo * hi };
            if cost < best_cost {
                best_cost = cost;
                best = v;
                if cost == 0 {
                    break;
                }
            }
        }
        best
    }

    /// Eliminate *all* columns, cheapest first, and report whether a
    /// contradiction appeared: `true` means definitely empty (rationally
    /// infeasible or an integer gcd contradiction), `false` "possibly
    /// non-empty".
    pub(crate) fn eliminate_all(mut self) -> Result<bool> {
        let mut live = Live::all(self.width);
        for _ in 0..self.width {
            if self.empty {
                break;
            }
            let var = self.cheapest_var(&live);
            self.eliminate(var)?;
            live.kill(var);
        }
        Ok(self.empty)
    }

    /// The rows as `(kind, coefficients, constant)`, in order; dead
    /// columns are zero.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (ConstraintKind, &[i64], i64)> {
        let width = self.width;
        self.rows
            .chunks_exact(self.stride())
            .zip(&self.meta)
            .map(move |(row, meta)| (meta.kind, &row[..width], row[width]))
    }

    /// The rows as constraints, without the (dead) columns in `dead`.
    pub(crate) fn to_constraints(&self, dead: Range<usize>) -> Vec<Constraint> {
        let to_constraint = |(kind, row, konst): (_, &[i64], _)| {
            debug_assert!(row[dead.clone()].iter().all(|&c| c == 0));
            let mut coeffs = Vec::with_capacity(self.width - dead.len());
            coeffs.extend_from_slice(&row[..dead.start]);
            coeffs.extend_from_slice(&row[dead.end..]);
            let expr = LinExpr { coeffs, konst };
            Constraint { kind, expr }
        };
        self.rows().map(to_constraint).collect()
    }
}

/// Rows each buffer has room for from the start: enough that an
/// emptiness test on a two-copy pair system never grows a buffer.
const MIN_ROWS: usize = 64;

/// Canonicalise the row just written at the end of `rows` and keep it
/// unless it is trivially true or equals an earlier row. `false` if it is
/// trivially false.
fn keep_last(
    rows: &mut Vec<i64>,
    meta: &mut Vec<Meta>,
    width: usize,
    kind: ConstraintKind,
) -> bool {
    let s = width + 1;
    let start = rows.len() - s;
    let (coeffs, konst) = rows[start..].split_at_mut(width);
    match canonicalize(kind, coeffs, &mut konst[0]) {
        Canon::False => return false,
        Canon::True => {
            rows.truncate(start);
            return true;
        }
        Canon::Kept => {}
    }
    let (old, new) = rows.split_at(start);
    let h = hash(&new[..width]);
    let seen = old
        .chunks_exact(s)
        .zip(meta.iter())
        .any(|(row, m)| m.hash == h && m.kind == kind && row == new);
    if seen {
        rows.truncate(start);
    } else {
        meta.push(Meta { kind, hash: h });
    }
    true
}

/// Drop every inequality implied by another with the same coefficients
/// and a smaller constant, compacting in place. The smallest constant of
/// such a group is always kept, so a row is implied iff a kept row before
/// it or any row after it beats it.
fn drop_redundant(rows: &mut Vec<i64>, meta: &mut Vec<Meta>, width: usize) {
    let s = width + 1;
    let n = meta.len();
    let mut kept = 0;
    for i in 0..n {
        let m = meta[i];
        let implied = m.kind == ConstraintKind::GeZero && {
            let row = &rows[i * s..][..s];
            (0..kept).chain(i + 1..n).any(|j| {
                let other = &rows[j * s..][..s];
                meta[j].kind == ConstraintKind::GeZero
                    && meta[j].hash == m.hash
                    && other[width] < row[width]
                    && other[..width] == row[..width]
            })
        };
        if !implied {
            rows.copy_within(i * s..(i + 1) * s, kept * s);
            meta[kept] = m;
            kept += 1;
        }
    }
    rows.truncate(kept * s);
    meta.truncate(kept);
}

/// FxHash-style hash of a row's coefficients.
fn hash(coeffs: &[i64]) -> u64 {
    coeffs.iter().fold(0u64, |h, &c| {
        (h.rotate_left(5) ^ c as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
    })
}

/// The columns an emptiness test has not eliminated yet, one bit each;
/// a system wider than 128 columns keeps the rest on the heap.
struct Live {
    bits: u128,
    wide: Vec<bool>,
}

impl Live {
    fn all(width: usize) -> Live {
        Live {
            bits: if width >= 128 {
                !0
            } else {
                (1u128 << width) - 1
            },
            wide: vec![true; width.saturating_sub(128)],
        }
    }

    fn get(&self, v: usize) -> bool {
        match v.checked_sub(128) {
            None => self.bits >> v & 1 == 1,
            Some(w) => self.wide[w],
        }
    }

    fn kill(&mut self, v: usize) {
        match v.checked_sub(128) {
            None => self.bits &= !(1u128 << v),
            Some(w) => self.wide[w] = false,
        }
    }
}

/// Eliminate the columns `vars`, in order, from `constraints` (each of
/// width `width`, loaded as given) on one matrix. Returns the constraints
/// (width `width`, the `vars` columns zero), whether every step was
/// integer-exact, and whether the system was detected to be empty.
pub fn eliminate(
    constraints: &[Constraint],
    width: usize,
    vars: &[usize],
) -> Result<(Vec<Constraint>, bool, bool)> {
    let mut m = Matrix::from_constraints(width, constraints);
    let mut exact = true;
    for &var in vars {
        exact &= m.eliminate(var)?;
    }
    Ok((m.to_constraints(0..0), exact, m.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;

    fn ge(coeffs: Vec<i64>, k: i64) -> Constraint {
        Constraint::ge0(LinExpr { coeffs, konst: k })
    }
    fn eq(coeffs: Vec<i64>, k: i64) -> Constraint {
        Constraint::eq(LinExpr { coeffs, konst: k })
    }

    #[test]
    fn eliminate_with_unit_equality_is_exact() {
        // v0 == v1 + 2 and 0 <= v0 <= 5  --eliminate v0-->  -2 <= v1 <= 3
        let cs = vec![eq(vec![1, -1], -2), ge(vec![1, 0], 0), ge(vec![-1, 0], 5)];
        let (out, exact, empty) = eliminate(&cs, 2, &[0]).unwrap();
        assert!(exact);
        assert!(!empty);
        // v1 + 2 >= 0 and 3 - v1 >= 0
        assert!(out
            .iter()
            .any(|c| c.expr.coeffs == vec![0, 1] && c.expr.konst == 2));
        assert!(out
            .iter()
            .any(|c| c.expr.coeffs == vec![0, -1] && c.expr.konst == 3));
    }

    #[test]
    fn eliminate_pairs_bounds() {
        // x >= y and x <= 4 --eliminate x--> y <= 4
        let cs = vec![ge(vec![1, -1], 0), ge(vec![-1, 0], 4)];
        let (out, exact, empty) = eliminate(&cs, 2, &[0]).unwrap();
        assert!(exact);
        assert!(!empty);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].expr.coeffs, vec![0, -1]);
        assert_eq!(out[0].expr.konst, 4);
    }

    #[test]
    fn detects_empty_after_elimination() {
        // x >= 5 and x <= 2 --eliminate x--> -3 >= 0: empty.
        let cs = vec![ge(vec![1], -5), ge(vec![-1], 2)];
        let (_, _, empty) = eliminate(&cs, 1, &[0]).unwrap();
        assert!(empty);
    }

    #[test]
    fn non_unit_coefficients_flag_inexact() {
        // 2x <= 7 and 3x >= 2: both coefficients non-unit.
        let cs = vec![ge(vec![-2], 7), ge(vec![3], -2)];
        let (_, exact, empty) = eliminate(&cs, 1, &[0]).unwrap();
        assert!(!exact);
        assert!(!empty);
    }

    #[test]
    fn unit_coefficient_on_one_side_stays_exact() {
        // x >= 0 (unit) and 2x <= n (non-unit): exact since one side is unit.
        let cs = vec![ge(vec![1, 0], 0), ge(vec![-2, 1], 0)];
        let (out, exact, _) = eliminate(&cs, 2, &[0]).unwrap();
        assert!(exact);
        // n >= 0 remains.
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn redundant_bounds_dropped() {
        // Eliminating the unmentioned column y keeps only the tightest of
        // three lower bounds on x: x - 5 >= 0 implies the others.
        let cs = vec![ge(vec![1, 0], -2), ge(vec![1, 0], -5), ge(vec![1, 0], 0)];
        let (out, _, _) = eliminate(&cs, 2, &[1]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].expr.konst, -5);
    }

    #[test]
    fn cheapest_var_prefers_equalities() {
        let cs = vec![eq(vec![0, 1], 0), ge(vec![1, 0], 0), ge(vec![-1, 0], 5)];
        let m = Matrix::from_constraints(2, &cs);
        assert_eq!(m.cheapest_var(&Live::all(2)), 1);
    }

    #[test]
    fn cheapest_var_takes_the_first_minimum() {
        // Columns 0 and 1 both pair one lower with one upper bound.
        let cs = vec![
            ge(vec![1, 1, 0], 0),
            ge(vec![-1, 0, 1], 0),
            ge(vec![0, -1, 1], 0),
            ge(vec![0, 0, 1], 0),
            ge(vec![0, 0, -1], 9),
            ge(vec![0, 0, 1], 4),
        ];
        let m = Matrix::from_constraints(3, &cs);
        assert_eq!(m.cheapest_var(&Live::all(3)), 0);
    }

    #[test]
    fn cheapest_var_skips_dead_columns() {
        // Column 0 is dead (and zero); of the live ones, column 2 is free.
        let cs = vec![ge(vec![0, 1, 0], 0), ge(vec![0, -1, 0], 5)];
        let m = Matrix::from_constraints(3, &cs);
        let mut live = Live::all(3);
        live.kill(0);
        assert_eq!(m.cheapest_var(&live), 2);
    }

    #[test]
    fn wide_systems_track_every_column() {
        let mut live = Live::all(130);
        assert!(live.get(0) && live.get(127) && live.get(129));
        live.kill(127);
        live.kill(129);
        assert!(!live.get(127) && !live.get(129) && live.get(128));
    }
}
