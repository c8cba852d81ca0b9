//! Polyhedral code generation: set → loop-nest AST → row-range enumeration.
//!
//! This is the Rust counterpart of the paper's §6: instead of enumerating
//! every element of an access map's image, we generate an AST that scans
//! the image **row by row** (the array's innermost dimension is enumerated
//! as `[lexmin, lexmax]` ranges), exactly once per convex piece.
//!
//! The AST mirrors isl's: `for` loops and guards are the only control
//! flow; every bound is a closed-form expression built from affine forms,
//! floor/ceil division, `min` and `max` (§6.1). Where isl would emit LLVM
//! IR and let the optimiser hoist what is loop-invariant, we keep the AST
//! and run it in two stages: **specialise** each piece for the concrete
//! parameter vector (parameters folded into one constant per guard and
//! bound, guards moved to the loop level that binds their last dimension,
//! parameter-only guards decided once), then **scan** the specialised
//! nest. A nest whose innermost loop changes neither the row bounds nor a
//! guard is emitted in closed form, as one [`RowRun`]. The callback
//! interface (§6.2, one invocation per element range) is the same.
//!
//! Correctness note: outer loop bounds come from Fourier–Motzkin
//! projections, which may over-approximate; we therefore re-check all
//! constraints not involving the innermost dimension as **guards** before
//! emitting a row range. Emission is thus exact per convex piece even when
//! the projections are not.

use crate::constraint::{Constraint, ConstraintKind};
use crate::expr::{cdiv, fdiv, LinExpr};
use crate::fm;
use crate::polyhedron::{DimBounds, Polyhedron};
use crate::set::Set;
use crate::{PolyError, Result};
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;

/// A closed-form bound expression: `max`/`min` over floor/ceil divisions of
/// affine forms, the leaves of isl's expression ASTs that we need.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AstExpr {
    /// An integer constant.
    Const(i64),
    /// `ceil(expr / divisor)` if `ceil`, else `floor(expr / divisor)`.
    /// The affine `expr` ranges over `[dims ++ params]` of the original
    /// set; coefficients on dimensions at or beyond the current loop depth
    /// are zero by construction.
    Div {
        expr: LinExpr,
        divisor: i64,
        ceil: bool,
    },
    /// Maximum of the operands (used for lower bounds).
    Max(Vec<AstExpr>),
    /// Minimum of the operands (used for upper bounds).
    Min(Vec<AstExpr>),
}

impl AstExpr {
    /// Evaluate with a full `[dims ++ params]` assignment.
    pub fn eval(&self, values: &[i64]) -> i64 {
        match self {
            AstExpr::Const(k) => *k,
            AstExpr::Div {
                expr,
                divisor,
                ceil,
            } => {
                let v = expr.eval(values);
                let r = if *ceil {
                    cdiv(v, *divisor as i128)
                } else {
                    fdiv(v, *divisor as i128)
                };
                r as i64
            }
            AstExpr::Max(es) => es.iter().map(|e| e.eval(values)).max().unwrap_or(i64::MIN),
            AstExpr::Min(es) => es.iter().map(|e| e.eval(values)).min().unwrap_or(i64::MAX),
        }
    }

    fn render(&self, names: &[String]) -> String {
        match self {
            AstExpr::Const(k) => k.to_string(),
            AstExpr::Div {
                expr,
                divisor,
                ceil,
            } => {
                let inner = expr.display_with(names).to_string();
                if *divisor == 1 {
                    inner
                } else if *ceil {
                    format!("ceild({inner}, {divisor})")
                } else {
                    format!("floord({inner}, {divisor})")
                }
            }
            AstExpr::Max(es) => {
                if es.len() == 1 {
                    es[0].render(names)
                } else {
                    format!(
                        "max({})",
                        es.iter()
                            .map(|e| e.render(names))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                }
            }
            AstExpr::Min(es) => {
                if es.len() == 1 {
                    es[0].render(names)
                } else {
                    format!(
                        "min({})",
                        es.iter()
                            .map(|e| e.render(names))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                }
            }
        }
    }
}

/// One `for` loop of a generated nest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoopSpec {
    /// Dimension index this loop scans.
    pub dim: usize,
    /// Inclusive lower bound.
    pub lb: AstExpr,
    /// Inclusive upper bound.
    pub ub: AstExpr,
}

/// The scan program for one convex piece: a perfect loop nest over all but
/// the innermost dimension, guards, and the innermost row range.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PieceNest {
    /// Loops over dimensions `0 .. n_dims-1` (outermost first).
    pub loops: Vec<LoopSpec>,
    /// Constraints of the piece not involving the innermost dimension;
    /// re-checked before emission so emission is exact per piece.
    pub guards: Vec<Constraint>,
    /// Inclusive bounds of the innermost dimension.
    pub row_lb: AstExpr,
    /// Inclusive upper bound of the innermost dimension.
    pub row_ub: AstExpr,
}

impl PieceNest {
    /// The dimensions the piece leaves without a lower or an upper bound,
    /// outermost first. A nest can only be scanned as far as the first.
    fn open_dims(&self) -> impl Iterator<Item = usize> + '_ {
        let open = |e: &AstExpr| matches!(e, AstExpr::Max(es) | AstExpr::Min(es) if es.is_empty());
        let loops = self.loops.iter().map(|l| (&l.lb, &l.ub));
        loops
            .chain([(&self.row_lb, &self.row_ub)])
            .enumerate()
            .filter(move |(_, (lb, ub))| open(lb) || open(ub))
            .map(|(dim, _)| dim)
    }
}

/// A row-range emitted by an [`Enumerator`]: the coordinates of all outer
/// dimensions plus an inclusive `[lo, hi]` range of the innermost one.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RowRange {
    /// Values of dimensions `0 .. n_dims-1`.
    pub prefix: Vec<i64>,
    /// First element of the row range (inclusive).
    pub lo: i64,
    /// Last element of the row range (inclusive).
    pub hi: i64,
}

/// `count` consecutive rows with the same inclusive `[lo, hi]` range: the
/// row at `prefix` and the `count - 1` after it along the last prefix
/// dimension. A rectangular piece is a single run; a 1-D set has an
/// empty prefix and `count == 1`.
#[derive(Debug, Clone, Copy)]
pub struct RowRun<'a> {
    /// Values of dimensions `0 .. n_dims-1` of the first row.
    pub prefix: &'a [i64],
    /// First element of every row of the run (inclusive).
    pub lo: i64,
    /// Last element of every row of the run (inclusive).
    pub hi: i64,
    /// Number of rows, at least 1.
    pub count: u64,
}

/// A compiled enumerator for a set: one loop nest per convex piece.
///
/// This is the runtime-callable artifact of §6.2 — input: parameter values
/// (partition bounds, block dims, scalar kernel arguments); output: one
/// callback invocation per element range. Ranges from different convex
/// pieces may overlap (the consumer tolerates or merges them, see
/// [`merge_rows`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Enumerator {
    n_dims: usize,
    n_params: usize,
    pieces: Vec<PieceNest>,
    exact: bool,
}

impl Enumerator {
    /// Compile a set into an enumerator.
    ///
    /// Fails with [`PolyError::Unbounded`] if some dimension of the set has
    /// no lower or upper bound (such a set cannot be scanned).
    pub fn build(set: &Set) -> Result<Enumerator> {
        let n = set.n_dims();
        assert!(n >= 1, "cannot enumerate a 0-dimensional set");
        let mut pieces = Vec::with_capacity(set.pieces().len());
        for p in set.pieces() {
            let nest = Self::build_piece(p, n)?;
            if let Some(dim) = nest.open_dims().last() {
                return Err(PolyError::Unbounded { dim });
            }
            pieces.push(nest);
        }
        Ok(Enumerator {
            n_dims: n,
            n_params: set.n_params(),
            pieces,
            exact: set.is_exact(),
        })
    }

    /// The nest of one convex piece. A dimension the piece leaves without
    /// a lower or upper bound gets an empty `max` or `min` there
    /// ([`PieceNest::open_dims`]).
    ///
    /// One FM matrix eliminates the columns innermost first; loop `k`'s
    /// bounds are read off its rows once column `k + 1` is gone. Dead
    /// columns stay as zeros, so every bound is already over the full
    /// `[dims ++ params]` width. Loops outside an empty projection are
    /// impossible ones.
    fn build_piece(p: &Polyhedron, n: usize) -> Result<PieceNest> {
        let mut m = fm::Matrix::from_constraints(p.width(), p.constraints());
        let inner = DimBounds::of(n - 1, m.rows());
        let guards: Vec<Constraint> = p
            .constraints()
            .iter()
            .filter(|c| c.expr.coeffs[n - 1] == 0)
            .cloned()
            .collect();
        let mut loops = Vec::with_capacity(n - 1);
        for k in (0..n - 1).rev() {
            m.eliminate(k + 1)?;
            let (lb, ub) = if p.is_marked_empty() || m.is_empty() {
                (AstExpr::Const(1), AstExpr::Const(0))
            } else {
                let b = DimBounds::of(k, m.rows());
                (
                    bounds_to_expr(b.lower, true),
                    bounds_to_expr(b.upper, false),
                )
            };
            loops.push(LoopSpec { dim: k, lb, ub });
        }
        loops.reverse();
        Ok(PieceNest {
            loops,
            guards,
            row_lb: bounds_to_expr(inner.lower, true),
            row_ub: bounds_to_expr(inner.upper, false),
        })
    }

    /// Number of set dimensions (array rank).
    pub fn n_dims(&self) -> usize {
        self.n_dims
    }

    /// Number of parameters the enumerator expects.
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// Whether the scanned set was exact.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// The per-piece loop nests (for inspection / rendering).
    pub fn pieces(&self) -> &[PieceNest] {
        &self.pieces
    }

    /// Run the enumerator: invoke `f` once per [`RowRun`]. Each piece is
    /// specialised for `params` first (see the module docs), so a piece
    /// whose parameter-only guards fail costs nothing and a rectangular
    /// piece is one invocation however many rows it has.
    pub fn for_each_run(&self, params: &[i64], f: &mut dyn FnMut(RowRun<'_>)) {
        assert_eq!(params.len(), self.n_params, "parameter count mismatch");
        let mut dims = vec![0i64; self.n_dims - 1];
        for piece in &self.pieces {
            if let Some(nest) = Specialised::new(piece, self.n_dims, params) {
                let _: ControlFlow<()> = nest.scan(0, &mut dims, &mut |run| {
                    f(run);
                    ControlFlow::Continue(())
                });
            }
        }
    }

    /// Run the enumerator: invoke `f(prefix, lo, hi)` once per row range
    /// (inclusive bounds), in lexicographic order within each piece.
    pub fn for_each_row(&self, params: &[i64], f: &mut dyn FnMut(&[i64], i64, i64)) {
        let mut prefix = vec![0i64; self.n_dims - 1];
        self.for_each_run(params, &mut |run| {
            prefix.copy_from_slice(run.prefix);
            for _ in 0..run.count {
                f(&prefix, run.lo, run.hi);
                if let Some(last) = prefix.last_mut() {
                    *last += 1;
                }
            }
        });
    }

    /// Collect all row ranges, merged and deduplicated across pieces
    /// (sorted lexicographically). Convenient for tests and one-shot use;
    /// hot paths should prefer [`Enumerator::for_each_row`].
    pub fn rows_merged(&self, params: &[i64]) -> Vec<RowRange> {
        let mut rows = Vec::new();
        self.for_each_row(params, &mut |prefix, lo, hi| {
            rows.push(RowRange {
                prefix: prefix.to_vec(),
                lo,
                hi,
            });
        });
        merge_rows(rows)
    }

    /// Render the generated program in pseudo-C, isl-AST style.
    pub fn to_pseudo_c(&self, dim_names: &[String], param_names: &[String]) -> String {
        let mut names: Vec<String> = dim_names.to_vec();
        names.extend(param_names.iter().cloned());
        let mut out = String::new();
        for (pi, piece) in self.pieces.iter().enumerate() {
            if self.pieces.len() > 1 {
                out.push_str(&format!("// piece {pi}\n"));
            }
            let mut indent = 0usize;
            for l in &piece.loops {
                let var = &names[l.dim];
                out.push_str(&"  ".repeat(indent));
                out.push_str(&format!(
                    "for (int {var} = {}; {var} <= {}; {var}++)\n",
                    l.lb.render(&names),
                    l.ub.render(&names)
                ));
                indent += 1;
            }
            if !piece.guards.is_empty() {
                out.push_str(&"  ".repeat(indent));
                let conds: Vec<String> = piece
                    .guards
                    .iter()
                    .map(|g| g.display_with(&names).to_string())
                    .collect();
                out.push_str(&format!("if ({})\n", conds.join(" && ")));
                indent += 1;
            }
            out.push_str(&"  ".repeat(indent));
            out.push_str(&format!(
                "emit_row({}..={});\n",
                piece.row_lb.render(&names),
                piece.row_ub.render(&names)
            ));
        }
        out
    }
}

/// An affine form with the parameters folded into the constant: only the
/// coefficients of the loop dimensions it mentions stay symbolic.
struct Affine {
    /// Coefficients of dimensions `0..depth`; the last one is non-zero.
    dims: Vec<i128>,
    konst: i128,
}

impl Affine {
    fn new(mut dims: Vec<i128>, konst: i128) -> Affine {
        while dims.last() == Some(&0) {
            dims.pop();
        }
        Affine { dims, konst }
    }

    /// Fold `params` into `expr`. The innermost dimension never occurs in
    /// a guard or bound, so only the `n_dims - 1` loop dimensions count.
    fn fold(expr: &LinExpr, n_dims: usize, params: &[i64]) -> Affine {
        let (dims, on_params) = expr.coeffs.split_at(n_dims);
        let mut konst = expr.konst as i128;
        for (c, p) in on_params.iter().zip(params) {
            konst += (*c as i128) * (*p as i128);
        }
        let loop_dims = dims[..n_dims - 1].iter().map(|&c| c as i128);
        Affine::new(loop_dims.collect(), konst)
    }

    /// Number of leading loop dimensions that must be bound to evaluate.
    fn depth(&self) -> usize {
        self.dims.len()
    }

    fn eval(&self, dims: &[i64]) -> i128 {
        let mut acc = self.konst;
        for (c, v) in self.dims.iter().zip(dims) {
            acc += c * (*v as i128);
        }
        acc
    }
}

/// An [`AstExpr`] specialised for one parameter vector: parameter-only
/// leaves are constants, and each `max`/`min` keeps one constant operand.
enum Bound {
    Const(i64),
    Div {
        affine: Affine,
        divisor: i128,
        ceil: bool,
    },
    Max(Vec<Bound>),
    Min(Vec<Bound>),
}

impl Bound {
    fn new(e: &AstExpr, n_dims: usize, params: &[i64]) -> Bound {
        let fold_all = |es: &[AstExpr]| es.iter().map(|e| Bound::new(e, n_dims, params)).collect();
        match e {
            AstExpr::Const(k) => Bound::Const(*k),
            AstExpr::Div {
                expr,
                divisor,
                ceil,
            } => Bound::div(Affine::fold(expr, n_dims, params), *divisor as i128, *ceil),
            AstExpr::Max(es) => Bound::extremum(fold_all(es), true),
            AstExpr::Min(es) => Bound::extremum(fold_all(es), false),
        }
    }

    /// `ceil(affine / divisor)` or `floor(affine / divisor)`, `divisor > 0`.
    fn div(affine: Affine, divisor: i128, ceil: bool) -> Bound {
        let div = Bound::Div {
            affine,
            divisor,
            ceil,
        };
        if div.depth() == 0 {
            Bound::Const(div.eval(&[]))
        } else {
            div
        }
    }

    /// `max` or `min` of `operands`, constants folded into one operand
    /// and nested extrema of the same kind flattened.
    fn extremum(operands: Vec<Bound>, max: bool) -> Bound {
        let identity = if max { i64::MIN } else { i64::MAX };
        let mut konst = identity;
        let mut symbolic = Vec::new();
        let mut pending = operands;
        while let Some(b) = pending.pop() {
            match b {
                Bound::Const(k) if max => konst = konst.max(k),
                Bound::Const(k) => konst = konst.min(k),
                Bound::Max(inner) if max => pending.extend(inner),
                Bound::Min(inner) if !max => pending.extend(inner),
                b => symbolic.push(b),
            }
        }
        if symbolic.is_empty() {
            return Bound::Const(konst);
        }
        if konst != identity {
            symbolic.push(Bound::Const(konst));
        }
        if max {
            Bound::Max(symbolic)
        } else {
            Bound::Min(symbolic)
        }
    }

    fn depth(&self) -> usize {
        match self {
            Bound::Const(_) => 0,
            Bound::Div { affine, .. } => affine.depth(),
            Bound::Max(bs) | Bound::Min(bs) => bs.iter().map(Bound::depth).max().unwrap_or(0),
        }
    }

    fn eval(&self, dims: &[i64]) -> i64 {
        match self {
            Bound::Const(k) => *k,
            Bound::Div {
                affine,
                divisor,
                ceil,
            } => {
                let v = affine.eval(dims);
                let q = match (*divisor, *ceil) {
                    (1, _) => v,
                    (d, true) => cdiv(v, d),
                    (d, false) => fdiv(v, d),
                };
                q.clamp(i64::MIN as i128, i64::MAX as i128) as i64
            }
            Bound::Max(bs) => bs.iter().map(|b| b.eval(dims)).max().unwrap_or(i64::MIN),
            Bound::Min(bs) => bs.iter().map(|b| b.eval(dims)).min().unwrap_or(i64::MAX),
        }
    }
}

/// A [`PieceNest`] specialised for one parameter vector — the transient
/// second stage of the scan. What isl gets from LLVM's loop-invariant code
/// motion we do here by hand: parameters are one constant per bound,
/// parameter-only guards are decided once, and a guard `c·x_k + rest >= 0`
/// whose last dimension is `x_k` becomes a bound of the loop over `x_k`
/// (`x_k >= ceil(-rest / c)` or `x_k <= floor(rest / -c)`), so nothing is
/// left to check per row.
struct Specialised {
    /// `(lb, ub)` of the loop over dimension `k`, outermost first.
    loops: Vec<(Bound, Bound)>,
    row_lb: Bound,
    row_ub: Bound,
    /// The row bounds do not mention the innermost loop variable: all its
    /// rows are the same `[lo, hi]`, one [`RowRun`].
    uniform_rows: bool,
}

impl Specialised {
    /// `None` if a parameter-only guard fails: the piece is empty.
    fn new(piece: &PieceNest, n_dims: usize, params: &[i64]) -> Option<Specialised> {
        let n_loops = piece.loops.len();
        assert!(
            piece.loops.iter().enumerate().all(|(k, l)| l.dim == k),
            "loop k of a piece nest scans dimension k"
        );
        let bound = |e: &AstExpr| Bound::new(e, n_dims, params);
        let mut lowers: Vec<Vec<Bound>> = piece.loops.iter().map(|l| vec![bound(&l.lb)]).collect();
        let mut uppers: Vec<Vec<Bound>> = piece.loops.iter().map(|l| vec![bound(&l.ub)]).collect();
        for g in &piece.guards {
            let affine = Affine::fold(&g.expr, n_dims, params);
            let eq = g.kind == ConstraintKind::Eq;
            let Some(&c) = affine.dims.last() else {
                if affine.konst < 0 || (eq && affine.konst != 0) {
                    return None;
                }
                continue;
            };
            let k = affine.depth() - 1;
            // c·x_k + rest >= 0  <=>  x_k >= ceil(-rest / c) if c > 0,
            // x_k <= floor(rest / -c) if c < 0; an equality is both.
            let side = |ceil| {
                let sign = -c.signum();
                let rest = affine.dims[..k].iter().map(|d| sign * d).collect();
                Bound::div(Affine::new(rest, sign * affine.konst), c.abs(), ceil)
            };
            if c > 0 || eq {
                lowers[k].push(side(true));
            }
            if c < 0 || eq {
                uppers[k].push(side(false));
            }
        }
        let row_lb = bound(&piece.row_lb);
        let row_ub = bound(&piece.row_ub);
        Some(Specialised {
            loops: lowers
                .into_iter()
                .zip(uppers)
                .map(|(l, u)| (Bound::extremum(l, true), Bound::extremum(u, false)))
                .collect(),
            uniform_rows: n_loops > 0 && row_lb.depth() < n_loops && row_ub.depth() < n_loops,
            row_lb,
            row_ub,
        })
    }

    /// Scan loop `level` and everything nested in it, until `f` breaks;
    /// `dims[..level]` are bound.
    fn scan<B>(
        &self,
        level: usize,
        dims: &mut [i64],
        f: &mut dyn FnMut(RowRun<'_>) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let mut emit = |dims: &[i64], count: u64| {
            let (lo, hi) = (self.row_lb.eval(dims), self.row_ub.eval(dims));
            if lo > hi {
                return ControlFlow::Continue(());
            }
            f(RowRun {
                prefix: dims,
                lo,
                hi,
                count,
            })
        };
        let Some((lb, ub)) = self.loops.get(level) else {
            return emit(dims, 1);
        };
        let (lb, ub) = (lb.eval(dims), ub.eval(dims));
        if self.uniform_rows && level + 1 == self.loops.len() {
            if lb > ub {
                return ControlFlow::Continue(());
            }
            dims[level] = lb;
            return emit(dims, ub.abs_diff(lb).saturating_add(1));
        }
        for v in lb..=ub {
            dims[level] = v;
            self.scan(level + 1, dims, f)?;
        }
        ControlFlow::Continue(())
    }

    /// Does the scan get as far as dimension `dim`: is there a prefix
    /// `dims[..dim]` inside all the loops around it?
    fn reaches(mut self, dim: usize) -> bool {
        self.loops.truncate(dim);
        let Some((row_lb, row_ub)) = self.loops.pop() else {
            return true;
        };
        // The nest around `dim`: the ranges of loop `dim - 1` are its rows.
        let outer = Specialised {
            uniform_rows: false,
            row_lb,
            row_ub,
            ..self
        };
        outer
            .scan(0, &mut vec![0i64; dim - 1], &mut |_| ControlFlow::Break(()))
            .is_break()
    }
}

/// Visit the integer points of the parameter-free polyhedron `p`, at least
/// one-dimensional, in lexicographic order until `f` breaks: the piece's
/// nest is derived once and its rows are expanded element by element.
/// A dimension without bounds is an error only if the scan gets to it.
pub(crate) fn scan_points<B>(
    p: &Polyhedron,
    f: &mut dyn FnMut(&[i64]) -> ControlFlow<B>,
) -> Result<ControlFlow<B>> {
    let n = p.n_dims();
    let piece = Enumerator::build_piece(p, n)?;
    let Some(nest) = Specialised::new(&piece, n, &[]) else {
        return Ok(ControlFlow::Continue(()));
    };
    if let Some(dim) = piece.open_dims().next() {
        if nest.reaches(dim) {
            return Err(PolyError::Unbounded { dim });
        }
        return Ok(ControlFlow::Continue(()));
    }
    let mut point = vec![0i64; n];
    Ok(nest.scan(0, &mut vec![0i64; n - 1], &mut |run| {
        point[..n - 1].copy_from_slice(run.prefix);
        for _ in 0..run.count {
            for x in run.lo..=run.hi {
                point[n - 1] = x;
                f(&point)?;
            }
            if n > 1 {
                point[n - 2] += 1;
            }
        }
        ControlFlow::Continue(())
    }))
}

/// Turn a list of `(expr, divisor)` bounds into a single `Max`/`Min`
/// expression (`lower = true` → ceil divisions under `max`).
fn bounds_to_expr(bounds: Vec<(LinExpr, i64)>, lower: bool) -> AstExpr {
    let mut parts: Vec<AstExpr> = bounds
        .into_iter()
        .map(|(expr, divisor)| AstExpr::Div {
            expr,
            divisor,
            ceil: lower,
        })
        .collect();
    if parts.len() == 1 {
        parts.pop().unwrap()
    } else if lower {
        AstExpr::Max(parts)
    } else {
        AstExpr::Min(parts)
    }
}

/// Merge row ranges: sort lexicographically by prefix then `lo`, and fuse
/// overlapping or adjacent ranges within the same prefix. The result
/// covers exactly the same elements.
pub fn merge_rows(mut rows: Vec<RowRange>) -> Vec<RowRange> {
    rows.sort();
    let mut out: Vec<RowRange> = Vec::with_capacity(rows.len());
    for r in rows {
        if let Some(last) = out.last_mut() {
            if last.prefix == r.prefix && r.lo <= last.hi + 1 {
                last.hi = last.hi.max(r.hi);
                continue;
            }
        }
        out.push(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::Set;

    /// Check the enumerator against brute-force point enumeration.
    fn check_against_bruteforce(set: &Set, params: &[i64]) {
        let enumerator = Enumerator::build(set).unwrap();
        let mut from_rows = Vec::new();
        for r in enumerator.rows_merged(params) {
            for x in r.lo..=r.hi {
                let mut pt = r.prefix.clone();
                pt.push(x);
                from_rows.push(pt);
            }
        }
        from_rows.sort();
        from_rows.dedup();
        let expected = set.points_sorted(params);
        assert_eq!(from_rows, expected, "enumerator mismatch for {set}");
    }

    #[test]
    fn rectangle_is_one_range_per_row() {
        let s = Set::parse("{ [y, x] : 0 <= y <= 2 and 0 <= x <= 9 }").unwrap();
        let e = Enumerator::build(&s).unwrap();
        let rows = e.rows_merged(&[]);
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows[0],
            RowRange {
                prefix: vec![0],
                lo: 0,
                hi: 9
            }
        );
        check_against_bruteforce(&s, &[]);
    }

    #[test]
    fn triangle_rows_shrink() {
        let s = Set::parse("{ [y, x] : 0 <= y <= 4 and 0 <= x <= y }").unwrap();
        let e = Enumerator::build(&s).unwrap();
        let rows = e.rows_merged(&[]);
        assert_eq!(rows.len(), 5);
        assert_eq!(
            rows[4],
            RowRange {
                prefix: vec![4],
                lo: 0,
                hi: 4
            }
        );
        check_against_bruteforce(&s, &[]);
    }

    #[test]
    fn parametric_rows() {
        let s = Set::parse("[n] -> { [y, x] : 0 <= y < 2 and 0 <= x < n }").unwrap();
        check_against_bruteforce(&s, &[7]);
        check_against_bruteforce(&s, &[1]);
        let e = Enumerator::build(&s).unwrap();
        assert!(e.rows_merged(&[0]).is_empty());
    }

    #[test]
    fn union_pieces_merge() {
        // Two overlapping boxes on the same row merge into one range.
        let s = Set::parse("{ [y, x] : y = 0 and 0 <= x <= 5 or y = 0 and 4 <= x <= 9 }").unwrap();
        let e = Enumerator::build(&s).unwrap();
        let rows = e.rows_merged(&[]);
        assert_eq!(
            rows,
            vec![RowRange {
                prefix: vec![0],
                lo: 0,
                hi: 9
            }]
        );
        check_against_bruteforce(&s, &[]);
    }

    #[test]
    fn one_dimensional_set() {
        let s = Set::parse("{ [x] : 3 <= x <= 11 }").unwrap();
        let e = Enumerator::build(&s).unwrap();
        let rows = e.rows_merged(&[]);
        assert_eq!(
            rows,
            vec![RowRange {
                prefix: vec![],
                lo: 3,
                hi: 11
            }]
        );
    }

    #[test]
    fn stencil_halo_image() {
        // 5-point stencil read image of a partition [p0, p1) of rows:
        // reads rows p0-1 .. p1, full width plus/minus halo handled by
        // guards at array edges.
        let s = Set::parse(
            "[p0, p1, n] -> { [y, x] : p0 - 1 <= y <= p1 and 0 <= y < n and 0 <= x < n }",
        )
        .unwrap();
        check_against_bruteforce(&s, &[2, 4, 8]);
        check_against_bruteforce(&s, &[0, 2, 8]); // clipped at the top edge
        let e = Enumerator::build(&s).unwrap();
        let rows = e.rows_merged(&[2, 4, 8]);
        // rows 1..=4, each full width 0..=7
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.lo == 0 && r.hi == 7));
    }

    #[test]
    fn guards_keep_emission_exact() {
        // A diagonal strip: constraints couple y and x.
        let s = Set::parse("{ [y, x] : 0 <= y <= 6 and y <= x <= y + 2 and x <= 6 }").unwrap();
        check_against_bruteforce(&s, &[]);
    }

    #[test]
    fn three_dimensional_scan() {
        let s =
            Set::parse("[n] -> { [z, y, x] : 0 <= z < 2 and 0 <= y < 3 and z <= x < n }").unwrap();
        check_against_bruteforce(&s, &[5]);
    }

    #[test]
    fn strided_divisions_render() {
        let s = Set::parse("{ [x] : 0 <= 2x and 2x <= 9 }").unwrap();
        let e = Enumerator::build(&s).unwrap();
        let rows = e.rows_merged(&[]);
        assert_eq!(
            rows,
            vec![RowRange {
                prefix: vec![],
                lo: 0,
                hi: 4
            }]
        );
    }

    #[test]
    fn unbounded_set_reports_error() {
        let s = Set::parse("{ [x] : x >= 0 }").unwrap();
        match Enumerator::build(&s) {
            Err(PolyError::Unbounded { dim: 0 }) => {}
            other => panic!("expected Unbounded, got {other:?}"),
        }
    }

    #[test]
    fn pseudo_c_rendering_mentions_loops() {
        let s = Set::parse("[n] -> { [y, x] : 0 <= y < n and 0 <= x <= y }").unwrap();
        let e = Enumerator::build(&s).unwrap();
        let c = e.to_pseudo_c(&["y".into(), "x".into()], &["n".into()]);
        assert!(c.contains("for (int y"));
        assert!(c.contains("emit_row"));
    }

    #[test]
    fn merge_rows_fuses_adjacent() {
        let rows = vec![
            RowRange {
                prefix: vec![1],
                lo: 5,
                hi: 9,
            },
            RowRange {
                prefix: vec![1],
                lo: 0,
                hi: 4,
            },
            RowRange {
                prefix: vec![2],
                lo: 0,
                hi: 1,
            },
        ];
        let merged = merge_rows(rows);
        assert_eq!(
            merged,
            vec![
                RowRange {
                    prefix: vec![1],
                    lo: 0,
                    hi: 9
                },
                RowRange {
                    prefix: vec![2],
                    lo: 0,
                    hi: 1
                },
            ]
        );
    }
}
