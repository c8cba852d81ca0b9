//! Access-map extraction: symbolic walk of the kernel IR.
//!
//! The walker abstract-interprets each statement over the *product* of
//! two domains (see [`crate::interval`]): integer expressions evaluate
//! to an [`AbsVal`] — an exact affine form over
//! `[bo, bi, ti, loop dims | bd, gd, scalars]` when possible, joined
//! with symbolic interval bounds for the non-affine remainder (products
//! of variables, division, remainders, annotated indirect loads). Loops
//! contribute fresh (existential) dimensions, guards contribute domain
//! constraints, and every array access is recorded as a convex relation
//! piece which is then projected down to the final `Z^6 → Z^d` map
//! (threadIdx constrained by `0 ≤ ti < blockDim` and eliminated, paper
//! §4.1).
//!
//! Affine indices become equality constraints (exact, as before);
//! bounded non-affine indices become inequality *box* constraints
//! clipped to the array extent — a sound may-read footprint (§4 allows
//! over-approximated reads). Writes through non-affine indices keep
//! rejecting partitioning: bounded boxes degrade the write to inexact,
//! completely unknown indices leave it unmodeled.

use crate::injective::is_block_injective;
use crate::interval::{widen, AbsVal};
use crate::model::{AccessKind, ArgModel, ArrayAccess, KernelModel, Verdict};
use crate::space::{AnalysisSpace, N_GRID_DIMS, N_MAP_IN};
use crate::strategy::suggest_split;
use crate::Result;
use mekong_kernel::{
    Axis, BinOp, Expr, Extent, GridVar, Kernel, KernelParam, ScalarTy, Stmt, UnOp,
};
use mekong_poly::{Constraint, LinExpr, Map, Polyhedron, Set, Space};
use std::collections::{BTreeMap, HashMap};

/// Per-array value-range annotations for one kernel: array name →
/// inclusive `(lo, hi)` bound templates over `$0, $1, …` index
/// placeholders (see `// @mekong <kernel> range <array> : lo .. hi`).
pub type ValueRanges = HashMap<String, (Expr, Expr)>;

/// Analyze a kernel and produce its model record.
pub fn analyze_kernel(kernel: &Kernel) -> Result<KernelModel> {
    let ranges = ValueRanges::new();
    analyze_kernel_with(kernel, &ranges)
}

/// Analyze a kernel with value-range annotations for indirect loads.
pub fn analyze_kernel_with(kernel: &Kernel, ranges: &ValueRanges) -> Result<KernelModel> {
    run_analysis(kernel, ranges, false)
}

/// Analyze a kernel with every *read* index forced through the interval
/// domain (affine values demoted to `[e, e]` boxes). Used by the
/// affine-vs-interval soundness cross-check: the boxed footprint must
/// contain the exact polyhedral footprint on affine kernels.
pub fn analyze_kernel_boxed(kernel: &Kernel) -> Result<KernelModel> {
    let ranges = ValueRanges::new();
    run_analysis(kernel, &ranges, true)
}

fn run_analysis(kernel: &Kernel, ranges: &ValueRanges, force_boxes: bool) -> Result<KernelModel> {
    kernel.validate()?;
    let space = AnalysisSpace::for_kernel(kernel);
    let mut ex = Extractor::new(kernel, space, ranges, force_boxes);
    ex.walk_block(&kernel.body)?;
    ex.finish()
}

/// Recursion fuel for abstract evaluation: range templates substitute
/// index expressions which may themselves contain annotated loads.
const EVAL_DEPTH_LIMIT: u32 = 32;

/// Accumulated accesses of one array. `Default` starts exact: an access
/// only *loses* exactness when a contributing term cannot be modeled.
struct AccessRec {
    read_pieces: Vec<Polyhedron>,
    write_pieces: Vec<Polyhedron>,
    read_exact: bool,
    write_exact: bool,
    read_may: bool,
    write_may: bool,
    read_unmodeled: bool,
    write_unmodeled: bool,
    /// Some read piece used interval box constraints (bounded may-read).
    read_interval: bool,
    has_read: bool,
    has_write: bool,
}

impl Default for AccessRec {
    fn default() -> Self {
        AccessRec {
            read_pieces: Vec::new(),
            write_pieces: Vec::new(),
            read_exact: true,
            write_exact: true,
            read_may: false,
            write_may: false,
            read_unmodeled: false,
            write_unmodeled: false,
            read_interval: false,
            has_read: false,
            has_write: false,
        }
    }
}

struct Extractor<'k> {
    kernel: &'k Kernel,
    space: AnalysisSpace,
    /// Current number of set dimensions: 9 grid dims + live loop dims.
    n_dims: usize,
    /// Scoped symbolic values (name, abstract value).
    vars: Vec<(String, AbsVal)>,
    /// Current path constraints over `[dims | params]`.
    domain: Vec<Constraint>,
    /// Below an unrepresentable condition: accesses become "may".
    approx: bool,
    /// Value-range annotations for indirect loads.
    ranges: &'k ValueRanges,
    /// Demote affine read indices to boxes (soundness cross-check mode).
    force_boxes: bool,
    accesses: BTreeMap<String, AccessRec>,
}

/// then/else domains of a condition in disjunctive normal form: a list of
/// conjunctions. `None` = not expressible affinely (the access domain must
/// then be over-approximated).
struct CondSets {
    then_c: Option<Vec<Vec<Constraint>>>,
    else_c: Option<Vec<Vec<Constraint>>>,
}

impl<'k> Extractor<'k> {
    fn new(
        kernel: &'k Kernel,
        space: AnalysisSpace,
        ranges: &'k ValueRanges,
        force_boxes: bool,
    ) -> Self {
        let n_dims = N_GRID_DIMS;
        let domain = space.base_domain(n_dims);
        Extractor {
            kernel,
            space,
            n_dims,
            vars: Vec::new(),
            domain,
            approx: false,
            ranges,
            force_boxes,
            accesses: BTreeMap::new(),
        }
    }

    fn width(&self) -> usize {
        self.n_dims + self.space.n_params()
    }

    // ---- abstract evaluation -----------------------------------------

    /// Affine shim over [`Extractor::abs_eval`]: the exact value, if the
    /// expression is in the affine fragment. Conditions and blockOff
    /// detection stay purely affine.
    fn eval(&self, e: &Expr) -> Option<LinExpr> {
        self.abs_eval(e).affine
    }

    fn abs_eval(&self, e: &Expr) -> AbsVal {
        self.abs_eval_at(e, 0)
    }

    fn abs_eval_at(&self, e: &Expr, depth: u32) -> AbsVal {
        if depth > EVAL_DEPTH_LIMIT {
            return AbsVal::top();
        }
        let w = self.width();
        match e {
            Expr::Int(v) => AbsVal::constant(w, *v),
            Expr::Float(_) => AbsVal::top(),
            Expr::Var(name) => {
                if let Some((_, v)) = self.vars.iter().rev().find(|(n, _)| n == name) {
                    return v.clone();
                }
                // Scalar parameter?
                if let Some(idx) = self.space.scalar_param_index(name) {
                    // Only integer scalars participate in index arithmetic.
                    if let Some(KernelParam::Scalar { ty, .. }) = self.kernel.param(name) {
                        if *ty == ScalarTy::I64 {
                            return AbsVal::affine(self.space.param(self.n_dims, idx));
                        }
                    }
                }
                AbsVal::top()
            }
            Expr::Grid(g) => AbsVal::affine(match g {
                GridVar::ThreadIdx(a) => self.space.var(self.n_dims, self.space.ti_dim(*a)),
                GridVar::BlockIdx(a) => self.space.var(self.n_dims, self.space.bi_dim(*a)),
                GridVar::BlockDim(a) => self.space.param(self.n_dims, self.space.bd_param(*a)),
                GridVar::GridDim(a) => self.space.param(self.n_dims, self.space.gd_param(*a)),
            }),
            Expr::Load { array, indices } => self.abs_eval_load(array, indices, depth),
            Expr::Unary(UnOp::Neg, a) => self.abs_eval_at(a, depth + 1).neg(),
            Expr::Unary(UnOp::Not, _) => bool_range(w),
            Expr::Unary(UnOp::Abs, a) => {
                // |x| ≥ 0 always; constant bounds give the magnitude cap.
                let v = self.abs_eval_at(a, depth + 1);
                let hi = match (v.lo_bound(), v.hi_bound()) {
                    (Some(l), Some(h)) if l.is_constant() && h.is_constant() => l
                        .konst
                        .checked_abs()
                        .zip(h.konst.checked_abs())
                        .map(|(l, h)| LinExpr::constant(w, l.max(h))),
                    _ => None,
                };
                AbsVal::interval(Some(LinExpr::constant(w, 0)), hi)
            }
            Expr::Unary(..) => AbsVal::top(),
            Expr::Binary(op, a, b) => self.abs_eval_binary(*op, a, b, depth),
            Expr::Cast(ScalarTy::I64, a) => self.abs_eval_at(a, depth + 1),
            Expr::Cast(..) => AbsVal::top(),
            Expr::Select(_, a, b) => {
                // Either branch may be taken: join.
                self.abs_eval_at(a, depth + 1)
                    .join(&self.abs_eval_at(b, depth + 1))
            }
        }
    }

    fn abs_eval_binary(&self, op: BinOp, a: &Expr, b: &Expr, depth: u32) -> AbsVal {
        match op {
            BinOp::Add => self
                .abs_eval_at(a, depth + 1)
                .add(&self.abs_eval_at(b, depth + 1)),
            BinOp::Sub => self
                .abs_eval_at(a, depth + 1)
                .sub(&self.abs_eval_at(b, depth + 1)),
            BinOp::Mul => {
                // blockOff encapsulation (paper eq. 6): the product
                // blockIdx.w * blockDim.w becomes the blockOff.w dimension.
                if let Some(axis) = self.blockoff_product(a, b) {
                    return AbsVal::affine(self.space.var(self.n_dims, self.space.bo_dim(axis)));
                }
                self.abs_eval_at(a, depth + 1)
                    .mul(&self.abs_eval_at(b, depth + 1))
            }
            BinOp::Div => self
                .abs_eval_at(a, depth + 1)
                .div(&self.abs_eval_at(b, depth + 1)),
            BinOp::Rem => self
                .abs_eval_at(a, depth + 1)
                .rem(&self.abs_eval_at(b, depth + 1)),
            BinOp::Min => self
                .abs_eval_at(a, depth + 1)
                .min(&self.abs_eval_at(b, depth + 1)),
            BinOp::Max => self
                .abs_eval_at(a, depth + 1)
                .max(&self.abs_eval_at(b, depth + 1)),
            // Comparisons and logic as *values* are 0/1.
            BinOp::Lt
            | BinOp::Le
            | BinOp::Gt
            | BinOp::Ge
            | BinOp::EqEq
            | BinOp::Ne
            | BinOp::And
            | BinOp::Or => bool_range(self.width()),
        }
    }

    /// Abstract value of an indirect load. With a value-range annotation
    /// the stored values are bounded by the `(lo, hi)` templates with
    /// `$j` substituted by the j-th index expression; without one the
    /// value is unknown (the *access* is still recorded and, as a read,
    /// extent-clipped).
    fn abs_eval_load(&self, array: &str, indices: &[Expr], depth: u32) -> AbsVal {
        let Some((lo_t, hi_t)) = self.ranges.get(array) else {
            return AbsVal::top();
        };
        let lo = self.abs_eval_at(&subst_template(lo_t, indices), depth + 1);
        let hi = self.abs_eval_at(&subst_template(hi_t, indices), depth + 1);
        AbsVal::interval(lo.lo_bound().cloned(), hi.hi_bound().cloned())
    }

    /// Detect `blockIdx.w * blockDim.w` (either operand order), also when
    /// the operands flowed through locals that are exactly those values.
    fn blockoff_product(&self, a: &Expr, b: &Expr) -> Option<Axis> {
        let a_bi = self.as_block_idx(a);
        let b_bi = self.as_block_idx(b);
        let a_bd = self.as_block_dim(a);
        let b_bd = self.as_block_dim(b);
        match (a_bi, b_bd) {
            (Some(w1), Some(w2)) if w1 == w2 => return Some(w1),
            _ => {}
        }
        match (b_bi, a_bd) {
            (Some(w1), Some(w2)) if w1 == w2 => Some(w1),
            _ => None,
        }
    }

    /// Is this expression exactly `blockIdx.w` (possibly via a local)?
    fn as_block_idx(&self, e: &Expr) -> Option<Axis> {
        let v = self.eval(e)?;
        Axis::ALL
            .into_iter()
            .find(|&a| v == self.space.var(self.n_dims, self.space.bi_dim(a)))
    }

    /// Is this expression exactly `blockDim.w`?
    fn as_block_dim(&self, e: &Expr) -> Option<Axis> {
        let v = self.eval(e)?;
        Axis::ALL
            .into_iter()
            .find(|&a| v == self.space.param(self.n_dims, self.space.bd_param(a)))
    }

    // ---- conditions -----------------------------------------------------

    fn eval_cond(&self, e: &Expr) -> CondSets {
        let none = || CondSets {
            then_c: None,
            else_c: None,
        };
        match e {
            Expr::Binary(op, a, b) if op.is_comparison() => {
                let (Some(av), Some(bv)) = (self.eval(a), self.eval(b)) else {
                    return none();
                };
                // A comparison whose constraint overflows i64 is no more
                // affinely representable than a non-affine one.
                comparison(*op, &av, &bv).unwrap_or_else(|_| none())
            }
            Expr::Binary(BinOp::And, a, b) => {
                let ca = self.eval_cond(a);
                let cb = self.eval_cond(b);
                CondSets {
                    // a∧b: cross product of the disjuncts.
                    then_c: dnf_and(ca.then_c, cb.then_c),
                    // ¬(a∧b) = ¬a ∨ ¬b: union of the negations.
                    else_c: dnf_or(ca.else_c, cb.else_c),
                }
            }
            Expr::Binary(BinOp::Or, a, b) => {
                let ca = self.eval_cond(a);
                let cb = self.eval_cond(b);
                CondSets {
                    then_c: dnf_or(ca.then_c, cb.then_c),
                    else_c: dnf_and(ca.else_c, cb.else_c),
                }
            }
            Expr::Unary(UnOp::Not, a) => {
                let ca = self.eval_cond(a);
                CondSets {
                    then_c: ca.else_c,
                    else_c: ca.then_c,
                }
            }
            _ => none(),
        }
    }

    // ---- the walk --------------------------------------------------------

    fn walk_block(&mut self, body: &[Stmt]) -> Result<()> {
        let var_depth = self.vars.len();
        let dom_depth = self.domain.len();
        let approx0 = self.approx;
        for (i, s) in body.iter().enumerate() {
            match s {
                Stmt::Let { var, value } => {
                    self.record_expr_reads(value);
                    let v = self.abs_eval(value);
                    self.vars.push((var.clone(), v));
                }
                Stmt::Assign { var, value } => {
                    self.record_expr_reads(value);
                    let v = self.abs_eval(value);
                    self.set_var(var, v);
                }
                Stmt::Store {
                    array,
                    indices,
                    value,
                } => {
                    self.record_expr_reads(value);
                    for ix in indices {
                        self.record_expr_reads(ix);
                    }
                    self.record_access(array, indices, AccessKind::Write)?;
                }
                Stmt::If { cond, then_, else_ } => {
                    self.record_expr_reads(cond);
                    let cs = self.eval_cond(cond);
                    // Each branch is walked once per disjunct of its DNF
                    // domain; accesses from the walks union in the maps
                    // (duplicates from overlapping disjuncts are harmless).
                    self.walk_branch(then_, &cs.then_c)?;
                    self.walk_branch(else_, &cs.else_c)?;
                    // Guard idiom: a branch that always returns narrows the
                    // domain of the remaining statements.
                    let then_returns = always_returns(then_);
                    let else_returns = always_returns(else_);
                    if then_returns && !else_returns {
                        self.narrow_rest(&cs.else_c);
                    } else if else_returns && !then_returns {
                        self.narrow_rest(&cs.then_c);
                    } else if then_returns && else_returns {
                        // Rest of the block is unreachable.
                        let _ = i;
                        break;
                    }
                }
                Stmt::For {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                } => {
                    self.record_expr_reads(lo);
                    self.record_expr_reads(hi);
                    let lo_av = self.abs_eval(lo);
                    let hi_av = self.abs_eval(hi);
                    // Loop-head widening: outer variables reassigned in the
                    // body are widened to an iteration-invariant state
                    // *before* the body walk records any access through
                    // them (a first-iteration value would be unsound).
                    let widened = self.widen_loop_head(var, &lo_av, &hi_av, body);
                    let head = match (&lo_av.affine, &hi_av.affine) {
                        (Some(lo_e), Some(hi_e)) => loop_head(self.n_dims, lo_e, hi_e, *step),
                        _ => None,
                    };
                    match head {
                        Some((bounds, value)) => self.enter_loop(var, bounds, value, body)?,
                        None => {
                            // Non-affine bounds (or affine ones whose
                            // constraints overflow): iterate abstractly, with
                            // the iterator bounded by the interval the
                            // bounds expressions admit.
                            let a = self.approx;
                            self.approx = true;
                            let kv = loop_var_interval(&lo_av, &hi_av);
                            self.vars.push((var.clone(), kv));
                            self.walk_block(body)?;
                            self.vars.pop();
                            self.approx = a;
                        }
                    }
                    // Post-loop state: restore the widened head values —
                    // they are iteration-invariant and also cover the
                    // zero-trip case.
                    for (name, val) in widened {
                        self.set_var(&name, val);
                    }
                }
                Stmt::Return => break,
                Stmt::SyncThreads => {}
            }
        }
        self.vars.truncate(var_depth);
        self.domain.truncate(dom_depth);
        self.approx = approx0;
        Ok(())
    }

    /// Walk a branch body once per DNF disjunct (or once with `approx` if
    /// the condition was not affinely representable). Afterwards, any
    /// variable assigned inside the branch becomes unknown: its value is
    /// conditional and we do not join states.
    fn walk_branch(&mut self, body: &[Stmt], dnf: &Dnf) -> Result<()> {
        if body.is_empty() {
            return Ok(());
        }
        match dnf {
            Some(disjuncts) => {
                for conjunct in disjuncts {
                    let d = self.domain.len();
                    self.domain.extend(conjunct.iter().cloned());
                    self.walk_block(body)?;
                    self.domain.truncate(d);
                }
            }
            None => {
                let a = self.approx;
                self.approx = true;
                self.walk_block(body)?;
                self.approx = a;
            }
        }
        // Conditionally-assigned outer variables are no longer known.
        let mut assigned = Vec::new();
        collect_assigned(body, &mut assigned);
        for (name, val) in self.vars.iter_mut() {
            if assigned.contains(name) {
                *val = AbsVal::top();
            }
        }
        Ok(())
    }

    /// Narrow the domain of the remaining statements after a guard-return.
    /// Disjuncts that are infeasible under the current domain are pruned
    /// first (e.g. `¬(x == n-1)` yields `x < n-1 ∨ x > n-1`, and the guard
    /// `x < n` already rules out the second). A single surviving conjunct
    /// extends the domain; several degrade to "may"; none means the rest of
    /// the block is dead.
    fn narrow_rest(&mut self, dnf: &Dnf) {
        let disjuncts = match dnf {
            Some(d) => d,
            None => {
                self.approx = true;
                return;
            }
        };
        let context = self.space.param_context();
        let feasible: Vec<&Vec<Constraint>> = disjuncts
            .iter()
            .filter(|conj| {
                let mut p = mekong_poly::Polyhedron::universe(self.n_dims, self.space.n_params());
                for c in self.domain.iter().chain(conj.iter()) {
                    p.add_constraint(c.clone());
                }
                // Keep unless provably empty.
                !p.is_empty_symbolic(&context).unwrap_or(false)
            })
            .collect();
        match feasible.len() {
            0 => {
                // Dead code: force an empty domain.
                self.domain
                    .push(Constraint::ge0(LinExpr::constant(self.width(), -1)));
            }
            1 => self.domain.extend(feasible[0].iter().cloned()),
            _ => self.approx = true,
        }
    }

    // ---- loops -----------------------------------------------------------

    /// Widen outer variables assigned in a loop body to a loop-invariant
    /// abstract state, iterating body simulation + [`widen`] at the loop
    /// head until a fixpoint. Returns the widened `(name, value)` pairs
    /// (already applied to `self.vars`) so the caller can restore them as
    /// the post-loop state. Widening drops each bound component at most
    /// once, so the fixpoint arrives within `3·|vars| + 2` rounds; if it
    /// somehow does not, everything assigned degrades to ⊤.
    fn widen_loop_head(
        &mut self,
        var: &str,
        lo_av: &AbsVal,
        hi_av: &AbsVal,
        body: &[Stmt],
    ) -> Vec<(String, AbsVal)> {
        let mut assigned = Vec::new();
        collect_assigned(body, &mut assigned);
        assigned.sort();
        assigned.dedup();
        assigned.retain(|n| n != var && self.vars.iter().any(|(vn, _)| vn == n));
        if assigned.is_empty() {
            return Vec::new();
        }
        let kv = loop_var_interval(lo_av, hi_av);
        let rounds = 3 * assigned.len() + 2;
        let mut stable = false;
        for _ in 0..rounds {
            let head: Vec<AbsVal> = assigned.iter().map(|n| self.var_value(n)).collect();
            self.vars.push((var.to_string(), kv.clone()));
            self.sim_block(body);
            self.vars.pop();
            stable = true;
            for (name, old) in assigned.iter().zip(&head) {
                let new = self.var_value(name);
                let w = widen(old, &new);
                if &w != old {
                    stable = false;
                }
                self.set_var(name, w);
            }
            if stable {
                break;
            }
        }
        if !stable {
            for name in &assigned {
                self.set_var(name, AbsVal::top());
            }
        }
        assigned
            .into_iter()
            .map(|n| {
                let v = self.var_value(&n);
                (n, v)
            })
            .collect()
    }

    /// Abstractly simulate a loop body for the widening prepass: only
    /// variable states update — no accesses are recorded, no domain
    /// constraints or loop dimensions are introduced. Branches join;
    /// nested loops conservatively drop whatever they assign. Early
    /// returns are ignored, which only adds extra joined states (a
    /// returning thread never re-enters the loop, so its state cannot
    /// reach the head).
    fn sim_block(&mut self, body: &[Stmt]) {
        let depth = self.vars.len();
        for s in body {
            match s {
                Stmt::Let { var, value } => {
                    let v = self.abs_eval(value);
                    self.vars.push((var.clone(), v));
                }
                Stmt::Assign { var, value } => {
                    let v = self.abs_eval(value);
                    self.set_var(var, v);
                }
                Stmt::If { then_, else_, .. } => {
                    let saved = self.vars.clone();
                    self.sim_block(then_);
                    let then_state = std::mem::replace(&mut self.vars, saved);
                    self.sim_block(else_);
                    for (slot, t) in self.vars.iter_mut().zip(then_state.iter()) {
                        slot.1 = slot.1.join(&t.1);
                    }
                }
                Stmt::For {
                    var: ivar, body, ..
                } => {
                    let mut inner = Vec::new();
                    collect_assigned(body, &mut inner);
                    for (n, v) in self.vars.iter_mut() {
                        if n != ivar && inner.contains(n) {
                            *v = AbsVal::top();
                        }
                    }
                }
                Stmt::Store { .. } | Stmt::Return | Stmt::SyncThreads => {}
            }
        }
        self.vars.truncate(depth);
    }

    fn var_value(&self, name: &str) -> AbsVal {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(AbsVal::top)
    }

    fn set_var(&mut self, name: &str, value: AbsVal) {
        if let Some(slot) = self.vars.iter_mut().rev().find(|(n, _)| n == name) {
            slot.1 = value;
        }
    }

    /// Append a fresh loop dimension, widen all live state, add the
    /// [`loop_head`] bounds, walk the body, and narrow back.
    fn enter_loop(
        &mut self,
        var: &str,
        bounds: [Constraint; 2],
        value: LinExpr,
        body: &[Stmt],
    ) -> Result<()> {
        let at = self.n_dims;
        // Widen all live abstract state.
        for (_, v) in self.vars.iter_mut() {
            *v = v.insert_vars(at, 1);
        }
        for c in self.domain.iter_mut() {
            c.expr = c.expr.insert_vars(at, 1);
        }
        self.n_dims += 1;
        let dom_depth = self.domain.len();
        self.domain.extend(bounds);
        self.vars.push((var.to_string(), AbsVal::affine(value)));
        self.walk_block(body)?;
        self.vars.pop();
        self.domain.truncate(dom_depth);
        // Narrow state back: drop the loop dimension (components that
        // depend on the departing iterator become unknown).
        self.n_dims -= 1;
        for (_, v) in self.vars.iter_mut() {
            *v = v.remove_var(at);
        }
        for c in self.domain.iter_mut() {
            debug_assert_eq!(c.expr.coeff(at), 0, "outer domain leaked a loop dim");
            c.expr = c.expr.remove_var(at);
        }
        Ok(())
    }

    /// Record all loads inside an expression as read accesses.
    fn record_expr_reads(&mut self, e: &Expr) {
        // Collect (array, indices) pairs first to appease the borrow
        // checker; expression trees are small.
        let mut loads: Vec<(String, Vec<Expr>)> = Vec::new();
        e.visit(&mut |node| {
            if let Expr::Load { array, indices } = node {
                loads.push((array.clone(), indices.clone()));
            }
        });
        for (array, indices) in loads {
            // Errors here are modeling failures, recorded in the model.
            let _ = self.record_access(&array, &indices, AccessKind::Read);
        }
    }

    fn record_access(&mut self, array: &str, indices: &[Expr], kind: AccessKind) -> Result<()> {
        let mut idx_abs: Vec<AbsVal> = indices.iter().map(|e| self.abs_eval(e)).collect();
        if self.force_boxes && kind == AccessKind::Read {
            for v in idx_abs.iter_mut() {
                *v = v.boxed();
            }
        }
        let extents: Vec<Extent> = match self.kernel.param(array) {
            Some(KernelParam::Array { extents, .. }) => extents.clone(),
            _ => Vec::new(),
        };
        let d = idx_abs.len();
        let n = self.n_dims;
        let np = self.space.n_params();
        let width = n + d + np;
        // Relation dims: [current dims | out dims]. Each out dim is pinned
        // by its affine index or boxed by whichever bounds are known. An
        // index whose constraint overflows i64 degrades like a non-affine
        // one, and an overflowing bound is dropped (a wider box).
        let mut all_affine = true;
        let mut any_top = false;
        let mut out_cons = Vec::with_capacity(d);
        for (j, v) in idx_abs.iter().enumerate() {
            let out = LinExpr::var(width, n + j);
            let pinned = v
                .affine
                .as_ref()
                .and_then(|idx| out.sub(&idx.insert_vars(n, d)).ok());
            if let Some(e) = pinned {
                out_cons.push(Constraint::eq(e));
                continue;
            }
            all_affine = false;
            let n_bounds = out_cons.len();
            if let Some(lo) = v.lo_bound() {
                out_cons.extend(Constraint::ge(&out, &lo.insert_vars(n, d)).ok());
            }
            if let Some(hi) = v.hi_bound() {
                out_cons.extend(Constraint::le(&out, &hi.insert_vars(n, d)).ok());
            }
            // Nothing known at all about this index.
            any_top |= out_cons.len() == n_bounds;
            // Clipped to the array extent (mirroring the enumerator clip)
            // so the declared footprint is always in bounds.
            if let Some(ext) = extents.get(j) {
                let hi = match ext {
                    Extent::Const(c) => LinExpr::constant(width, *c),
                    Extent::Param(name) => {
                        let idx = self
                            .space
                            .scalar_param_index(name)
                            .expect("extent param must be a scalar kernel param");
                        LinExpr::var(width, n + d + idx)
                    }
                };
                out_cons.push(Constraint::ge0(out.clone()));
                out_cons.extend(Constraint::lt(&out, &hi).ok());
            }
        }
        let rec = self.accesses.entry(array.to_string()).or_default();
        match kind {
            AccessKind::Read => rec.has_read = true,
            AccessKind::Write => rec.has_write = true,
        }
        if !all_affine {
            match kind {
                AccessKind::Read => {
                    // A bounded (or extent-clipped) box instead of the
                    // whole array: sound may-read (§4).
                    rec.read_may = true;
                    rec.read_exact = false;
                    rec.read_interval = true;
                }
                AccessKind::Write => {
                    if any_top {
                        rec.write_unmodeled = true;
                        return Ok(());
                    }
                    // Bounded but inexact: still rejects partitioning
                    // (§4: writes must be exact). Record the box anyway
                    // so diagnostics can show what was attempted.
                    rec.write_may = true;
                    rec.write_exact = false;
                }
            }
        }
        if self.approx {
            match kind {
                AccessKind::Read => rec.read_may = true,
                AccessKind::Write => {
                    // A write under an unknown condition: the write map
                    // over-approximates -> partitioning must be rejected.
                    rec.write_may = true;
                    rec.write_exact = false;
                }
            }
        }
        let mut piece = Polyhedron::universe(n + d, np);
        for c in &self.domain {
            piece.add_constraint(Constraint {
                kind: c.kind,
                expr: c.expr.insert_vars(n, d),
            });
        }
        for c in out_cons {
            piece.add_constraint(c);
        }
        // Project out loop dims and threadIdx dims: keep [bo bi | outs].
        let (projected, exact) = piece.project_out_dims(N_MAP_IN..n)?;
        if projected.is_marked_empty() {
            return Ok(());
        }
        match kind {
            AccessKind::Read => {
                rec.read_exact &= exact && all_affine;
                rec.read_pieces.push(projected);
            }
            AccessKind::Write => {
                rec.write_exact &= exact && all_affine;
                rec.write_pieces.push(projected);
            }
        }
        Ok(())
    }

    // ---- assembly ---------------------------------------------------------

    fn finish(mut self) -> Result<KernelModel> {
        let mut args = Vec::with_capacity(self.kernel.params.len());
        let param_names = self.space.param_names();
        let mut unmodeled_writes = Vec::new();

        for p in &self.kernel.params {
            match p {
                KernelParam::Scalar { name, ty } => args.push(ArgModel::Scalar {
                    name: name.clone(),
                    ty: *ty,
                }),
                KernelParam::Array {
                    name,
                    elem,
                    extents,
                } => {
                    let rec = self.accesses.remove(name).unwrap_or_default();
                    let d = extents.len();
                    if rec.write_unmodeled {
                        unmodeled_writes.push(name.clone());
                    }
                    let read = self.assemble_access(
                        name,
                        d,
                        extents,
                        rec.read_pieces,
                        rec.read_exact,
                        rec.read_may,
                        rec.read_unmodeled,
                        rec.read_interval,
                        rec.has_read,
                        &param_names,
                    )?;
                    let write = self.assemble_access(
                        name,
                        d,
                        extents,
                        rec.write_pieces,
                        rec.write_exact,
                        rec.write_may,
                        rec.write_unmodeled,
                        false,
                        rec.has_write,
                        &param_names,
                    )?;
                    args.push(ArgModel::Array {
                        name: name.clone(),
                        elem: *elem,
                        extents: extents.clone(),
                        read,
                        write,
                    });
                }
            }
        }

        // The split axis decides which block pairs can land in different
        // partitions, so the injectivity check depends on it (see
        // `injective`): pick the strategy first, verify against it after.
        let partitioning = suggest_split(&args);
        let mut verdict = Verdict::Partitionable;
        for a in &args {
            if !verdict.is_partitionable() {
                break;
            }
            if let ArgModel::Array {
                name,
                write: Some(w),
                ..
            } = a
            {
                if unmodeled_writes.contains(name) {
                    verdict = Verdict::Unmodeled {
                        array: name.clone(),
                    };
                } else if !w.exact {
                    verdict = Verdict::InexactWrite {
                        array: name.clone(),
                    };
                } else if !is_block_injective(&w.map, &self.space, partitioning)? {
                    verdict = Verdict::NonInjectiveWrite {
                        array: name.clone(),
                    };
                }
            }
        }
        Ok(KernelModel {
            kernel_name: self.kernel.name.clone(),
            partitioning,
            verdict,
            args,
            scalar_params: self.space.scalar_names.clone(),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble_access(
        &self,
        _array: &str,
        d: usize,
        extents: &[Extent],
        pieces: Vec<Polyhedron>,
        exact: bool,
        may: bool,
        unmodeled: bool,
        interval: bool,
        has_access: bool,
        param_names: &[String],
    ) -> Result<Option<ArrayAccess>> {
        if !has_access {
            return Ok(None);
        }
        let dim_names: Vec<String> = AnalysisSpace::map_in_names()
            .iter()
            .map(|s| s.to_string())
            .chain((0..d).map(|j| format!("e{j}")))
            .collect();
        let space = Space::from_names(dim_names, param_names.to_vec());

        if unmodeled {
            // Fall back to "whole array": exact=false, may=true.
            let np = self.space.n_params();
            let width = N_MAP_IN + d + np;
            let mut p = Polyhedron::universe(N_MAP_IN + d, np);
            for (j, ext) in extents.iter().enumerate() {
                let out = LinExpr::var(width, N_MAP_IN + j);
                let hi = match ext {
                    Extent::Const(c) => LinExpr::constant(width, *c),
                    Extent::Param(name) => {
                        let idx = self
                            .space
                            .scalar_param_index(name)
                            .expect("extent param must be a scalar kernel param");
                        LinExpr::var(width, N_MAP_IN + d + idx)
                    }
                };
                p.add_constraint(Constraint::ge0(out.clone()));
                p.add_constraint(Constraint::lt(&out, &hi).unwrap());
            }
            let mut set = Set::from_polyhedron(space, p);
            set.set_inexact();
            return Ok(Some(ArrayAccess {
                map: Map::from_relation(N_MAP_IN, set),
                exact: false,
                may: true,
                interval: false,
            }));
        }

        let mut set = Set::from_pieces(space, pieces);
        if !exact {
            set.set_inexact();
        }
        Ok(Some(ArrayAccess {
            map: Map::from_relation(N_MAP_IN, set),
            exact,
            may,
            interval,
        }))
    }
}

/// The then/else constraint sets of the comparison `av op bv`.
fn comparison(op: BinOp, av: &LinExpr, bv: &LinExpr) -> mekong_poly::Result<CondSets> {
    let one = |k: Constraint| -> Dnf { Some(vec![vec![k]]) };
    // a != b  ≡  a < b  ∨  a > b
    let ne = || -> mekong_poly::Result<Dnf> {
        Ok(Some(vec![
            vec![Constraint::lt(av, bv)?],
            vec![Constraint::lt(bv, av)?],
        ]))
    };
    let eq = || -> mekong_poly::Result<Dnf> { Ok(one(Constraint::eq(av.sub(bv)?))) };
    Ok(match op {
        BinOp::Lt => CondSets {
            then_c: one(Constraint::lt(av, bv)?),
            else_c: one(Constraint::ge(av, bv)?),
        },
        BinOp::Le => CondSets {
            then_c: one(Constraint::le(av, bv)?),
            else_c: one(Constraint::lt(bv, av)?),
        },
        BinOp::Gt => CondSets {
            then_c: one(Constraint::lt(bv, av)?),
            else_c: one(Constraint::le(av, bv)?),
        },
        BinOp::Ge => CondSets {
            then_c: one(Constraint::ge(av, bv)?),
            else_c: one(Constraint::lt(av, bv)?),
        },
        BinOp::EqEq => CondSets {
            then_c: eq()?,
            else_c: ne()?,
        },
        BinOp::Ne => CondSets {
            then_c: ne()?,
            else_c: eq()?,
        },
        _ => unreachable!("not a comparison"),
    })
}

/// The domain bounds and iterator value of a loop `for (var = lo; var <
/// hi; var += step)` whose new dimension `k` is appended at `at`: `lo <=
/// k < hi, var = k` for a unit step, else `k >= 0, var = lo + step*k <
/// hi`. `None` when the constraint arithmetic overflows i64.
fn loop_head(
    at: usize,
    lo: &LinExpr,
    hi: &LinExpr,
    step: i64,
) -> Option<([Constraint; 2], LinExpr)> {
    let lo = lo.insert_vars(at, 1);
    let hi = hi.insert_vars(at, 1);
    let k = LinExpr::var(lo.width(), at);
    if step == 1 {
        let bounds = [Constraint::ge(&k, &lo).ok()?, Constraint::lt(&k, &hi).ok()?];
        Some((bounds, k))
    } else {
        let value = lo.add(&k.scale(step).ok()?).ok()?;
        let bounds = [Constraint::ge0(k), Constraint::lt(&value, &hi).ok()?];
        Some((bounds, value))
    }
}

/// The abstract value of a loop iterator with non-affine bounds:
/// `lo ≤ var ≤ hi − 1` from whichever bound expressions are known
/// (sound for any positive step).
fn loop_var_interval(lo_av: &AbsVal, hi_av: &AbsVal) -> AbsVal {
    let hi = hi_av
        .hi_bound()
        .and_then(|h| h.sub(&LinExpr::constant(h.width(), 1)).ok());
    AbsVal::interval(lo_av.lo_bound().cloned(), hi)
}

/// Substitute `$j` placeholders in a range-annotation template by the
/// access's index expressions.
fn subst_template(template: &Expr, indices: &[Expr]) -> Expr {
    template.rewrite(&|e| {
        if let Expr::Var(name) = &e {
            if let Some(rest) = name.strip_prefix('$') {
                if let Ok(j) = rest.parse::<usize>() {
                    if let Some(ix) = indices.get(j) {
                        return ix.clone();
                    }
                }
            }
        }
        e
    })
}

/// Boolean-valued expressions as integers: `[0, 1]`.
fn bool_range(width: usize) -> AbsVal {
    AbsVal::interval(
        Some(LinExpr::constant(width, 0)),
        Some(LinExpr::constant(width, 1)),
    )
}

type Dnf = Option<Vec<Vec<Constraint>>>;

/// DNF conjunction: cross product of the disjunct lists.
fn dnf_and(a: Dnf, b: Dnf) -> Dnf {
    match (a, b) {
        (Some(xs), Some(ys)) => {
            let mut out = Vec::with_capacity(xs.len() * ys.len());
            for x in &xs {
                for y in &ys {
                    let mut c = x.clone();
                    c.extend(y.iter().cloned());
                    out.push(c);
                }
            }
            Some(out)
        }
        _ => None,
    }
}

/// DNF disjunction: concatenation of the disjunct lists.
fn dnf_or(a: Dnf, b: Dnf) -> Dnf {
    match (a, b) {
        (Some(mut xs), Some(ys)) => {
            xs.extend(ys);
            Some(xs)
        }
        _ => None,
    }
}

/// Names assigned (not `Let`-bound) anywhere in a block.
fn collect_assigned(body: &[Stmt], out: &mut Vec<String>) {
    for s in body {
        match s {
            Stmt::Assign { var, .. } => out.push(var.clone()),
            Stmt::If { then_, else_, .. } => {
                collect_assigned(then_, out);
                collect_assigned(else_, out);
            }
            Stmt::For { body, .. } => collect_assigned(body, out),
            _ => {}
        }
    }
}

/// Does this block return on every path?
fn always_returns(body: &[Stmt]) -> bool {
    match body.last() {
        Some(Stmt::Return) => true,
        Some(Stmt::If { then_, else_, .. }) => always_returns(then_) && always_returns(else_),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mekong_kernel::builder::*;
    use mekong_kernel::Kernel;

    /// Evaluate a 6-in map on a concrete block (bo, bi) with params
    /// `[bd..., gd..., scalars...]`; returns sorted element coordinates.
    fn apply(map: &Map, input: &[i64; 6], params: &[i64]) -> Vec<Vec<i64>> {
        map.apply_point(input, params).unwrap()
    }

    fn vadd() -> Kernel {
        Kernel {
            name: "vadd".into(),
            params: vec![
                scalar("n"),
                array_f32("a", &[ext("n")]),
                array_f32("b", &[ext("n")]),
                array_f32("c", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                store(
                    "c",
                    vec![v("i")],
                    load("a", vec![v("i")]) + load("b", vec![v("i")]),
                ),
            ],
        }
    }

    #[test]
    fn vadd_maps_are_identity_ranges() {
        let m = analyze_kernel(&vadd()).unwrap();
        assert!(m.verdict.is_partitionable(), "verdict: {:?}", m.verdict);
        let c = match m.arg("c").unwrap() {
            ArgModel::Array { write, .. } => write.as_ref().unwrap(),
            _ => panic!(),
        };
        assert!(c.exact);
        // Block (bo=32, bi=4) with bd=8, gd=16, n=1000:
        // writes elements 32..40.
        let params = [1, 1, 8, 1, 1, 16, 1000];
        let outs = apply(&c.map, &[0, 0, 32, 0, 0, 4], &params);
        let expect: Vec<Vec<i64>> = (32..40).map(|e| vec![e]).collect();
        assert_eq!(outs, expect);
        // Guard clips at n: block with bo=996 writes 996..1000 only.
        let outs = apply(&c.map, &[0, 0, 996, 0, 0, 5], &params);
        let expect: Vec<Vec<i64>> = (996..1000).map(|e| vec![e]).collect();
        assert_eq!(outs, expect);
    }

    #[test]
    fn vadd_reads_match_writes() {
        let m = analyze_kernel(&vadd()).unwrap();
        let a = match m.arg("a").unwrap() {
            ArgModel::Array { read, write, .. } => {
                assert!(write.is_none());
                read.as_ref().unwrap()
            }
            _ => panic!(),
        };
        let params = [1, 1, 8, 1, 1, 16, 1000];
        let outs = apply(&a.map, &[0, 0, 32, 0, 0, 4], &params);
        assert_eq!(outs.len(), 8);
    }

    fn stencil_1d() -> Kernel {
        // out[i] = in[i-1] + in[i] + in[i+1], clamped by a guard.
        Kernel {
            name: "stencil".into(),
            params: vec![
                scalar("n"),
                array_f32("input", &[ext("n")]),
                array_f32("output", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").lt(i(1)).or(v("i").ge(v("n") - i(1)))),
                store(
                    "output",
                    vec![v("i")],
                    load("input", vec![v("i") - i(1)])
                        + load("input", vec![v("i")])
                        + load("input", vec![v("i") + i(1)]),
                ),
            ],
        }
    }

    #[test]
    fn stencil_read_includes_halo() {
        let m = analyze_kernel(&stencil_1d()).unwrap();
        assert!(m.verdict.is_partitionable(), "verdict: {:?}", m.verdict);
        let rd = match m.arg("input").unwrap() {
            ArgModel::Array { read, .. } => read.as_ref().unwrap(),
            _ => panic!(),
        };
        // Block bo=8, bi=1, bd=8, n=100: threads 8..16 (all inside the
        // guard), reads 7..=16.
        let params = [1, 1, 8, 1, 1, 16, 100];
        let outs = apply(&rd.map, &[0, 0, 8, 0, 0, 1], &params);
        let expect: Vec<Vec<i64>> = (7..=16).map(|e| vec![e]).collect();
        assert_eq!(outs, expect);
        // Write map excludes the boundary.
        let wr = match m.arg("output").unwrap() {
            ArgModel::Array { write, .. } => write.as_ref().unwrap(),
            _ => panic!(),
        };
        let outs = apply(&wr.map, &[0, 0, 0, 0, 0, 0], &params);
        let expect: Vec<Vec<i64>> = (1..8).map(|e| vec![e]).collect();
        assert_eq!(outs, expect); // thread 0 guarded out
    }

    #[test]
    fn matmul_row_reads_whole_k_range() {
        // C[r][c] = sum_k A[r][k] * B[k][c]
        let k = Kernel {
            name: "matmul".into(),
            params: vec![
                scalar("n"),
                array_f32("A", &[ext("n"), ext("n")]),
                array_f32("B", &[ext("n"), ext("n")]),
                array_f32("C", &[ext("n"), ext("n")]),
            ],
            body: vec![
                let_("r", global_y()),
                let_("c", global_x()),
                guard_return(v("r").ge(v("n")).or(v("c").ge(v("n")))),
                let_("acc", f(0.0)),
                for_(
                    "kk",
                    i(0),
                    v("n"),
                    vec![assign(
                        "acc",
                        v("acc")
                            + load("A", vec![v("r"), v("kk")]) * load("B", vec![v("kk"), v("c")]),
                    )],
                ),
                store("C", vec![v("r"), v("c")], v("acc")),
            ],
        };
        let m = analyze_kernel(&k).unwrap();
        assert!(m.verdict.is_partitionable(), "verdict: {:?}", m.verdict);
        // A read by block (boy=4, biy=1) with bd=(4,4): rows 4..8, all k.
        let params = [1, 4, 4, 1, 4, 4, 12]; // bd=(z1,y4,x4), gd=(1,4,4), n=12
        let a = match m.arg("A").unwrap() {
            ArgModel::Array { read, .. } => read.as_ref().unwrap(),
            _ => panic!(),
        };
        let outs = apply(&a.map, &[0, 4, 0, 0, 1, 0], &params);
        // rows 4..8 x cols 0..12 = 48 elements
        assert_eq!(outs.len(), 48);
        assert!(outs.contains(&vec![4, 0]) && outs.contains(&vec![7, 11]));
        assert!(!outs.contains(&vec![8, 0]));
        // B read: all rows, cols 0..4 for block bix=0.
        let b = match m.arg("B").unwrap() {
            ArgModel::Array { read, .. } => read.as_ref().unwrap(),
            _ => panic!(),
        };
        let outs = apply(&b.map, &[0, 4, 0, 0, 1, 0], &params);
        assert_eq!(outs.len(), 48); // 12 rows x 4 cols
        assert!(outs.contains(&vec![11, 3]));
        assert!(!outs.contains(&vec![0, 4]));
        // C written exactly on the 4x4 tile.
        let c = match m.arg("C").unwrap() {
            ArgModel::Array { write, .. } => write.as_ref().unwrap(),
            _ => panic!(),
        };
        let outs = apply(&c.map, &[0, 4, 0, 0, 1, 0], &params);
        assert_eq!(outs.len(), 16);
        assert!(c.exact);
    }

    #[test]
    fn non_injective_write_rejected() {
        // Every thread writes element 0 — a WAW hazard across blocks.
        let k = Kernel {
            name: "reduce_bad".into(),
            params: vec![scalar("n"), array_f32("out", &[ext("n")])],
            body: vec![store("out", vec![i(0)], f(1.0))],
        };
        let m = analyze_kernel(&k).unwrap();
        assert_eq!(
            m.verdict,
            Verdict::NonInjectiveWrite {
                array: "out".into()
            }
        );
    }

    #[test]
    fn data_dependent_write_is_unmodeled() {
        // out[idx[i]] = 1.0 — indirect write cannot be modeled.
        let k = Kernel {
            name: "scatter".into(),
            params: vec![
                scalar("n"),
                array_f32("idx", &[ext("n")]),
                array_f32("out", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                store("out", vec![to_i64(load("idx", vec![v("i")]))], f(1.0)),
            ],
        };
        let m = analyze_kernel(&k).unwrap();
        assert_eq!(
            m.verdict,
            Verdict::Unmodeled {
                array: "out".into()
            }
        );
    }

    #[test]
    fn annotated_indirect_write_is_still_rejected() {
        // Even with a value-range annotation bounding the indices, an
        // indirect *write* is only a box — inexact, so partitioning is
        // refused (§4 requires exact writes).
        let k = Kernel {
            name: "scatter_bounded".into(),
            params: vec![
                scalar("n"),
                array_f32("idx", &[ext("n")]),
                array_f32("out", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                store("out", vec![to_i64(load("idx", vec![v("i")]))], f(1.0)),
            ],
        };
        let mut ranges = ValueRanges::new();
        ranges.insert("idx".into(), (v("$0") - i(1), v("$0") + i(1)));
        let m = analyze_kernel_with(&k, &ranges).unwrap();
        assert_eq!(
            m.verdict,
            Verdict::InexactWrite {
                array: "out".into()
            }
        );
    }

    #[test]
    fn conditional_write_under_unknown_guard_is_inexact() {
        // if (a[i] > 0) out[i] = 1.0 — data-dependent condition.
        let k = Kernel {
            name: "cond".into(),
            params: vec![
                scalar("n"),
                array_f32("a", &[ext("n")]),
                array_f32("out", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                if_(
                    load("a", vec![v("i")]).gt(f(0.0)),
                    vec![store("out", vec![v("i")], f(1.0))],
                    vec![],
                ),
            ],
        };
        let m = analyze_kernel(&k).unwrap();
        assert_eq!(
            m.verdict,
            Verdict::InexactWrite {
                array: "out".into()
            }
        );
        // The read of a[] is still modeled (must-read).
        let rd = match m.arg("a").unwrap() {
            ArgModel::Array { read, .. } => read.as_ref().unwrap(),
            _ => panic!(),
        };
        assert!(rd.exact);
    }

    #[test]
    fn strided_write_is_conservatively_rejected() {
        // out[2*i] writes only even elements. The integer projection of
        // that set needs an existential divisibility term (isl would keep
        // a div); our FM-based projection over-approximates, flags the
        // write map inexact, and the kernel is rejected for partitioning —
        // the sound direction of §4's rule.
        let k = Kernel {
            name: "stride".into(),
            params: vec![scalar("n"), array_f32("out", &[ext("n")])],
            body: vec![
                let_("i", global_x()),
                guard_return((v("i") * i(2)).ge(v("n"))),
                store("out", vec![v("i") * i(2)], f(1.0)),
            ],
        };
        let m = analyze_kernel(&k).unwrap();
        assert_eq!(
            m.verdict,
            Verdict::InexactWrite {
                array: "out".into()
            }
        );
        // The same stride on the *read* side is a legal over-approximation
        // and keeps the kernel partitionable.
        let k2 = Kernel {
            name: "stride_read".into(),
            params: vec![
                scalar("n"),
                array_f32("a", &[ext("n")]),
                array_f32("out", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return((v("i") * i(2)).ge(v("n"))),
                store("out", vec![v("i")], load("a", vec![v("i") * i(2)])),
            ],
        };
        let m2 = analyze_kernel(&k2).unwrap();
        assert!(m2.verdict.is_partitionable(), "verdict: {:?}", m2.verdict);
        let rd = match m2.arg("a").unwrap() {
            ArgModel::Array { read, .. } => read.as_ref().unwrap(),
            _ => panic!(),
        };
        assert!(!rd.exact, "strided read should be flagged approximate");
        // The over-approximated read still covers the true footprint.
        let params = [1, 1, 4, 1, 1, 4, 100];
        let outs = apply(&rd.map, &[0, 0, 4, 0, 0, 1], &params);
        for want in [8i64, 10, 12, 14] {
            assert!(outs.contains(&vec![want]), "missing read of {want}");
        }
    }

    #[test]
    fn blockoff_detected_through_locals() {
        // off = blockIdx.x * blockDim.x; i = off + threadIdx.x
        let k = Kernel {
            name: "via_local".into(),
            params: vec![scalar("n"), array_f32("out", &[ext("n")])],
            body: vec![
                let_("off", bid(Axis::X) * bdim(Axis::X)),
                let_("i", v("off") + tid(Axis::X)),
                guard_return(v("i").ge(v("n"))),
                store("out", vec![v("i")], f(1.0)),
            ],
        };
        let m = analyze_kernel(&k).unwrap();
        assert!(m.verdict.is_partitionable(), "verdict: {:?}", m.verdict);
        let wr = match m.arg("out").unwrap() {
            ArgModel::Array { write, .. } => write.as_ref().unwrap(),
            _ => panic!(),
        };
        let params = [1, 1, 8, 1, 1, 4, 100];
        let outs = apply(&wr.map, &[0, 0, 16, 0, 0, 2], &params);
        assert_eq!(outs.len(), 8);
        assert_eq!(outs[0], vec![16]);
    }

    // ---- interval-domain tests -------------------------------------------

    #[test]
    fn annotated_gather_read_is_a_bounded_box() {
        // y[i] = x[idx[i]] with `range idx : $0 - 1 .. $0 + 1`: the read
        // of x becomes a per-thread box [i-1, i+1] instead of the whole
        // array, and the kernel stays partitionable (writes are affine).
        let k = Kernel {
            name: "gather".into(),
            params: vec![
                scalar("n"),
                array_f32("idx", &[ext("n")]),
                array_f32("x", &[ext("n")]),
                array_f32("y", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                store(
                    "y",
                    vec![v("i")],
                    load("x", vec![to_i64(load("idx", vec![v("i")]))]),
                ),
            ],
        };
        let mut ranges = ValueRanges::new();
        ranges.insert("idx".into(), (v("$0") - i(1), v("$0") + i(1)));
        let m = analyze_kernel_with(&k, &ranges).unwrap();
        assert!(m.verdict.is_partitionable(), "verdict: {:?}", m.verdict);
        let rd = match m.arg("x").unwrap() {
            ArgModel::Array { read, .. } => read.as_ref().unwrap(),
            _ => panic!(),
        };
        assert!(!rd.exact);
        assert!(rd.may);
        assert!(rd.interval, "box read should carry the interval flag");
        // Block bo=8, bi=1, bd=8, n=100: threads 8..16 read [7, 16].
        let params = [1, 1, 8, 1, 1, 16, 100];
        let outs = apply(&rd.map, &[0, 0, 8, 0, 0, 1], &params);
        let expect: Vec<Vec<i64>> = (7..=16).map(|e| vec![e]).collect();
        assert_eq!(outs, expect);
        // The extent clip holds at the boundary: first block reads [0, 8].
        let outs = apply(&rd.map, &[0, 0, 0, 0, 0, 0], &params);
        let expect: Vec<Vec<i64>> = (0..=8).map(|e| vec![e]).collect();
        assert_eq!(outs, expect);
    }

    #[test]
    fn unannotated_gather_read_clips_to_extent() {
        // Without an annotation the indirect read degrades to the whole
        // array — but bounded by the extent, and the domain constraints
        // (the guard) still apply to other, affine dimensions.
        let k = Kernel {
            name: "gather_plain".into(),
            params: vec![
                scalar("n"),
                array_f32("idx", &[ext("n")]),
                array_f32("x", &[ext("n")]),
                array_f32("y", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                store(
                    "y",
                    vec![v("i")],
                    load("x", vec![to_i64(load("idx", vec![v("i")]))]),
                ),
            ],
        };
        let m = analyze_kernel(&k).unwrap();
        assert!(m.verdict.is_partitionable(), "verdict: {:?}", m.verdict);
        let rd = match m.arg("x").unwrap() {
            ArgModel::Array { read, .. } => read.as_ref().unwrap(),
            _ => panic!(),
        };
        assert!(!rd.exact);
        assert!(rd.interval);
        let params = [1, 1, 8, 1, 1, 2, 10];
        let outs = apply(&rd.map, &[0, 0, 8, 0, 0, 1], &params);
        let expect: Vec<Vec<i64>> = (0..10).map(|e| vec![e]).collect();
        assert_eq!(outs, expect);
    }

    #[test]
    fn annotated_loop_bounds_give_banded_box() {
        // Histogram shape: for (k = off[b]; k < off[b+1]; k++) read
        // val[k], with `range off : $0*64 .. $0*64 + 64`. The loop body
        // read becomes the partition-dependent box [64·b, 64·b + 127].
        let k = Kernel {
            name: "hist".into(),
            params: vec![
                scalar("n"),
                scalar("npp"),
                array_f32("off", &[ext("npp")]),
                array_f32("val", &[ext("n")]),
                array_f32("out", &[ext("npp")]),
            ],
            body: vec![
                let_("b", global_x()),
                guard_return(v("b").ge(v("npp") - i(1))),
                let_("acc", f(0.0)),
                for_(
                    "k",
                    to_i64(load("off", vec![v("b")])),
                    to_i64(load("off", vec![v("b") + i(1)])),
                    vec![assign("acc", v("acc") + load("val", vec![v("k")]))],
                ),
                store("out", vec![v("b")], v("acc")),
            ],
        };
        let mut ranges = ValueRanges::new();
        ranges.insert("off".into(), (v("$0") * i(64), v("$0") * i(64) + i(64)));
        let m = analyze_kernel_with(&k, &ranges).unwrap();
        assert!(m.verdict.is_partitionable(), "verdict: {:?}", m.verdict);
        let rd = match m.arg("val").unwrap() {
            ArgModel::Array { read, .. } => read.as_ref().unwrap(),
            _ => panic!(),
        };
        assert!(rd.interval);
        // bd=4, block bi=1: buckets b in 4..8 → k in [256, 575].
        // params: [bd, gd, n, npp]
        let params = [1, 1, 4, 1, 1, 4, 4096, 16];
        let outs = apply(&rd.map, &[0, 0, 4, 0, 0, 1], &params);
        let expect: Vec<Vec<i64>> = (256..=575).map(|e| vec![e]).collect();
        assert_eq!(outs, expect);
    }

    #[test]
    fn widened_accumulator_index_stays_bounded() {
        // x starts at 0 and climbs by 1 per iteration; a[x] inside the
        // loop must not be recorded with the first-iteration value. The
        // widened state keeps lo = 0 (after the in-body increment: 1),
        // drops hi, and the extent clip bounds the box — and the analysis
        // terminates (the widening-termination satellite).
        let k = Kernel {
            name: "climb".into(),
            params: vec![
                scalar("n"),
                scalar("m"),
                array_f32("a", &[ext("n")]),
                array_f32("out", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                let_("x", i(0)),
                let_("acc", f(0.0)),
                for_(
                    "k",
                    i(0),
                    v("m"),
                    vec![
                        assign("x", v("x") + i(1)),
                        assign("acc", v("acc") + load("a", vec![v("x")])),
                    ],
                ),
                store("out", vec![v("i")], v("acc")),
            ],
        };
        let m = analyze_kernel(&k).unwrap();
        assert!(m.verdict.is_partitionable(), "verdict: {:?}", m.verdict);
        let rd = match m.arg("a").unwrap() {
            ArgModel::Array { read, .. } => read.as_ref().unwrap(),
            _ => panic!(),
        };
        assert!(rd.interval);
        // params: [bd, gd, n, m]; the box is [1, n-1] for every block.
        let params = [1, 1, 4, 1, 1, 2, 10, 3];
        let outs = apply(&rd.map, &[0, 0, 0, 0, 0, 0], &params);
        let expect: Vec<Vec<i64>> = (1..10).map(|e| vec![e]).collect();
        assert_eq!(outs, expect);
    }

    #[test]
    fn boxed_mode_contains_affine_footprint() {
        // Force-boxed reads must cover the exact footprint (here they
        // coincide: the box of an affine index is [e, e]).
        let exact = analyze_kernel(&stencil_1d()).unwrap();
        let boxed = analyze_kernel_boxed(&stencil_1d()).unwrap();
        assert!(boxed.verdict.is_partitionable());
        let get = |m: &KernelModel| match m.arg("input").unwrap() {
            ArgModel::Array { read, .. } => read.clone().unwrap(),
            _ => panic!(),
        };
        let (e, b) = (get(&exact), get(&boxed));
        assert!(b.interval);
        let params = [1, 1, 8, 1, 1, 16, 100];
        for bi in 0..4 {
            let input = [0, 0, bi * 8, 0, 0, bi];
            let exact_outs = apply(&e.map, &input, &params);
            let boxed_outs = apply(&b.map, &input, &params);
            for o in &exact_outs {
                assert!(boxed_outs.contains(o), "box misses exact read {o:?}");
            }
        }
    }
}
