//! The lowered executor against the tree-walking interpreter it replaced
//! ([`oracle`]): same `Result<ExecStats>`, same bytes in every buffer
//! (also after an error), in both execution modes.
//!
//! Kernels are generated scope-aware, so they are *valid* (they lower)
//! by construction, and are meant to reach every corner the two
//! executors could disagree in: nested loops with trip counts on both
//! sides of the counting-mode sampling threshold, early `return`,
//! shadowing `let`s (of locals and of parameters, extent parameters
//! included), assignments that change a local's type, every operator
//! over mixed `i64`/`f32`/`f64`, in- and out-of-bounds accesses,
//! non-integer indices and bounds, zero divisors, `i64` extremes, and
//! arguments of the wrong kind.

mod oracle;

use mekong_kernel::builder::*;
use mekong_kernel::{
    execute_grid, Axis, BinOp, Dim3, ExecMode, ExecStats, Expr, Extent, Kernel, KernelArg,
    KernelError, KernelParam, ScalarTy, Stmt, UnOp, Value, VecMem,
};
use proptest::prelude::*;

/// One generated launch.
#[derive(Debug)]
struct Case {
    kernel: Kernel,
    /// `n`, `m` (integers unless a wrong-kind argument was drawn).
    args: Vec<KernelArg>,
    mem: VecMem,
    grid: Dim3,
    block: Dim3,
}

const LOCALS: &[&str] = &["x", "y", "z", "acc", "n", "alpha"];
const ARRAYS: &[(&str, usize)] = &[("a", 1), ("b", 2), ("c", 1), ("out", 1), ("wide", 1)];
const BIN_OPS: &[BinOp] = &[
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Min,
    BinOp::Max,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::EqEq,
    BinOp::Ne,
    BinOp::And,
    BinOp::Or,
];
const UN_OPS: &[UnOp] = &[
    UnOp::Neg,
    UnOp::Not,
    UnOp::Sqrt,
    UnOp::Abs,
    UnOp::Exp,
    UnOp::Log,
];
/// Trip counts around `SAMPLE_THRESHOLD` (64) and `SAMPLE_ITERS` (16).
const TRIPS: &[i64] = &[0, 1, 2, 5, 15, 16, 17, 63, 64, 65, 70, 100];

struct Gen<'r> {
    rng: &'r mut TestRng,
    /// Locals in scope, innermost last.
    scope: Vec<&'static str>,
    /// Enclosing loop variables (small integers: safe as loop bounds).
    loop_vars: Vec<&'static str>,
    /// Iterations of the enclosing loops, multiplied: bounds the work of
    /// one case.
    nest_trips: i64,
}

impl Gen<'_> {
    fn below(&mut self, n: usize) -> usize {
        self.rng.below(n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    fn int_literal(&mut self) -> Expr {
        match self.below(12) {
            0 => i(i64::MIN),
            1 => i(i64::MAX),
            2 => i(-1),
            3 => i(0),
            _ => i(self.below(9) as i64 - 2),
        }
    }

    /// A name that resolves: a local in scope or a scalar parameter.
    fn var(&mut self) -> Expr {
        if !self.loop_vars.is_empty() && self.below(4) == 0 {
            // Iterations that differ are what loop sampling can get wrong.
            let vars = self.loop_vars.clone();
            v(self.pick(&vars))
        } else if !self.scope.is_empty() && self.below(3) > 0 {
            let scope = self.scope.clone();
            v(self.pick(&scope))
        } else {
            v(self.pick(&["n", "m", "alpha", "beta"]))
        }
    }

    fn grid_var(&mut self) -> Expr {
        let a = self.pick(&[Axis::X, Axis::Y]);
        match self.below(4) {
            0 => tid(a),
            1 => bid(a),
            2 => bdim(a),
            _ => gdim(a),
        }
    }

    /// An index that is usually in bounds, sometimes anything.
    fn index(&mut self, depth: usize) -> Expr {
        match self.below(16) {
            0 => self.expr(depth),
            1 => i(self.below(6) as i64 - 1),
            2 | 3 => tid(Axis::Y),
            4..=6 if !self.loop_vars.is_empty() => {
                let vars = self.loop_vars.clone();
                Expr::bin(BinOp::Rem, v(self.pick(&vars)), i(2))
            }
            _ => i(self.below(2) as i64),
        }
    }

    fn access(&mut self, depth: usize) -> (&'static str, Vec<Expr>) {
        let (name, rank) = self.pick(ARRAYS);
        (name, (0..rank).map(|_| self.index(depth)).collect())
    }

    fn expr(&mut self, depth: usize) -> Expr {
        if depth == 0 {
            return match self.below(4) {
                0 => self.int_literal(),
                1 => f(self.below(7) as f64 * 0.75 - 1.5),
                2 => self.var(),
                _ => self.grid_var(),
            };
        }
        let d = depth - 1;
        match self.below(10) {
            0 => self.expr(0),
            1 | 2 => {
                let (array, indices) = self.access(d);
                load(array, indices)
            }
            3 => Expr::un(self.pick(UN_OPS), self.expr(d)),
            4..=6 => Expr::bin(self.pick(BIN_OPS), self.expr(d), self.expr(d)),
            7 => Expr::Cast(
                self.pick(&[ScalarTy::I64, ScalarTy::F32, ScalarTy::F64]),
                Box::new(self.expr(d)),
            ),
            8 => select(self.expr(d), self.expr(d), self.expr(d)),
            _ => self.var(),
        }
    }

    /// A loop bound: small, or extreme — never a large finite trip count.
    fn bound(&mut self) -> Expr {
        match self.below(6) {
            0 => v(self.pick(&["n", "m"])),
            1 if !self.loop_vars.is_empty() => {
                let vars = self.loop_vars.clone();
                v(self.pick(&vars))
            }
            2 => tid(Axis::X),
            _ => i(self.below(4) as i64 - 1),
        }
    }

    fn for_loop(&mut self, depth: usize) -> Stmt {
        let var = self.pick(&["j", "k", "x"]);
        let step = self.pick(&[1, 1, 1, 2, 3, i64::MAX]);
        let outer_trips = self.nest_trips;
        let (lo, hi) = match self.below(24) {
            // Over any budget, and `hi - lo` overflows.
            0 => (i(i64::MIN), i(i64::MAX)),
            1 => (i(0), i(i64::MAX)),
            // A bound of the wrong type.
            2 => (i(0), v("alpha")),
            3..=6 => {
                self.nest_trips *= 5;
                (self.bound(), self.bound())
            }
            _ => {
                let lo = self.below(5) as i64 - 2;
                let affordable = TRIPS.iter().filter(|&&t| t * outer_trips <= 2000).count();
                let trip = self.pick(&TRIPS[..affordable]);
                self.nest_trips *= trip.max(1);
                (i(lo), i(lo + trip * step.min(3)))
            }
        };
        self.scope.push(var);
        self.loop_vars.push(var);
        let body = self.block(depth - 1, 3);
        self.loop_vars.pop();
        self.scope.pop();
        self.nest_trips = outer_trips;
        for_step(var, lo, hi, step, body)
    }

    fn stmt(&mut self, depth: usize) -> Stmt {
        match self.below(if depth == 0 { 6 } else { 10 }) {
            0 | 1 => {
                let value = self.expr(2);
                let var = self.pick(LOCALS);
                self.scope.push(var);
                let_(var, value)
            }
            2 if !self.scope.is_empty() => {
                let scope = self.scope.clone();
                assign(self.pick(&scope), self.expr(2))
            }
            2..=4 => {
                let (array, indices) = self.access(1);
                store(array, indices, self.expr(2))
            }
            5 => Stmt::SyncThreads,
            6 => guard_return(self.expr(1)),
            7 | 8 => if_(
                self.expr(2),
                self.block(depth - 1, 3),
                self.block(depth - 1, 2),
            ),
            _ => self.for_loop(depth),
        }
    }

    fn block(&mut self, depth: usize, max_len: usize) -> Vec<Stmt> {
        let outer = self.scope.len();
        let len = self.below(max_len + 1);
        let body = (0..len).map(|_| self.stmt(depth)).collect();
        self.scope.truncate(outer);
        body
    }
}

struct Cases;

impl Strategy for Cases {
    type Value = Case;

    fn gen_value(&self, rng: &mut TestRng) -> Case {
        let mut g = Gen {
            rng,
            scope: Vec::new(),
            loop_vars: Vec::new(),
            nest_trips: 1,
        };
        let body = g.block(3, 6);
        let array = |name: &str, elem, extents: &[Extent]| KernelParam::Array {
            name: name.into(),
            elem,
            extents: extents.to_vec(),
        };
        let kernel = Kernel {
            name: "generated".into(),
            params: vec![
                scalar("n"),
                scalar("m"),
                scalar_f32("alpha"),
                KernelParam::Scalar {
                    name: "beta".into(),
                    ty: ScalarTy::F64,
                },
                array("a", ScalarTy::F32, &[ext("n")]),
                array("b", ScalarTy::F64, &[ext("m"), ext_c(3)]),
                array("c", ScalarTy::I64, &[ext_c(4)]),
                array("out", ScalarTy::F32, &[ext("n")]),
                array("wide", ScalarTy::I64, &[ext_c(4)]),
            ],
            body,
        };
        let (n, m) = (3 + g.below(3), 2 + g.below(2));
        let mut mem = VecMem::new();
        let mut fill = |count: usize, ty: ScalarTy| {
            let values: Vec<Value> = (0..count)
                .map(|k| Value::I64((k as i64 * 5 + 3) % 7 - 2).cast(ty))
                .collect();
            KernelArg::Array(mem.alloc_from(&values))
        };
        let mut args = vec![
            KernelArg::Scalar(Value::I64(n as i64)),
            KernelArg::Scalar(Value::I64(m as i64)),
            KernelArg::Scalar(Value::F32(1.5)),
            KernelArg::Scalar(Value::F64(-0.25)),
            fill(n, ScalarTy::F32),
            fill(m * 3, ScalarTy::F64),
            fill(4, ScalarTy::I64),
            fill(n, ScalarTy::F32),
            fill(4, ScalarTy::I64),
        ];
        // Now and then, an argument of the wrong kind or type: a float
        // extent, a scalar for an array, an array for a scalar.
        if g.below(8) == 0 {
            let at = g.below(args.len());
            args[at] = match args[at] {
                KernelArg::Scalar(Value::I64(_)) => KernelArg::Scalar(Value::F32(4.0)),
                KernelArg::Scalar(_) => KernelArg::Array(0),
                KernelArg::Array(_) => KernelArg::Scalar(Value::I64(2)),
            };
        }
        Case {
            kernel,
            args,
            mem,
            grid: Dim3::new2(1 + g.below(2) as u32, 1 + g.below(2) as u32),
            block: Dim3::new2(1 + g.below(3) as u32, 1 + g.below(2) as u32),
        }
    }
}

/// Both executors over one launch: results and final memories.
type Outcome = (Result<ExecStats, KernelError>, VecMem);

fn run_both(case: &Case, mode: ExecMode) -> (Outcome, Outcome) {
    let (mut lowered, mut walked) = (case.mem.clone(), case.mem.clone());
    let got = execute_grid(
        &case.kernel,
        &case.args,
        case.grid,
        case.block,
        &mut lowered,
        mode,
    );
    let want = oracle::execute_grid(
        &case.kernel,
        &case.args,
        case.grid,
        case.block,
        &mut walked,
        mode,
    );
    ((got, lowered), (want, walked))
}

fn buffers(mem: &VecMem, n: usize) -> Vec<&[u8]> {
    (0..n).map(|id| mem.bytes(id)).collect()
}

proptest! {
    /// Generated kernels lower, and run to the oracle's result and bytes
    /// in both modes.
    #[test]
    fn lowered_executor_matches_the_tree_walker(case in Cases) {
        prop_assert_eq!(case.kernel.validate(), Ok(()));
        for mode in [ExecMode::Functional, ExecMode::CountOnly] {
            let ((got, lowered), (want, walked)) = run_both(&case, mode);
            prop_assert_eq!(&got, &want, "{:?}", mode);
            prop_assert_eq!(buffers(&lowered, 5), buffers(&walked, 5), "{:?}", mode);
        }
    }
}

/// One-thread kernel over `wide: i64[4]` with `body`; returns both
/// executors' results and `wide` afterwards.
fn run_edge(body: Vec<Stmt>, mode: ExecMode) -> (Outcome, Outcome) {
    let mut mem = VecMem::new();
    let wide = mem.alloc(4 * 8);
    let case = Case {
        kernel: Kernel {
            name: "edge".into(),
            params: vec![KernelParam::Array {
                name: "wide".into(),
                elem: ScalarTy::I64,
                extents: vec![ext_c(4)],
            }],
            body,
        },
        args: vec![KernelArg::Array(wide)],
        mem,
        grid: Dim3::new1(1),
        block: Dim3::new1(1),
    };
    run_both(&case, mode)
}

/// `wide[0] = e` must store `want` in both executors.
fn assert_stores(e: Expr, want: i64) {
    let ((got, lowered), (oracle, walked)) =
        run_edge(vec![store("wide", vec![i(0)], e)], ExecMode::Functional);
    assert_eq!(got, oracle);
    assert!(got.is_ok(), "{got:?}");
    for mem in [lowered, walked] {
        assert_eq!(mem.read_all(0, ScalarTy::I64)[0], Value::I64(want));
    }
}

#[test]
fn min_divided_by_minus_one_wraps() {
    assert_stores(i(i64::MIN) / i(-1), i64::MIN);
}

#[test]
fn min_remainder_minus_one_is_zero() {
    assert_stores(Expr::bin(BinOp::Rem, i(i64::MIN), i(-1)), 0);
}

#[test]
fn negating_min_wraps() {
    assert_stores(Expr::un(UnOp::Neg, i(i64::MIN)), i64::MIN);
}

#[test]
fn abs_of_min_wraps() {
    assert_stores(Expr::un(UnOp::Abs, i(i64::MIN)), i64::MIN);
}

#[test]
fn loop_over_the_whole_i64_range_exceeds_the_budget() {
    let body = vec![for_("j", i(i64::MIN), i(i64::MAX), vec![])];
    for mode in [ExecMode::Functional, ExecMode::CountOnly] {
        let ((got, _), (oracle, _)) = run_edge(body.clone(), mode);
        assert_eq!(got, oracle);
        assert_eq!(got, Err(KernelError::IterationBudget { var: "j".into() }));
    }
}

#[test]
fn huge_step_runs_its_few_iterations() {
    // span + step - 1 overflows; the trip count (2) does not.
    let body = vec![
        let_("count", i(0)),
        for_step(
            "j",
            i(0),
            i(i64::MAX),
            i64::MAX - 1,
            vec![assign("count", v("count") + i(1))],
        ),
        store("wide", vec![i(1)], v("count")),
    ];
    let ((got, lowered), (oracle, walked)) = run_edge(body, ExecMode::Functional);
    assert_eq!(got, oracle);
    for mem in [lowered, walked] {
        assert_eq!(mem.read_all(0, ScalarTy::I64)[1], Value::I64(2));
    }
}

#[test]
fn count_only_linearisation_wraps() {
    // Bounds are not checked in counting mode; the offset arithmetic of
    // an absurd index must wrap, not panic.
    let kernel = Kernel {
        name: "lin".into(),
        params: vec![array_f32("g", &[ext_c(i64::MAX), ext_c(i64::MAX)])],
        body: vec![let_("x", load("g", vec![i(i64::MAX), i(i64::MAX)]))],
    };
    let case = Case {
        kernel,
        args: vec![KernelArg::Array(0)],
        mem: VecMem::new(),
        grid: Dim3::new1(1),
        block: Dim3::new1(1),
    };
    let ((got, _), (oracle, _)) = run_both(&case, ExecMode::CountOnly);
    assert_eq!(got, oracle);
    assert_eq!(got.unwrap().loads, 1);
}

#[test]
fn sampling_starts_above_sixty_four_iterations() {
    // Early iterations cost more than late ones, so extrapolating from
    // the first 16 shows: 64 iterations all run, 65 are sampled.
    for trip in [64, 65] {
        let body = vec![for_(
            "j",
            i(0),
            i(trip),
            vec![if_(
                v("j").lt(i(8)),
                vec![store("wide", vec![i(0)], v("j") * v("j"))],
                vec![],
            )],
        )];
        let ((got, _), (oracle, _)) = run_edge(body, ExecMode::CountOnly);
        assert_eq!(got, oracle, "{trip} iterations");
        let expect = if trip == 64 {
            8
        } else {
            (8.0 * 65.0 / 16.0f64).round() as u64
        };
        assert_eq!(got.unwrap().stores, expect, "{trip} iterations");
    }
}

#[test]
fn mixed_comparisons_are_made_in_f64() {
    // 2^24 + 1 is not an f32: narrowing the integer would make these equal.
    assert_stores(select(i(16_777_217).gt(f(16_777_216.0)), i(1), i(0)), 1);
    assert_stores(select(i(16_777_217).eq_(f(16_777_216.0)), i(1), i(0)), 0);
}

#[test]
fn extents_name_parameters_not_locals() {
    // `let n = 100` must not widen `a[n]`.
    let kernel = Kernel {
        name: "shadow".into(),
        params: vec![scalar("n"), array_f32("a", &[ext("n")])],
        body: vec![let_("n", i(100)), store("a", vec![i(5)], f(1.0))],
    };
    let mut mem = VecMem::new();
    let a = mem.alloc(4 * 4);
    let case = Case {
        kernel,
        args: vec![KernelArg::Scalar(Value::I64(4)), KernelArg::Array(a)],
        mem,
        grid: Dim3::new1(1),
        block: Dim3::new1(1),
    };
    let ((got, _), (oracle, _)) = run_both(&case, ExecMode::Functional);
    assert_eq!(got, oracle);
    assert!(matches!(got, Err(KernelError::OutOfBounds { .. })));
}
