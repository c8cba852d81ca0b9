//! Render kernel IR back to CUDA-like source text.
//!
//! Used by the host-code rewriter's diagnostics, by tests, and to make the
//! partitioning transform inspectable (the paper's Figure 4 pseudo-code is
//! the host-side counterpart of this).

use crate::ir::{BinOp, Expr, Kernel, KernelParam, Stmt, UnOp};
use std::fmt::Write;

/// Render a kernel as CUDA-like source.
pub fn kernel_to_string(k: &Kernel) -> String {
    let mut out = String::new();
    let params: Vec<String> = k
        .params
        .iter()
        .map(|p| match p {
            KernelParam::Scalar { name, ty } => format!("{ty} {name}"),
            KernelParam::Array {
                name,
                elem,
                extents,
            } => {
                let dims: Vec<String> = extents.iter().map(|e| format!("[{e}]")).collect();
                format!("{elem} {name}{}", dims.join(""))
            }
        })
        .collect();
    let _ = writeln!(out, "__global__ void {}({}) {{", k.name, params.join(", "));
    for s in &k.body {
        stmt_to_string(s, 1, &mut out);
    }
    out.push_str("}\n");
    out
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

/// Render one statement (with indentation) into `out`.
pub(crate) fn stmt_to_string(s: &Stmt, level: usize, out: &mut String) {
    match s {
        Stmt::Let { var, value } => {
            indent(level, out);
            let _ = writeln!(out, "auto {var} = {};", expr_to_string(value));
        }
        Stmt::Assign { var, value } => {
            indent(level, out);
            let _ = writeln!(out, "{var} = {};", expr_to_string(value));
        }
        Stmt::Store {
            array,
            indices,
            value,
        } => {
            indent(level, out);
            let idx: Vec<String> = indices
                .iter()
                .map(|i| format!("[{}]", expr_to_string(i)))
                .collect();
            let _ = writeln!(out, "{array}{} = {};", idx.join(""), expr_to_string(value));
        }
        Stmt::If { cond, then_, else_ } => {
            indent(level, out);
            let _ = writeln!(out, "if ({}) {{", expr_to_string(cond));
            for s in then_ {
                stmt_to_string(s, level + 1, out);
            }
            if else_.is_empty() {
                indent(level, out);
                out.push_str("}\n");
            } else {
                indent(level, out);
                out.push_str("} else {\n");
                for s in else_ {
                    stmt_to_string(s, level + 1, out);
                }
                indent(level, out);
                out.push_str("}\n");
            }
        }
        Stmt::For {
            var,
            lo,
            hi,
            step,
            body,
        } => {
            indent(level, out);
            let stepstr = if *step == 1 {
                format!("{var}++")
            } else {
                format!("{var} += {step}")
            };
            let _ = writeln!(
                out,
                "for (int {var} = {}; {var} < {}; {stepstr}) {{",
                expr_to_string(lo),
                expr_to_string(hi)
            );
            for s in body {
                stmt_to_string(s, level + 1, out);
            }
            indent(level, out);
            out.push_str("}\n");
        }
        Stmt::Return => {
            indent(level, out);
            out.push_str("return;\n");
        }
        Stmt::SyncThreads => {
            indent(level, out);
            out.push_str("__syncthreads();\n");
        }
    }
}

fn binop_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::EqEq => "==",
        BinOp::Ne => "!=",
        BinOp::And => "&&",
        BinOp::Or => "||",
        BinOp::Min | BinOp::Max => unreachable!("rendered as calls"),
    }
}

/// Render an expression.
pub(crate) fn expr_to_string(e: &Expr) -> String {
    match e {
        Expr::Int(v) => v.to_string(),
        Expr::Float(v) => {
            if v.fract() == 0.0 {
                format!("{v:.1}f")
            } else {
                format!("{v}f")
            }
        }
        Expr::Var(n) => n.clone(),
        Expr::Grid(g) => g.to_string(),
        Expr::Load { array, indices } => {
            let idx: Vec<String> = indices
                .iter()
                .map(|i| format!("[{}]", expr_to_string(i)))
                .collect();
            format!("{array}{}", idx.join(""))
        }
        Expr::Unary(op, a) => match op {
            UnOp::Neg => format!("(-{})", expr_to_string(a)),
            UnOp::Not => format!("(!{})", expr_to_string(a)),
            UnOp::Sqrt => format!("sqrtf({})", expr_to_string(a)),
            UnOp::Abs => format!("fabsf({})", expr_to_string(a)),
            UnOp::Exp => format!("expf({})", expr_to_string(a)),
            UnOp::Log => format!("logf({})", expr_to_string(a)),
        },
        Expr::Binary(op, a, b) => match op {
            BinOp::Min => format!("min({}, {})", expr_to_string(a), expr_to_string(b)),
            BinOp::Max => format!("max({}, {})", expr_to_string(a), expr_to_string(b)),
            _ => format!(
                "({} {} {})",
                expr_to_string(a),
                binop_str(*op),
                expr_to_string(b)
            ),
        },
        Expr::Cast(ty, a) => format!("({ty})({})", expr_to_string(a)),
        Expr::Select(c, a, b) => format!(
            "({} ? {} : {})",
            expr_to_string(c),
            expr_to_string(a),
            expr_to_string(b)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::ir::Kernel;

    #[test]
    fn kernel_renders_as_cuda() {
        let k = Kernel {
            name: "vadd".into(),
            params: vec![
                scalar("n"),
                array_f32("a", &[ext("n")]),
                array_f32("c", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                store("c", vec![v("i")], load("a", vec![v("i")]) * f(2.0)),
            ],
        };
        let src = kernel_to_string(&k);
        assert!(src.contains("__global__ void vadd(int n, float a[n], float c[n])"));
        assert!(src.contains("threadIdx.x"));
        assert!(src.contains("blockIdx.x"));
        assert!(src.contains("return;"));
        assert!(src.contains("c[i] = (a[i] * 2.0f);"));
    }

    #[test]
    fn loops_and_minmax_render() {
        let s = for_(
            "j",
            i(0),
            v("n"),
            vec![assign("acc", max(v("acc"), load("a", vec![v("j")])))],
        );
        let mut out = String::new();
        stmt_to_string(&s, 0, &mut out);
        assert!(out.contains("for (int j = 0; j < n; j++) {"));
        assert!(out.contains("acc = max(acc, a[j]);"));
    }
}
