//! Programmer-supplied access-pattern annotations — the third remedy the
//! paper's conclusion proposes for unmodelable accesses (§11:
//! "annotation of the source code with write patterns by the
//! programmer").
//!
//! An annotation names a kernel, an argument and a direction, and gives
//! the access map in the library's isl-like syntax over the canonical
//! spaces: inputs `[boz, boy, box, biz, biy, bix]`, outputs one
//! dimension per array rank, parameters `[bdz, bdy, bdx, gdz, gdy, gdx,
//! <scalars…>]`:
//!
//! ```text
//! // @mekong scatter write out : [bdz,bdy,bdx,gdz,gdy,gdx,n] ->
//! //     { [boz,boy,box,biz,biy,bix] -> [e] : ... }
//! ```
//!
//! Annotated write maps still go through the §4 soundness gate: the
//! declared map must be block-injective along the split axis. What the
//! programmer vouches for is *accuracy* (that the kernel writes no more
//! than declared), which static analysis could not establish.
//!
//! A second, lighter flavor feeds the interval abstract interpreter
//! (see [`crate::interval`]): *value-range* annotations bound the values
//! stored in an index array, as inclusive `lo .. hi` templates over
//! `$0, $1, …` placeholders for the access's index expressions:
//!
//! ```text
//! // @mekong spmv range cols : $0 - w .. $0 + w
//! ```
//!
//! declares `$0 − w ≤ cols[$0][$1] ≤ $0 + w`. Range annotations are a
//! single line (no isl map follows the `:`); templates use integer
//! literals, scalar parameters, `$k`, `+ − *` `/ %` and parentheses.

use crate::extract::ValueRanges;
use crate::injective::is_block_injective;
use crate::model::{ArgModel, ArrayAccess, KernelModel, Verdict};
use crate::space::{AnalysisSpace, N_FIXED_PARAMS, N_MAP_IN};
use crate::strategy::suggest_split;
use crate::AnalysisError;
use mekong_kernel::{BinOp, Expr, UnOp};
use mekong_poly::Map;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Direction of an annotated access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnnotationKind {
    Read,
    Write,
    /// Value-range bound on an index array (`lo .. hi` templates).
    Range,
}

/// One `@mekong` annotation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Annotation {
    pub kernel: String,
    pub kind: AnnotationKind,
    pub arg: String,
    /// Access map in isl-like text.
    pub map_text: String,
    pub line: usize,
}

/// Scan raw source text for `@mekong <kernel> <read|write> <arg> : <map>`
/// annotations inside `//` comments. Multi-line maps continue on
/// subsequent `//` lines until the braces balance.
pub fn scan_annotations(src: &str) -> Result<Vec<Annotation>, String> {
    let mut out = Vec::new();
    let lines: Vec<&str> = src.lines().collect();
    let mut i = 0usize;
    while i < lines.len() {
        let line = lines[i].trim_start();
        let Some(rest) = line.strip_prefix("//") else {
            i += 1;
            continue;
        };
        let rest = rest.trim_start();
        let Some(body) = rest.strip_prefix("@mekong") else {
            i += 1;
            continue;
        };
        let body = body.trim();
        // <kernel> <read|write> <arg> : <map...>
        let mut parts = body.splitn(3, char::is_whitespace);
        let kernel = parts
            .next()
            .ok_or_else(|| format!("line {}: missing kernel name", i + 1))?
            .to_string();
        let kind = match parts.next() {
            Some("read") => AnnotationKind::Read,
            Some("write") => AnnotationKind::Write,
            Some("range") => AnnotationKind::Range,
            other => {
                return Err(format!(
                    "line {}: expected read|write|range, found {other:?}",
                    i + 1
                ))
            }
        };
        let tail = parts
            .next()
            .ok_or_else(|| format!("line {}: missing argument", i + 1))?;
        let (arg, mut map_text) = match tail.split_once(':') {
            Some((a, m)) => (a.trim().to_string(), m.trim().to_string()),
            None => return Err(format!("line {}: expected ':' before the map", i + 1)),
        };
        // Range annotations are a single line of `lo .. hi` templates —
        // no braces follow, so the map continuation loop must not run.
        if kind == AnnotationKind::Range {
            out.push(Annotation {
                kernel,
                kind,
                arg,
                map_text,
                line: i + 1,
            });
            i += 1;
            continue;
        }
        // Continue across `//` lines until braces balance.
        let balance = |s: &str| s.matches('{').count() as i64 - s.matches('}').count() as i64;
        let mut bal = balance(&map_text);
        let start = i;
        while (bal > 0 || !map_text.contains('{')) && i + 1 < lines.len() {
            i += 1;
            let cont = lines[i].trim_start();
            let Some(cont) = cont.strip_prefix("//") else {
                return Err(format!(
                    "line {}: annotation map is unterminated",
                    start + 1
                ));
            };
            map_text.push(' ');
            map_text.push_str(cont.trim());
            bal = balance(&map_text);
        }
        out.push(Annotation {
            kernel,
            kind,
            arg,
            map_text,
            line: start + 1,
        });
        i += 1;
    }
    Ok(out)
}

/// Apply annotations to a kernel model: replace the named access maps,
/// then re-run the §4 soundness verdict (split suggestion + injectivity).
pub fn apply_annotations(model: &mut KernelModel, annotations: &[Annotation]) -> crate::Result<()> {
    let mine: Vec<&Annotation> = annotations
        .iter()
        .filter(|a| a.kernel == model.kernel_name && a.kind != AnnotationKind::Range)
        .collect();
    if mine.is_empty() {
        return Ok(());
    }
    let space = AnalysisSpace {
        scalar_names: model.scalar_params.clone(),
    };
    for ann in &mine {
        let map = Map::parse(&ann.map_text).map_err(AnalysisError::Poly)?;
        let arg = model
            .args
            .iter_mut()
            .find(|a| a.name() == ann.arg)
            .ok_or_else(|| {
                AnalysisError::Poly(mekong_poly::PolyError::Parse(format!(
                    "annotation line {}: kernel {} has no argument {:?}",
                    ann.line, ann.kernel, ann.arg
                )))
            })?;
        let ArgModel::Array {
            extents,
            read,
            write,
            ..
        } = arg
        else {
            return Err(AnalysisError::Poly(mekong_poly::PolyError::Parse(format!(
                "annotation line {}: argument {:?} is not an array",
                ann.line, ann.arg
            ))));
        };
        // Shape checks: 6 inputs, rank outputs, fixed+scalar params.
        if map.n_in() != N_MAP_IN
            || map.n_out() != extents.len()
            || map.n_params() != N_FIXED_PARAMS + model.scalar_params.len()
        {
            return Err(AnalysisError::Poly(mekong_poly::PolyError::Parse(format!(
                "annotation line {}: map shape {}→{} with {} params does not fit \
                 argument {:?} (need {}→{} with {} params)",
                ann.line,
                map.n_in(),
                map.n_out(),
                map.n_params(),
                ann.arg,
                N_MAP_IN,
                extents.len(),
                N_FIXED_PARAMS + model.scalar_params.len(),
            ))));
        }
        let access = ArrayAccess {
            map,
            exact: true,
            may: false,
            interval: false,
        };
        match ann.kind {
            AnnotationKind::Read => *read = Some(access),
            AnnotationKind::Write => *write = Some(access),
            AnnotationKind::Range => unreachable!("ranges filtered above"),
        }
    }
    // Re-derive strategy and verdict with the declared maps in place.
    model.partitioning = suggest_split(&model.args);
    let mut verdict = Verdict::Partitionable;
    for a in &model.args {
        if !verdict.is_partitionable() {
            break;
        }
        if let ArgModel::Array {
            name,
            write: Some(w),
            ..
        } = a
        {
            if !w.exact {
                verdict = Verdict::InexactWrite {
                    array: name.clone(),
                };
            } else if !is_block_injective(&w.map, &space, model.partitioning)? {
                verdict = Verdict::NonInjectiveWrite {
                    array: name.clone(),
                };
            }
        }
    }
    model.verdict = verdict;
    Ok(())
}

/// Collect the value-range annotations into per-kernel [`ValueRanges`]
/// tables for [`crate::analyze_kernel_with`]: kernel name → array name →
/// inclusive `(lo, hi)` bound templates.
pub fn value_ranges(annotations: &[Annotation]) -> Result<HashMap<String, ValueRanges>, String> {
    let mut out: HashMap<String, ValueRanges> = HashMap::new();
    for a in annotations {
        if a.kind != AnnotationKind::Range {
            continue;
        }
        let (lo, hi) = a.map_text.split_once("..").ok_or_else(|| {
            format!(
                "line {}: range annotation must be '<lo> .. <hi>', got {:?}",
                a.line, a.map_text
            )
        })?;
        let lo = parse_range_expr(lo).map_err(|e| format!("line {}: {e}", a.line))?;
        let hi = parse_range_expr(hi).map_err(|e| format!("line {}: {e}", a.line))?;
        out.entry(a.kernel.clone())
            .or_default()
            .insert(a.arg.clone(), (lo, hi));
    }
    Ok(out)
}

/// Parse one side of a range template into a kernel [`Expr`]. Grammar:
/// integer literals, identifiers (scalar params), `$k` placeholders,
/// unary minus, `+ - * / %` with the usual precedence, parentheses.
pub(crate) fn parse_range_expr(text: &str) -> Result<Expr, String> {
    let toks = lex_range(text)?;
    let mut p = RangeParser { toks, pos: 0 };
    let e = p.expr()?;
    if p.pos != p.toks.len() {
        return Err(format!("trailing input after expression in {text:?}"));
    }
    Ok(e)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Int(i64),
    Ident(String),
    Op(char),
}

fn lex_range(text: &str) -> Result<Vec<Tok>, String> {
    let mut toks = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c.is_ascii_digit() {
            let mut n = String::new();
            while let Some(&d) = chars.peek() {
                if d.is_ascii_digit() {
                    n.push(d);
                    chars.next();
                } else {
                    break;
                }
            }
            toks.push(Tok::Int(
                n.parse().map_err(|_| format!("bad integer {n:?}"))?,
            ));
        } else if c.is_ascii_alphabetic() || c == '_' || c == '$' {
            let mut id = String::new();
            id.push(c);
            chars.next();
            while let Some(&d) = chars.peek() {
                if d.is_ascii_alphanumeric() || d == '_' {
                    id.push(d);
                    chars.next();
                } else {
                    break;
                }
            }
            toks.push(Tok::Ident(id));
        } else if matches!(c, '+' | '-' | '*' | '/' | '%' | '(' | ')') {
            toks.push(Tok::Op(c));
            chars.next();
        } else {
            return Err(format!("unexpected character {c:?} in range template"));
        }
    }
    Ok(toks)
}

struct RangeParser {
    toks: Vec<Tok>,
    pos: usize,
}

impl RangeParser {
    fn peek_op(&self) -> Option<char> {
        match self.toks.get(self.pos) {
            Some(Tok::Op(c)) => Some(*c),
            _ => None,
        }
    }

    fn expr(&mut self) -> Result<Expr, String> {
        let mut e = self.term()?;
        while let Some(c @ ('+' | '-')) = self.peek_op() {
            self.pos += 1;
            let rhs = self.term()?;
            let op = if c == '+' { BinOp::Add } else { BinOp::Sub };
            e = Expr::bin(op, e, rhs);
        }
        Ok(e)
    }

    fn term(&mut self) -> Result<Expr, String> {
        let mut e = self.factor()?;
        while let Some(c @ ('*' | '/' | '%')) = self.peek_op() {
            self.pos += 1;
            let rhs = self.factor()?;
            let op = match c {
                '*' => BinOp::Mul,
                '/' => BinOp::Div,
                _ => BinOp::Rem,
            };
            e = Expr::bin(op, e, rhs);
        }
        Ok(e)
    }

    fn factor(&mut self) -> Result<Expr, String> {
        match self.toks.get(self.pos).cloned() {
            Some(Tok::Op('-')) => {
                self.pos += 1;
                Ok(Expr::un(UnOp::Neg, self.factor()?))
            }
            Some(Tok::Op('(')) => {
                self.pos += 1;
                let e = self.expr()?;
                if self.peek_op() != Some(')') {
                    return Err("missing ')' in range template".into());
                }
                self.pos += 1;
                Ok(e)
            }
            Some(Tok::Int(v)) => {
                self.pos += 1;
                Ok(Expr::Int(v))
            }
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                Ok(Expr::Var(name))
            }
            other => Err(format!("unexpected token {other:?} in range template")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_kernel;
    use mekong_kernel::builder::*;
    use mekong_kernel::Kernel;

    fn scatter_kernel() -> Kernel {
        // out[f(i)] where f is opaque to the analysis (via a float cast
        // dance) — but the programmer knows it is the identity.
        Kernel {
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
        }
    }

    const IDENTITY_WRITE: &str = "[bdz, bdy, bdx, gdz, gdy, gdx, n] -> \
        { [boz, boy, box, biz, biy, bix] -> [e] : \
          box <= e and e < box + bdx and 0 <= e and e < n }";

    #[test]
    fn scan_finds_annotations() {
        let src = format!(
            "// @mekong scatter write out : {IDENTITY_WRITE}\n\
             __global__ void scatter(...) {{}}\n"
        );
        let anns = scan_annotations(&src).unwrap();
        assert_eq!(anns.len(), 1);
        assert_eq!(anns[0].kernel, "scatter");
        assert_eq!(anns[0].kind, AnnotationKind::Write);
        assert_eq!(anns[0].arg, "out");
    }

    #[test]
    fn scan_joins_multiline_maps() {
        let src = "\
// @mekong k write a : [bdz, bdy, bdx, gdz, gdy, gdx, n] ->
//    { [boz, boy, box, biz, biy, bix] -> [e] :
//      box <= e and e < box + bdx }
";
        let anns = scan_annotations(src).unwrap();
        assert_eq!(anns.len(), 1);
        assert!(anns[0].map_text.contains("box <= e"));
        Map::parse(&anns[0].map_text).unwrap();
    }

    #[test]
    fn annotation_rescues_unmodelable_write() {
        let k = scatter_kernel();
        let mut model = analyze_kernel(&k).unwrap();
        assert!(!model.verdict.is_partitionable());
        let anns = vec![Annotation {
            kernel: "scatter".into(),
            kind: AnnotationKind::Write,
            arg: "out".into(),
            map_text: IDENTITY_WRITE.into(),
            line: 1,
        }];
        apply_annotations(&mut model, &anns).unwrap();
        assert!(model.verdict.is_partitionable(), "{:?}", model.verdict);
    }

    #[test]
    fn annotated_write_still_faces_injectivity_gate() {
        let k = scatter_kernel();
        let mut model = analyze_kernel(&k).unwrap();
        let anns = vec![Annotation {
            kernel: "scatter".into(),
            kind: AnnotationKind::Write,
            arg: "out".into(),
            // Declares that everything writes element 0 — honest but
            // non-injective: must stay rejected.
            map_text: "[bdz, bdy, bdx, gdz, gdy, gdx, n] -> \
                { [boz, boy, box, biz, biy, bix] -> [e] : e = 0 and box >= 0 \
                  and 0 <= bix and bix < gdx }"
                .into(),
            line: 1,
        }];
        apply_annotations(&mut model, &anns).unwrap();
        assert!(matches!(model.verdict, Verdict::NonInjectiveWrite { .. }));
    }

    #[test]
    fn bad_shapes_are_reported() {
        let k = scatter_kernel();
        let mut model = analyze_kernel(&k).unwrap();
        let anns = vec![Annotation {
            kernel: "scatter".into(),
            kind: AnnotationKind::Write,
            arg: "out".into(),
            // Wrong number of inputs.
            map_text: "[n] -> { [i] -> [e] : e = i }".into(),
            line: 1,
        }];
        assert!(apply_annotations(&mut model, &anns).is_err());
        // Unknown argument.
        let anns = vec![Annotation {
            kernel: "scatter".into(),
            kind: AnnotationKind::Write,
            arg: "ghost".into(),
            map_text: IDENTITY_WRITE.into(),
            line: 1,
        }];
        assert!(apply_annotations(&mut model, &anns).is_err());
    }

    #[test]
    fn scan_finds_single_line_range_annotations() {
        // A range annotation has no braces; the scanner must not try to
        // join continuation lines (which would swallow the source below).
        let src = "\
// @mekong spmv range cols : $0 - w .. $0 + w
__global__ void spmv(...) {}
";
        let anns = scan_annotations(src).unwrap();
        assert_eq!(anns.len(), 1);
        assert_eq!(anns[0].kind, AnnotationKind::Range);
        assert_eq!(anns[0].arg, "cols");
        assert_eq!(anns[0].map_text, "$0 - w .. $0 + w");
    }

    #[test]
    fn value_ranges_parse_templates() {
        use mekong_kernel::Expr;
        let src = "\
// @mekong hist range off : $0 * 64 .. ($0 + 1) * 64
// @mekong spmv range cols : $0 - w .. $0 + w
";
        let anns = scan_annotations(src).unwrap();
        let ranges = value_ranges(&anns).unwrap();
        let (lo, hi) = &ranges["hist"]["off"];
        assert_eq!(lo, &(Expr::Var("$0".into()) * Expr::Int(64)));
        assert_eq!(
            hi,
            &((Expr::Var("$0".into()) + Expr::Int(1)) * Expr::Int(64))
        );
        let (lo, _) = &ranges["spmv"]["cols"];
        assert_eq!(lo, &(Expr::Var("$0".into()) - Expr::Var("w".into())));
    }

    #[test]
    fn range_parser_rejects_garbage() {
        assert!(parse_range_expr("$0 +").is_err());
        assert!(parse_range_expr("($0").is_err());
        assert!(parse_range_expr("a ? b").is_err());
        // Missing '..' separator surfaces from value_ranges.
        let anns = vec![Annotation {
            kernel: "k".into(),
            kind: AnnotationKind::Range,
            arg: "a".into(),
            map_text: "$0 + 1".into(),
            line: 3,
        }];
        assert!(value_ranges(&anns).is_err());
    }
}
