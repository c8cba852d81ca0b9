//! A small parser for isl-like set/map notation.
//!
//! Supported grammar (whitespace-insensitive):
//!
//! ```text
//! set    :=  params? '{' tuple (':' disj)? '}'
//! map    :=  params? '{' tuple '->' tuple (':' disj)? '}'
//! params :=  '[' ident (',' ident)* ']' '->'
//! tuple  :=  '[' ident (',' ident)* ']'
//! disj   :=  conj ('or' conj)*
//! conj   :=  chain ('and' chain)*
//! chain  :=  expr (relop expr)+          // chains allowed: 0 <= y <= x
//! relop  :=  '<=' | '<' | '>=' | '>' | '=' | '=='
//! expr   :=  ['-'] term (('+'|'-') term)*
//! term   :=  INT ['*'] ident | INT | ident | '(' expr ')'
//! ```
//!
//! Example: `"[n] -> { [y, x] : 0 <= y <= x and x < n }"`.

use crate::constraint::Constraint;
use crate::expr::LinExpr;
use crate::map::Map;
use crate::polyhedron::Polyhedron;
use crate::set::Set;
use crate::space::Space;
use crate::{PolyError, Result};

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    LParen,
    RParen,
    Comma,
    Colon,
    Arrow,
    Plus,
    Minus,
    Star,
    Le,
    Lt,
    Ge,
    Gt,
    Eq,
    And,
    Or,
}

fn lex(text: &str) -> Result<Vec<Tok>> {
    let mut toks = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '{' => {
                toks.push(Tok::LBrace);
                i += 1;
            }
            '}' => {
                toks.push(Tok::RBrace);
                i += 1;
            }
            '[' => {
                toks.push(Tok::LBracket);
                i += 1;
            }
            ']' => {
                toks.push(Tok::RBracket);
                i += 1;
            }
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            ':' => {
                toks.push(Tok::Colon);
                i += 1;
            }
            '+' => {
                toks.push(Tok::Plus);
                i += 1;
            }
            '*' => {
                toks.push(Tok::Star);
                i += 1;
            }
            '-' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    toks.push(Tok::Arrow);
                    i += 2;
                } else {
                    toks.push(Tok::Minus);
                    i += 1;
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    toks.push(Tok::Le);
                    i += 2;
                } else {
                    toks.push(Tok::Lt);
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    toks.push(Tok::Ge);
                    i += 2;
                } else {
                    toks.push(Tok::Gt);
                    i += 1;
                }
            }
            '=' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    i += 2;
                } else {
                    i += 1;
                }
                toks.push(Tok::Eq);
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let n: i64 = text[start..i]
                    .parse()
                    .map_err(|_| PolyError::Parse(format!("bad integer at {start}")))?;
                toks.push(Tok::Int(n));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric()
                        || bytes[i] == b'_'
                        || bytes[i] == b'.')
                {
                    i += 1;
                }
                let word = &text[start..i];
                match word {
                    "and" => toks.push(Tok::And),
                    "or" => toks.push(Tok::Or),
                    _ => toks.push(Tok::Ident(word.to_string())),
                }
            }
            other => {
                return Err(PolyError::Parse(format!(
                    "unexpected character {other:?} at {i}"
                )))
            }
        }
    }
    Ok(toks)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    names: Vec<String>, // dims then params, set before parsing constraints
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| PolyError::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, t: Tok) -> Result<()> {
        let got = self.next()?;
        if got == t {
            Ok(())
        } else {
            Err(PolyError::Parse(format!("expected {t:?}, got {got:?}")))
        }
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident_list(&mut self) -> Result<Vec<String>> {
        self.expect(Tok::LBracket)?;
        let mut names = Vec::new();
        if self.peek() == Some(&Tok::RBracket) {
            self.pos += 1;
            return Ok(names);
        }
        loop {
            match self.next()? {
                Tok::Ident(s) => names.push(s),
                other => return Err(PolyError::Parse(format!("expected name, got {other:?}"))),
            }
            match self.next()? {
                Tok::Comma => continue,
                Tok::RBracket => break,
                other => {
                    return Err(PolyError::Parse(format!(
                        "expected ',' or ']', got {other:?}"
                    )))
                }
            }
        }
        Ok(names)
    }

    fn width(&self) -> usize {
        self.names.len()
    }

    fn var_index(&self, name: &str) -> Result<usize> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| PolyError::Parse(format!("unknown variable {name:?}")))
    }

    // expr := ['-'] term (('+'|'-') term)*
    fn expr(&mut self) -> Result<LinExpr> {
        let mut acc = if self.eat(&Tok::Minus) {
            self.term()?.neg()
        } else {
            self.term()?
        };
        loop {
            if self.eat(&Tok::Plus) {
                acc = acc.add(&self.term()?)?;
            } else if self.eat(&Tok::Minus) {
                acc = acc.sub(&self.term()?)?;
            } else {
                break;
            }
        }
        Ok(acc)
    }

    // term := '-' term | INT ['*'] ident | INT | ident | '(' expr ')'
    fn term(&mut self) -> Result<LinExpr> {
        match self.next()? {
            Tok::Minus => Ok(self.term()?.neg()),
            Tok::Int(n) => {
                // optional multiplication with an identifier
                let star = self.eat(&Tok::Star);
                if let Some(Tok::Ident(_)) = self.peek() {
                    if let Tok::Ident(name) = self.next()? {
                        let idx = self.var_index(&name)?;
                        return Ok(LinExpr::zero(self.width()).with_coeff(idx, n));
                    }
                    unreachable!()
                } else if star {
                    return Err(PolyError::Parse("expected identifier after '*'".into()));
                }
                Ok(LinExpr::constant(self.width(), n))
            }
            Tok::Ident(name) => {
                let idx = self.var_index(&name)?;
                Ok(LinExpr::var(self.width(), idx))
            }
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            other => Err(PolyError::Parse(format!(
                "expected expression, got {other:?}"
            ))),
        }
    }

    // chain := expr (relop expr)+
    fn chain(&mut self) -> Result<Vec<Constraint>> {
        let mut constraints = Vec::new();
        let mut lhs = self.expr()?;
        let mut any = false;
        while let Some(Tok::Le | Tok::Lt | Tok::Ge | Tok::Gt | Tok::Eq) = self.peek() {
            let op = self.next()?;
            let rhs = self.expr()?;
            let c = match op {
                Tok::Le => Constraint::le(&lhs, &rhs)?,
                Tok::Lt => Constraint::lt(&lhs, &rhs)?,
                Tok::Ge => Constraint::ge(&lhs, &rhs)?,
                Tok::Gt => Constraint::lt(&rhs, &lhs)?,
                Tok::Eq => Constraint::eq(lhs.sub(&rhs)?),
                _ => unreachable!(),
            };
            constraints.push(c);
            lhs = rhs;
            any = true;
        }
        if !any {
            return Err(PolyError::Parse("expected comparison operator".into()));
        }
        Ok(constraints)
    }

    // conj := chain ('and' chain)*
    fn conjunction(&mut self, n_dims: usize, n_params: usize) -> Result<Polyhedron> {
        let mut p = Polyhedron::universe(n_dims, n_params);
        loop {
            for c in self.chain()? {
                p.add_constraint(c);
            }
            if !self.eat(&Tok::And) {
                break;
            }
        }
        Ok(p)
    }

    // disj := conj ('or' conj)*
    fn disjunction(&mut self, n_dims: usize, n_params: usize) -> Result<Vec<Polyhedron>> {
        let mut pieces = vec![self.conjunction(n_dims, n_params)?];
        while self.eat(&Tok::Or) {
            pieces.push(self.conjunction(n_dims, n_params)?);
        }
        Ok(pieces)
    }
}

fn parse_prefix(parser: &mut Parser) -> Result<Vec<String>> {
    // Optional parameter tuple: '[' ... ']' '->' before '{'.
    if parser.peek() == Some(&Tok::LBracket) {
        let params = parser.ident_list()?;
        parser.expect(Tok::Arrow)?;
        Ok(params)
    } else {
        Ok(Vec::new())
    }
}

/// Parse a [`Set`] from isl-like notation.
pub(crate) fn parse_set(text: &str) -> Result<Set> {
    let toks = lex(text)?;
    let mut p = Parser {
        toks,
        pos: 0,
        names: Vec::new(),
    };
    let params = parse_prefix(&mut p)?;
    p.expect(Tok::LBrace)?;
    let dims = p.ident_list()?;
    let space = Space::from_names(dims.clone(), params.clone());
    let mut names = dims;
    names.extend(params);
    p.names = names;

    let pieces = if p.eat(&Tok::Colon) {
        p.disjunction(space.n_dims(), space.n_params())?
    } else {
        vec![Polyhedron::universe(space.n_dims(), space.n_params())]
    };
    p.expect(Tok::RBrace)?;
    if p.pos != p.toks.len() {
        return Err(PolyError::Parse("trailing tokens after '}'".into()));
    }
    Ok(Set::from_pieces(space, pieces))
}

/// Parse a [`Map`] from isl-like notation.
pub(crate) fn parse_map(text: &str) -> Result<Map> {
    let toks = lex(text)?;
    let mut p = Parser {
        toks,
        pos: 0,
        names: Vec::new(),
    };
    let params = parse_prefix(&mut p)?;
    p.expect(Tok::LBrace)?;
    let in_dims = p.ident_list()?;
    p.expect(Tok::Arrow)?;
    let out_dims = p.ident_list()?;
    let n_in = in_dims.len();
    let mut dims = in_dims;
    dims.extend(out_dims);
    let space = Space::from_names(dims.clone(), params.clone());
    let mut names = dims;
    names.extend(params);
    p.names = names;

    let pieces = if p.eat(&Tok::Colon) {
        p.disjunction(space.n_dims(), space.n_params())?
    } else {
        vec![Polyhedron::universe(space.n_dims(), space.n_params())]
    };
    p.expect(Tok::RBrace)?;
    if p.pos != p.toks.len() {
        return Err(PolyError::Parse("trailing tokens after '}'".into()));
    }
    Ok(Map::from_relation(n_in, Set::from_pieces(space, pieces)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chained_comparisons() {
        let s = parse_set("{ [y, x] : 0 <= y <= x <= 4 }").unwrap();
        assert_eq!(s.count_points(&[]), 15);
    }

    #[test]
    fn disjunction_makes_pieces() {
        let s = parse_set("{ [x] : 0 <= x <= 2 or 10 <= x <= 11 }").unwrap();
        assert_eq!(s.pieces().len(), 2);
        assert_eq!(s.count_points(&[]), 5);
    }

    #[test]
    fn coefficients_and_parens() {
        let s = parse_set("{ [x] : 2x - (x + 1) >= 0 and x <= 5 }").unwrap();
        // x >= 1 and x <= 5
        assert_eq!(s.count_points(&[]), 5);
        let t = parse_set("{ [x] : 2 * x >= 4 and x < 4 }").unwrap();
        assert_eq!(t.count_points(&[]), 2); // x in {2, 3}
    }

    #[test]
    fn params_resolve() {
        let s = parse_set("[n, m] -> { [x] : m <= x and x < n }").unwrap();
        assert_eq!(s.count_points(&[10, 7]), 3);
    }

    #[test]
    fn map_with_equalities() {
        let m = parse_map("{ [i, j] -> [a] : a = 3i + j }").unwrap();
        let out = m.apply_point(&[2, 1], &[]).unwrap();
        assert_eq!(out, vec![vec![7]]);
    }

    #[test]
    fn gt_operator() {
        let s = parse_set("{ [x] : x > 2 and x < 6 }").unwrap();
        assert_eq!(s.points_sorted(&[]), vec![vec![3], vec![4], vec![5]]);
    }

    #[test]
    fn negative_leading_term() {
        let s = parse_set("{ [x] : -x >= -3 and x >= 0 }").unwrap();
        assert_eq!(s.count_points(&[]), 4);
    }

    #[test]
    fn universe_without_constraints() {
        let s = parse_set("[n] -> { [x, y] }").unwrap();
        assert!(s.contains(&[100, -50], &[0]));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_set("{ [x] : x ** 2 }").is_err());
        assert!(parse_set("{ [x] : y >= 0 }").is_err());
        assert!(parse_set("{ [x] : x }").is_err());
        assert!(parse_set("{ [x] : x >= 0 } trailing").is_err());
    }

    #[test]
    fn dotted_names_for_cuda_intrinsics() {
        // Names like "blockIdx.x" are single identifiers in our dialect.
        let s = parse_set("[n] -> { [bo.x, bi.x] : 0 <= bi.x and bi.x < n }").unwrap();
        assert_eq!(s.n_dims(), 2);
    }
}
