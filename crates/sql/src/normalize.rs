//! Statement templates: a statement's text with its literals cut out.
//!
//! [`normalize`] reads a statement once, with the lexer [`crate::tokenize`]
//! uses, and returns its *template* — the token texts joined by single
//! spaces, each numeric or string literal replaced by a slot naming its
//! kind — plus the literal values in source order. Two texts with one
//! template lex to the same tokens up to the slots' values, so they parse
//! to the same statement up to those values: a plan cache keys on the
//! template and binds the values.
//!
//! What stays in the template, because it changes the statement or its
//! plan and not only a value:
//!
//! * a literal's kind: `uid = 5` and `uid = 5.0` plan differently;
//! * the integer after `LIMIT`, which decides top-k fusion;
//! * `NULL`, `TRUE` and `FALSE`, which are keywords;
//! * the sign: `-5` is `-` and a slot, as the parser reads it.
//!
//! [`parameterize`] is the other half: it turns a parsed statement's
//! literals into [`Expr::Param`] slots, checking that each one is the
//! value `normalize` read for its slot.

use crate::ast::{Expr, Literal, Param, ParamKind, SelectItem, Statement};
use crate::token::{LexemeKind, Lexer};
use std::fmt::Write;

/// A statement's template and the literals its slots stand for.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalized {
    /// The token texts joined by single spaces, each slot written `?i`,
    /// `?f` or `?s` for an integer, float or string literal.
    pub template: String,
    /// The slots' values in source order.
    pub params: Vec<Literal>,
}

/// Read `src` into its template and literal values in one pass, or `None`
/// where the lexer fails (an unterminated string, an integer past `i64`, a
/// stray character): the caller then parses the text as usual, which
/// reports that error.
pub fn normalize(src: &str) -> Option<Normalized> {
    let mut lexer = Lexer::new(src);
    let mut template = String::with_capacity(src.len());
    let mut params = Vec::new();
    let mut limit_next = false;
    while let Some(lexeme) = lexer.next_lexeme().ok()? {
        if !template.is_empty() {
            template.push(' ');
        }
        let after_limit = std::mem::replace(&mut limit_next, false);
        let (marker, value) = match lexeme.kind {
            LexemeKind::Int(n) if after_limit => {
                write!(template, "{n}").expect("writing to a String cannot fail");
                continue;
            }
            LexemeKind::Int(n) => ("?i", Literal::Int(n)),
            LexemeKind::Float(v) => ("?f", Literal::Float(v)),
            LexemeKind::Str => ("?s", Literal::Str(lexeme.string_value(src))),
            LexemeKind::Ident | LexemeKind::Symbol(_) => {
                let text = &src[lexeme.start..lexeme.end];
                limit_next = text.eq_ignore_ascii_case("LIMIT");
                template.push_str(text);
                continue;
            }
        };
        template.push_str(marker);
        params.push(value);
    }
    Some(Normalized { template, params })
}

/// `statement` with each literal [`normalize`] made a slot replaced by an
/// [`Expr::Param`], in source order, or `None` unless every literal is the
/// value `params` holds for its slot and every slot is used.
///
/// Only `SELECT` and `INSERT` are rewritten; any other statement is
/// `None`. So is a `SELECT` with a literal in `GROUP BY`: a grouping key
/// is matched to the select list by structure, and two slots are never
/// the same structure even when their values are equal.
pub fn parameterize(statement: &Statement, params: &[Literal]) -> Option<Statement> {
    let mut slots = Slots { params, next: 0 };
    let mut statement = statement.clone();
    match &mut statement {
        Statement::Select(select) => {
            for item in &mut select.items {
                if let SelectItem::Expr { expr, .. } = item {
                    slots.rewrite(expr)?;
                }
            }
            if let Some(filter) = &mut select.filter {
                slots.rewrite(filter)?;
            }
            let before_group_by = slots.next;
            for key in &mut select.group_by {
                slots.rewrite(key)?;
            }
            if slots.next != before_group_by {
                return None;
            }
            for key in &mut select.order_by {
                slots.rewrite(&mut key.expr)?;
            }
        }
        Statement::Insert { rows, .. } => {
            for expr in rows.iter_mut().flatten() {
                slots.rewrite(expr)?;
            }
        }
        _ => return None,
    }
    (slots.next == params.len()).then_some(statement)
}

/// The slot values still to be matched, in source order.
struct Slots<'p> {
    params: &'p [Literal],
    next: usize,
}

impl Slots<'_> {
    /// Replace the slot literals of `expr` in source order (the order the
    /// parser read them in), or `None` at the first disagreement.
    fn rewrite(&mut self, expr: &mut Expr) -> Option<()> {
        match expr {
            Expr::Literal(Literal::Null | Literal::Bool(_)) | Expr::Column { .. } => {}
            Expr::Literal(literal) => {
                let kind = ParamKind::of(literal)?;
                let value = self.params.get(self.next)?;
                if !same_literal(literal, value) {
                    return None;
                }
                *expr = Expr::Param(Param {
                    index: self.next,
                    kind,
                });
                self.next += 1;
            }
            // Already a slot: not something `parse` produces.
            Expr::Param(_) => return None,
            Expr::Unary { expr, .. } => self.rewrite(expr)?,
            Expr::Binary { left, right, .. } => {
                self.rewrite(left)?;
                self.rewrite(right)?;
            }
            Expr::InList { expr, list, .. } => {
                self.rewrite(expr)?;
                for e in list {
                    self.rewrite(e)?;
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                self.rewrite(expr)?;
                self.rewrite(low)?;
                self.rewrite(high)?;
            }
            Expr::Function { args, .. } => {
                for e in args {
                    self.rewrite(e)?;
                }
            }
        }
        Some(())
    }
}

/// Equal kind and value; floats by their bits.
fn same_literal(a: &Literal, b: &Literal) -> bool {
    match (a, b) {
        (Literal::Int(x), Literal::Int(y)) => x == y,
        (Literal::Float(x), Literal::Float(y)) => x.to_bits() == y.to_bits(),
        (Literal::Str(x), Literal::Str(y)) => x == y,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn template(src: &str) -> String {
        normalize(src).expect("lexes").template
    }

    #[test]
    fn literals_become_kinded_slots() {
        let n = normalize("SELECT a FROM t WHERE a = 5 AND b = 2.5 AND c = 'x''y'").unwrap();
        assert_eq!(
            n.template,
            "SELECT a FROM t WHERE a = ?i AND b = ?f AND c = ?s"
        );
        assert_eq!(
            n.params,
            [
                Literal::Int(5),
                Literal::Float(2.5),
                Literal::Str("x'y".into())
            ]
        );
    }

    #[test]
    fn one_template_per_shape() {
        let q = |uid: &str| {
            template(&format!(
                "SELECT R.iid FROM ratings AS R WHERE R.uid = {uid} ORDER BY R.iid LIMIT 10"
            ))
        };
        assert_eq!(q("1"), q("99"));
        assert_ne!(q("1"), q("1.0"), "the kind is part of the template");
        assert_eq!(template("a=1"), template("a   =\n 7 -- note 3\n"));
        assert_ne!(template("LIMIT 10"), template("LIMIT 11"));
        assert_eq!(template("x limit 3"), "x limit 3");
        assert_ne!(template("a = NULL"), template("a = TRUE"));
        assert_eq!(template("a = -5"), "a = - ?i");
        assert_eq!(template("col1 = '7' -- 8"), "col1 = ?s");
    }

    #[test]
    fn what_the_lexer_rejects_is_not_normalized() {
        assert_eq!(normalize("SELECT 'open"), None);
        assert_eq!(normalize("SELECT 99999999999999999999"), None);
        assert_eq!(normalize("SELECT ?"), None);
    }

    #[test]
    fn multibyte_text_keeps_its_characters() {
        assert_eq!(
            normalize("x = 'Amélie'").unwrap().params,
            [Literal::Str("Amélie".into())]
        );
    }

    fn parameterized(src: &str) -> Option<Statement> {
        let n = normalize(src)?;
        parameterize(&parse(src).ok()?, &n.params)
    }

    #[test]
    fn slots_replace_the_literals_in_source_order() {
        let stmt = parameterized(
            "SELECT a + 1 FROM t WHERE b BETWEEN 2 AND 3.5 AND c IN ('x', 4) \
             AND d = NULL ORDER BY f(5) LIMIT 6",
        )
        .unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(
            format!("{}", s.filter.unwrap()),
            "((b BETWEEN $2 AND $3 AND c IN ($4, $5)) AND (d = NULL))"
        );
        assert_eq!(format!("{}", s.order_by[0].expr), "f($6)");
        assert_eq!(s.limit, Some(6));
        let Statement::Insert { rows, .. } =
            parameterized("INSERT INTO t VALUES (1, -2.5, 'a'), (TRUE, 3, NULL)").unwrap()
        else {
            panic!()
        };
        assert_eq!(
            rows[1][1],
            Expr::Param(Param {
                index: 3,
                kind: ParamKind::Int
            })
        );
    }

    #[test]
    fn disagreements_keep_the_statement_out() {
        let stmt = parse("SELECT a FROM t WHERE a = 5").unwrap();
        assert!(parameterize(&stmt, &[Literal::Int(5)]).is_some());
        assert!(parameterize(&stmt, &[Literal::Int(6)]).is_none());
        assert!(parameterize(&stmt, &[Literal::Float(5.0)]).is_none());
        assert!(parameterize(&stmt, &[Literal::Int(5), Literal::Int(5)]).is_none());
        assert!(parameterize(&stmt, &[]).is_none());
        assert!(parameterized("SELECT a, COUNT(*) FROM t GROUP BY a + 1").is_none());
        assert!(parameterized("SELECT a, COUNT(*) FROM t WHERE a = 1 GROUP BY a").is_some());
        assert!(parameterized("DELETE FROM t WHERE a = 1").is_none());
        assert!(parameterized("EXPLAIN SELECT a FROM t WHERE a = 1").is_none());
    }
}
