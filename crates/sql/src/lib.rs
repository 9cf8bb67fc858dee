//! # recdb-sql
//!
//! Lexer and parser for the RecDB SQL dialect (ICDE 2017 §III): standard
//! `CREATE TABLE` / `INSERT` / `SELECT` plus the paper's extensions —
//!
//! * `CREATE RECOMMENDER name ON ratings USERS FROM ucol ITEMS FROM icol
//!   RATINGS FROM rcol USING algorithm` (§III-A),
//! * `DROP RECOMMENDER name`,
//! * the `RECOMMEND item_col TO user_col ON rating_col USING algorithm`
//!   clause inside `SELECT` (§III-B),
//!
//! and the spatial function calls of the §V case study (`ST_Contains`,
//! `ST_DWithin`, `ST_Distance`, `CScore`, `POINT`).
//!
//! The grammar follows the paper's queries verbatim: every Query 1–8 and
//! Recommender 1–3 statement in the paper parses (see the test suite).

pub mod ast;
pub mod normalize;
pub mod parser;
pub mod token;

pub use ast::{
    BinaryOp, ColumnDef, Expr, Literal, OrderKey, Param, ParamKind, RecommendClause, SelectItem,
    SelectStatement, Statement, TableRef, UnaryOp,
};
pub use normalize::{normalize, parameterize, Normalized};
pub use parser::{parse, parse_many, ParseError};
pub use token::{tokenize, Token, TokenKind};
