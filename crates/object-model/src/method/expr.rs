//! The textual form of a [`MethodBody`]: the parser and its inverse, the
//! renderer. Method bodies, `select` predicates and class constraints are
//! all written in it.
//!
//! Grammar (precedence climbing, loosest first):
//!
//! ```text
//! expr    := or
//! or      := and ( "or" and )*
//! and     := cmp ( "and" cmp )*
//! cmp     := sum ( ("==" | "!=" | "<=" | ">=" | "<" | ">") sum )?
//! sum     := prod ( ("+" | "-") prod )*
//! prod    := unary ( ("*" | "/") unary )*
//! unary   := "not" unary | atom
//! atom    := literal | ident | "len" "(" expr ")"
//!          | "if" "(" expr "," expr "," expr ")" | "(" expr ")"
//! ```
//!
//! Identifiers denote properties of `self`.

use super::{BinOp, MethodBody};
use crate::error::{ModelError, ModelResult};
use crate::value::Value;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Op(&'static str),
    LParen,
    RParen,
    Comma,
}

fn err(msg: impl Into<String>) -> ModelError {
    ModelError::Invalid(msg.into())
}

fn tokenize(src: &str) -> ModelResult<Vec<Tok>> {
    let mut toks = Vec::new();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\n' => i += 1,
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
            '+' => {
                toks.push(Tok::Op("+"));
                i += 1;
            }
            '-' => {
                toks.push(Tok::Op("-"));
                i += 1;
            }
            '*' => {
                toks.push(Tok::Op("*"));
                i += 1;
            }
            '/' => {
                toks.push(Tok::Op("/"));
                i += 1;
            }
            '=' | '!' | '<' | '>' => {
                let two = match (c, chars.get(i + 1)) {
                    ('=', Some('=')) => Some("=="),
                    ('!', Some('=')) => Some("!="),
                    ('<', Some('=')) => Some("<="),
                    ('>', Some('=')) => Some(">="),
                    _ => None,
                };
                match two {
                    Some(op) => {
                        toks.push(Tok::Op(op));
                        i += 2;
                    }
                    None if c == '<' => {
                        toks.push(Tok::Op("<"));
                        i += 1;
                    }
                    None if c == '>' => {
                        toks.push(Tok::Op(">"));
                        i += 1;
                    }
                    None => {
                        let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
                        return Err(err(format!("bad operator at {two:?}")));
                    }
                }
            }
            '\'' | '"' => {
                let quote = c;
                let mut j = i + 1;
                let mut s = String::new();
                while j < chars.len() && chars[j] != quote {
                    s.push(chars[j]);
                    j += 1;
                }
                if j >= chars.len() {
                    return Err(err("unterminated string literal"));
                }
                toks.push(Tok::Str(s));
                i = j + 1;
            }
            _ if c.is_ascii_digit() => {
                let mut j = i;
                let mut has_dot = false;
                while j < chars.len() && (chars[j].is_ascii_digit() || (chars[j] == '.' && !has_dot))
                {
                    if chars[j] == '.' {
                        has_dot = true;
                    }
                    j += 1;
                }
                let text: String = chars[i..j].iter().collect();
                if has_dot {
                    toks.push(Tok::Float(text.parse().map_err(|_| err("bad float"))?));
                } else {
                    toks.push(Tok::Int(text.parse().map_err(|_| err("bad int"))?));
                }
                i = j;
            }
            _ if c.is_alphabetic() || c == '_' => {
                let mut j = i;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                let word: String = chars[i..j].iter().collect();
                i = j;
                match word.as_str() {
                    "and" => toks.push(Tok::Op("and")),
                    "or" => toks.push(Tok::Op("or")),
                    "not" => toks.push(Tok::Op("not")),
                    "true" => toks.push(Tok::Ident("true".into())),
                    "false" => toks.push(Tok::Ident("false".into())),
                    "null" => toks.push(Tok::Ident("null".into())),
                    _ => toks.push(Tok::Ident(word)),
                }
            }
            _ => return Err(err(format!("unexpected character {c:?}"))),
        }
    }
    Ok(toks)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn eat_op(&mut self, op: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Op(o)) if *o == op) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Tok) -> ModelResult<()> {
        if self.peek() == Some(tok) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(format!("expected {tok:?}, found {:?}", self.peek())))
        }
    }

    fn or(&mut self) -> ModelResult<MethodBody> {
        let mut left = self.and()?;
        while self.eat_op("or") {
            let right = self.and()?;
            left = MethodBody::bin(BinOp::Or, left, right);
        }
        Ok(left)
    }

    fn and(&mut self) -> ModelResult<MethodBody> {
        let mut left = self.cmp()?;
        while self.eat_op("and") {
            let right = self.cmp()?;
            left = MethodBody::bin(BinOp::And, left, right);
        }
        Ok(left)
    }

    fn cmp(&mut self) -> ModelResult<MethodBody> {
        let left = self.sum()?;
        for (sym, op) in [
            ("==", BinOp::Eq),
            ("!=", BinOp::Ne),
            ("<=", BinOp::Le),
            (">=", BinOp::Ge),
            ("<", BinOp::Lt),
            (">", BinOp::Gt),
        ] {
            if self.eat_op(sym) {
                let right = self.sum()?;
                return Ok(MethodBody::bin(op, left, right));
            }
        }
        Ok(left)
    }

    fn sum(&mut self) -> ModelResult<MethodBody> {
        let mut left = self.prod()?;
        loop {
            if self.eat_op("+") {
                let right = self.prod()?;
                left = MethodBody::bin(BinOp::Add, left, right);
            } else if self.eat_op("-") {
                let right = self.prod()?;
                left = MethodBody::bin(BinOp::Sub, left, right);
            } else {
                return Ok(left);
            }
        }
    }

    fn prod(&mut self) -> ModelResult<MethodBody> {
        let mut left = self.unary()?;
        loop {
            if self.eat_op("*") {
                let right = self.unary()?;
                left = MethodBody::bin(BinOp::Mul, left, right);
            } else if self.eat_op("/") {
                let right = self.unary()?;
                left = MethodBody::bin(BinOp::Div, left, right);
            } else {
                return Ok(left);
            }
        }
    }

    fn unary(&mut self) -> ModelResult<MethodBody> {
        if self.eat_op("not") {
            Ok(MethodBody::Not(Box::new(self.unary()?)))
        } else if self.eat_op("-") {
            // Unary minus. A negated numeric literal folds into a negative
            // constant (so `-5` round-trips through render_expr as
            // `Const(Int(-5))`); anything else becomes 0 - x.
            let inner = self.unary()?;
            Ok(match inner {
                MethodBody::Const(Value::Int(i)) => MethodBody::Const(Value::Int(-i)),
                MethodBody::Const(Value::Float(f)) => MethodBody::Const(Value::Float(-f)),
                other => MethodBody::bin(BinOp::Sub, MethodBody::Const(Value::Int(0)), other),
            })
        } else {
            self.atom()
        }
    }

    fn atom(&mut self) -> ModelResult<MethodBody> {
        match self.peek().cloned() {
            Some(Tok::Int(i)) => {
                self.pos += 1;
                Ok(MethodBody::Const(Value::Int(i)))
            }
            Some(Tok::Float(f)) => {
                self.pos += 1;
                Ok(MethodBody::Const(Value::Float(f)))
            }
            Some(Tok::Str(s)) => {
                self.pos += 1;
                Ok(MethodBody::Const(Value::Str(s)))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let inner = self.or()?;
                self.expect(&Tok::RParen)?;
                Ok(inner)
            }
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                match name.as_str() {
                    "true" => Ok(MethodBody::Const(Value::Bool(true))),
                    "false" => Ok(MethodBody::Const(Value::Bool(false))),
                    "null" => Ok(MethodBody::Const(Value::Null)),
                    "len" if self.peek() == Some(&Tok::LParen) => {
                        self.pos += 1;
                        let inner = self.or()?;
                        self.expect(&Tok::RParen)?;
                        Ok(MethodBody::Len(Box::new(inner)))
                    }
                    "if" if self.peek() == Some(&Tok::LParen) => {
                        self.pos += 1;
                        let c = self.or()?;
                        self.expect(&Tok::Comma)?;
                        let t = self.or()?;
                        self.expect(&Tok::Comma)?;
                        let e = self.or()?;
                        self.expect(&Tok::RParen)?;
                        Ok(MethodBody::If(Box::new(c), Box::new(t), Box::new(e)))
                    }
                    _ => Ok(MethodBody::Attr(name)),
                }
            }
            other => Err(err(format!("unexpected token {other:?}"))),
        }
    }
}

/// Is `s` a plain identifier the tokenizer would hand back as one token?
fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_alphanumeric() || c == '_')
}

/// Words the tokenizer/parser claims for itself: an attribute with one of
/// these names cannot appear in command text.
const RESERVED: [&str; 6] = ["and", "or", "not", "true", "false", "null"];

fn render_const(v: &Value) -> ModelResult<String> {
    Ok(match v {
        Value::Null => "null".to_string(),
        Value::Bool(true) => "true".to_string(),
        Value::Bool(false) => "false".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => {
            // `{:?}` keeps the fraction (`2.0`, not `2`), but exponent or
            // non-finite forms have no literal in the expression grammar.
            let s = format!("{f:?}");
            if !f.is_finite() || s.contains('e') || s.contains('E') {
                return Err(err(format!("float constant {s} has no expression literal")));
            }
            s
        }
        Value::Str(s) => {
            if !s.contains('\'') {
                format!("'{s}'")
            } else if !s.contains('"') {
                format!("\"{s}\"")
            } else {
                return Err(err(
                    "string constant mixes both quote kinds; not renderable".to_string(),
                ));
            }
        }
        Value::Ref(_) | Value::List(_) => {
            return Err(err(format!(
                "{} constants have no expression literal",
                v.kind_name()
            )))
        }
    })
}

fn op_sym(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::And => "and",
        BinOp::Or => "or",
    }
}

/// Render a [`MethodBody`] back to command text — the inverse of
/// [`parse_expr`]. Binary operations are fully parenthesized (parentheses
/// leave no trace in the AST), so `parse_expr(render_expr(b)?) == b` for
/// every body the renderer accepts. Errors on the few shapes the grammar
/// cannot spell: list/ref constants, non-finite floats, and attribute names
/// that are not plain identifiers.
pub fn render_expr(body: &MethodBody) -> ModelResult<String> {
    Ok(match body {
        MethodBody::Const(v) => render_const(v)?,
        MethodBody::Attr(name) => {
            if !is_ident(name) || RESERVED.contains(&name.as_str()) {
                return Err(err(format!("attribute {name:?} is not a renderable identifier")));
            }
            name.clone()
        }
        MethodBody::Bin(op, a, b) => {
            format!("({} {} {})", render_expr(a)?, op_sym(*op), render_expr(b)?)
        }
        MethodBody::Not(a) => format!("(not {})", render_expr(a)?),
        MethodBody::If(c, t, e) => {
            format!("if({}, {}, {})", render_expr(c)?, render_expr(t)?, render_expr(e)?)
        }
        MethodBody::Len(a) => format!("len({})", render_expr(a)?),
    })
}

/// Parse an expression into a [`MethodBody`].
pub fn parse_expr(src: &str) -> ModelResult<MethodBody> {
    let toks = tokenize(src)?;
    if toks.is_empty() {
        return Err(err("empty expression"));
    }
    let mut parser = Parser { toks, pos: 0 };
    let body = parser.or()?;
    if parser.pos != parser.toks.len() {
        return Err(err(format!("trailing tokens after expression: {:?}", &parser.toks[parser.pos..])));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use crate::method::{eval_body, AttrSource};

    struct Env(HashMap<String, Value>);
    impl AttrSource for Env {
        fn get(&self, name: &str) -> ModelResult<Value> {
            self.0
                .get(name)
                .cloned()
                .ok_or_else(|| ModelError::MethodEval(format!("no {name}")))
        }
    }

    fn eval(src: &str, env: &[(&str, Value)]) -> Value {
        let body = parse_expr(src).unwrap();
        let env = Env(env.iter().map(|(k, v)| (k.to_string(), v.clone())).collect());
        eval_body(&body, &env).unwrap()
    }

    #[test]
    fn arithmetic_precedence() {
        assert_eq!(eval("1 + 2 * 3", &[]), Value::Int(7));
        assert_eq!(eval("(1 + 2) * 3", &[]), Value::Int(9));
        assert_eq!(eval("10 - 2 - 3", &[]), Value::Int(5), "left associative");
        assert_eq!(eval("-4 + 6", &[]), Value::Int(2));
    }

    #[test]
    fn comparisons_and_logic() {
        let env = [("age", Value::Int(30)), ("name", Value::Str("ann".into()))];
        assert_eq!(eval("age >= 18", &env), Value::Bool(true));
        assert_eq!(eval("age >= 18 and name == 'ann'", &env), Value::Bool(true));
        assert_eq!(eval("not (age < 18) or false", &env), Value::Bool(true));
        assert_eq!(eval("age != 30", &env), Value::Bool(false));
    }

    #[test]
    fn builtins() {
        let env = [("name", Value::Str("ann".into()))];
        assert_eq!(eval("len(name)", &env), Value::Int(3));
        assert_eq!(eval("if(len(name) > 2, 'long', 'short')", &env), Value::Str("long".into()));
        assert_eq!(eval("null == null", &[]), Value::Bool(true));
        assert_eq!(eval("true and false", &[]), Value::Bool(false));
    }

    #[test]
    fn attributes_and_strings() {
        let env = [("salary", Value::Float(100.0))];
        assert_eq!(eval("salary * 1.5", &env), Value::Float(150.0));
        assert_eq!(eval("'a' + 'b'", &[]), Value::Str("ab".into()));
    }

    #[test]
    fn render_round_trips_parsed_expressions() {
        for src in [
            "1 + 2 * 3",
            "(1 + 2) * 3",
            "age >= 18 and name == 'ann'",
            "not (age < 18) or false",
            "if(len(name) > 2, 'long', 'short')",
            "salary * 1.5 - 2.0 / 4.0",
            "-5 + x",
            "-2.5",
            "null == null",
            "'with \"double\" quotes'",
        ] {
            let body = parse_expr(src).unwrap();
            let rendered = render_expr(&body).unwrap();
            let reparsed = parse_expr(&rendered).unwrap();
            assert_eq!(reparsed, body, "{src} -> {rendered}");
        }
    }

    #[test]
    fn negative_literals_fold_to_constants() {
        assert_eq!(parse_expr("-5").unwrap(), MethodBody::Const(Value::Int(-5)));
        assert_eq!(parse_expr("-2.5").unwrap(), MethodBody::Const(Value::Float(-2.5)));
        // Non-literal operands still desugar to 0 - x.
        assert!(matches!(parse_expr("-age").unwrap(), MethodBody::Bin(BinOp::Sub, _, _)));
        assert_eq!(eval("-4 + 6", &[]), Value::Int(2));
    }

    #[test]
    fn render_rejects_unspellable_shapes() {
        assert!(render_expr(&MethodBody::Const(Value::List(vec![]))).is_err());
        assert!(render_expr(&MethodBody::Const(Value::Float(f64::INFINITY))).is_err());
        assert!(render_expr(&MethodBody::Attr("not".into())).is_err());
        assert!(render_expr(&MethodBody::Attr("two words".into())).is_err());
        assert!(render_expr(&MethodBody::Const(Value::Str("a'b\"c".into()))).is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_expr("").is_err());
        assert!(parse_expr("1 +").is_err());
        assert!(parse_expr("(1").is_err());
        assert!(parse_expr("1 2").is_err());
        assert!(parse_expr("'unterminated").is_err());
        assert!(parse_expr("a ~ b").is_err());
        assert!(parse_expr("if(1, 2)").is_err());
    }
}
