//! Schema-change requests and their textual command syntax.
//!
//! Users speak the taxonomy of Banerjee et al. / Zicari that the paper bases
//! its §6 on: four content changes (add/delete attribute, add/delete method)
//! and four hierarchy changes (add/delete edge, add/delete class), plus the
//! two composite macros of §6.9. Class names are **view-local** names — the
//! whole point of TSE is that the user addresses their own view.

use tse_object_model::{ClassId, MethodBody, ModelError, ModelResult, Oid, Value, ValueType};
pub use tse_object_model::{parse_expr, render_expr};

/// A schema-change request against a view.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaChange {
    /// `add_attribute <name>: <type> [= <default>] [required] to <Class>`.
    AddAttribute {
        /// View-local class name.
        class: String,
        /// New attribute name.
        name: String,
        /// Declared type.
        vtype: ValueType,
        /// Default value.
        default: Value,
        /// REQUIRED flag.
        required: bool,
    },
    /// `delete_attribute <name> from <Class>`.
    DeleteAttribute {
        /// View-local class name.
        class: String,
        /// Attribute to delete.
        name: String,
    },
    /// `add_method <name>: <type> := <expr> to <Class>`.
    AddMethod {
        /// View-local class name.
        class: String,
        /// New method name.
        name: String,
        /// Declared result type.
        vtype: ValueType,
        /// Method body.
        body: MethodBody,
    },
    /// `delete_method <name> from <Class>`.
    DeleteMethod {
        /// View-local class name.
        class: String,
        /// Method to delete.
        name: String,
    },
    /// `add_edge <Sup> - <Sub>`.
    AddEdge {
        /// New superclass (view-local name).
        sup: String,
        /// New subclass (view-local name).
        sub: String,
    },
    /// `delete_edge <Sup> - <Sub> [connected_to <Upper>]`.
    DeleteEdge {
        /// Superclass end of the edge.
        sup: String,
        /// Subclass end of the edge.
        sub: String,
        /// Where to re-attach `sub` if it would be disconnected.
        connected_to: Option<String>,
    },
    /// `add_class <Name> [connected_to <Sup>]`.
    AddClass {
        /// Name for the new class (view-local).
        name: String,
        /// Parent; the view's root position when omitted.
        connected_to: Option<String>,
    },
    /// `delete_class <Class>` — drop from the view (the simple §6.8 form).
    DeleteClass {
        /// Class to drop from the view.
        class: String,
    },
    /// `insert_class <Name> between <Sup> - <Sub>` (§6.9.1 macro).
    InsertClass {
        /// Name for the inserted class.
        name: String,
        /// Upper neighbour.
        sup: String,
        /// Lower neighbour.
        sub: String,
    },
    /// `delete_class_2 <Class>` — Orion-semantics delete (§6.9.2 macro).
    DeleteClass2 {
        /// Class to splice out.
        class: String,
    },
    /// `rename_class <Old> to <New>` — a view-local rename ("the user can of
    /// course rename them within the context of VS.3", §7). Purely a view
    /// change: the global schema is untouched.
    RenameClass {
        /// Current view-local name.
        old: String,
        /// New view-local name.
        new: String,
    },
}

impl SchemaChange {
    /// Render this change back into its textual command form — the inverse
    /// of [`parse_change`]: `parse_change(&c.render()?)? == c` whenever
    /// rendering succeeds. The WAL uses this to serialize structural
    /// changes that arrive as structured values (via `SharedSystem::evolve`)
    /// rather than as command text.
    ///
    /// Errs on shapes the command grammar cannot spell: identifiers with
    /// whitespace or grammar metacharacters, strings mixing both quote
    /// kinds, non-finite floats.
    pub fn render(&self) -> ModelResult<String> {
        Ok(match self {
            SchemaChange::AddAttribute { class, name, vtype, default, required } => {
                let mut cmd = format!(
                    "add_attribute {}: {}",
                    renderable_name(name, "attribute")?,
                    render_type(vtype)
                );
                // The parser fills an omitted `= …` with default_for_type,
                // so an equal default round-trips without being spelled.
                if *default != default_for_type(vtype) {
                    cmd.push_str(" = ");
                    cmd.push_str(&render_value(default)?);
                }
                if *required {
                    cmd.push_str(" required");
                }
                cmd.push_str(" to ");
                cmd.push_str(renderable_name(class, "class")?);
                cmd
            }
            SchemaChange::DeleteAttribute { class, name } => format!(
                "delete_attribute {} from {}",
                renderable_name(name, "attribute")?,
                renderable_name(class, "class")?
            ),
            SchemaChange::AddMethod { class, name, vtype, body } => format!(
                "add_method {}: {} := {} to {}",
                renderable_name(name, "method")?,
                render_type(vtype),
                render_expr(body)?,
                renderable_name(class, "class")?
            ),
            SchemaChange::DeleteMethod { class, name } => format!(
                "delete_method {} from {}",
                renderable_name(name, "method")?,
                renderable_name(class, "class")?
            ),
            SchemaChange::AddEdge { sup, sub } => format!(
                "add_edge {} - {}",
                renderable_name(sup, "class")?,
                renderable_name(sub, "class")?
            ),
            SchemaChange::DeleteEdge { sup, sub, connected_to } => {
                let mut cmd = format!(
                    "delete_edge {} - {}",
                    renderable_name(sup, "class")?,
                    renderable_name(sub, "class")?
                );
                if let Some(upper) = connected_to {
                    cmd.push_str(" connected_to ");
                    cmd.push_str(renderable_name(upper, "class")?);
                }
                cmd
            }
            SchemaChange::AddClass { name, connected_to } => {
                let mut cmd = format!("add_class {}", renderable_name(name, "class")?);
                if let Some(upper) = connected_to {
                    cmd.push_str(" connected_to ");
                    cmd.push_str(renderable_name(upper, "class")?);
                }
                cmd
            }
            SchemaChange::DeleteClass { class } => {
                format!("delete_class {}", renderable_name(class, "class")?)
            }
            SchemaChange::InsertClass { name, sup, sub } => format!(
                "insert_class {} between {} - {}",
                renderable_name(name, "class")?,
                renderable_name(sup, "class")?,
                renderable_name(sub, "class")?
            ),
            SchemaChange::DeleteClass2 { class } => {
                format!("delete_class_2 {}", renderable_name(class, "class")?)
            }
            SchemaChange::RenameClass { old, new } => format!(
                "rename_class {} to {}",
                renderable_name(old, "class")?,
                renderable_name(new, "class")?
            ),
        })
    }

    /// Short operator name (for reports).
    pub fn op_name(&self) -> &'static str {
        match self {
            SchemaChange::AddAttribute { .. } => "add_attribute",
            SchemaChange::DeleteAttribute { .. } => "delete_attribute",
            SchemaChange::AddMethod { .. } => "add_method",
            SchemaChange::DeleteMethod { .. } => "delete_method",
            SchemaChange::AddEdge { .. } => "add_edge",
            SchemaChange::DeleteEdge { .. } => "delete_edge",
            SchemaChange::AddClass { .. } => "add_class",
            SchemaChange::DeleteClass { .. } => "delete_class",
            SchemaChange::InsertClass { .. } => "insert_class",
            SchemaChange::DeleteClass2 { .. } => "delete_class_2",
            SchemaChange::RenameClass { .. } => "rename_class",
        }
    }
}

fn err(msg: impl Into<String>) -> ModelError {
    ModelError::Invalid(msg.into())
}

/// Parse a value type: `int`, `float`, `str`, `bool`, `any`, `list<...>`,
/// `ref<class-id>` (reference types carry the *global* class id, so the
/// spelling is only produced/consumed by [`SchemaChange::render`] and the
/// WAL — user commands normally create references programmatically).
pub fn parse_type(s: &str) -> ModelResult<ValueType> {
    let s = s.trim();
    if let Some(inner) = s.strip_prefix("list<").and_then(|r| r.strip_suffix('>')) {
        return Ok(ValueType::List(Box::new(parse_type(inner)?)));
    }
    if let Some(id) = s.strip_prefix("ref<").and_then(|r| r.strip_suffix('>')) {
        let id = id.trim().parse::<u32>().map_err(|_| err(format!("bad class id {id:?}")))?;
        return Ok(ValueType::Ref(ClassId(id)));
    }
    match s {
        "int" => Ok(ValueType::Int),
        "float" => Ok(ValueType::Float),
        "str" | "string" => Ok(ValueType::Str),
        "bool" => Ok(ValueType::Bool),
        "any" => Ok(ValueType::Any),
        _ => Err(err(format!("unknown type {s:?}"))),
    }
}

/// Parse a literal value: `null`, `true`, `false`, integers, floats,
/// single- or double-quoted strings (no escapes), `ref(oid)` references,
/// and `[a, b, …]` lists of any of these.
pub fn parse_value(s: &str) -> ModelResult<Value> {
    let s = s.trim();
    match s {
        "null" => return Ok(Value::Null),
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if (s.starts_with('"') && s.ends_with('"') && s.len() >= 2)
        || (s.starts_with('\'') && s.ends_with('\'') && s.len() >= 2)
    {
        return Ok(Value::Str(s[1..s.len() - 1].to_string()));
    }
    if let Some(inner) = s.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(Value::List(vec![]));
        }
        let items = split_top_level(inner)?
            .into_iter()
            .map(parse_value)
            .collect::<ModelResult<Vec<_>>>()?;
        return Ok(Value::List(items));
    }
    if let Some(oid) = s.strip_prefix("ref(").and_then(|r| r.strip_suffix(')')) {
        let oid = oid.trim().parse::<u64>().map_err(|_| err(format!("bad ref oid {oid:?}")))?;
        return Ok(Value::Ref(Oid(oid)));
    }
    if let Ok(i) = s.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(f) = s.parse::<f64>() {
        return Ok(Value::Float(f));
    }
    Err(err(format!("cannot parse value {s:?}")))
}

/// Split a list body on top-level commas, ignoring commas inside quotes or
/// nested brackets/parens.
fn split_top_level(s: &str) -> ModelResult<Vec<&str>> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut quote: Option<char> = None;
    let mut start = 0;
    for (i, ch) in s.char_indices() {
        match quote {
            Some(q) => {
                if ch == q {
                    quote = None;
                }
            }
            None => match ch {
                '\'' | '"' => quote = Some(ch),
                '[' | '(' => depth += 1,
                ']' | ')' => {
                    depth = depth
                        .checked_sub(1)
                        .ok_or_else(|| err(format!("unbalanced brackets in {s:?}")))?;
                }
                ',' if depth == 0 => {
                    parts.push(&s[start..i]);
                    start = i + 1;
                }
                _ => {}
            },
        }
    }
    if quote.is_some() || depth != 0 {
        return Err(err(format!("unterminated quote or bracket in {s:?}")));
    }
    parts.push(&s[start..]);
    Ok(parts)
}

/// Render a value type into the spelling [`parse_type`] accepts.
pub fn render_type(t: &ValueType) -> String {
    match t {
        ValueType::Any => "any".to_string(),
        ValueType::Bool => "bool".to_string(),
        ValueType::Int => "int".to_string(),
        ValueType::Float => "float".to_string(),
        ValueType::Str => "str".to_string(),
        ValueType::Ref(cid) => format!("ref<{}>", cid.0),
        ValueType::List(inner) => format!("list<{}>", render_type(inner)),
    }
}

/// Render a literal value into the spelling [`parse_value`] accepts. Errs
/// on non-finite floats and on strings containing both quote kinds (the
/// grammar has no escape sequences).
pub fn render_value(v: &Value) -> ModelResult<String> {
    Ok(match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => {
            if !f.is_finite() {
                return Err(err("non-finite float has no literal spelling"));
            }
            // {:?} keeps the decimal point ("2.0", not "2") so the value
            // reparses as a float, not an int.
            format!("{f:?}")
        }
        Value::Str(s) => {
            if !s.contains('\'') {
                format!("'{s}'")
            } else if !s.contains('"') {
                format!("\"{s}\"")
            } else {
                return Err(err(format!("string {s:?} mixes both quote kinds (no escapes)")));
            }
        }
        Value::Ref(oid) => format!("ref({})", oid.0),
        Value::List(items) => {
            let rendered =
                items.iter().map(render_value).collect::<ModelResult<Vec<_>>>()?;
            format!("[{}]", rendered.join(", "))
        }
    })
}

/// Validate that `name` survives a render → parse round trip as an opaque
/// token: the command grammar splits on whitespace, `-` edges, and the
/// literal keywords, so a name containing any of those cannot be spelled.
fn renderable_name<'a>(name: &'a str, what: &str) -> ModelResult<&'a str> {
    let bad = name.is_empty()
        || name.chars().any(|c| {
            c.is_whitespace() || matches!(c, '-' | ':' | '=' | ',' | '(' | ')' | '[' | ']')
        })
        || name.contains("connected_to");
    if bad {
        return Err(err(format!("{what} name {name:?} cannot be spelled in command syntax")));
    }
    Ok(name)
}

/// Default default-value for a type (used when the command omits `= …`).
pub fn default_for_type(t: &ValueType) -> Value {
    match t {
        ValueType::Any => Value::Null,
        ValueType::Bool => Value::Bool(false),
        ValueType::Int => Value::Int(0),
        ValueType::Float => Value::Float(0.0),
        ValueType::Str => Value::Null,
        ValueType::Ref(_) => Value::Null,
        ValueType::List(_) => Value::List(vec![]),
    }
}

/// Parse a schema-change command. See the variants of [`SchemaChange`] for
/// the grammar; examples:
///
/// ```text
/// add_attribute register: bool = false to Student
/// delete_attribute register from Student
/// add_method is_adult: bool := age >= 18 to Person
/// delete_method is_adult from Person
/// add_edge SupportStaff - TA
/// delete_edge TeachingStaff - TA connected_to Person
/// add_class HonorParttimeStudent connected_to HonorStudent
/// delete_class Grader
/// insert_class Intern between Staff - TA
/// delete_class_2 Student
/// ```
pub fn parse_change(input: &str) -> ModelResult<SchemaChange> {
    let input = input.trim();
    let (op, rest) = input
        .split_once(char::is_whitespace)
        .ok_or_else(|| err(format!("incomplete command {input:?}")))?;
    let rest = rest.trim();
    match op {
        "add_attribute" => {
            let (decl, class) = rest
                .rsplit_once(" to ")
                .ok_or_else(|| err("add_attribute: missing ' to <Class>'"))?;
            let (decl, required) = match decl.trim().strip_suffix(" required") {
                Some(d) => (d.trim(), true),
                None => (decl.trim(), false),
            };
            let (name, type_default) = decl
                .split_once(':')
                .ok_or_else(|| err("add_attribute: expected '<name>: <type>'"))?;
            let (ty, default) = match type_default.split_once('=') {
                Some((t, d)) => {
                    let ty = parse_type(t)?;
                    (ty, Some(parse_value(d)?))
                }
                None => (parse_type(type_default)?, None),
            };
            let default = default.unwrap_or_else(|| default_for_type(&ty));
            Ok(SchemaChange::AddAttribute {
                class: class.trim().to_string(),
                name: name.trim().to_string(),
                vtype: ty,
                default,
                required,
            })
        }
        "delete_attribute" => {
            let (name, class) = rest
                .rsplit_once(" from ")
                .ok_or_else(|| err("delete_attribute: missing ' from <Class>'"))?;
            Ok(SchemaChange::DeleteAttribute {
                class: class.trim().to_string(),
                name: name.trim().to_string(),
            })
        }
        "add_method" => {
            let (decl, class) = rest
                .rsplit_once(" to ")
                .ok_or_else(|| err("add_method: missing ' to <Class>'"))?;
            let (name, rest2) = decl
                .split_once(':')
                .ok_or_else(|| err("add_method: expected '<name>: <type> := <expr>'"))?;
            let (ty, body_src) = rest2
                .split_once(":=")
                .ok_or_else(|| err("add_method: missing ':= <expr>'"))?;
            let ty = parse_type(ty.trim().trim_end_matches(':'))?;
            let body = parse_expr(body_src.trim())?;
            Ok(SchemaChange::AddMethod {
                class: class.trim().to_string(),
                name: name.trim().to_string(),
                vtype: ty,
                body,
            })
        }
        "delete_method" => {
            let (name, class) = rest
                .rsplit_once(" from ")
                .ok_or_else(|| err("delete_method: missing ' from <Class>'"))?;
            Ok(SchemaChange::DeleteMethod {
                class: class.trim().to_string(),
                name: name.trim().to_string(),
            })
        }
        "add_edge" => {
            let (sup, sub) = split_edge(rest)?;
            Ok(SchemaChange::AddEdge { sup, sub })
        }
        "delete_edge" => {
            let (edge, upper) = match rest.split_once("connected_to") {
                Some((e, u)) => (e.trim(), Some(u.trim().to_string())),
                None => (rest, None),
            };
            let (sup, sub) = split_edge(edge)?;
            Ok(SchemaChange::DeleteEdge { sup, sub, connected_to: upper })
        }
        "add_class" => {
            let (name, upper) = match rest.split_once("connected_to") {
                Some((n, u)) => (n.trim(), Some(u.trim().to_string())),
                None => (rest.trim(), None),
            };
            if name.is_empty() {
                return Err(err("add_class: missing class name"));
            }
            Ok(SchemaChange::AddClass { name: name.to_string(), connected_to: upper })
        }
        "delete_class" => Ok(SchemaChange::DeleteClass { class: rest.to_string() }),
        "rename_class" => {
            let (old, new) = rest
                .split_once(" to ")
                .ok_or_else(|| err("rename_class: missing ' to <New>'"))?;
            Ok(SchemaChange::RenameClass {
                old: old.trim().to_string(),
                new: new.trim().to_string(),
            })
        }
        "delete_class_2" => Ok(SchemaChange::DeleteClass2 { class: rest.to_string() }),
        "insert_class" => {
            let (name, edge) = rest
                .split_once(" between ")
                .ok_or_else(|| err("insert_class: missing ' between <Sup> - <Sub>'"))?;
            let (sup, sub) = split_edge(edge)?;
            Ok(SchemaChange::InsertClass { name: name.trim().to_string(), sup, sub })
        }
        _ => Err(err(format!("unknown schema-change operator {op:?}"))),
    }
}

fn split_edge(s: &str) -> ModelResult<(String, String)> {
    let parts: Vec<&str> = if s.contains('-') {
        s.splitn(2, '-').collect()
    } else {
        s.split_whitespace().collect()
    };
    if parts.len() != 2 || parts[0].trim().is_empty() || parts[1].trim().is_empty() {
        return Err(err(format!("expected '<Sup> - <Sub>', got {s:?}")));
    }
    Ok((parts[0].trim().to_string(), parts[1].trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_object_model::BinOp;

    #[test]
    fn parses_add_attribute_with_default_and_required() {
        let c = parse_change("add_attribute register: bool = false to Student").unwrap();
        assert_eq!(
            c,
            SchemaChange::AddAttribute {
                class: "Student".into(),
                name: "register".into(),
                vtype: ValueType::Bool,
                default: Value::Bool(false),
                required: false,
            }
        );
        let c = parse_change("add_attribute ssn: str required to Person").unwrap();
        assert!(matches!(c, SchemaChange::AddAttribute { required: true, .. }));
        let c = parse_change("add_attribute age: int to Person").unwrap();
        assert!(matches!(
            c,
            SchemaChange::AddAttribute { default: Value::Int(0), .. }
        ));
    }

    #[test]
    fn parses_delete_and_method_ops() {
        assert_eq!(
            parse_change("delete_attribute register from Student").unwrap(),
            SchemaChange::DeleteAttribute { class: "Student".into(), name: "register".into() }
        );
        let c = parse_change("add_method is_adult: bool := age >= 18 to Person").unwrap();
        match c {
            SchemaChange::AddMethod { class, name, vtype, body } => {
                assert_eq!(class, "Person");
                assert_eq!(name, "is_adult");
                assert_eq!(vtype, ValueType::Bool);
                assert!(matches!(body, MethodBody::Bin(BinOp::Ge, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse_change("delete_method is_adult from Person").unwrap(),
            SchemaChange::DeleteMethod { class: "Person".into(), name: "is_adult".into() }
        );
    }

    #[test]
    fn parses_edge_and_class_ops() {
        assert_eq!(
            parse_change("add_edge SupportStaff - TA").unwrap(),
            SchemaChange::AddEdge { sup: "SupportStaff".into(), sub: "TA".into() }
        );
        assert_eq!(
            parse_change("delete_edge TeachingStaff - TA connected_to Person").unwrap(),
            SchemaChange::DeleteEdge {
                sup: "TeachingStaff".into(),
                sub: "TA".into(),
                connected_to: Some("Person".into())
            }
        );
        assert_eq!(
            parse_change("delete_edge TeachingStaff - TA").unwrap(),
            SchemaChange::DeleteEdge {
                sup: "TeachingStaff".into(),
                sub: "TA".into(),
                connected_to: None
            }
        );
        assert_eq!(
            parse_change("add_class Honor connected_to Student").unwrap(),
            SchemaChange::AddClass { name: "Honor".into(), connected_to: Some("Student".into()) }
        );
        assert_eq!(
            parse_change("insert_class Intern between Staff - TA").unwrap(),
            SchemaChange::InsertClass { name: "Intern".into(), sup: "Staff".into(), sub: "TA".into() }
        );
        assert_eq!(
            parse_change("delete_class_2 Student").unwrap(),
            SchemaChange::DeleteClass2 { class: "Student".into() }
        );
    }

    #[test]
    fn rejects_malformed_commands() {
        assert!(parse_change("frobnicate X").is_err());
        assert!(parse_change("add_attribute x int to C").is_err());
        assert!(parse_change("add_attribute x: int").is_err());
        assert!(parse_change("add_edge OnlyOne").is_err());
        assert!(parse_change("insert_class X between Y").is_err());
        assert!(parse_change("").is_err());
    }

    #[test]
    fn value_and_type_parsers() {
        assert_eq!(parse_value("'abc'").unwrap(), Value::Str("abc".into()));
        assert_eq!(parse_value("\"x\"").unwrap(), Value::Str("x".into()));
        assert_eq!(parse_value("-5").unwrap(), Value::Int(-5));
        assert_eq!(parse_value("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(parse_value("null").unwrap(), Value::Null);
        assert!(parse_value("@@").is_err());
        assert_eq!(parse_type("list<int>").unwrap(), ValueType::List(Box::new(ValueType::Int)));
        assert!(parse_type("object").is_err());
    }

    #[test]
    fn parses_ref_and_list_literals() {
        assert_eq!(parse_value("ref(42)").unwrap(), Value::Ref(Oid(42)));
        assert_eq!(parse_value("[]").unwrap(), Value::List(vec![]));
        assert_eq!(
            parse_value("[1, 'a, b', [true, null]]").unwrap(),
            Value::List(vec![
                Value::Int(1),
                Value::Str("a, b".into()),
                Value::List(vec![Value::Bool(true), Value::Null]),
            ])
        );
        assert!(parse_value("[1, ").is_err());
        assert!(parse_value("ref(x)").is_err());
        assert_eq!(parse_type("ref<7>").unwrap(), ValueType::Ref(ClassId(7)));
        assert_eq!(
            parse_type("list<ref<3>>").unwrap(),
            ValueType::List(Box::new(ValueType::Ref(ClassId(3))))
        );
    }

    fn round_trips(c: SchemaChange) {
        let cmd = c.render().unwrap();
        assert_eq!(parse_change(&cmd).unwrap(), c, "rendered as {cmd:?}");
    }

    #[test]
    fn render_round_trips_every_variant() {
        round_trips(SchemaChange::AddAttribute {
            class: "Student".into(),
            name: "register".into(),
            vtype: ValueType::Bool,
            default: Value::Bool(true),
            required: false,
        });
        // Default equal to the type's implicit default is omitted.
        round_trips(SchemaChange::AddAttribute {
            class: "Person".into(),
            name: "age".into(),
            vtype: ValueType::Int,
            default: Value::Int(0),
            required: true,
        });
        // Quoted string default containing the grammar keywords.
        round_trips(SchemaChange::AddAttribute {
            class: "Person".into(),
            name: "note".into(),
            vtype: ValueType::Str,
            default: Value::Str("went to the required connected_to store".into()),
            required: true,
        });
        round_trips(SchemaChange::AddAttribute {
            class: "Person".into(),
            name: "scores".into(),
            vtype: ValueType::List(Box::new(ValueType::Float)),
            default: Value::List(vec![Value::Float(1.5), Value::Float(-2.0)]),
            required: false,
        });
        round_trips(SchemaChange::AddAttribute {
            class: "Person".into(),
            name: "advisor".into(),
            vtype: ValueType::Ref(ClassId(9)),
            default: Value::Ref(Oid(31)),
            required: false,
        });
        round_trips(SchemaChange::DeleteAttribute {
            class: "Student".into(),
            name: "register".into(),
        });
        // Multi-word method body with a string literal containing " to ".
        round_trips(SchemaChange::AddMethod {
            class: "Person".into(),
            name: "tag".into(),
            vtype: ValueType::Str,
            body: parse_expr("if(age >= 18, 'ok to vote', 'minor')").unwrap(),
        });
        round_trips(SchemaChange::DeleteMethod { class: "Person".into(), name: "tag".into() });
        round_trips(SchemaChange::AddEdge { sup: "SupportStaff".into(), sub: "TA".into() });
        round_trips(SchemaChange::DeleteEdge {
            sup: "TeachingStaff".into(),
            sub: "TA".into(),
            connected_to: Some("Person".into()),
        });
        round_trips(SchemaChange::DeleteEdge {
            sup: "TeachingStaff".into(),
            sub: "TA".into(),
            connected_to: None,
        });
        round_trips(SchemaChange::AddClass {
            name: "Honor".into(),
            connected_to: Some("Student".into()),
        });
        round_trips(SchemaChange::AddClass { name: "Root2".into(), connected_to: None });
        round_trips(SchemaChange::DeleteClass { class: "Grader".into() });
        round_trips(SchemaChange::InsertClass {
            name: "Intern".into(),
            sup: "Staff".into(),
            sub: "TA".into(),
        });
        round_trips(SchemaChange::DeleteClass2 { class: "Student".into() });
        round_trips(SchemaChange::RenameClass { old: "Student".into(), new: "Pupil".into() });
    }

    #[test]
    fn render_rejects_unspellable_shapes() {
        // Identifier with whitespace cannot survive the whitespace-split
        // grammar; `-` would be taken for an edge separator.
        assert!(SchemaChange::DeleteClass { class: "Two Words".into() }.render().is_err());
        assert!(SchemaChange::AddEdge { sup: "A-B".into(), sub: "C".into() }.render().is_err());
        assert!(SchemaChange::AddClass { name: "Xconnected_toY".into(), connected_to: None }
            .render()
            .is_err());
        assert!(SchemaChange::AddAttribute {
            class: "C".into(),
            name: "s".into(),
            vtype: ValueType::Str,
            default: Value::Str("both ' and \" quotes".into()),
            required: false,
        }
        .render()
        .is_err());
        assert!(SchemaChange::AddAttribute {
            class: "C".into(),
            name: "f".into(),
            vtype: ValueType::Float,
            default: Value::Float(f64::NAN),
            required: false,
        }
        .render()
        .is_err());
    }
}
