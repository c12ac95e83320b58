//! Scalar expressions: representation, typing, and columnar evaluation.
//!
//! Expressions are shared by the AST, logical plans and the executor. The
//! evaluator is column-at-a-time: given a [`Table`], an expression produces
//! a whole [`Column`] — the execution style of the paper's host system.

use crate::error::{QueryError, Result};
use lazyetl_store::{Column, DataType, Schema, Table, Value};
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Logical AND (three-valued).
    And,
    /// Logical OR (three-valued).
    Or,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (always yields DOUBLE)
    Div,
    /// `%`
    Mod,
}

impl BinaryOp {
    /// True for the six comparison operators.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }

    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical NOT.
    Not,
    /// Numeric negation.
    Neg,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(expr)` / `COUNT(*)`
    Count,
    /// `SUM(expr)`
    Sum,
    /// `AVG(expr)`
    Avg,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
}

impl AggFunc {
    /// SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// A scalar (or aggregate) expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference, possibly qualified (`f.station`), lower-cased.
    Column(String),
    /// Literal value.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Scalar function call.
    Function {
        /// Lower-cased function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Aggregate call (only valid inside an Aggregate plan node).
    Aggregate {
        /// Which aggregate.
        func: AggFunc,
        /// Argument (`None` = `COUNT(*)`).
        arg: Option<Box<Expr>>,
        /// DISTINCT modifier.
        distinct: bool,
    },
    /// `expr BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// NOT BETWEEN.
        negated: bool,
    },
    /// `expr IN (list)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// NOT IN.
        negated: bool,
    },
    /// `expr LIKE pattern` (`%` and `_` wildcards).
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern (usually a literal).
        pattern: Box<Expr>,
        /// NOT LIKE.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// IS NOT NULL.
        negated: bool,
    },
}

impl Expr {
    /// Shorthand: column reference.
    pub fn col(name: &str) -> Expr {
        Expr::Column(name.to_ascii_lowercase())
    }

    /// Shorthand: literal.
    pub fn lit(v: Value) -> Expr {
        Expr::Literal(v)
    }

    /// Shorthand: `self op other`.
    pub fn binary(self, op: BinaryOp, other: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(self),
            op,
            right: Box::new(other),
        }
    }

    /// Shorthand: conjunction.
    pub fn and(self, other: Expr) -> Expr {
        self.binary(BinaryOp::And, other)
    }

    /// Call `f` on each immediate sub-expression, in operand order (left
    /// before right, the tested expression before its bounds or list).
    /// The one child visitor read-only expression walks share.
    pub fn for_each_child(&self, mut f: impl FnMut(&Expr)) {
        match self {
            Expr::Column(_) | Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => f(expr),
            Expr::Function { args, .. } => args.iter().for_each(f),
            Expr::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    f(a);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            Expr::Like { expr, pattern, .. } => {
                f(expr);
                f(pattern);
            }
        }
    }

    /// Collect every column name referenced by this expression.
    pub fn columns_used(&self, out: &mut Vec<String>) {
        if let Expr::Column(name) = self {
            out.push(name.clone());
        }
        self.for_each_child(|c| c.columns_used(out));
    }

    /// True if any sub-expression is an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = matches!(self, Expr::Aggregate { .. });
        self.for_each_child(|c| found = found || c.contains_aggregate());
        found
    }

    /// Apply `f` to every node bottom-up, rebuilding the tree.
    pub fn transform(&self, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
        let rebuilt = match self {
            Expr::Column(_) | Expr::Literal(_) => self.clone(),
            Expr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(left.transform(f)),
                op: *op,
                right: Box::new(right.transform(f)),
            },
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(expr.transform(f)),
            },
            Expr::Function { name, args } => Expr::Function {
                name: name.clone(),
                args: args.iter().map(|a| a.transform(f)).collect(),
            },
            Expr::Aggregate {
                func,
                arg,
                distinct,
            } => Expr::Aggregate {
                func: *func,
                arg: arg.as_ref().map(|a| Box::new(a.transform(f))),
                distinct: *distinct,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(expr.transform(f)),
                low: Box::new(low.transform(f)),
                high: Box::new(high.transform(f)),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.transform(f)),
                list: list.iter().map(|e| e.transform(f)).collect(),
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(expr.transform(f)),
                pattern: Box::new(pattern.transform(f)),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.transform(f)),
                negated: *negated,
            },
        };
        f(rebuilt)
    }

    /// A display name for an unaliased projection of this expression.
    pub fn default_name(&self) -> String {
        match self {
            Expr::Column(name) => name.rsplit('.').next().unwrap_or(name).to_string(),
            Expr::Aggregate { func, arg, .. } => match arg {
                Some(a) => format!("{}({})", func.name().to_ascii_lowercase(), a.default_name()),
                None => format!("{}(*)", func.name().to_ascii_lowercase()),
            },
            other => other.to_string(),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(name) => write!(f, "{name}"),
            Expr::Literal(Value::Utf8(s)) => write!(f, "'{s}'"),
            Expr::Literal(v) => {
                if let Value::Timestamp(_) = v {
                    write!(f, "'{v}'")
                } else {
                    write!(f, "{v}")
                }
            }
            Expr::Binary { left, op, right } => write!(f, "({left} {} {right})", op.symbol()),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => write!(f, "(NOT {expr})"),
                UnaryOp::Neg => write!(f, "(-{expr})"),
            },
            Expr::Function { name, args } => {
                let parts: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                write!(f, "{name}({})", parts.join(", "))
            }
            Expr::Aggregate {
                func,
                arg,
                distinct,
            } => {
                let d = if *distinct { "DISTINCT " } else { "" };
                match arg {
                    Some(a) => write!(f, "{}({d}{a})", func.name()),
                    None => write!(f, "{}(*)", func.name()),
                }
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let parts: Vec<String> = list.iter().map(|e| e.to_string()).collect();
                write!(
                    f,
                    "({expr} {}IN ({}))",
                    if *negated { "NOT " } else { "" },
                    parts.join(", ")
                )
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr} {}LIKE {pattern})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
        }
    }
}

/// Resolve a possibly-qualified column name against a schema.
///
/// Resolution order: exact match; then suffix match (`f.station` matches
/// field `station`; `station` matches a unique field `…&#46;station`). This is
/// what lets the paper's Figure-1 queries qualify view columns with the
/// origin-table aliases F/R/D.
pub fn resolve_column(schema: &Schema, name: &str) -> Option<usize> {
    resolve_name(schema.fields.iter().map(|f| f.name.as_str()), name)
}

/// Resolve a possibly-qualified column reference against a list of output
/// names (shared by schema resolution and projection substitution).
///
/// Rules, in order:
/// 1. exact match;
/// 2. qualified reference (`r.start_time`): matches an *unqualified* name
///    equal to the suffix, or a qualified name with the **same** qualifier
///    — a name qualified with a *different* alias (`f.start_time`) must
///    NOT match, otherwise predicates silently filter the wrong table;
/// 3. unqualified reference: unique suffix match under any qualifier.
pub fn resolve_name<'a>(
    names: impl Iterator<Item = &'a str> + Clone,
    query: &str,
) -> Option<usize> {
    if let Some(i) = names.clone().position(|n| n == query) {
        return Some(i);
    }
    let matches: Vec<usize> = if let Some((qual, suffix)) = query.rsplit_once('.') {
        let qual_tail = qual.rsplit('.').next().unwrap_or(qual);
        names
            .enumerate()
            .filter(|(_, n)| match n.rsplit_once('.') {
                None => *n == suffix,
                Some((fq, fs)) => fs == suffix && fq.rsplit('.').next() == Some(qual_tail),
            })
            .map(|(i, _)| i)
            .collect()
    } else {
        names
            .enumerate()
            .filter(|(_, n)| n.rsplit('.').next() == Some(query))
            .map(|(i, _)| i)
            .collect()
    };
    if matches.len() == 1 {
        Some(matches[0])
    } else {
        None
    }
}

/// Infer the output type of an expression against an input schema.
pub fn infer_type(expr: &Expr, schema: &Schema) -> Result<DataType> {
    Ok(match expr {
        Expr::Column(name) => {
            let idx = resolve_column(schema, name)
                .ok_or_else(|| QueryError::Plan(format!("unknown column {name:?}")))?;
            schema.fields[idx].data_type
        }
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Utf8),
        Expr::Binary { left, op, right } => {
            if op.is_comparison() || matches!(op, BinaryOp::And | BinaryOp::Or) {
                DataType::Bool
            } else if *op == BinaryOp::Div {
                DataType::Float64
            } else {
                let lt = infer_type(left, schema)?;
                let rt = infer_type(right, schema)?;
                numeric_supertype(lt, rt)?
            }
        }
        Expr::Unary { op, expr } => match op {
            UnaryOp::Not => DataType::Bool,
            UnaryOp::Neg => infer_type(expr, schema)?,
        },
        Expr::Function { name, args } => {
            check_function_arity(name, args.len()).map_err(QueryError::Plan)?;
            match name.as_str() {
                "abs" | "round" | "floor" | "ceil" => {
                    let t = infer_type(&args[0], schema)?;
                    if t == DataType::Int32 || t == DataType::Int64 {
                        t
                    } else {
                        DataType::Float64
                    }
                }
                "sqrt" | "exp" | "ln" | "power" => DataType::Float64,
                "lower" | "upper" => DataType::Utf8,
                "length" => DataType::Int64,
                "coalesce" => infer_type(&args[0], schema)?,
                other => return Err(QueryError::Plan(format!("unknown function {other:?}"))),
            }
        }
        Expr::Aggregate { func, arg, .. } => match func {
            AggFunc::Count => DataType::Int64,
            AggFunc::Avg => DataType::Float64,
            AggFunc::Sum => match arg {
                Some(a) => match infer_type(a, schema)? {
                    DataType::Float64 => DataType::Float64,
                    _ => DataType::Int64,
                },
                None => DataType::Int64,
            },
            AggFunc::Min | AggFunc::Max => match arg {
                Some(a) => infer_type(a, schema)?,
                None => return Err(QueryError::Plan("MIN/MAX need an argument".into())),
            },
        },
        Expr::Between { .. } | Expr::InList { .. } | Expr::Like { .. } | Expr::IsNull { .. } => {
            DataType::Bool
        }
    })
}

fn numeric_supertype(a: DataType, b: DataType) -> Result<DataType> {
    use DataType::*;
    Ok(match (a, b) {
        (Float64, _) | (_, Float64) => Float64,
        (Timestamp, Int32) | (Timestamp, Int64) | (Int32, Timestamp) | (Int64, Timestamp) => {
            Timestamp
        }
        (Timestamp, Timestamp) => Int64, // difference of timestamps
        (Int64, _) | (_, Int64) => Int64,
        (Int32, Int32) => Int32,
        _ => {
            return Err(QueryError::Plan(format!(
                "no numeric supertype for {a} and {b}"
            )))
        }
    })
}

/// SQL LIKE with `%` (any run) and `_` (single char) wildcards.
pub fn like_match(text: &str, pattern: &str) -> bool {
    fn inner(t: &[char], p: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('%') => {
                // Collapse consecutive %.
                let rest = &p[1..];
                (0..=t.len()).any(|k| inner(&t[k..], rest))
            }
            Some('_') => !t.is_empty() && inner(&t[1..], &p[1..]),
            Some(c) => t.first() == Some(c) && inner(&t[1..], &p[1..]),
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    inner(&t, &p)
}

/// Evaluate a scalar value binary operation under SQL NULL semantics.
pub fn eval_binary_values(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    use BinaryOp::*;
    match op {
        And => Ok(match (l.as_bool(), r.as_bool(), l.is_null(), r.is_null()) {
            (Some(false), _, _, _) | (_, Some(false), _, _) => Value::Bool(false),
            (Some(true), Some(true), _, _) => Value::Bool(true),
            _ => Value::Null,
        }),
        Or => Ok(match (l.as_bool(), r.as_bool(), l.is_null(), r.is_null()) {
            (Some(true), _, _, _) | (_, Some(true), _, _) => Value::Bool(true),
            (Some(false), Some(false), _, _) => Value::Bool(false),
            _ => Value::Null,
        }),
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let ord = l
                .sql_cmp(r)
                .ok_or_else(|| QueryError::Execution(format!("cannot compare {l} with {r}")))?;
            let b = match op {
                Eq => ord == std::cmp::Ordering::Equal,
                NotEq => ord != std::cmp::Ordering::Equal,
                Lt => ord == std::cmp::Ordering::Less,
                LtEq => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                GtEq => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        Add | Sub | Mul | Div | Mod => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            // Timestamp arithmetic: ts ± integer µs, ts - ts.
            match (l, r, op) {
                (Value::Timestamp(a), Value::Timestamp(b), Sub) => return Ok(Value::Int64(a - b)),
                (Value::Timestamp(a), _, Add) => {
                    let d = r
                        .as_i64()
                        .ok_or_else(|| QueryError::Execution("timestamp + non-integer".into()))?;
                    return Ok(Value::Timestamp(a + d));
                }
                (Value::Timestamp(a), _, Sub) => {
                    let d = r
                        .as_i64()
                        .ok_or_else(|| QueryError::Execution("timestamp - non-integer".into()))?;
                    return Ok(Value::Timestamp(a - d));
                }
                _ => {}
            }
            let fl = l
                .as_f64()
                .ok_or_else(|| QueryError::Execution(format!("non-numeric operand {l}")))?;
            let fr = r
                .as_f64()
                .ok_or_else(|| QueryError::Execution(format!("non-numeric operand {r}")))?;
            // Integer-preserving arithmetic when both sides are integers
            // and the op is not division.
            let both_int = matches!(l, Value::Int32(_) | Value::Int64(_))
                && matches!(r, Value::Int32(_) | Value::Int64(_));
            if both_int && op != Div {
                let a = l.as_i64().unwrap();
                let b = r.as_i64().unwrap();
                let v = match op {
                    Add => a.checked_add(b),
                    Sub => a.checked_sub(b),
                    Mul => a.checked_mul(b),
                    Mod => {
                        if b == 0 {
                            return Ok(Value::Null); // SQL: x % 0 -> NULL
                        }
                        a.checked_rem(b)
                    }
                    _ => unreachable!(),
                }
                .ok_or_else(integer_overflow)?;
                let narrow = matches!(l, Value::Int32(_)) && matches!(r, Value::Int32(_));
                return Ok(if narrow && i32::try_from(v).is_ok() {
                    Value::Int32(v as i32)
                } else {
                    Value::Int64(v)
                });
            }
            let v = match op {
                Add => fl + fr,
                Sub => fl - fr,
                Mul => fl * fr,
                Div => {
                    if fr == 0.0 {
                        return Ok(Value::Null); // SQL: x / 0 -> NULL
                    }
                    fl / fr
                }
                Mod => {
                    if fr == 0.0 {
                        return Ok(Value::Null);
                    }
                    fl % fr
                }
                _ => unreachable!(),
            };
            Ok(Value::Float64(v))
        }
    }
}

fn integer_overflow() -> QueryError {
    QueryError::Execution("integer overflow".into())
}

/// Negate a scalar value under SQL NULL semantics. Integer negation is
/// checked: `-i64::MIN` is an `integer overflow` error, as `i64::MAX + 1` is.
pub(crate) fn eval_neg_value(v: &Value) -> Result<Value> {
    Ok(match v {
        Value::Null => Value::Null,
        Value::Int32(x) => Value::Int32(x.checked_neg().ok_or_else(integer_overflow)?),
        Value::Int64(x) => Value::Int64(x.checked_neg().ok_or_else(integer_overflow)?),
        Value::Float64(x) => Value::Float64(-x),
        other => return Err(QueryError::Execution(format!("cannot negate {other}"))),
    })
}

/// Validate a scalar function's argument count; the message names the
/// function and the expected arity.
fn check_function_arity(name: &str, actual: usize) -> std::result::Result<(), String> {
    let expected: Option<usize> = match name {
        "abs" | "round" | "floor" | "ceil" | "sqrt" | "exp" | "ln" | "lower" | "upper"
        | "length" => Some(1),
        "power" => Some(2),
        "coalesce" => {
            if actual == 0 {
                return Err("coalesce needs at least one argument".into());
            }
            None
        }
        _ => None, // unknown names are rejected by type inference
    };
    match expected {
        Some(n) if n != actual => Err(format!(
            "{name} takes {n} argument{}, got {actual}",
            if n == 1 { "" } else { "s" }
        )),
        _ => Ok(()),
    }
}

fn eval_function(name: &str, args: &[Value]) -> Result<Value> {
    check_function_arity(name, args.len()).map_err(QueryError::Execution)?;
    let num = |v: &Value| -> Result<Option<f64>> {
        if v.is_null() {
            return Ok(None);
        }
        v.as_f64()
            .map(Some)
            .ok_or_else(|| QueryError::Execution(format!("{name}: non-numeric argument {v}")))
    };
    Ok(match name {
        "abs" => match &args[0] {
            Value::Null => Value::Null,
            Value::Int32(v) => Value::Int32(v.checked_abs().ok_or_else(integer_overflow)?),
            Value::Int64(v) => Value::Int64(v.checked_abs().ok_or_else(integer_overflow)?),
            Value::Float64(v) => Value::Float64(v.abs()),
            other => return Err(QueryError::Execution(format!("abs: bad argument {other}"))),
        },
        "round" => match num(&args[0])? {
            None => Value::Null,
            Some(v) => match &args[0] {
                Value::Int32(_) | Value::Int64(_) => args[0].clone(),
                _ => Value::Float64(v.round()),
            },
        },
        "floor" => match num(&args[0])? {
            None => Value::Null,
            Some(v) => match &args[0] {
                Value::Int32(_) | Value::Int64(_) => args[0].clone(),
                _ => Value::Float64(v.floor()),
            },
        },
        "ceil" => match num(&args[0])? {
            None => Value::Null,
            Some(v) => match &args[0] {
                Value::Int32(_) | Value::Int64(_) => args[0].clone(),
                _ => Value::Float64(v.ceil()),
            },
        },
        "sqrt" => match num(&args[0])? {
            None => Value::Null,
            Some(v) => Value::Float64(v.sqrt()),
        },
        "exp" => match num(&args[0])? {
            None => Value::Null,
            Some(v) => Value::Float64(v.exp()),
        },
        "ln" => match num(&args[0])? {
            None => Value::Null,
            Some(v) => Value::Float64(v.ln()),
        },
        "power" => match (num(&args[0])?, num(&args[1])?) {
            (Some(a), Some(b)) => Value::Float64(a.powf(b)),
            _ => Value::Null,
        },
        "lower" => match &args[0] {
            Value::Null => Value::Null,
            Value::Utf8(s) => Value::Utf8(s.to_lowercase()),
            other => {
                return Err(QueryError::Execution(format!(
                    "lower: bad argument {other}"
                )))
            }
        },
        "upper" => match &args[0] {
            Value::Null => Value::Null,
            Value::Utf8(s) => Value::Utf8(s.to_uppercase()),
            other => {
                return Err(QueryError::Execution(format!(
                    "upper: bad argument {other}"
                )))
            }
        },
        "length" => match &args[0] {
            Value::Null => Value::Null,
            Value::Utf8(s) => Value::Int64(s.chars().count() as i64),
            other => {
                return Err(QueryError::Execution(format!(
                    "length: bad argument {other}"
                )))
            }
        },
        "coalesce" => args
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null),
        other => return Err(QueryError::Execution(format!("unknown function {other:?}"))),
    })
}

/// Evaluate an expression for one row of a table.
pub fn eval_row(expr: &Expr, table: &Table, row: usize) -> Result<Value> {
    match expr {
        Expr::Column(name) => {
            let idx = resolve_column(&table.schema, name)
                .ok_or_else(|| QueryError::Execution(format!("unknown column {name:?}")))?;
            Ok(table.columns[idx].get(row)?)
        }
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Binary { left, op, right } => {
            let l = eval_row(left, table, row)?;
            // Short-circuit AND/OR on the already-known left side.
            if *op == BinaryOp::And && l.as_bool() == Some(false) {
                return Ok(Value::Bool(false));
            }
            if *op == BinaryOp::Or && l.as_bool() == Some(true) {
                return Ok(Value::Bool(true));
            }
            let r = eval_row(right, table, row)?;
            eval_binary_values(*op, &l, &r)
        }
        Expr::Unary { op, expr } => {
            let v = eval_row(expr, table, row)?;
            match op {
                UnaryOp::Not => Ok(match v.as_bool() {
                    Some(b) => Value::Bool(!b),
                    None => Value::Null,
                }),
                UnaryOp::Neg => eval_neg_value(&v),
            }
        }
        Expr::Function { name, args } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval_row(a, table, row))
                .collect::<Result<_>>()?;
            eval_function(name, &vals)
        }
        Expr::Aggregate { .. } => Err(QueryError::Execution(
            "aggregate expression outside of GROUP BY context".into(),
        )),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval_row(expr, table, row)?;
            let lo = eval_row(low, table, row)?;
            let hi = eval_row(high, table, row)?;
            let ge = eval_binary_values(BinaryOp::GtEq, &v, &lo)?;
            let le = eval_binary_values(BinaryOp::LtEq, &v, &hi)?;
            let both = eval_binary_values(BinaryOp::And, &ge, &le)?;
            Ok(match (both.as_bool(), *negated) {
                (Some(b), neg) => Value::Bool(b != neg),
                (None, _) => Value::Null,
            })
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_row(expr, table, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for candidate in list {
                let c = eval_row(candidate, table, row)?;
                match v.sql_eq(&c) {
                    Some(true) => return Ok(Value::Bool(!negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval_row(expr, table, row)?;
            let p = eval_row(pattern, table, row)?;
            match (v.as_str(), p.as_str()) {
                (Some(t), Some(pat)) => Ok(Value::Bool(like_match(t, pat) != *negated)),
                _ if v.is_null() || p.is_null() => Ok(Value::Null),
                _ => Err(QueryError::Execution(
                    "LIKE requires string operands".into(),
                )),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_row(expr, table, row)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
    }
}

/// Knobs for the columnar evaluator: whether the typed kernel fast paths
/// run, and where to report what happened.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions<'a> {
    /// Try the store's typed kernels before the row interpreter. `false`
    /// forces the scalar reference path (the E15 ablation baseline).
    pub vectorized: bool,
    /// Counters to bump (vectorized batches / scalar fallbacks).
    pub metrics: Option<&'a crate::metrics::ExecMetrics>,
}

impl Default for EvalOptions<'_> {
    fn default() -> Self {
        EvalOptions {
            vectorized: true,
            metrics: None,
        }
    }
}

/// Evaluate an expression over all rows, producing a column.
///
/// Expression shapes with typed kernels (column/literal and
/// column/column comparisons and arithmetic, Kleene AND/OR/NOT, BETWEEN,
/// literal IN lists, IS NULL) run batch-at-a-time on the store's
/// [`kernels`](lazyetl_store::kernels); everything else — and any batch a
/// kernel declines (unsupported type pairing, integer overflow) — falls
/// back to row-at-a-time interpretation, which remains the semantic
/// reference.
pub fn eval_expr(expr: &Expr, table: &Table) -> Result<Column> {
    eval_expr_opts(expr, table, &EvalOptions::default())
}

/// [`eval_expr`] with explicit [`EvalOptions`].
pub fn eval_expr_opts(expr: &Expr, table: &Table, opts: &EvalOptions<'_>) -> Result<Column> {
    if opts.vectorized {
        if let Some(col) = eval_vectorized(expr, table)? {
            if let Some(m) = opts.metrics {
                m.add_vectorized_batch();
            }
            return Ok(col);
        }
        if let Some(m) = opts.metrics {
            m.add_scalar_fallback();
        }
    }
    eval_expr_scalar(expr, table)
}

/// The row-at-a-time reference evaluator (no kernels). Public so the
/// kernel-throughput bench and the proptest oracle can pin the scalar
/// baseline explicitly.
pub fn eval_expr_scalar(expr: &Expr, table: &Table) -> Result<Column> {
    let out_type = infer_type(expr, &table.schema)?;
    let mut col = Column::empty(out_type);
    for row in 0..table.num_rows() {
        let v = eval_row(expr, table, row)?;
        // Coerce to the inferred column type where the valueside differs
        // (e.g. int-preserving round over a Float64-typed expression).
        let v = coerce_value(v, out_type);
        col.push(v).map_err(QueryError::Store)?;
    }
    Ok(col)
}

/// Map a comparison [`BinaryOp`] onto the store's kernel operator.
fn cmp_op(op: BinaryOp) -> Option<lazyetl_store::CmpOp> {
    use lazyetl_store::CmpOp as K;
    Some(match op {
        BinaryOp::Eq => K::Eq,
        BinaryOp::NotEq => K::NotEq,
        BinaryOp::Lt => K::Lt,
        BinaryOp::LtEq => K::LtEq,
        BinaryOp::Gt => K::Gt,
        BinaryOp::GtEq => K::GtEq,
        _ => return None,
    })
}

/// Map an arithmetic [`BinaryOp`] onto the store's kernel operator.
fn arith_op(op: BinaryOp) -> Option<lazyetl_store::ArithOp> {
    use lazyetl_store::ArithOp as K;
    Some(match op {
        BinaryOp::Add => K::Add,
        BinaryOp::Sub => K::Sub,
        BinaryOp::Mul => K::Mul,
        BinaryOp::Div => K::Div,
        BinaryOp::Mod => K::Mod,
        _ => return None,
    })
}

/// Evaluate a boolean-typed sub-expression to a [`BoolMask`], vectorized.
fn eval_mask(expr: &Expr, table: &Table) -> Result<Option<lazyetl_store::BoolMask>> {
    Ok(eval_vectorized(expr, table)?.and_then(|col| lazyetl_store::BoolMask::from_column(&col)))
}

/// Evaluate an operand to a column for a kernel, borrowing the table's
/// storage when the operand is a bare column reference (no data copy) and
/// materializing otherwise. `None` = no vectorized path for this operand.
fn operand<'t>(expr: &Expr, table: &'t Table) -> Result<Option<std::borrow::Cow<'t, Column>>> {
    use std::borrow::Cow;
    if let Expr::Column(name) = expr {
        return Ok(
            resolve_column(&table.schema, name).map(|idx| Cow::Borrowed(&table.columns[idx]))
        );
    }
    Ok(eval_vectorized(expr, table)?.map(Cow::Owned))
}

/// Fast-path evaluation; `Ok(None)` means "no kernel, use the interpreter".
///
/// The dispatch table (each arm declines to the scalar path when its
/// kernel has no coverage for the concrete types):
///
/// | expression shape                 | kernel                         |
/// |----------------------------------|--------------------------------|
/// | `col`                            | zero-copy column clone         |
/// | `col CMP lit` / `lit CMP col`    | `kernels::compare_scalar`      |
/// | `expr CMP expr`                  | `kernels::compare_columns`     |
/// | `expr ARITH lit` (either side)   | `kernels::arith_scalar`        |
/// | `expr ARITH expr`                | `kernels::arith_columns`       |
/// | `expr AND/OR expr`, `NOT expr`   | Kleene mask combinators        |
/// | `expr BETWEEN lit AND lit`       | two compares + AND (+ NOT)     |
/// | `expr [NOT] IN (literals)`       | `kernels::in_list_scalar`      |
/// | `expr IS [NOT] NULL`             | `kernels::is_null_mask`        |
fn eval_vectorized(expr: &Expr, table: &Table) -> Result<Option<Column>> {
    use lazyetl_store::kernels;
    match expr {
        Expr::Column(name) => {
            let idx = match resolve_column(&table.schema, name) {
                Some(i) => i,
                None => return Ok(None), // let the interpreter report the error path
            };
            Ok(Some(table.columns[idx].clone()))
        }
        Expr::Binary { left, op, right } if op.is_comparison() => {
            let k = cmp_op(*op).expect("comparison checked");
            // One-literal shapes run the scalar-comparand kernel against
            // the other side (borrowed when it's a bare column).
            match (&**left, &**right) {
                (l_expr, Expr::Literal(lit)) if !matches!(l_expr, Expr::Literal(_)) => {
                    let Some(col) = operand(l_expr, table)? else {
                        return Ok(None);
                    };
                    Ok(kernels::compare_scalar(&col, k, lit).map(|m| m.into_column()))
                }
                (Expr::Literal(lit), r_expr) => {
                    let Some(col) = operand(r_expr, table)? else {
                        return Ok(None);
                    };
                    // lit CMP col ⇔ col CMP' lit with the operator flipped.
                    Ok(kernels::compare_scalar(&col, k.flip(), lit).map(|m| m.into_column()))
                }
                _ => {
                    let Some(l) = operand(left, table)? else {
                        return Ok(None);
                    };
                    let Some(r) = operand(right, table)? else {
                        return Ok(None);
                    };
                    Ok(kernels::compare_columns(&l, &r, k).map(|m| m.into_column()))
                }
            }
        }
        Expr::Binary { left, op, right } if matches!(op, BinaryOp::And | BinaryOp::Or) => {
            let Some(l) = eval_mask(left, table)? else {
                return Ok(None);
            };
            let Some(r) = eval_mask(right, table)? else {
                return Ok(None);
            };
            let out = if *op == BinaryOp::And {
                l.and(&r)
            } else {
                l.or(&r)
            };
            Ok(Some(out.into_column()))
        }
        Expr::Binary { left, op, right } => {
            let Some(k) = arith_op(*op) else {
                return Ok(None);
            };
            match (&**left, &**right) {
                (l_expr, Expr::Literal(lit)) if !matches!(l_expr, Expr::Literal(_)) => {
                    let Some(col) = operand(l_expr, table)? else {
                        return Ok(None);
                    };
                    Ok(kernels::arith_scalar(&col, k, lit, false))
                }
                (Expr::Literal(lit), r_expr) => {
                    let Some(col) = operand(r_expr, table)? else {
                        return Ok(None);
                    };
                    Ok(kernels::arith_scalar(&col, k, lit, true))
                }
                _ => {
                    let Some(l) = operand(left, table)? else {
                        return Ok(None);
                    };
                    let Some(r) = operand(right, table)? else {
                        return Ok(None);
                    };
                    Ok(kernels::arith_columns(&l, &r, k))
                }
            }
        }
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => Ok(eval_mask(expr, table)?.map(|m| m.not().into_column())),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let Some(col) = operand(expr, table)? else {
                return Ok(None);
            };
            let bound =
                |b: &Expr, op: lazyetl_store::CmpOp| -> Result<Option<lazyetl_store::BoolMask>> {
                    match b {
                        Expr::Literal(lit) => Ok(kernels::compare_scalar(&col, op, lit)),
                        other => Ok(operand(other, table)?
                            .and_then(|bc| kernels::compare_columns(&col, &bc, op))),
                    }
                };
            let Some(ge) = bound(low, lazyetl_store::CmpOp::GtEq)? else {
                return Ok(None);
            };
            let Some(le) = bound(high, lazyetl_store::CmpOp::LtEq)? else {
                return Ok(None);
            };
            let both = ge.and(&le);
            let out = if *negated { both.not() } else { both };
            Ok(Some(out.into_column()))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let lits: Option<Vec<Value>> = list
                .iter()
                .map(|e| match e {
                    Expr::Literal(v) => Some(v.clone()),
                    _ => None,
                })
                .collect();
            let Some(lits) = lits else {
                return Ok(None);
            };
            let Some(col) = operand(expr, table)? else {
                return Ok(None);
            };
            Ok(kernels::in_list_scalar(&col, &lits, *negated).map(|m| m.into_column()))
        }
        Expr::IsNull { expr, negated } => Ok(
            operand(expr, table)?.map(|col| kernels::is_null_mask(&col, *negated).into_column())
        ),
        _ => Ok(None),
    }
}

/// Losslessly coerce a value toward a target type where SQL allows it.
fn coerce_value(v: Value, target: DataType) -> Value {
    match (&v, target) {
        (Value::Int32(x), DataType::Int64) => Value::Int64(*x as i64),
        (Value::Int32(x), DataType::Float64) => Value::Float64(*x as f64),
        (Value::Int64(x), DataType::Float64) => Value::Float64(*x as f64),
        (Value::Int64(x), DataType::Timestamp) => Value::Timestamp(*x),
        _ => v,
    }
}

/// Evaluate a predicate to a boolean selection mask (NULL -> false).
pub fn eval_predicate_mask(expr: &Expr, table: &Table) -> Result<Vec<bool>> {
    eval_predicate_mask_opts(expr, table, &EvalOptions::default())
}

/// [`eval_predicate_mask`] with explicit [`EvalOptions`]. The vectorized
/// path collapses the kernel mask straight to a packed `Vec<bool>`
/// without materializing a boolean column.
pub fn eval_predicate_mask_opts(
    expr: &Expr,
    table: &Table,
    opts: &EvalOptions<'_>,
) -> Result<Vec<bool>> {
    if opts.vectorized {
        if let Some(mask) = eval_mask(expr, table)? {
            if let Some(m) = opts.metrics {
                m.add_vectorized_batch();
            }
            return Ok(mask.into_selection());
        }
        if let Some(m) = opts.metrics {
            m.add_scalar_fallback();
        }
    }
    eval_predicate_mask_scalar(expr, table)
}

/// Row-at-a-time reference for [`eval_predicate_mask`].
pub fn eval_predicate_mask_scalar(expr: &Expr, table: &Table) -> Result<Vec<bool>> {
    let mut mask = Vec::with_capacity(table.num_rows());
    for row in 0..table.num_rows() {
        let v = eval_row(expr, table, row)?;
        mask.push(v.as_bool().unwrap_or(false));
    }
    Ok(mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyetl_store::Field;

    fn test_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("station", DataType::Utf8),
            Field::new("value", DataType::Float64),
            Field::nullable("qual", DataType::Int32),
            Field::new("t", DataType::Timestamp),
        ])
        .unwrap();
        let mut t = Table::empty(schema);
        t.append_row(vec![
            Value::Utf8("ISK".into()),
            Value::Float64(1.5),
            Value::Int32(80),
            Value::Timestamp(1_000_000),
        ])
        .unwrap();
        t.append_row(vec![
            Value::Utf8("HGN".into()),
            Value::Float64(-2.0),
            Value::Null,
            Value::Timestamp(2_000_000),
        ])
        .unwrap();
        t
    }

    #[test]
    fn column_resolution_with_qualifiers() {
        let t = test_table();
        assert_eq!(resolve_column(&t.schema, "station"), Some(0));
        assert_eq!(resolve_column(&t.schema, "f.station"), Some(0));
        assert_eq!(resolve_column(&t.schema, "x.y.station"), Some(0));
        assert_eq!(resolve_column(&t.schema, "missing"), None);
    }

    #[test]
    fn comparison_and_nulls() {
        let t = test_table();
        let p = Expr::col("qual").binary(BinaryOp::Gt, Expr::lit(Value::Int32(50)));
        let mask = eval_predicate_mask(&p, &t).unwrap();
        assert_eq!(mask, vec![true, false], "NULL row filtered out");
    }

    #[test]
    fn three_valued_logic() {
        let t = test_table();
        // NULL OR TRUE = TRUE even though qual is NULL in row 1.
        let p = Expr::col("qual")
            .binary(BinaryOp::Gt, Expr::lit(Value::Int32(50)))
            .binary(BinaryOp::Or, Expr::lit(Value::Bool(true)));
        let mask = eval_predicate_mask(&p, &t).unwrap();
        assert_eq!(mask, vec![true, true]);
        // NULL AND FALSE = FALSE.
        let v = eval_binary_values(BinaryOp::And, &Value::Null, &Value::Bool(false)).unwrap();
        assert_eq!(v, Value::Bool(false));
        let v = eval_binary_values(BinaryOp::And, &Value::Null, &Value::Bool(true)).unwrap();
        assert!(v.is_null());
    }

    #[test]
    fn arithmetic_types() {
        let v = eval_binary_values(BinaryOp::Add, &Value::Int32(1), &Value::Int32(2)).unwrap();
        assert_eq!(v, Value::Int32(3));
        let v = eval_binary_values(BinaryOp::Div, &Value::Int32(1), &Value::Int32(2)).unwrap();
        assert_eq!(v, Value::Float64(0.5));
        let v = eval_binary_values(BinaryOp::Div, &Value::Int32(1), &Value::Int32(0)).unwrap();
        assert!(v.is_null(), "division by zero is NULL");
        let v = eval_binary_values(BinaryOp::Add, &Value::Timestamp(10), &Value::Int64(5)).unwrap();
        assert_eq!(v, Value::Timestamp(15));
        let v =
            eval_binary_values(BinaryOp::Sub, &Value::Timestamp(10), &Value::Timestamp(4)).unwrap();
        assert_eq!(v, Value::Int64(6));
        assert!(
            eval_binary_values(BinaryOp::Add, &Value::Int64(i64::MAX), &Value::Int64(1)).is_err()
        );
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("BHZ", "BH%"));
        assert!(like_match("BHZ", "B_Z"));
        assert!(!like_match("BHZ", "B_"));
        assert!(like_match("", "%"));
        assert!(like_match("abc", "%c"));
        assert!(like_match("abc", "%%c"));
        assert!(!like_match("abc", "_"));
        assert!(like_match("a%b", "a%b")); // literal percent matched by wildcard
    }

    #[test]
    fn between_and_in() {
        let t = test_table();
        let p = Expr::Between {
            expr: Box::new(Expr::col("value")),
            low: Box::new(Expr::lit(Value::Float64(0.0))),
            high: Box::new(Expr::lit(Value::Float64(2.0))),
            negated: false,
        };
        assert_eq!(eval_predicate_mask(&p, &t).unwrap(), vec![true, false]);
        let p = Expr::InList {
            expr: Box::new(Expr::col("station")),
            list: vec![
                Expr::lit(Value::Utf8("HGN".into())),
                Expr::lit(Value::Utf8("WIT".into())),
            ],
            negated: false,
        };
        assert_eq!(eval_predicate_mask(&p, &t).unwrap(), vec![false, true]);
    }

    #[test]
    fn functions() {
        let t = test_table();
        let c = eval_expr(
            &Expr::Function {
                name: "abs".into(),
                args: vec![Expr::col("value")],
            },
            &t,
        )
        .unwrap();
        assert_eq!(c.get(1).unwrap(), Value::Float64(2.0));
        let c = eval_expr(
            &Expr::Function {
                name: "lower".into(),
                args: vec![Expr::col("station")],
            },
            &t,
        )
        .unwrap();
        assert_eq!(c.get(0).unwrap(), Value::Utf8("isk".into()));
        let c = eval_expr(
            &Expr::Function {
                name: "coalesce".into(),
                args: vec![Expr::col("qual"), Expr::lit(Value::Int32(-1))],
            },
            &t,
        )
        .unwrap();
        assert_eq!(c.get(1).unwrap(), Value::Int32(-1));
    }

    #[test]
    fn wrong_function_arity_is_an_error_not_a_panic() {
        let t = test_table();
        for (name, args) in [
            ("abs", vec![]),
            ("abs", vec![Expr::col("value"), Expr::col("value")]),
            ("power", vec![Expr::lit(Value::Int64(2))]),
            ("sqrt", vec![]),
            ("coalesce", vec![]),
        ] {
            let f = Expr::Function {
                name: name.into(),
                args: args.clone(),
            };
            assert!(
                infer_type(&f, &t.schema).is_err(),
                "{name}/{} must fail type inference",
                args.len()
            );
            assert!(
                eval_expr(&f, &t).is_err(),
                "{name}/{} must fail evaluation",
                args.len()
            );
        }
    }

    #[test]
    fn negating_the_minimum_integer_overflows() {
        use crate::planner::{plan_sql, TableSource};
        let schema = Schema::new(vec![
            Field::new("v", DataType::Int64),
            Field::new("w", DataType::Int32),
        ])
        .unwrap();
        let mut t = Table::empty(schema);
        t.append_row(vec![Value::Int64(i64::MIN), Value::Int32(i32::MIN)])
            .unwrap();
        let mut c = lazyetl_store::Catalog::new();
        c.create_table("t", t).unwrap();
        let src = TableSource::new(&c);
        for sql in [
            "SELECT -v FROM t",
            "SELECT -w FROM t",
            "SELECT abs(v) FROM t",
            "SELECT abs(w) FROM t",
            // Folds to -(i64::MIN): left unfolded, it fails at run time.
            "SELECT -(0 - 9223372036854775807 - 1) FROM t",
        ] {
            let out = plan_sql(sql, &src)
                .and_then(|p| crate::optimizer::optimize(&p))
                .and_then(|p| crate::exec::execute(&p, &crate::exec::ExecContext::new(&c)));
            match out {
                Err(e) => assert!(e.to_string().contains("integer overflow"), "{sql}: {e}"),
                Ok(t) => panic!("{sql} answered {:?}", t.row(0)),
            }
        }
    }

    #[test]
    fn is_null_and_not() {
        let t = test_table();
        let p = Expr::IsNull {
            expr: Box::new(Expr::col("qual")),
            negated: false,
        };
        assert_eq!(eval_predicate_mask(&p, &t).unwrap(), vec![false, true]);
        let p = Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(Expr::IsNull {
                expr: Box::new(Expr::col("qual")),
                negated: false,
            }),
        };
        assert_eq!(eval_predicate_mask(&p, &t).unwrap(), vec![true, false]);
    }

    #[test]
    fn type_inference() {
        let t = test_table();
        assert_eq!(
            infer_type(&Expr::col("value"), &t.schema).unwrap(),
            DataType::Float64
        );
        assert_eq!(
            infer_type(
                &Expr::col("qual").binary(BinaryOp::Add, Expr::lit(Value::Int32(1))),
                &t.schema
            )
            .unwrap(),
            DataType::Int32
        );
        assert_eq!(
            infer_type(
                &Expr::Aggregate {
                    func: AggFunc::Avg,
                    arg: Some(Box::new(Expr::col("value"))),
                    distinct: false
                },
                &t.schema
            )
            .unwrap(),
            DataType::Float64
        );
        assert!(infer_type(&Expr::col("nope"), &t.schema).is_err());
    }

    #[test]
    fn display_roundtrips_visually() {
        let e = Expr::col("f.station").binary(BinaryOp::Eq, Expr::lit(Value::Utf8("ISK".into())));
        assert_eq!(e.to_string(), "(f.station = 'ISK')");
        assert_eq!(e.default_name(), "(f.station = 'ISK')");
        assert_eq!(Expr::col("d.sample_value").default_name(), "sample_value");
        let agg = Expr::Aggregate {
            func: AggFunc::Avg,
            arg: Some(Box::new(Expr::col("d.sample_value"))),
            distinct: false,
        };
        assert_eq!(agg.default_name(), "avg(sample_value)");
    }

    #[test]
    fn columns_used_collects() {
        let e = Expr::col("a")
            .binary(BinaryOp::Add, Expr::col("b"))
            .binary(BinaryOp::Gt, Expr::lit(Value::Int32(0)));
        let mut cols = Vec::new();
        e.columns_used(&mut cols);
        assert_eq!(cols, vec!["a".to_string(), "b".to_string()]);
        assert!(!e.contains_aggregate());
    }
}
