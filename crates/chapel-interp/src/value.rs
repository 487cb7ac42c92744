//! Runtime values of the interpreter.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use linearize::{PrimType, Shape, Slots};

use crate::error::InterpError;

/// A runtime value.
///
/// Arrays carry their declared lower bound (Chapel arrays are typically
/// `[1..n]`); records are value types; class instances are reference
/// types (shared via `Rc<RefCell<..>>`), matching Chapel semantics.
#[derive(Debug, Clone)]
pub enum RtValue {
    /// `real`
    Real(f64),
    /// `int`
    Int(i64),
    /// `bool`
    Bool(bool),
    /// `string`
    Str(String),
    /// A range value `lo..hi` (inclusive).
    Range(i64, i64),
    /// An array with its lower bound.
    Array {
        /// Declared lower bound of the index range.
        lo: i64,
        /// The elements.
        items: Vec<RtValue>,
    },
    /// A record instance (value type).
    Record {
        /// Record type name.
        name: String,
        /// Fields in declaration order.
        fields: Vec<RtValue>,
    },
    /// A class instance (reference type).
    Object(Rc<RefCell<ObjectData>>),
    /// The unit value of statements/void calls.
    Nil,
}

/// Mutable state of a class instance.
#[derive(Debug, Clone)]
pub struct ObjectData {
    /// Class name.
    pub class: String,
    /// Field values by name.
    pub fields: HashMap<String, RtValue>,
}

impl RtValue {
    /// Numeric payload, widening ints and bools.
    pub fn as_f64(&self) -> Result<f64, InterpError> {
        match self {
            RtValue::Real(x) => Ok(*x),
            RtValue::Int(x) => Ok(*x as f64),
            RtValue::Bool(b) => Ok(if *b { 1.0 } else { 0.0 }),
            other => Err(InterpError::type_error(format!(
                "expected a number, found {}",
                other.kind()
            ))),
        }
    }

    /// Integer payload (truncating reals is *not* implicit; use the
    /// `int()` builtin for that).
    pub fn as_i64(&self) -> Result<i64, InterpError> {
        match self {
            RtValue::Int(x) => Ok(*x),
            other => Err(InterpError::type_error(format!(
                "expected an int, found {}",
                other.kind()
            ))),
        }
    }

    /// Boolean payload.
    pub fn as_bool(&self) -> Result<bool, InterpError> {
        match self {
            RtValue::Bool(b) => Ok(*b),
            other => Err(InterpError::type_error(format!(
                "expected a bool, found {}",
                other.kind()
            ))),
        }
    }

    /// A short name of the value's kind for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            RtValue::Real(_) => "real",
            RtValue::Int(_) => "int",
            RtValue::Bool(_) => "bool",
            RtValue::Str(_) => "string",
            RtValue::Range(..) => "range",
            RtValue::Array { .. } => "array",
            RtValue::Record { .. } => "record",
            RtValue::Object(_) => "object",
            RtValue::Nil => "nil",
        }
    }

    /// Structural equality on data values (used by tests; objects
    /// compare by identity).
    pub fn deep_eq(&self, other: &RtValue) -> bool {
        match (self, other) {
            (RtValue::Real(a), RtValue::Real(b)) => a == b,
            (RtValue::Int(a), RtValue::Int(b)) => a == b,
            (RtValue::Bool(a), RtValue::Bool(b)) => a == b,
            (RtValue::Str(a), RtValue::Str(b)) => a == b,
            (RtValue::Range(a, b), RtValue::Range(c, d)) => a == c && b == d,
            (RtValue::Array { lo: l1, items: i1 }, RtValue::Array { lo: l2, items: i2 }) => {
                l1 == l2 && i1.len() == i2.len() && i1.iter().zip(i2).all(|(a, b)| a.deep_eq(b))
            }
            (
                RtValue::Record {
                    name: n1,
                    fields: f1,
                },
                RtValue::Record {
                    name: n2,
                    fields: f2,
                },
            ) => n1 == n2 && f1.len() == f2.len() && f1.iter().zip(f2).all(|(a, b)| a.deep_eq(b)),
            (RtValue::Object(a), RtValue::Object(b)) => Rc::ptr_eq(a, b),
            (RtValue::Nil, RtValue::Nil) => true,
            _ => false,
        }
    }

    /// Convert a pure-data value into a [`linearize::Value`] for the
    /// FREERIDE bridge (ranges, strings, and objects have no dense
    /// layout and return `None`).
    pub fn to_linear(&self) -> Option<linearize::Value> {
        match self {
            RtValue::Real(x) => Some(linearize::Value::Real(*x)),
            RtValue::Int(x) => Some(linearize::Value::Int(*x)),
            RtValue::Bool(b) => Some(linearize::Value::Bool(*b)),
            RtValue::Array { items, .. } => Some(linearize::Value::Array(
                items
                    .iter()
                    .map(|v| v.to_linear())
                    .collect::<Option<Vec<_>>>()?,
            )),
            RtValue::Record { fields, .. } => Some(linearize::Value::Record(
                fields
                    .iter()
                    .map(|v| v.to_linear())
                    .collect::<Option<Vec<_>>>()?,
            )),
            _ => None,
        }
    }

    /// Inverse of [`RtValue::to_linear`], rebuilding bounds at `lo = 1`
    /// and record names from a template value.
    pub fn from_linear(v: &linearize::Value, template: Option<&RtValue>) -> RtValue {
        match v {
            linearize::Value::Real(x) => RtValue::Real(*x),
            linearize::Value::Int(x) => RtValue::Int(*x),
            linearize::Value::Bool(b) => RtValue::Bool(*b),
            linearize::Value::Array(items) => {
                let (lo, inner_t): (i64, Option<&RtValue>) = match template {
                    Some(RtValue::Array { lo, items: ti }) => (*lo, ti.first()),
                    _ => (1, None),
                };
                RtValue::Array {
                    lo,
                    items: items
                        .iter()
                        .map(|x| RtValue::from_linear(x, inner_t))
                        .collect(),
                }
            }
            linearize::Value::Record(fields) => {
                let (name, tf): (String, Option<&Vec<RtValue>>) = match template {
                    Some(RtValue::Record { name, fields: tf }) => (name.clone(), Some(tf)),
                    _ => (String::new(), None),
                };
                RtValue::Record {
                    name,
                    fields: fields
                        .iter()
                        .enumerate()
                        .map(|(i, x)| RtValue::from_linear(x, tf.and_then(|t| t.get(i))))
                        .collect(),
                }
            }
        }
    }
}

/// The interpreter's values linearize in place: arrays and records
/// (record names and array bounds carry no slot), `real`, `int` and
/// `bool` leaves. Ranges, strings, objects and `nil` have no dense
/// layout.
impl Slots for RtValue {
    fn elements(&self) -> Option<&[RtValue]> {
        match self {
            RtValue::Array { items, .. } => Some(items),
            _ => None,
        }
    }

    fn matches(&self, shape: &Shape) -> bool {
        match (self, shape) {
            (RtValue::Real(_), Shape::Prim(PrimType::Real))
            | (RtValue::Int(_), Shape::Prim(PrimType::Int))
            | (RtValue::Bool(_), Shape::Prim(PrimType::Bool)) => true,
            (RtValue::Array { items, .. }, Shape::Array { elem, len }) => {
                items.len() == *len && items.iter().all(|v| v.matches(elem))
            }
            (RtValue::Record { fields, .. }, Shape::Record { fields: shapes }) => {
                fields.len() == shapes.len()
                    && fields.iter().zip(shapes).all(|(v, (_, s))| v.matches(s))
            }
            _ => false,
        }
    }

    fn visit_slots(&self, f: &mut impl FnMut(f64)) -> bool {
        match self {
            RtValue::Real(x) => f(*x),
            RtValue::Int(x) => f(*x as f64),
            RtValue::Bool(b) => f(if *b { 1.0 } else { 0.0 }),
            RtValue::Array { items: vals, .. } | RtValue::Record { fields: vals, .. } => {
                return vals.iter().all(|v| v.visit_slots(f));
            }
            _ => return false,
        }
        true
    }
}

impl fmt::Display for RtValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtValue::Real(x) => write!(f, "{x}"),
            RtValue::Int(x) => write!(f, "{x}"),
            RtValue::Bool(b) => write!(f, "{b}"),
            RtValue::Str(s) => write!(f, "{s}"),
            RtValue::Range(a, b) => write!(f, "{a}..{b}"),
            RtValue::Array { items, .. } => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            RtValue::Record { name, fields } => {
                write!(f, "{name}(")?;
                for (i, v) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            RtValue::Object(o) => write!(f, "<{}>", o.borrow().class),
            RtValue::Nil => write!(f, "nil"),
        }
    }
}

#[cfg(test)]
mod value_tests {
    use super::*;

    #[test]
    fn numeric_coercions() {
        assert_eq!(RtValue::Int(3).as_f64().unwrap(), 3.0);
        assert_eq!(RtValue::Bool(true).as_f64().unwrap(), 1.0);
        assert!(RtValue::Str("x".into()).as_f64().is_err());
        assert!(RtValue::Real(2.5).as_i64().is_err());
    }

    #[test]
    fn linear_roundtrip() {
        let v = RtValue::Array {
            lo: 1,
            items: vec![
                RtValue::Record {
                    name: "P".into(),
                    fields: vec![RtValue::Real(1.5), RtValue::Int(2)],
                },
                RtValue::Record {
                    name: "P".into(),
                    fields: vec![RtValue::Real(-1.0), RtValue::Int(7)],
                },
            ],
        };
        let lin = v.to_linear().unwrap();
        let back = RtValue::from_linear(&lin, Some(&v));
        assert!(v.deep_eq(&back));
    }

    #[test]
    fn ranges_do_not_linearize() {
        assert!(RtValue::Range(1, 5).to_linear().is_none());
        assert!(!RtValue::Range(1, 5).visit_slots(&mut |_| {}));
    }

    #[test]
    fn slots_read_in_place_as_through_to_linear() {
        let record = |x: f64, n: RtValue| RtValue::Record {
            name: "P".into(),
            fields: vec![RtValue::Real(x), n],
        };
        let shape = Shape::array(
            Shape::record(vec![("x", Shape::Real), ("n", Shape::Int)]),
            2,
        );
        let lin = linearize::Linearizer::new(&shape);
        let v = RtValue::Array {
            lo: 1,
            items: vec![record(1.5, RtValue::Int(2)), record(-1.0, RtValue::Int(7))],
        };
        assert_eq!(
            lin.linearize(&v).unwrap(),
            lin.linearize(&v.to_linear().unwrap()).unwrap()
        );
        assert_eq!(v.elements().map(<[RtValue]>::len), Some(2));
        // A `bool` where the shape has an `int` does not match.
        let w = RtValue::Array {
            lo: 1,
            items: vec![
                record(1.5, RtValue::Int(2)),
                record(-1.0, RtValue::Bool(true)),
            ],
        };
        assert!(lin.linearize(&w).is_err());
    }

    #[test]
    fn display_forms() {
        let v = RtValue::Array {
            lo: 1,
            items: vec![RtValue::Int(1), RtValue::Int(2)],
        };
        assert_eq!(v.to_string(), "[1, 2]");
        let r = RtValue::Record {
            name: "P".into(),
            fields: vec![RtValue::Real(0.5)],
        };
        assert_eq!(r.to_string(), "P(0.5)");
    }
}
