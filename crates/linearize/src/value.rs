//! The reflective value model: runtime counterparts of [`Shape`].
//!
//! `Value` deliberately mirrors how a high-level language runtime stores
//! nested data — a tree of heap cells with per-access tag dispatch. The
//! paper's third source of overhead ("accesses to complex Chapel
//! structures") is real here for exactly the same reason it was real in
//! Chapel's generated C code: every access walks pointers and branches.

use crate::shape::{PrimType, Shape};
use crate::LinearizeError;

/// A dynamically-typed nested value matching some [`Shape`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Chapel `real`.
    Real(f64),
    /// Chapel `int`.
    Int(i64),
    /// Chapel `bool`.
    Bool(bool),
    /// An array of homogeneous elements.
    Array(Vec<Value>),
    /// A record; elements are the fields in declaration order.
    Record(Vec<Value>),
}

impl Value {
    /// Build a zero-initialised value of the given shape.
    pub fn zero(shape: &Shape) -> Value {
        match shape {
            Shape::Prim(PrimType::Real) => Value::Real(0.0),
            Shape::Prim(PrimType::Int) => Value::Int(0),
            Shape::Prim(PrimType::Bool) => Value::Bool(false),
            Shape::Array { elem, len } => {
                Value::Array((0..*len).map(|_| Value::zero(elem)).collect())
            }
            Shape::Record { fields } => {
                Value::Record(fields.iter().map(|(_, s)| Value::zero(s)).collect())
            }
        }
    }

    /// Build a value of the given shape whose primitive slots, visited in
    /// linearization order, take the values `f(0), f(1), ...`.
    ///
    /// Useful for constructing deterministic test fixtures: slot `i` of
    /// the linearized buffer must equal `f(i)`.
    pub fn from_fn(shape: &Shape, mut f: impl FnMut(usize) -> f64) -> Value {
        fn build(shape: &Shape, next: &mut usize, f: &mut impl FnMut(usize) -> f64) -> Value {
            match shape {
                Shape::Prim(p) => {
                    let x = f(*next);
                    *next += 1;
                    match p {
                        PrimType::Real => Value::Real(x),
                        PrimType::Int => Value::Int(x as i64),
                        PrimType::Bool => Value::Bool(x != 0.0),
                    }
                }
                Shape::Array { elem, len } => {
                    Value::Array((0..*len).map(|_| build(elem, next, f)).collect())
                }
                Shape::Record { fields } => {
                    Value::Record(fields.iter().map(|(_, s)| build(s, next, f)).collect())
                }
            }
        }
        let mut next = 0;
        build(shape, &mut next, &mut f)
    }

    /// Does this value structurally match `shape`?
    pub fn matches(&self, shape: &Shape) -> bool {
        match (self, shape) {
            (Value::Real(_), Shape::Prim(PrimType::Real)) => true,
            (Value::Int(_), Shape::Prim(PrimType::Int)) => true,
            (Value::Bool(_), Shape::Prim(PrimType::Bool)) => true,
            (Value::Array(items), Shape::Array { elem, len }) => {
                items.len() == *len && items.iter().all(|v| v.matches(elem))
            }
            (Value::Record(vals), Shape::Record { fields }) => {
                vals.len() == fields.len()
                    && vals.iter().zip(fields).all(|(v, (_, s))| v.matches(s))
            }
            _ => false,
        }
    }

    /// Numeric payload of a primitive value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Real(x) => Some(*x),
            Value::Int(x) => Some(*x as f64),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Total number of primitive slots in this value.
    pub fn slot_count(&self) -> usize {
        match self {
            Value::Real(_) | Value::Int(_) | Value::Bool(_) => 1,
            Value::Array(items) => items.iter().map(Value::slot_count).sum(),
            Value::Record(vals) => vals.iter().map(Value::slot_count).sum(),
        }
    }

    /// The `i`-th primitive slot in linearization (depth-first) order.
    pub fn slot(&self, i: usize) -> Option<f64> {
        fn walk(v: &Value, remaining: &mut usize) -> Option<f64> {
            match v {
                Value::Real(_) | Value::Int(_) | Value::Bool(_) => {
                    if *remaining == 0 {
                        v.as_f64()
                    } else {
                        *remaining -= 1;
                        None
                    }
                }
                Value::Array(items) => items.iter().find_map(|c| walk(c, remaining)),
                Value::Record(vals) => vals.iter().find_map(|c| walk(c, remaining)),
            }
        }
        let mut remaining = i;
        walk(self, &mut remaining)
    }

    /// Index into an array value (0-based).
    pub fn index(&self, i: usize) -> Result<&Value, LinearizeError> {
        match self {
            Value::Array(items) => items.get(i).ok_or(LinearizeError::IndexOutOfBounds {
                index: i,
                len: items.len(),
            }),
            _ => Err(LinearizeError::NotAnArray),
        }
    }

    /// Mutable index into an array value (0-based).
    pub fn index_mut(&mut self, i: usize) -> Result<&mut Value, LinearizeError> {
        match self {
            Value::Array(items) => {
                let len = items.len();
                items
                    .get_mut(i)
                    .ok_or(LinearizeError::IndexOutOfBounds { index: i, len })
            }
            _ => Err(LinearizeError::NotAnArray),
        }
    }

    /// Select a record field by position.
    pub fn field(&self, i: usize) -> Result<&Value, LinearizeError> {
        match self {
            Value::Record(vals) => vals.get(i).ok_or(LinearizeError::IndexOutOfBounds {
                index: i,
                len: vals.len(),
            }),
            _ => Err(LinearizeError::NotARecord),
        }
    }

    /// Mutably select a record field by position.
    pub fn field_mut(&mut self, i: usize) -> Result<&mut Value, LinearizeError> {
        match self {
            Value::Record(vals) => {
                let len = vals.len();
                vals.get_mut(i)
                    .ok_or(LinearizeError::IndexOutOfBounds { index: i, len })
            }
            _ => Err(LinearizeError::NotARecord),
        }
    }

    /// Overwrite a primitive value from a numeric payload, preserving the
    /// primitive kind. Errors on aggregates.
    pub fn set_from_f64(&mut self, x: f64) -> Result<(), LinearizeError> {
        match self {
            Value::Real(v) => *v = x,
            Value::Int(v) => *v = x as i64,
            Value::Bool(v) => *v = x != 0.0,
            _ => return Err(LinearizeError::NotAPrimitive),
        }
        Ok(())
    }

    /// Visit every primitive slot depth-first, in linearization order.
    pub fn for_each_slot(&self, f: &mut impl FnMut(f64)) {
        match self {
            Value::Real(_) | Value::Int(_) | Value::Bool(_) => {
                f(self.as_f64().expect("primitive"));
            }
            Value::Array(items) => items.iter().for_each(|v| v.for_each_slot(f)),
            Value::Record(vals) => vals.iter().for_each(|v| v.for_each_slot(f)),
        }
    }
}

/// A nested value the linearizer can read slot by slot: an array, a
/// record, or a primitive. [`Value`] is one; a host language's own
/// runtime values can be another, so that their slots are copied into
/// the dense buffer directly instead of through a [`Value`] tree first.
pub trait Slots: Sized {
    /// The elements, if this value is an array.
    fn elements(&self) -> Option<&[Self]>;

    /// Does this value structurally match `shape`?
    fn matches(&self, shape: &Shape) -> bool;

    /// Visit every primitive slot depth-first, in linearization order.
    /// Stops and returns `false` at a leaf that has no slot.
    fn visit_slots(&self, f: &mut impl FnMut(f64)) -> bool;
}

impl Slots for Value {
    fn elements(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    fn matches(&self, shape: &Shape) -> bool {
        Value::matches(self, shape)
    }

    fn visit_slots(&self, f: &mut impl FnMut(f64)) -> bool {
        self.for_each_slot(f);
        true
    }
}

#[cfg(test)]
mod value_tests {
    use super::*;

    #[test]
    fn zero_matches_shape() {
        let s = Shape::record(vec![
            ("xs", Shape::array(Shape::Real, 4)),
            ("n", Shape::Int),
        ]);
        let v = Value::zero(&s);
        assert!(v.matches(&s));
        assert_eq!(v.slot_count(), 5);
    }

    #[test]
    fn from_fn_fills_in_linearization_order() {
        let s = Shape::record(vec![
            ("xs", Shape::array(Shape::Real, 3)),
            ("n", Shape::Int),
        ]);
        let v = Value::from_fn(&s, |i| i as f64 * 10.0);
        assert_eq!(v.slot(0), Some(0.0));
        assert_eq!(v.slot(2), Some(20.0));
        assert_eq!(v.slot(3), Some(30.0)); // the int field, truncated
        assert_eq!(v.slot(4), None);
    }

    #[test]
    fn indexing_and_fields() {
        let s = Shape::array(Shape::record(vec![("x", Shape::Real)]), 2);
        let mut v = Value::from_fn(&s, |i| i as f64);
        assert_eq!(v.index(1).unwrap().field(0).unwrap().as_f64(), Some(1.0));
        assert!(v.index(2).is_err());
        assert!(v.field(0).is_err()); // top level is an array
        v.index_mut(0)
            .unwrap()
            .field_mut(0)
            .unwrap()
            .set_from_f64(99.0)
            .unwrap();
        assert_eq!(v.slot(0), Some(99.0));
    }

    #[test]
    fn bool_payload_roundtrip() {
        let mut v = Value::Bool(false);
        v.set_from_f64(1.0).unwrap();
        assert_eq!(v, Value::Bool(true));
        assert_eq!(v.as_f64(), Some(1.0));
    }

    #[test]
    fn mismatch_detected() {
        let s = Shape::array(Shape::Real, 3);
        let v = Value::Array(vec![Value::Real(0.0); 2]);
        assert!(!v.matches(&s));
    }
}
