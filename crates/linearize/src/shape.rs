//! The reflective type model linearization operates on.
//!
//! A [`Shape`] is the structural skeleton of a Chapel value once the
//! frontend has resolved all types: primitives, fixed-length rectangular
//! arrays, and records. It is what the compiler knows statically, and it
//! is all that Algorithms 1–3 of the paper need.

/// Primitive element categories recognised by the linearizer.
///
/// Every primitive occupies exactly one **slot** (an `f64`) in the
/// linearized buffer. Chapel `int` and `bool` values are stored in the
/// slot's numeric payload; this mirrors the paper's choice of a single
/// dense buffer of fixed-width cells that FREERIDE's 2-D view can split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimType {
    /// Chapel `real` (64-bit float).
    Real,
    /// Chapel `int` (stored as an exact integer in the f64 payload).
    Int,
    /// Chapel `bool` (stored as 0.0 / 1.0).
    Bool,
}

/// Structural description of a (possibly nested) value.
#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    /// A single primitive slot.
    Prim(PrimType),
    /// A fixed-length array of homogeneous elements (`[1..len] elem`).
    Array { elem: Box<Shape>, len: usize },
    /// A record with named, ordered fields (`record { f1: ..; f2: ..; }`).
    Record { fields: Vec<(String, Shape)> },
}

impl Shape {
    /// Shorthand for `Shape::Prim(PrimType::Real)`.
    ///
    /// Deliberately Chapel-cased (`Shape::Real`, not `Shape::REAL`) so
    /// shape-building code reads like the Chapel declarations it models.
    #[allow(non_upper_case_globals)]
    pub const Real: Shape = Shape::Prim(PrimType::Real);
    /// Shorthand for `Shape::Prim(PrimType::Int)`.
    #[allow(non_upper_case_globals)]
    pub const Int: Shape = Shape::Prim(PrimType::Int);
    /// Shorthand for `Shape::Prim(PrimType::Bool)`.
    #[allow(non_upper_case_globals)]
    pub const Bool: Shape = Shape::Prim(PrimType::Bool);

    /// Build an array shape.
    pub fn array(elem: Shape, len: usize) -> Shape {
        Shape::Array {
            elem: Box::new(elem),
            len,
        }
    }

    /// Build a record shape from `(name, shape)` pairs.
    pub fn record(fields: Vec<(&str, Shape)>) -> Shape {
        Shape::Record {
            fields: fields
                .into_iter()
                .map(|(n, s)| (n.to_string(), s))
                .collect(),
        }
    }

    /// Is this shape a primitive?
    pub fn is_prim(&self) -> bool {
        matches!(self, Shape::Prim(_))
    }

    /// Total number of primitive slots occupied by one value of this
    /// shape (the "size" of Algorithm 1, in slots rather than bytes).
    pub fn slot_count(&self) -> usize {
        match self {
            Shape::Prim(_) => 1,
            Shape::Array { elem, len } => elem.slot_count() * len,
            Shape::Record { fields } => fields.iter().map(|(_, s)| s.slot_count()).sum(),
        }
    }

    /// Offset, in slots, of field `idx` within one record of this shape.
    ///
    /// This is one entry of the paper's `unitOffset[][]` table.
    /// Returns `None` if the shape is not a record or the index is out of
    /// range.
    pub fn field_offset(&self, idx: usize) -> Option<usize> {
        match self {
            Shape::Record { fields } => {
                if idx >= fields.len() {
                    return None;
                }
                Some(fields[..idx].iter().map(|(_, s)| s.slot_count()).sum())
            }
            _ => None,
        }
    }

    /// The shape of field `idx` of a record.
    pub fn field_shape(&self, idx: usize) -> Option<&Shape> {
        match self {
            Shape::Record { fields } => fields.get(idx).map(|(_, s)| s),
            _ => None,
        }
    }

    /// Element shape and length of an array shape.
    pub fn array_parts(&self) -> Option<(&Shape, usize)> {
        match self {
            Shape::Array { elem, len } => Some((elem, *len)),
            _ => None,
        }
    }

    /// Depth of array nesting along the "canonical" spine of the shape:
    /// each array contributes one level, records are traversed through
    /// their first array-bearing field. This matches `levels` in Fig. 6
    /// for the common case where the reduction walks one field per level.
    pub fn nesting_levels(&self) -> usize {
        match self {
            Shape::Prim(_) => 0,
            Shape::Array { elem, .. } => 1 + elem.nesting_levels(),
            Shape::Record { fields } => fields
                .iter()
                .map(|(_, s)| s.nesting_levels())
                .max()
                .unwrap_or(0),
        }
    }

    /// A human-readable rendering used in diagnostics, e.g.
    /// `[2] record { a1: [3] real, a2: int }`.
    pub fn describe(&self) -> String {
        match self {
            Shape::Prim(PrimType::Real) => "real".into(),
            Shape::Prim(PrimType::Int) => "int".into(),
            Shape::Prim(PrimType::Bool) => "bool".into(),
            Shape::Array { elem, len } => format!("[{}] {}", len, elem.describe()),
            Shape::Record { fields } => {
                let inner: Vec<String> = fields
                    .iter()
                    .map(|(n, s)| format!("{}: {}", n, s.describe()))
                    .collect();
                format!("record {{ {} }}", inner.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod shape_tests {
    use super::*;

    fn fig6_shape() -> Shape {
        // record A { a1: [1..m] real; a2: int; }  (m = 3)
        // record B { b1: [1..n] A;    b2: int; }  (n = 4)
        // data: [1..t] B;                         (t = 2)
        let a = Shape::record(vec![
            ("a1", Shape::array(Shape::Real, 3)),
            ("a2", Shape::Int),
        ]);
        let b = Shape::record(vec![("b1", Shape::array(a, 4)), ("b2", Shape::Int)]);
        Shape::array(b, 2)
    }

    #[test]
    fn slot_count_nested() {
        let s = fig6_shape();
        // one A = 3 + 1 = 4; one B = 4*4 + 1 = 17; data = 2*17 = 34
        assert_eq!(s.slot_count(), 34);
    }

    #[test]
    fn field_offsets() {
        let a = Shape::record(vec![
            ("a1", Shape::array(Shape::Real, 3)),
            ("a2", Shape::Int),
        ]);
        assert_eq!(a.field_offset(0), Some(0));
        assert_eq!(a.field_offset(1), Some(3));
        assert_eq!(a.field_offset(2), None);
        assert!(Shape::Real.field_offset(0).is_none());
    }

    #[test]
    fn nesting_levels_counts_arrays() {
        assert_eq!(Shape::Real.nesting_levels(), 0);
        assert_eq!(Shape::array(Shape::Real, 5).nesting_levels(), 1);
        assert_eq!(fig6_shape().nesting_levels(), 3);
    }

    #[test]
    fn describe_is_readable() {
        let s = fig6_shape();
        let d = s.describe();
        assert!(d.starts_with("[2] record"));
        assert!(d.contains("a1: [3] real"));
    }
}
