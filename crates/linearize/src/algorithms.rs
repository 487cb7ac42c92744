//! Algorithms 1–3 of the paper.
//!
//! * Algorithm 1 (`computeLinearizeSize`) — [`compute_linearize_size`]
//! * Algorithm 2 (`linearizeIt`) — [`linearize_it`] and the stateful
//!   [`Linearizer`] that also collects the Figure-6 metadata
//! * Algorithm 3 (`computeIndex`) — [`compute_index_recursive`]
//!   (paper-faithful recursive form) and [`compute_index`] (ergonomic
//!   form over a resolved [`PathMeta`])

use crate::meta::{LinearMeta, PathMeta};
use crate::shape::Shape;
use crate::value::{Slots, Value};
use crate::LinearizeError;

/// Algorithm 1: recursively compute the linearized size of a value, in
/// primitive slots.
///
/// The paper's version returns bytes (`sizeof`); we return slots because
/// the linearized buffer is a dense `f64` cell array (see [`crate::PrimType`]).
/// Primitives contribute 1; arrays and iterative expressions contribute
/// the sum over their elements; records the sum over their members.
pub fn compute_linearize_size(value: &Value) -> usize {
    match value {
        // if Xs.type = isPrimitive then size = sizeof(Xs)
        Value::Real(_) | Value::Int(_) | Value::Bool(_) => 1,
        // else if Xs.type = isIterative/isArray: for x in Xs { size += ... }
        Value::Array(items) => items.iter().map(compute_linearize_size).sum(),
        // else if Xs.type = isStructureType: for each member m { size += ... }
        Value::Record(fields) => fields.iter().map(compute_linearize_size).sum(),
    }
}

/// Algorithm 2: copy a nested value into a freshly allocated contiguous
/// buffer, depth-first. Returns the buffer.
///
/// This is the paper-faithful free function; use [`Linearizer`] when you
/// also need the Figure-6 metadata and shape validation.
pub fn linearize_it(value: &Value) -> Vec<f64> {
    // "allocate memory with the size of size"
    let mut buf = Vec::with_capacity(compute_linearize_size(value));
    fn walk(v: &Value, buf: &mut Vec<f64>) {
        match v {
            // primitive: copy(Xs)
            Value::Real(_) | Value::Int(_) | Value::Bool(_) => {
                buf.push(v.as_f64().expect("primitive"));
            }
            // iterative / array: for x in Xs { linearizeIt(x) }
            Value::Array(items) => items.iter().for_each(|x| walk(x, buf)),
            // structure: for each member m { linearizeIt(m) }
            Value::Record(fields) => fields.iter().for_each(|m| walk(m, buf)),
        }
    }
    walk(value, &mut buf);
    buf
}

/// The output of linearization: the dense buffer plus the metadata needed
/// to run Algorithm 3 against it.
#[derive(Debug, Clone, PartialEq)]
pub struct Linearized {
    /// The contiguous slot buffer.
    pub buffer: Vec<f64>,
    /// Shape-derived metadata (resolve access paths via
    /// [`LinearMeta::for_path`]).
    pub meta: LinearMeta,
}

impl Linearized {
    /// Borrow the buffer as a slice (FREERIDE's 2-D data view is built on
    /// top of this).
    pub fn as_slice(&self) -> &[f64] {
        &self.buffer
    }
}

/// Stateful linearizer: validates the value against a shape and produces
/// a [`Linearized`] bundle.
#[derive(Debug, Clone)]
pub struct Linearizer {
    shape: Shape,
}

impl Linearizer {
    /// Create a linearizer for values of `shape`.
    pub fn new(shape: &Shape) -> Linearizer {
        Linearizer {
            shape: shape.clone(),
        }
    }

    /// Linearize `value`, checking it structurally matches the shape.
    pub fn linearize<V: Slots>(&self, value: &V) -> Result<Linearized, LinearizeError> {
        if !value.matches(&self.shape) {
            return Err(LinearizeError::ShapeMismatch {
                shape: self.shape.describe(),
            });
        }
        let mut buffer = Vec::with_capacity(self.shape.slot_count());
        // A value that matches a shape has a slot at every leaf.
        value.visit_slots(&mut |x| buffer.push(x));
        Ok(Linearized {
            buffer,
            meta: LinearMeta::new(&self.shape),
        })
    }

    /// Linearize a sequence of values of this shape into one buffer —
    /// the "dataset" case where the top level is a stream of records
    /// rather than a materialized array.
    pub fn linearize_stream<'a>(
        &self,
        values: impl IntoIterator<Item = &'a Value>,
    ) -> Result<Linearized, LinearizeError> {
        let mut buffer = Vec::new();
        let mut count = 0usize;
        for v in values {
            if !v.matches(&self.shape) {
                return Err(LinearizeError::ShapeMismatch {
                    shape: self.shape.describe(),
                });
            }
            v.for_each_slot(&mut |x| buffer.push(x));
            count += 1;
        }
        let stream_shape = Shape::array(self.shape.clone(), count);
        Ok(Linearized {
            buffer,
            meta: LinearMeta::new(&stream_shape),
        })
    }

    /// The shape this linearizer accepts.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }
}

/// Algorithm 3, paper-faithful recursive form.
///
/// `computeIndex(unitSize[], unitOffset[][], myIndex[], position[][], i,
/// levels)`: at every level but the last, the contribution is
/// `unitSize[i] * myIndex[i] + unitOffset[i][position[i][..]]` (the field
/// chain's offsets composed); at the last level it is
/// `unitSize[i] * myIndex[i]`.
///
/// `unit_offset[i]` here is the per-level *composed* offset table indexed
/// by field position, matching the paper's `unitOffset[i][position[i][]]`
/// lookup; `position[i]` lists the field positions selected at level `i`.
pub fn compute_index_recursive(
    unit_size: &[usize],
    unit_offset: &[Vec<usize>],
    my_index: &[usize],
    position: &[Vec<usize>],
    i: usize,
    levels: usize,
) -> usize {
    if i < levels - 1 {
        let field_off: usize = position[i]
            .iter()
            .map(|&p| unit_offset[i].get(p).copied().unwrap_or(0))
            .sum();
        unit_size[i] * my_index[i]
            + field_off
            + compute_index_recursive(unit_size, unit_offset, my_index, position, i + 1, levels)
    } else {
        unit_size[i] * my_index[i]
    }
}

/// Algorithm 3 over a resolved [`PathMeta`]: map the multi-level index
/// vector `my_index` (0-based, one entry per level) to a flat slot
/// offset.
///
/// This is what the *generated* (unoptimized) translation calls once per
/// innermost-loop iteration; opt-1 replaces it with a
/// [`crate::StridedCursor`].
#[inline]
pub fn compute_index(meta: &PathMeta, my_index: &[usize]) -> usize {
    debug_assert_eq!(my_index.len(), meta.levels, "one index per level");
    let mut idx = 0usize;
    for (i, &ix) in my_index.iter().enumerate().take(meta.levels - 1) {
        idx += meta.unit_size[i] * ix + meta.level_offset[i];
    }
    idx + meta.unit_size[meta.levels - 1] * my_index[meta.levels - 1] + meta.terminal_offset
}

#[cfg(test)]
mod alg_tests {
    use super::*;
    use crate::meta::AccessPath;

    fn fig6_shape(t: usize, n: usize, m: usize) -> Shape {
        let a = Shape::record(vec![
            ("a1", Shape::array(Shape::Real, m)),
            ("a2", Shape::Int),
        ]);
        let b = Shape::record(vec![("b1", Shape::array(a, n)), ("b2", Shape::Int)]);
        Shape::array(b, t)
    }

    #[test]
    fn alg1_matches_shape_slot_count() {
        let shape = fig6_shape(3, 2, 5);
        let v = Value::zero(&shape);
        assert_eq!(compute_linearize_size(&v), shape.slot_count());
    }

    #[test]
    fn alg2_depth_first_order() {
        let shape = fig6_shape(2, 2, 2);
        let v = Value::from_fn(&shape, |i| i as f64);
        let buf = linearize_it(&v);
        assert_eq!(buf.len(), shape.slot_count());
        for (i, x) in buf.iter().enumerate() {
            assert_eq!(*x, i as f64);
        }
    }

    #[test]
    fn linearizer_validates_shape() {
        let shape = Shape::array(Shape::Real, 3);
        let lin = Linearizer::new(&shape);
        assert!(lin
            .linearize(&Value::Array(vec![Value::Real(0.0); 2]))
            .is_err());
        let ok = lin
            .linearize(&Value::Array(vec![Value::Real(7.0); 3]))
            .unwrap();
        assert_eq!(ok.buffer, vec![7.0; 3]);
    }

    #[test]
    fn linearize_stream_concatenates() {
        let rec = Shape::record(vec![("x", Shape::Real), ("y", Shape::Real)]);
        let lin = Linearizer::new(&rec);
        let vals: Vec<Value> = (0..3)
            .map(|i| Value::Record(vec![Value::Real(i as f64), Value::Real(-(i as f64))]))
            .collect();
        let out = lin.linearize_stream(vals.iter()).unwrap();
        assert_eq!(out.buffer, vec![0.0, -0.0, 1.0, -1.0, 2.0, -2.0]);
        assert_eq!(out.meta.total_slots, 6);
    }

    /// The Figure-8 equivalence: the nested reduction and the linearized
    /// reduction (via computeIndex) produce the same sum.
    #[test]
    fn fig8_nested_vs_linearized_sum() {
        let (t, n, m) = (4, 3, 5);
        let shape = fig6_shape(t, n, m);
        let data = Value::from_fn(&shape, |i| (i as f64).sin());

        // Before linearization: sum += data[i].b1[j].a1[k]
        let mut nested_sum = 0.0;
        for i in 0..t {
            for j in 0..n {
                for k in 0..m {
                    nested_sum += data
                        .index(i)
                        .unwrap()
                        .field(0)
                        .unwrap()
                        .index(j)
                        .unwrap()
                        .field(0)
                        .unwrap()
                        .index(k)
                        .unwrap()
                        .as_f64()
                        .unwrap();
                }
            }
        }

        // After linearization: sum += linear_data[computeIndex(...)]
        let lin = Linearizer::new(&shape).linearize(&data).unwrap();
        let pm = lin.meta.for_path(&AccessPath::fields(&[0, 0])).unwrap();
        let mut flat_sum = 0.0;
        for i in 0..t {
            for j in 0..n {
                for k in 0..m {
                    let idx = compute_index(&pm, &[i, j, k]);
                    flat_sum += lin.buffer[idx];
                }
            }
        }
        assert!((nested_sum - flat_sum).abs() < 1e-12);
    }

    #[test]
    fn recursive_form_agrees_with_iterative() {
        let shape = fig6_shape(3, 4, 2);
        let pm = LinearMeta::new(&shape)
            .for_path(&AccessPath::fields(&[0, 0]))
            .unwrap();
        for i in 0..3 {
            for j in 0..4 {
                for k in 0..2 {
                    let a = compute_index(&pm, &[i, j, k]);
                    let b = compute_index_recursive(
                        &pm.unit_size,
                        &pm.unit_offset,
                        &[i, j, k],
                        &pm.position,
                        0,
                        pm.levels,
                    );
                    assert_eq!(a, b, "at ({i},{j},{k})");
                }
            }
        }
    }

    #[test]
    fn terminal_offset_access() {
        // data[i].b2 reads the scalar int after each 16-slot b1 block.
        let shape = fig6_shape(3, 4, 3);
        let data = Value::from_fn(&shape, |i| i as f64);
        let lin = Linearizer::new(&shape).linearize(&data).unwrap();
        let pm = lin.meta.for_path(&AccessPath::fields(&[1])).unwrap();
        for i in 0..3 {
            let idx = compute_index(&pm, &[i]);
            let direct = data.index(i).unwrap().field(1).unwrap().as_f64().unwrap();
            assert_eq!(lin.buffer[idx], direct, "b2 of element {i}");
        }
    }
}
