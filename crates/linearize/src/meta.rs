//! Linearization metadata: the tables of Figure 6 of the paper.
//!
//! During linearization the compiler records, for each nesting level,
//! the element unit size (`unitSize[]`), the field offsets of the record
//! at that level (`unitOffset[][]`), and which field positions the
//! reduction actually traverses (`position[][]`). Together with the loop
//! indices (`myIndex[]`) these drive Algorithm 3 (`computeIndex`).

use crate::shape::Shape;
use crate::LinearizeError;

/// Path-independent metadata produced by linearization: the root shape
/// plus the total slot count. Per-access-path tables ([`PathMeta`]) are
/// derived from it on demand — one per distinct access expression in the
/// reduction body.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearMeta {
    /// The shape the buffer was linearized from.
    pub root: Shape,
    /// Total primitive slots in the buffer.
    pub total_slots: usize,
}

impl LinearMeta {
    /// Construct metadata for a shape.
    pub fn new(root: &Shape) -> LinearMeta {
        LinearMeta {
            root: root.clone(),
            total_slots: root.slot_count(),
        }
    }

    /// Resolve the per-level tables for a particular access path.
    pub fn for_path(&self, path: &AccessPath) -> Result<PathMeta, LinearizeError> {
        PathMeta::resolve(&self.root, path)
    }
}

/// An access path: for each nesting level, the chain of record-field
/// selections applied between indexing into that level's array and
/// reaching the next level (or the terminal element).
///
/// For the paper's Figure 6 structure
/// `data: [1..t] B; record B { b1: [1..n] A; b2: int }; record A { a1:
/// [1..m] real; a2: int }` the reduction `data[i].b1[j].a1[k]` uses the
/// path `[[0], [0]]`: select field `b1` (position 0) after indexing level
/// 0, and field `a1` (position 0) after indexing level 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPath {
    /// `chains[l]` = field positions applied after indexing array level `l`.
    pub chains: Vec<Vec<usize>>,
}

impl AccessPath {
    /// General constructor from per-level field chains.
    pub fn new(chains: Vec<Vec<usize>>) -> AccessPath {
        AccessPath { chains }
    }

    /// Convenience: one single-field selection per level.
    pub fn fields(per_level: &[usize]) -> AccessPath {
        AccessPath {
            chains: per_level.iter().map(|&f| vec![f]).collect(),
        }
    }

    /// The empty path: the value is an array (possibly of arrays) of
    /// primitives with no record selections.
    pub fn direct(levels_minus_one: usize) -> AccessPath {
        AccessPath {
            chains: vec![Vec::new(); levels_minus_one],
        }
    }
}

/// Per-access-path tables: exactly the information Figure 6 collects.
#[derive(Debug, Clone, PartialEq)]
pub struct PathMeta {
    /// Number of array nesting levels traversed by the access.
    pub levels: usize,
    /// `unit_size[l]`: slots per element of the array at level `l`
    /// (`unit_size[levels-1]` is the innermost element size).
    pub unit_size: Vec<usize>,
    /// `unit_offset[l]`: slot offsets of every field of the record
    /// encountered after indexing level `l` (empty when the element is
    /// not a record). First dimension is the level, second the field
    /// position — the paper's `unitOffset[][]`.
    pub unit_offset: Vec<Vec<usize>>,
    /// `position[l]`: the field positions the access actually selects at
    /// level `l` — the paper's `position[][]`.
    pub position: Vec<Vec<usize>>,
    /// Pre-composed offset contributed by the field chain at each level
    /// (`level_offset[l] = Σ unit_offset[l][position[l][..]]`, composed
    /// through nested records). Length `levels - 1`.
    pub level_offset: Vec<usize>,
    /// Offset of a trailing field selection after the innermost index
    /// (e.g. the access `data[i].b2` selects a scalar field after the
    /// last array index). Zero for paper-style paths that end on the
    /// innermost array element.
    pub terminal_offset: usize,
}

impl PathMeta {
    /// Walk `shape` along `path`, collecting the per-level tables.
    ///
    /// Errors if the shape does not have an array at an expected level,
    /// a field selection is applied to a non-record, or a field position
    /// is out of range.
    pub fn resolve(shape: &Shape, path: &AccessPath) -> Result<PathMeta, LinearizeError> {
        let mut unit_size = Vec::new();
        let mut unit_offset = Vec::new();
        let mut position = Vec::new();
        let mut level_offset = Vec::new();
        let terminal_offset: usize;

        let mut cur = shape;
        let mut level = 0usize;
        loop {
            let (elem, _len) = cur
                .array_parts()
                .ok_or_else(|| LinearizeError::PathMismatch {
                    level,
                    found: cur.describe(),
                    expected: "array".into(),
                })?;
            unit_size.push(elem.slot_count());

            let chain = path.chains.get(level).cloned().unwrap_or_default();
            // Record *all* field offsets at this level (paper collects the
            // full unitOffset table) if the element is a record.
            let offsets_here = match elem {
                Shape::Record { fields } => (0..fields.len())
                    .map(|i| elem.field_offset(i).unwrap())
                    .collect(),
                _ => Vec::new(),
            };
            unit_offset.push(offsets_here);
            position.push(chain.clone());

            // Compose the chain of field selections.
            let mut sel = elem;
            let mut off = 0usize;
            for &fidx in &chain {
                let field_off =
                    sel.field_offset(fidx)
                        .ok_or_else(|| LinearizeError::PathMismatch {
                            level,
                            found: sel.describe(),
                            expected: format!("record with ≥{} fields", fidx + 1),
                        })?;
                off += field_off;
                sel = sel.field_shape(fidx).expect("offset implies field exists");
            }

            level += 1;
            if sel.array_parts().is_some() && level <= path.chains.len() {
                // Another array level follows.
                level_offset.push(off);
                cur = sel;
            } else {
                // Terminal: the innermost indexed element, possibly
                // followed by a trailing scalar-field selection (e.g.
                // `data[i].b2`); the trailing offset is applied after the
                // final index contribution.
                terminal_offset = off;
                break;
            }
        }

        Ok(PathMeta {
            levels: level,
            unit_size,
            unit_offset,
            position,
            level_offset,
            terminal_offset,
        })
    }

    /// The stride, in slots, between consecutive innermost elements.
    /// `cfr_core`'s opt-1 code generation steps by it.
    pub fn innermost_stride(&self) -> usize {
        self.unit_size[self.levels - 1]
    }
}

#[cfg(test)]
mod meta_tests {
    use super::*;
    use crate::shape::Shape;

    fn fig6_shape(t: usize, n: usize, m: usize) -> Shape {
        let a = Shape::record(vec![
            ("a1", Shape::array(Shape::Real, m)),
            ("a2", Shape::Int),
        ]);
        let b = Shape::record(vec![("b1", Shape::array(a, n)), ("b2", Shape::Int)]);
        Shape::array(b, t)
    }

    #[test]
    fn fig6_tables() {
        let shape = fig6_shape(2, 4, 3);
        let meta = LinearMeta::new(&shape);
        assert_eq!(meta.total_slots, 34);
        let pm = meta.for_path(&AccessPath::fields(&[0, 0])).unwrap();
        assert_eq!(pm.levels, 3);
        // unitSize = { sizeof(B), sizeof(A), sizeof(real) } in slots.
        assert_eq!(pm.unit_size, vec![17, 4, 1]);
        // unitOffset: B = {b1@0, b2@16}, A = {a1@0, a2@3}, innermost none.
        assert_eq!(pm.unit_offset[0], vec![0, 16]);
        assert_eq!(pm.unit_offset[1], vec![0, 3]);
        assert!(pm.unit_offset[2].is_empty());
        // position[0][0] = 0, position[1][0] = 0 (the paper's example).
        assert_eq!(pm.position[0], vec![0]);
        assert_eq!(pm.position[1], vec![0]);
        assert_eq!(pm.level_offset, vec![0, 0]);
        assert_eq!(pm.innermost_stride(), 1);
    }

    #[test]
    fn nonzero_field_offsets() {
        // record { skip: [5] real; xs: [3] real } — selecting `xs` puts a
        // nonzero offset at the level boundary.
        let rec = Shape::record(vec![
            ("skip", Shape::array(Shape::Real, 5)),
            ("xs", Shape::array(Shape::Real, 3)),
        ]);
        let shape = Shape::array(rec, 4);
        let pm = LinearMeta::new(&shape)
            .for_path(&AccessPath::fields(&[1]))
            .unwrap();
        assert_eq!(pm.levels, 2);
        assert_eq!(pm.unit_size, vec![8, 1]);
        assert_eq!(pm.level_offset, vec![5]);
    }

    #[test]
    fn direct_path_on_plain_matrix() {
        let shape = Shape::array(Shape::array(Shape::Real, 7), 3);
        let pm = LinearMeta::new(&shape)
            .for_path(&AccessPath::direct(1))
            .unwrap();
        assert_eq!(pm.levels, 2);
        assert_eq!(pm.unit_size, vec![7, 1]);
        assert_eq!(pm.level_offset, vec![0]);
    }

    #[test]
    fn chained_record_selection() {
        // record Outer { inner: record Inner { pad: int, xs: [2] real } }
        let inner = Shape::record(vec![
            ("pad", Shape::Int),
            ("xs", Shape::array(Shape::Real, 2)),
        ]);
        let outer = Shape::record(vec![("inner", inner)]);
        let shape = Shape::array(outer, 3);
        let pm = LinearMeta::new(&shape)
            .for_path(&AccessPath::new(vec![vec![0, 1]]))
            .unwrap();
        assert_eq!(pm.levels, 2);
        assert_eq!(pm.unit_size, vec![3, 1]);
        assert_eq!(pm.level_offset, vec![1]); // skip the pad int
    }

    #[test]
    fn trailing_scalar_field() {
        // data[i].b2 — one array level, then a scalar field at offset 16.
        let shape = fig6_shape(2, 4, 3);
        let pm = LinearMeta::new(&shape)
            .for_path(&AccessPath::fields(&[1]))
            .unwrap();
        assert_eq!(pm.levels, 1);
        assert_eq!(pm.unit_size, vec![17]);
        assert_eq!(pm.terminal_offset, 16);
    }

    #[test]
    fn path_errors() {
        let shape = Shape::array(Shape::Real, 4);
        // Selecting a field of a primitive is an error.
        let err = LinearMeta::new(&shape).for_path(&AccessPath::fields(&[0]));
        assert!(err.is_err());
        // Asking for an array where there is none.
        let err = PathMeta::resolve(&Shape::Real, &AccessPath::direct(0));
        assert!(err.is_err());
    }
}
