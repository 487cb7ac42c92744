//! The **reduction object** — FREERIDE's central abstraction.
//!
//! Unlike Hadoop/Map-Reduce, FREERIDE lets the programmer *explicitly
//! declare* a reduction object and update its elements directly while
//! processing each data instance (map and reduce are fused). The object
//! is organised as named **groups** of cells; `reduction_object_alloc`
//! assigns every element a unique `(group, index)` ID, and
//! [`ReductionObject::accumulate`] applies the group's associative,
//! commutative combine operation.
//!
//! The module also defines the **versioned binary codec** for layouts
//! and cell snapshots ([`RObjLayout::encode`],
//! [`ReductionObject::encode_cells`], …) shared by the distributed
//! engine's wire protocol (`crates/dist`) and future checkpointing.
//! Decoding untrusted bytes never panics: malformed, truncated, or
//! version-mismatched frames return [`FreerideError::Codec`].

use std::sync::Arc;

use crate::FreerideError;

/// An associative + commutative combine operation for one group of cells.
///
/// The result of a local reduction "must be independent of the order in
/// which data instances are processed", so every op here is commutative
/// and associative over `f64` (up to floating-point rounding).
#[derive(Clone)]
pub enum CombineOp {
    /// `a + b` — sums, counts, dot products.
    Sum,
    /// `min(a, b)`.
    Min,
    /// `max(a, b)`.
    Max,
    /// `a * b` — products (e.g. log-likelihood accumulation).
    Product,
    /// A user-supplied associative, commutative function.
    Custom(Arc<dyn Fn(f64, f64) -> f64 + Send + Sync>),
}

impl std::fmt::Debug for CombineOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CombineOp::Sum => write!(f, "Sum"),
            CombineOp::Min => write!(f, "Min"),
            CombineOp::Max => write!(f, "Max"),
            CombineOp::Product => write!(f, "Product"),
            CombineOp::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

impl CombineOp {
    /// Apply the operation.
    #[inline]
    pub fn apply(&self, a: f64, b: f64) -> f64 {
        match self {
            CombineOp::Sum => a + b,
            CombineOp::Min => a.min(b),
            CombineOp::Max => a.max(b),
            CombineOp::Product => a * b,
            CombineOp::Custom(f) => f(a, b),
        }
    }

    /// The identity element: `op.apply(identity, x) == x`.
    #[inline]
    pub fn identity(&self) -> f64 {
        match self {
            CombineOp::Sum => 0.0,
            CombineOp::Min => f64::INFINITY,
            CombineOp::Max => f64::NEG_INFINITY,
            CombineOp::Product => 1.0,
            // Custom ops must treat 0.0 as their identity (documented
            // contract); use `GroupSpec::with_identity` otherwise.
            CombineOp::Custom(_) => 0.0,
        }
    }
}

/// Specification of one group of reduction cells.
#[derive(Debug, Clone)]
pub struct GroupSpec {
    /// Group name (diagnostics only).
    pub name: String,
    /// Number of cells in the group.
    pub len: usize,
    /// The combine operation applied by `accumulate` and by merges.
    pub op: CombineOp,
    /// Initial value of every cell (defaults to `op.identity()`).
    pub init: f64,
}

impl GroupSpec {
    /// A group of `len` cells combined with `op`, initialised to the
    /// op's identity.
    pub fn new(name: &str, len: usize, op: CombineOp) -> GroupSpec {
        let init = op.identity();
        GroupSpec {
            name: name.to_string(),
            len,
            op,
            init,
        }
    }

    /// Override the initial cell value (for custom ops whose identity is
    /// not 0.0).
    pub fn with_identity(mut self, init: f64) -> GroupSpec {
        self.init = init;
        self
    }
}

/// Immutable layout shared by all copies of a reduction object.
#[derive(Debug, Clone)]
pub struct RObjLayout {
    groups: Vec<GroupSpec>,
    offsets: Vec<usize>,
    total: usize,
}

impl RObjLayout {
    /// Build a layout from group specifications.
    pub fn new(groups: Vec<GroupSpec>) -> Arc<RObjLayout> {
        let mut offsets = Vec::with_capacity(groups.len());
        let mut total = 0usize;
        for g in &groups {
            offsets.push(total);
            total += g.len;
        }
        Arc::new(RObjLayout {
            groups,
            offsets,
            total,
        })
    }

    /// Total number of cells across all groups.
    pub fn total_cells(&self) -> usize {
        self.total
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The spec of group `g`.
    pub fn group(&self, g: usize) -> &GroupSpec {
        &self.groups[g]
    }

    /// Flat cell id of `(group, index)` — the "unique ID for each element
    /// of the reduction object" assigned at allocation.
    #[inline]
    pub fn cell_id(&self, group: usize, index: usize) -> usize {
        debug_assert!(group < self.groups.len(), "group {group} out of range");
        debug_assert!(
            index < self.groups[group].len,
            "index {index} out of range for group {group} (len {})",
            self.groups[group].len
        );
        self.offsets[group] + index
    }

    /// Inverse of [`RObjLayout::cell_id`].
    pub fn cell_of(&self, id: usize) -> (usize, usize) {
        debug_assert!(id < self.total);
        // Groups are few; linear scan is fine and branch-predictable.
        let mut g = 0;
        while g + 1 < self.offsets.len() && self.offsets[g + 1] <= id {
            g += 1;
        }
        (g, id - self.offsets[g])
    }

    /// The combine op owning flat cell `id`.
    #[inline]
    pub fn op_of(&self, id: usize) -> &CombineOp {
        let (g, _) = self.cell_of(id);
        &self.groups[g].op
    }

    /// Initial cell values, flattened.
    pub fn initial_cells(&self) -> Vec<f64> {
        let mut cells = Vec::with_capacity(self.total);
        for g in &self.groups {
            cells.extend(std::iter::repeat_n(g.init, g.len));
        }
        cells
    }
}

/// A concrete (per-thread or merged) copy of the reduction object.
///
/// This is the object a FREERIDE *local reduction* updates. Maintained in
/// main memory throughout execution; copies are merged by
/// [`ReductionObject::merge_from`] during local/global combination.
#[derive(Debug, Clone)]
pub struct ReductionObject {
    layout: Arc<RObjLayout>,
    cells: Vec<f64>,
}

impl ReductionObject {
    /// `reduction_object_alloc`: initialise the reduction object, every
    /// cell at its group's identity.
    pub fn alloc(layout: Arc<RObjLayout>) -> ReductionObject {
        let cells = layout.initial_cells();
        ReductionObject { layout, cells }
    }

    /// The shared layout.
    pub fn layout(&self) -> &Arc<RObjLayout> {
        &self.layout
    }

    /// `accumulate(group, index, value)`: fold `value` into one cell
    /// using the group's combine op.
    #[inline]
    pub fn accumulate(&mut self, group: usize, index: usize, value: f64) {
        let id = self.layout.cell_id(group, index);
        let op = &self.layout.groups[group].op;
        self.cells[id] = op.apply(self.cells[id], value);
    }

    /// `get_intermediate_result(group, index)`: read one cell.
    #[inline]
    pub fn get(&self, group: usize, index: usize) -> f64 {
        self.cells[self.layout.cell_id(group, index)]
    }

    /// Overwrite one cell (used by `finalize` post-processing, not by
    /// local reductions).
    #[inline]
    pub fn set(&mut self, group: usize, index: usize, value: f64) {
        let id = self.layout.cell_id(group, index);
        self.cells[id] = value;
    }

    /// All cells of one group as a slice.
    pub fn group_slice(&self, group: usize) -> &[f64] {
        let start = self.layout.offsets[group];
        &self.cells[start..start + self.layout.groups[group].len]
    }

    /// All cells of one group, mutably (for finalize).
    pub fn group_slice_mut(&mut self, group: usize) -> &mut [f64] {
        let start = self.layout.offsets[group];
        let len = self.layout.groups[group].len;
        &mut self.cells[start..start + len]
    }

    /// Raw flat cells (for the combination phase and tests).
    pub fn cells(&self) -> &[f64] {
        &self.cells
    }

    /// Raw flat cells, mutable (for the shared-memory backends that
    /// materialise their state into a `ReductionObject`).
    pub(crate) fn cells_mut(&mut self) -> &mut [f64] {
        &mut self.cells
    }

    /// Combine another copy into this one, cell-wise, using each group's
    /// op — one step of the (local or global) combination phase.
    pub fn merge_from(&mut self, other: &ReductionObject) {
        assert!(
            Arc::ptr_eq(&self.layout, &other.layout) || self.layout.total == other.layout.total,
            "merging reduction objects with different layouts"
        );
        let mut id = 0usize;
        for g in &self.layout.groups {
            for _ in 0..g.len {
                self.cells[id] = g.op.apply(self.cells[id], other.cells[id]);
                id += 1;
            }
        }
    }

    /// FNV-1a 64-bit hash of the raw cell bytes — a cheap content
    /// fingerprint for checkpointing and cross-run comparison. Two
    /// objects hash equal iff their cells are bit-identical (layout
    /// names/ops are not included; those are checked structurally).
    pub fn content_checksum(&self) -> u64 {
        self.cells
            .iter()
            .fold(FNV_OFFSET, |h, v| fnv1a64_extend(h, &v.to_le_bytes()))
    }

    /// Reset every cell to its group identity (between outer-loop
    /// iterations).
    pub fn reset(&mut self) {
        let mut id = 0usize;
        for g in &self.layout.groups {
            for _ in 0..g.len {
                self.cells[id] = g.init;
                id += 1;
            }
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, 64-bit: the workspace's one content hash (reduction-object
/// and checkpoint checksums, program- and kernel-cache keys).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a hash at state `h` over `bytes`.
fn fnv1a64_extend(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

// ---------------------------------------------------------------------
// Versioned binary codec (wire protocol + checkpointing)
// ---------------------------------------------------------------------

/// Frame magic of every serialized reduction-object frame.
const CODEC_MAGIC: &[u8; 4] = b"FRRO";
/// Codec version; bumped on any incompatible format change. Decoders
/// reject frames of any other version with a typed error.
const CODEC_VERSION: u16 = 1;
const KIND_LAYOUT: u8 = 1;
const KIND_CELLS: u8 = 2;
const KIND_SNAPSHOT: u8 = 3;
/// Sanity bounds on untrusted length fields, so a corrupt frame cannot
/// trigger a huge allocation before the truncation check fires.
const MAX_GROUPS: u32 = 1 << 20;
const MAX_NAME_LEN: u32 = 1 << 16;

fn codec_err(reason: impl Into<String>) -> FreerideError {
    FreerideError::Codec {
        reason: reason.into(),
    }
}

/// Checked little-endian reader over an untrusted frame.
struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    fn new(buf: &'a [u8]) -> FrameReader<'a> {
        FrameReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], FreerideError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| codec_err(format!("truncated frame: {what}")))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, FreerideError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, FreerideError> {
        Ok(u16::from_le_bytes(
            self.take(2, what)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self, what: &str) -> Result<u32, FreerideError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, what: &str) -> Result<u64, FreerideError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self, what: &str) -> Result<f64, FreerideError> {
        Ok(f64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn finish(self) -> Result<(), FreerideError> {
        if self.pos != self.buf.len() {
            return Err(codec_err(format!(
                "{} trailing bytes after frame",
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Validate magic + version and return the frame kind.
    fn header(&mut self) -> Result<u8, FreerideError> {
        let magic = self.take(4, "magic")?;
        if magic != CODEC_MAGIC {
            return Err(codec_err("bad magic"));
        }
        let version = self.u16("version")?;
        if version != CODEC_VERSION {
            return Err(codec_err(format!(
                "unsupported codec version {version} (expected {CODEC_VERSION})"
            )));
        }
        self.u8("kind")
    }
}

fn put_header(out: &mut Vec<u8>, kind: u8) {
    out.extend_from_slice(CODEC_MAGIC);
    out.extend_from_slice(&CODEC_VERSION.to_le_bytes());
    out.push(kind);
}

impl CombineOp {
    fn tag(&self) -> Result<u8, FreerideError> {
        match self {
            CombineOp::Sum => Ok(0),
            CombineOp::Min => Ok(1),
            CombineOp::Max => Ok(2),
            CombineOp::Product => Ok(3),
            // A closure cannot cross a process boundary; distributed
            // jobs must use the built-in ops (or a registered task that
            // reconstructs its custom op on the node side).
            CombineOp::Custom(_) => Err(codec_err("CombineOp::Custom is not serializable")),
        }
    }

    fn from_tag(tag: u8) -> Result<CombineOp, FreerideError> {
        match tag {
            0 => Ok(CombineOp::Sum),
            1 => Ok(CombineOp::Min),
            2 => Ok(CombineOp::Max),
            3 => Ok(CombineOp::Product),
            other => Err(codec_err(format!("unknown combine-op tag {other}"))),
        }
    }
}

impl RObjLayout {
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), FreerideError> {
        out.extend_from_slice(&(self.groups.len() as u32).to_le_bytes());
        for g in &self.groups {
            let name = g.name.as_bytes();
            if name.len() > MAX_NAME_LEN as usize {
                return Err(codec_err(format!(
                    "group name of {} bytes too long",
                    name.len()
                )));
            }
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name);
            out.extend_from_slice(&(g.len as u64).to_le_bytes());
            out.push(g.op.tag()?);
            out.extend_from_slice(&g.init.to_le_bytes());
        }
        Ok(())
    }

    fn decode_body(r: &mut FrameReader<'_>) -> Result<Arc<RObjLayout>, FreerideError> {
        let count = r.u32("group count")?;
        if count > MAX_GROUPS {
            return Err(codec_err(format!("implausible group count {count}")));
        }
        let mut groups = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let name_len = r.u32("group name length")?;
            if name_len > MAX_NAME_LEN {
                return Err(codec_err(format!("implausible name length {name_len}")));
            }
            let name = std::str::from_utf8(r.take(name_len as usize, "group name")?)
                .map_err(|_| codec_err("group name is not UTF-8"))?
                .to_string();
            let len = r.u64("group length")?;
            let op = CombineOp::from_tag(r.u8("combine-op tag")?)?;
            let init = r.f64("group init")?;
            groups.push(GroupSpec {
                name,
                len: len as usize,
                op,
                init,
            });
        }
        Ok(RObjLayout::new(groups))
    }

    /// Serialize the layout as a versioned binary frame (built-in
    /// combine ops only; [`CombineOp::Custom`] returns a typed error).
    pub fn encode(&self) -> Result<Vec<u8>, FreerideError> {
        let mut out = Vec::with_capacity(16 + self.groups.len() * 32);
        put_header(&mut out, KIND_LAYOUT);
        self.encode_body(&mut out)?;
        Ok(out)
    }

    /// Decode a layout frame produced by [`RObjLayout::encode`]. Never
    /// panics on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Arc<RObjLayout>, FreerideError> {
        let mut r = FrameReader::new(bytes);
        if r.header()? != KIND_LAYOUT {
            return Err(codec_err("frame is not a layout frame"));
        }
        let layout = RObjLayout::decode_body(&mut r)?;
        r.finish()?;
        Ok(layout)
    }
}

fn encode_cells_body(out: &mut Vec<u8>, cells: &[f64]) {
    out.extend_from_slice(&(cells.len() as u64).to_le_bytes());
    for x in cells {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

fn decode_cells_body(r: &mut FrameReader<'_>, expected: usize) -> Result<Vec<f64>, FreerideError> {
    let count = r.u64("cell count")?;
    if count != expected as u64 {
        return Err(codec_err(format!(
            "cell count {count} does not match layout's {expected} cells"
        )));
    }
    if r.remaining() < expected * 8 {
        return Err(codec_err("truncated frame: cell payload"));
    }
    let mut cells = Vec::with_capacity(expected);
    for _ in 0..expected {
        cells.push(r.f64("cell")?);
    }
    Ok(cells)
}

impl ReductionObject {
    /// Serialize this object's cell values as a versioned binary frame.
    /// The layout is *not* included — both sides of a wire exchange
    /// share it from the job setup; see
    /// [`ReductionObject::encode_snapshot`] for a self-contained frame.
    pub fn encode_cells(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.cells.len() * 8);
        put_header(&mut out, KIND_CELLS);
        encode_cells_body(&mut out, &self.cells);
        out
    }

    /// Decode a cells frame against a known layout. The frame's cell
    /// count must match the layout exactly.
    pub fn decode_cells(
        layout: &Arc<RObjLayout>,
        bytes: &[u8],
    ) -> Result<ReductionObject, FreerideError> {
        let mut r = FrameReader::new(bytes);
        if r.header()? != KIND_CELLS {
            return Err(codec_err("frame is not a cells frame"));
        }
        let cells = decode_cells_body(&mut r, layout.total_cells())?;
        r.finish()?;
        Ok(ReductionObject {
            layout: layout.clone(),
            cells,
        })
    }

    /// Serialize layout *and* cells as one self-contained frame (the
    /// checkpointing format).
    pub fn encode_snapshot(&self) -> Result<Vec<u8>, FreerideError> {
        let mut out = Vec::with_capacity(32 + self.cells.len() * 8);
        put_header(&mut out, KIND_SNAPSHOT);
        self.layout.encode_body(&mut out)?;
        encode_cells_body(&mut out, &self.cells);
        Ok(out)
    }

    /// Decode a self-contained snapshot frame produced by
    /// [`ReductionObject::encode_snapshot`].
    pub fn decode_snapshot(bytes: &[u8]) -> Result<ReductionObject, FreerideError> {
        let mut r = FrameReader::new(bytes);
        if r.header()? != KIND_SNAPSHOT {
            return Err(codec_err("frame is not a snapshot frame"));
        }
        let layout = RObjLayout::decode_body(&mut r)?;
        let cells = decode_cells_body(&mut r, layout.total_cells())?;
        r.finish()?;
        Ok(ReductionObject { layout, cells })
    }
}

#[cfg(test)]
mod robj_tests {
    use super::*;

    fn layout2() -> Arc<RObjLayout> {
        RObjLayout::new(vec![
            GroupSpec::new("sums", 4, CombineOp::Sum),
            GroupSpec::new("mins", 2, CombineOp::Min),
        ])
    }

    #[test]
    fn fnv1a64_known_answers() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        // The streamed cell hash equals the hash of the cells' bytes.
        let mut r = ReductionObject::alloc(layout2());
        r.accumulate(0, 1, 2.5);
        let bytes: Vec<u8> = r.cells().iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(r.content_checksum(), fnv1a64(&bytes));
    }

    #[test]
    fn content_checksum_tracks_cell_bits() {
        let mut a = ReductionObject::alloc(layout2());
        let mut b = ReductionObject::alloc(layout2());
        assert_eq!(a.content_checksum(), b.content_checksum());
        a.accumulate(0, 1, 2.5);
        assert_ne!(a.content_checksum(), b.content_checksum());
        b.accumulate(0, 1, 2.5);
        assert_eq!(a.content_checksum(), b.content_checksum());
    }

    #[test]
    fn alloc_initialises_identities() {
        let r = ReductionObject::alloc(layout2());
        assert_eq!(r.get(0, 0), 0.0);
        assert_eq!(r.get(1, 0), f64::INFINITY);
        assert_eq!(r.cells().len(), 6);
    }

    #[test]
    fn cell_ids_unique_and_invertible() {
        let l = layout2();
        let mut seen = std::collections::HashSet::new();
        for g in 0..l.group_count() {
            for i in 0..l.group(g).len {
                let id = l.cell_id(g, i);
                assert!(seen.insert(id));
                assert_eq!(l.cell_of(id), (g, i));
            }
        }
        assert_eq!(seen.len(), l.total_cells());
    }

    #[test]
    fn accumulate_uses_group_op() {
        let mut r = ReductionObject::alloc(layout2());
        r.accumulate(0, 1, 2.0);
        r.accumulate(0, 1, 3.0);
        assert_eq!(r.get(0, 1), 5.0);
        r.accumulate(1, 0, 7.0);
        r.accumulate(1, 0, 4.0);
        assert_eq!(r.get(1, 0), 4.0); // min
    }

    #[test]
    fn merge_combines_cellwise() {
        let l = layout2();
        let mut a = ReductionObject::alloc(l.clone());
        let mut b = ReductionObject::alloc(l);
        a.accumulate(0, 0, 1.0);
        b.accumulate(0, 0, 2.0);
        a.accumulate(1, 1, 5.0);
        b.accumulate(1, 1, 3.0);
        a.merge_from(&b);
        assert_eq!(a.get(0, 0), 3.0);
        assert_eq!(a.get(1, 1), 3.0);
    }

    #[test]
    fn merge_order_independent() {
        let l = layout2();
        let mk = |vals: &[(usize, usize, f64)]| {
            let mut r = ReductionObject::alloc(l.clone());
            for &(g, i, v) in vals {
                r.accumulate(g, i, v);
            }
            r
        };
        let a = mk(&[(0, 0, 1.0), (1, 0, 9.0)]);
        let b = mk(&[(0, 0, 2.0), (1, 0, 2.0)]);
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab.cells(), ba.cells());
    }

    #[test]
    fn reset_restores_identities() {
        let mut r = ReductionObject::alloc(layout2());
        r.accumulate(0, 0, 5.0);
        r.accumulate(1, 1, -2.0);
        r.reset();
        assert_eq!(r.get(0, 0), 0.0);
        assert_eq!(r.get(1, 1), f64::INFINITY);
    }

    #[test]
    fn group_slices() {
        let mut r = ReductionObject::alloc(layout2());
        r.accumulate(0, 3, 8.0);
        assert_eq!(r.group_slice(0), &[0.0, 0.0, 0.0, 8.0]);
        r.group_slice_mut(1)[0] = 42.0;
        assert_eq!(r.get(1, 0), 42.0);
    }

    #[test]
    fn custom_op_with_identity() {
        // absolute-max with identity 0
        let op = CombineOp::Custom(Arc::new(
            |a: f64, b: f64| if b.abs() > a.abs() { b } else { a },
        ));
        let l = RObjLayout::new(vec![GroupSpec::new("absmax", 1, op).with_identity(0.0)]);
        let mut r = ReductionObject::alloc(l);
        r.accumulate(0, 0, -5.0);
        r.accumulate(0, 0, 3.0);
        assert_eq!(r.get(0, 0), -5.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn debug_bounds_check() {
        let l = layout2();
        // debug_assert fires in test profile
        let _ = l.cell_id(0, 99);
    }

    #[test]
    fn product_op() {
        let l = RObjLayout::new(vec![GroupSpec::new("prod", 1, CombineOp::Product)]);
        let mut r = ReductionObject::alloc(l);
        assert_eq!(r.get(0, 0), 1.0);
        r.accumulate(0, 0, 3.0);
        r.accumulate(0, 0, 4.0);
        assert_eq!(r.get(0, 0), 12.0);
    }
}

#[cfg(test)]
mod codec_tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_codec_err<T: std::fmt::Debug>(res: Result<T, FreerideError>) {
        match res {
            Err(FreerideError::Codec { .. }) => {}
            other => panic!("expected Codec error, got {other:?}"),
        }
    }

    fn layout2() -> Arc<RObjLayout> {
        RObjLayout::new(vec![
            GroupSpec::new("sums", 4, CombineOp::Sum),
            GroupSpec::new("mins", 2, CombineOp::Min),
        ])
    }

    #[test]
    fn layout_round_trip() {
        let l = RObjLayout::new(vec![
            GroupSpec::new("a", 3, CombineOp::Sum),
            GroupSpec::new("b", 1, CombineOp::Max).with_identity(-1.5),
            GroupSpec::new("prod", 2, CombineOp::Product),
        ]);
        let back = RObjLayout::decode(&l.encode().unwrap()).unwrap();
        assert_eq!(back.group_count(), 3);
        for g in 0..3 {
            assert_eq!(back.group(g).name, l.group(g).name);
            assert_eq!(back.group(g).len, l.group(g).len);
            assert_eq!(back.group(g).init, l.group(g).init);
        }
        assert_eq!(back.total_cells(), l.total_cells());
    }

    #[test]
    fn cells_round_trip() {
        let l = layout2();
        let mut r = ReductionObject::alloc(l.clone());
        r.accumulate(0, 2, 7.5);
        r.accumulate(1, 0, -3.0);
        let back = ReductionObject::decode_cells(&l, &r.encode_cells()).unwrap();
        assert_eq!(back.cells(), r.cells());
    }

    #[test]
    fn snapshot_round_trip() {
        let mut r = ReductionObject::alloc(layout2());
        r.accumulate(0, 0, 1.25);
        r.accumulate(1, 1, f64::NEG_INFINITY);
        let back = ReductionObject::decode_snapshot(&r.encode_snapshot().unwrap()).unwrap();
        assert_eq!(back.cells(), r.cells());
        assert_eq!(back.layout().group(0).name, "sums");
    }

    #[test]
    fn custom_op_not_serializable() {
        let op = CombineOp::Custom(Arc::new(f64::max));
        let l = RObjLayout::new(vec![GroupSpec::new("c", 1, op)]);
        assert_codec_err(l.encode());
        assert_codec_err(ReductionObject::alloc(l).encode_snapshot());
    }

    #[test]
    fn truncation_at_every_length_is_an_error() {
        let full = ReductionObject::alloc(layout2()).encode_snapshot().unwrap();
        for n in 0..full.len() {
            assert_codec_err(ReductionObject::decode_snapshot(&full[..n]));
        }
        let full = layout2().encode().unwrap();
        for n in 0..full.len() {
            assert_codec_err(RObjLayout::decode(&full[..n]));
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = layout2().encode().unwrap();
        bytes.push(0);
        assert_codec_err(RObjLayout::decode(&bytes));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = layout2().encode().unwrap();
        bytes[0] = b'X';
        assert_codec_err(RObjLayout::decode(&bytes));
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut bytes = layout2().encode().unwrap();
        bytes[4] = 99; // version low byte
        let err = RObjLayout::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "got: {err}");
    }

    #[test]
    fn wrong_kind_rejected() {
        let layout = layout2().encode().unwrap();
        assert_codec_err(ReductionObject::decode_snapshot(&layout));
        let l = layout2();
        let cells = ReductionObject::alloc(l.clone()).encode_cells();
        assert_codec_err(RObjLayout::decode(&cells));
        assert_codec_err(ReductionObject::decode_cells(&l, &layout));
    }

    #[test]
    fn unknown_op_tag_rejected() {
        let l = RObjLayout::new(vec![GroupSpec::new("a", 1, CombineOp::Sum)]);
        let mut bytes = l.encode().unwrap();
        // group record: u32 name_len + name + u64 len + u8 tag + f64 init;
        // the tag byte sits 9 bytes before the end.
        let tag_at = bytes.len() - 9;
        bytes[tag_at] = 200;
        assert_codec_err(RObjLayout::decode(&bytes));
    }

    #[test]
    fn cell_count_mismatch_rejected() {
        let l = layout2();
        let small = RObjLayout::new(vec![GroupSpec::new("x", 1, CombineOp::Sum)]);
        let frame = ReductionObject::alloc(small).encode_cells();
        assert_codec_err(ReductionObject::decode_cells(&l, &frame));
    }

    #[test]
    fn implausible_lengths_rejected_before_allocating() {
        // Layout frame claiming u32::MAX groups: must fail fast, not OOM.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(CODEC_MAGIC);
        bytes.extend_from_slice(&CODEC_VERSION.to_le_bytes());
        bytes.push(KIND_LAYOUT);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_codec_err(RObjLayout::decode(&bytes));
        // Cells frame claiming u64::MAX cells against a small layout.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(CODEC_MAGIC);
        bytes.extend_from_slice(&CODEC_VERSION.to_le_bytes());
        bytes.push(KIND_CELLS);
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_codec_err(ReductionObject::decode_cells(&layout2(), &bytes));
    }

    fn arb_op() -> impl Strategy<Value = CombineOp> {
        prop_oneof![
            Just(CombineOp::Sum),
            Just(CombineOp::Min),
            Just(CombineOp::Max),
            Just(CombineOp::Product),
        ]
    }

    fn arb_layout() -> impl Strategy<Value = Arc<RObjLayout>> {
        proptest::collection::vec((1usize..9, arb_op(), -4.0f64..4.0), 1..5).prop_map(|specs| {
            RObjLayout::new(
                specs
                    .into_iter()
                    .enumerate()
                    .map(|(i, (len, op, init))| {
                        GroupSpec::new(&format!("g{i}"), len, op).with_identity(init)
                    })
                    .collect(),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_snapshot_round_trip(layout in arb_layout(), seed in 0u32..1000) {
            let seed = seed as u64;
            let mut r = ReductionObject::alloc(layout);
            let n = r.cells().len();
            for i in 0..n {
                let v = ((seed.wrapping_mul(i as u64 + 1) % 97) as f64) - 48.0;
                r.set(r.layout().cell_of(i).0, r.layout().cell_of(i).1, v);
            }
            let back = ReductionObject::decode_snapshot(&r.encode_snapshot().unwrap()).unwrap();
            prop_assert_eq!(back.cells(), r.cells());
        }

        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..128)) {
            // Any byte soup must yield Ok or a typed error, never a panic.
            let _ = RObjLayout::decode(&bytes);
            let _ = ReductionObject::decode_snapshot(&bytes);
            let _ = ReductionObject::decode_cells(&layout2(), &bytes);
        }

        #[test]
        fn prop_truncated_never_ok(layout in arb_layout(), cut in 0usize..64) {
            let full = ReductionObject::alloc(layout).encode_snapshot().unwrap();
            if cut < full.len() {
                prop_assert!(ReductionObject::decode_snapshot(&full[..cut]).is_err());
            }
        }
    }
}
