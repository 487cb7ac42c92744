//! cfr kernel ABI v4. This file is compiled twice: into the host, and
//! verbatim at the top of every emitted kernel, so both sides of the
//! boundary share one definition of what crosses it.
//!
//! A kernel never panics. Every failure the interpreter raises as a
//! panic (an out-of-range load, an integer division by zero or
//! overflow) ends the split with a [`Status`] instead, and the host
//! raises it as a panic in its own runtime. An unwind never crosses the
//! boundary, so it never meets a std it was not raised in.

/// A borrowed flat-state buffer (opt-2 linearized state).
#[repr(C)]
pub struct FlatView {
    /// First slot.
    pub ptr: *const f64,
    /// Slot count.
    pub len: usize,
}

/// One split's arguments. `ctx` is an opaque host pointer passed back
/// to the one callback, `accumulate`.
#[repr(C)]
pub struct SplitArgs {
    /// The split's rows, `rows_len` slots holding `row_count` rows.
    pub rows: *const f64,
    /// See `rows`.
    pub rows_len: usize,
    /// See `rows`.
    pub row_count: usize,
    /// Index of the split's first row within the dataset.
    pub first_row: usize,
    /// Chapel value of the loop variable at dataset row 0.
    pub row_lo: i64,
    /// `n_flat` flat-state buffers.
    pub flat: *const FlatView,
    /// See `flat`.
    pub n_flat: usize,
    /// The worker's lent reduction-object cells, or null: then every
    /// update calls `accumulate`.
    pub cells: *mut f64,
    /// See `cells`.
    pub n_cells: usize,
    /// First cell of each output group within `cells`.
    pub offsets: *const usize,
    /// Opaque host context.
    pub ctx: *mut u8,
    /// Fold one value into one cell; false when the host panicked.
    pub accumulate: extern "C" fn(*mut u8, usize, usize, f64) -> bool,
}

/// How a split ended. (No derived `Debug` or `PartialEq`: every
/// kernel compiles this file, and those impls cost compile time.)
#[repr(C)]
#[derive(Clone, Copy)]
pub enum Status {
    /// Every row ran.
    Done,
    /// A checked load or update indexed `index` in `len` slots.
    OutOfBounds {
        /// The index.
        index: usize,
        /// The buffer length.
        len: usize,
    },
    /// An integer `/` or `%` by zero.
    DivideByZero,
    /// `i64::MIN / -1`.
    DivideOverflow,
    /// `i64::MIN % -1`.
    RemainderOverflow,
    /// The split holds fewer slots than its rows need.
    ShortSplit,
    /// The `accumulate` callback panicked; the host holds the panic.
    HostFailed,
}

/// How a kernel body folds one value into the reduction object.
pub trait Update {
    /// Fold `value` into cell `cell` of group `group`.
    fn update(&mut self, group: usize, cell: usize, value: f64) -> Result<(), Status>;
}

/// Every update calls back into the host.
pub struct Callback<'a>(pub &'a SplitArgs);

impl Update for Callback<'_> {
    #[inline(always)]
    fn update(&mut self, group: usize, cell: usize, value: f64) -> Result<(), Status> {
        match (self.0.accumulate)(self.0.ctx, group, cell, value) {
            true => Ok(()),
            false => Err(Status::HostFailed),
        }
    }
}

/// Every update folds in place into the lent cells of `G` groups with
/// op `OP` (0 sum, 1 product, 2 min, 3 max): the f64 operation
/// `CombineOp::apply` performs.
pub struct InPlace<'a, const G: usize, const OP: u8> {
    cells: &'a mut [f64],
    offsets: [usize; G],
}

impl<'a, const G: usize, const OP: u8> InPlace<'a, G, OP> {
    /// The cells `a` lends.
    ///
    /// # Safety
    ///
    /// `a.cells` points at `a.n_cells` cells nothing else accesses
    /// during the split, and `a.offsets` at `G` offsets.
    pub unsafe fn new(a: &'a SplitArgs) -> Self {
        InPlace {
            cells: core::slice::from_raw_parts_mut(a.cells, a.n_cells),
            offsets: *(a.offsets as *const [usize; G]),
        }
    }
}

impl<const G: usize, const OP: u8> Update for InPlace<'_, G, OP> {
    /// `group < G`: the kernel passed `Kernel::validate`.
    #[inline(always)]
    fn update(&mut self, group: usize, cell: usize, value: f64) -> Result<(), Status> {
        let index = self.offsets[group] + cell;
        let len = self.cells.len();
        let c = self
            .cells
            .get_mut(index)
            .ok_or(Status::OutOfBounds { index, len })?;
        *c = match OP {
            0 => *c + value,
            1 => *c * value,
            2 => c.min(value),
            _ => c.max(value),
        };
        Ok(())
    }
}

/// A checked load.
#[inline(always)]
pub fn ld(s: &[f64], index: usize) -> Result<f64, Status> {
    let len = s.len();
    s.get(index)
        .copied()
        .ok_or(Status::OutOfBounds { index, len })
}

/// A load the emitter's range analysis proved in bounds.
///
/// # Safety
///
/// `i < s.len()`: the index is a dataset slot inside a split whose
/// length the kernel checked against its row count, or a flat-state
/// slot below the length the host checked when it bound the state.
#[inline(always)]
pub unsafe fn at(s: &[f64], i: usize) -> f64 {
    *s.get_unchecked(i)
}

/// `x / y`, truncating, as the interpreter divides.
#[inline(always)]
pub fn div(x: i64, y: i64) -> Result<i64, Status> {
    match y {
        0 => Err(Status::DivideByZero),
        _ => x.checked_div(y).ok_or(Status::DivideOverflow),
    }
}

/// `x % y`, with the dividend's sign, as the interpreter takes it.
#[inline(always)]
pub fn rem(x: i64, y: i64) -> Result<i64, Status> {
    match y {
        0 => Err(Status::DivideByZero),
        _ => x.checked_rem(y).ok_or(Status::RemainderOverflow),
    }
}
