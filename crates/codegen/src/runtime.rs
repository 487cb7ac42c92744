//! Host-side execution of a compiled kernel: state binding, the
//! reduction-object callback, and the nested Chapel-state walk.
//!
//! A [`CompiledKernelRuntime`] pairs one process-wide
//! [`LoadedKernel`] with one job's state — mirroring how the
//! interpreter's `KernelRuntime` pairs a `Kernel` with state, so the
//! translator can swap one for the other behind
//! `freeride::SplitKernel`. Binding fresh state is an `Arc` clone
//! (k-means does it every outer iteration); the expensive
//! emit/compile/load work happened once in
//! [`crate::driver::load_or_compile`].

use cfr_core::chapel_abi::{chpl_array_index, chpl_read_scalar, chpl_record_field};
use cfr_core::NavStep;
use freeride::{RObjHandle, Split, SplitKernel};
use linearize::Value;
use std::sync::Arc;

use crate::driver::LoadedKernel;
use crate::emit::NestedSite;

/// A borrowed flat-state buffer passed across the ABI (layout must
/// match the `FlatView` the emitted source declares).
#[repr(C)]
pub struct FlatView {
    /// First slot.
    pub ptr: *const f64,
    /// Slot count.
    pub len: usize,
}

/// Everything the callbacks need during one `run_split` call, passed as
/// the opaque `ctx` pointer.
struct CallCtx<'a> {
    robj: &'a mut dyn RObjHandle,
    nested: &'a [Value],
    sites: &'a [NestedSite],
}

/// Reduction-object update callback (`Instr::Accumulate`).
extern "C-unwind" fn accumulate_cb(ctx: *mut u8, group: usize, cell: usize, val: f64) {
    // SAFETY: `ctx` is the `CallCtx` constructed in `run_split`, alive
    // for the whole kernel call on this thread.
    let ctx = unsafe { &mut *(ctx as *mut CallCtx<'_>) };
    ctx.robj.accumulate(group, cell, val);
}

/// Nested-state walk callback (`Instr::LoadStateNested`): performs the
/// same `chpl_record_field` / `chpl_array_index` / `chpl_read_scalar`
/// chain as the interpreter — preserving the generated/opt-1 "complex
/// Chapel structure" cost profile (and its exact semantics, including
/// the `as usize` index casts) under the compiled backend.
extern "C-unwind" fn nested_load_cb(ctx: *mut u8, site: usize, idx: *const i64, n: usize) -> f64 {
    // SAFETY: as above; `idx` points at `n` i64s in the callee's frame.
    let ctx = unsafe { &*(ctx as *const CallCtx<'_>) };
    let idxs: &[i64] = if n == 0 {
        &[]
    } else {
        unsafe { std::slice::from_raw_parts(idx, n) }
    };
    let s = &ctx.sites[site];
    let mut next_idx = idxs.iter();
    let mut cur = &ctx.nested[s.state];
    for step in &s.steps {
        cur = match step {
            NavStep::Field(pos) => chpl_record_field(cur, *pos),
            NavStep::Index(_) => {
                let i = *next_idx
                    .next()
                    .expect("emitter passed one value per Index step");
                chpl_array_index(cur, i as usize)
            }
        };
    }
    chpl_read_scalar(cur)
}

/// The ABI views of a runtime's flat state, built once per job.
struct FlatViews(Box<[FlatView]>);

// SAFETY: each view points into a `Vec<f64>` owned by the same
// `CompiledKernelRuntime` (moving the runtime does not move the heap
// buffers) and never written after construction, so sharing the
// pointers across worker threads is sharing read-only data.
unsafe impl Send for FlatViews {}
unsafe impl Sync for FlatViews {}

/// A compiled kernel bound to one job's state — the compiled-backend
/// counterpart of `cfr_core::KernelRuntime`.
pub struct CompiledKernelRuntime {
    loaded: Arc<LoadedKernel>,
    nested_state: Vec<Value>,
    /// Owns the buffers `views` points into; never mutated.
    #[allow(dead_code)]
    flat_state: Vec<Vec<f64>>,
    views: FlatViews,
    row_lo: i64,
}

impl CompiledKernelRuntime {
    /// Bind `loaded` to one job's state.
    pub fn new(
        loaded: Arc<LoadedKernel>,
        nested_state: Vec<Value>,
        flat_state: Vec<Vec<f64>>,
        row_lo: i64,
    ) -> CompiledKernelRuntime {
        let views = flat_state
            .iter()
            .map(|v| FlatView {
                ptr: v.as_ptr(),
                len: v.len(),
            })
            .collect();
        CompiledKernelRuntime {
            loaded,
            nested_state,
            flat_state,
            views: FlatViews(views),
            row_lo,
        }
    }

    /// FNV-1a hash of the emitted source backing this runtime (the
    /// process-wide cache key; exposed for tests and diagnostics).
    pub fn source_hash(&self) -> u64 {
        self.loaded.source_hash
    }
}

impl SplitKernel for CompiledKernelRuntime {
    fn run_split(&self, split: &Split<'_>, robj: &mut dyn RObjHandle) {
        let views = &self.views.0;
        let mut ctx = CallCtx {
            robj,
            nested: &self.nested_state,
            sites: &self.loaded.sites,
        };
        // SAFETY: pointers are valid for the duration of the call; the
        // callee only reads `rows`/`flat` and calls back through the
        // provided function pointers with the same `ctx`.
        unsafe {
            (self.loaded.func)(
                split.rows.as_ptr(),
                split.rows.len(),
                split.row_count,
                split.first_row,
                self.row_lo,
                views.as_ptr(),
                views.len(),
                &mut ctx as *mut CallCtx<'_> as *mut u8,
                accumulate_cb,
                nested_load_cb,
            )
        }
    }
}

// The engine shares one runtime across its worker threads.
const _: fn() = || {
    fn assert_sync<T: Send + Sync>() {}
    assert_sync::<CompiledKernelRuntime>();
};
