//! Host-side execution of a compiled kernel: state binding, the
//! per-split choice of update path, the host callback, and panics.
//!
//! A [`CompiledKernelRuntime`] pairs one process-wide
//! [`LoadedKernel`] with one job's flat state, as the interpreter's
//! `KernelRuntime` pairs a `Kernel` with state, so the translator can
//! swap one for the other behind `freeride::SplitKernel`. Binding fresh
//! state is an `Arc` clone; emit/compile/load happened once in
//! [`crate::driver::load_or_compile`].
//!
//! Per split, the kernel gets the worker's lent cells when the handle
//! lends them and the layout matches the kernel's groups and op;
//! otherwise every update calls `accumulate_cb`. No unwind crosses the
//! boundary (the cdylib links its own std): the kernel returns a
//! [`Status`], the callback catches its panics and reports failure, and
//! the host raises the panic here.

use cfr_core::CodegenError;
use freeride::{RObjHandle, Recorder, Split, SplitKernel, TraceLevel};
use obs::AttrValue;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::abi::{FlatView, SplitArgs, Status};
use crate::driver::LoadedKernel;

/// Everything `accumulate_cb` needs during one kernel call, passed as
/// the opaque `ctx` pointer.
struct CallCtx<'a> {
    /// The handle, on the callback path (`None` while its cells are
    /// lent).
    robj: Option<&'a mut dyn RObjHandle>,
    /// A panic the callback caught, resumed once the kernel returns.
    host_panic: Option<Box<dyn Any + Send>>,
}

/// Reduction-object update callback (`Instr::Accumulate` on the
/// callback path). A panic is kept in `ctx` for the host to resume, and
/// the kernel is told to stop.
extern "C" fn accumulate_cb(ctx: *mut u8, group: usize, cell: usize, val: f64) -> bool {
    // SAFETY: `ctx` is the `CallCtx` built in
    // `CompiledKernelRuntime::call`, alive for the whole kernel call on
    // this thread.
    let ctx = unsafe { &mut *(ctx as *mut CallCtx<'_>) };
    let update = || {
        ctx.robj
            .as_mut()
            .expect("accumulate is only called on the callback path")
            .accumulate(group, cell, val)
    };
    match catch_unwind(AssertUnwindSafe(update)) {
        Ok(()) => true,
        Err(payload) => {
            ctx.host_panic = Some(payload);
            false
        }
    }
}

/// The ABI views of a runtime's flat state, built once per job.
struct FlatViews(Box<[FlatView]>);

// SAFETY: each view points into a `Vec<f64>` owned by the same
// `CompiledKernelRuntime` (moving the runtime does not move the heap
// buffers) and never written after construction, so sharing the
// pointers across worker threads is sharing read-only data.
unsafe impl Send for FlatViews {}
unsafe impl Sync for FlatViews {}

/// Why a split took the callback path.
const CALLBACK_REASONS: [&str; 2] = [
    "the handle lends no cells (shared sync scheme)",
    "the layout's groups or combine op differ from the kernel's",
];

/// A compiled kernel bound to one job's state — the compiled-backend
/// counterpart of `cfr_core::KernelRuntime`.
pub struct CompiledKernelRuntime {
    loaded: Arc<LoadedKernel>,
    /// Owns the buffers `views` points into; never mutated.
    #[allow(dead_code)]
    flat_state: Vec<Vec<f64>>,
    views: FlatViews,
    row_lo: i64,
    /// Splits since the last recorded pass that updated lent cells.
    lent_splits: AtomicU64,
    /// Splits that called back, by [`CALLBACK_REASONS`] index.
    callback_splits: [AtomicU64; 2],
}

impl CompiledKernelRuntime {
    /// Bind `loaded` to one job's state. A flat-state buffer shorter
    /// than its proven loads assume is [`CodegenError::Unsupported`]
    /// (the job then runs on the interpreter, which checks each load).
    pub fn new(
        loaded: Arc<LoadedKernel>,
        flat_state: Vec<Vec<f64>>,
        row_lo: i64,
    ) -> Result<CompiledKernelRuntime, CodegenError> {
        for (s, &need) in loaded.state_len.iter().enumerate() {
            let len = flat_state.get(s).map_or(0, Vec::len);
            if len < need {
                return Err(CodegenError::Unsupported(format!(
                    "state #{s} holds {len} slots; the compiled kernel reads {need}"
                )));
            }
        }
        let views = flat_state
            .iter()
            .map(|v| FlatView {
                ptr: v.as_ptr(),
                len: v.len(),
            })
            .collect();
        Ok(CompiledKernelRuntime {
            loaded,
            flat_state,
            views: FlatViews(views),
            row_lo,
            lent_splits: AtomicU64::new(0),
            callback_splits: Default::default(),
        })
    }

    /// Call the kernel on one split, in place into `cells` (with the
    /// layout's group offsets) or through `robj`, then resume any panic.
    fn call<'a>(
        &'a self,
        split: &Split<'_>,
        cells: Option<(&mut [f64], &[usize])>,
        robj: Option<&'a mut dyn RObjHandle>,
    ) {
        let mut ctx = CallCtx {
            robj,
            host_panic: None,
        };
        let (cells, n_cells, offsets) = match cells {
            Some((c, off)) => (c.as_mut_ptr(), c.len(), off.as_ptr()),
            None => (std::ptr::null_mut(), 0, std::ptr::null()),
        };
        let args = SplitArgs {
            rows: split.rows.as_ptr(),
            rows_len: split.rows.len(),
            row_count: split.row_count,
            first_row: split.first_row,
            row_lo: self.row_lo,
            flat: self.views.0.as_ptr(),
            n_flat: self.views.0.len(),
            cells,
            n_cells,
            offsets,
            ctx: &mut ctx as *mut CallCtx<'_> as *mut u8,
            accumulate: accumulate_cb,
        };
        // SAFETY: every pointer in `args` is valid for the call; the
        // flat views hold at least `loaded.state_len` slots (checked in
        // `new`); `cells` is a worker's exclusive borrow whose offsets
        // come from the layout the kernel's group count was checked
        // against.
        let status = unsafe { (self.loaded.func)(&args) };
        if let Some(payload) = ctx.host_panic.take() {
            resume_unwind(payload);
        }
        // The interpreter's panic for the same failure.
        let msg = match status {
            Status::Done => return,
            Status::OutOfBounds { index, len } => {
                format!("index out of bounds: the len is {len} but the index is {index}")
            }
            Status::DivideByZero => "kernel: integer division by zero".to_string(),
            Status::DivideOverflow => "attempt to divide with overflow".to_string(),
            Status::RemainderOverflow => {
                "attempt to calculate the remainder with overflow".to_string()
            }
            Status::ShortSplit => "kernel: a split shorter than its rows".to_string(),
            Status::HostFailed => "kernel: host callback failed".to_string(),
        };
        panic!("compiled kernel failed: {msg}");
    }
}

impl SplitKernel for CompiledKernelRuntime {
    fn run_split(&self, split: &Split<'_>, robj: &mut dyn RObjHandle) {
        let loaded = &self.loaded;
        let reason = match robj.lend() {
            None => 0,
            Some(lent) => {
                let layout = lent.layout;
                let mut ops = (0..layout.group_count()).map(|g| &layout.group(g).op);
                if layout.group_count() != loaded.groups || ops.any(|op| *op != loaded.combine) {
                    1
                } else {
                    self.lent_splits.fetch_add(1, Ordering::Relaxed);
                    return self.call(split, Some((lent.cells, layout.offsets())), None);
                }
            }
        };
        self.callback_splits[reason].fetch_add(1, Ordering::Relaxed);
        self.call(split, None, Some(robj));
    }

    /// Hub counters `codegen.lent_splits` / `codegen.callback_splits`, and
    /// one `codegen.update_path` instant naming the path and, for the
    /// callback path, why.
    fn record_pass(&self, rec: &Recorder) {
        let lent = self.lent_splits.swap(0, Ordering::Relaxed);
        let callbacks = self
            .callback_splits
            .each_ref()
            .map(|c| c.swap(0, Ordering::Relaxed));
        let callback: u64 = callbacks.iter().sum();
        rec.hub().add("codegen.lent_splits", lent as i64);
        rec.hub().add("codegen.callback_splits", callback as i64);
        let reason = match callbacks.iter().position(|&n| n > 0) {
            Some(r) => CALLBACK_REASONS[r],
            None => "the handle lent its cells",
        };
        let path = if callback == 0 { "lent" } else { "callback" };
        rec.instant(
            TraceLevel::Phases,
            "codegen.update_path",
            "engine",
            0,
            vec![
                ("path", AttrValue::Str(path.to_string())),
                ("reason", AttrValue::Str(reason.to_string())),
                ("lent_splits", AttrValue::Int(lent as i64)),
                ("callback_splits", AttrValue::Int(callback as i64)),
            ],
        );
    }
}

// The engine shares one runtime across its worker threads.
const _: fn() = || {
    fn assert_sync<T: Send + Sync>() {}
    assert_sync::<CompiledKernelRuntime>();
};
