//! The kernel VM: executes compiled kernels over FREERIDE splits.
//!
//! One `KernelRuntime` is built per translated job; it is `Sync`, so the
//! FREERIDE engine can run it from many worker threads. Per-row
//! execution walks the loop nest recursively, one block at a time: a
//! `For` runs as a native Rust `for`, `If` and `While` as their Rust
//! counterparts. The cost profile of each access instruction mirrors
//! the paper's generated C code (see `kernel_ir.rs`).

use freeride::{RObjHandle, Split, SplitKernel};
use linearize::Value;

use crate::chapel_abi::{
    chpl_array_index, chpl_read_scalar, chpl_record_field, compute_index_call,
};
use crate::compile::OptLevel;
use crate::error::CoreError;
use crate::kernel_ir::{ArithOp, CmpOp, Instr, Kernel, NavStep, REG_CHAPEL_ROW, REG_LOCAL_ROW};

/// Everything the kernel needs at run time besides the split itself.
///
/// Fields are private: the only way to obtain a `KernelRuntime` is
/// [`KernelRuntime::new`], which validates the kernel **once**. The
/// dispatch loop relies on that invariant for its unchecked register
/// accesses, so re-validating per split (as the engine calls `run_split`
/// once per split, per iteration) would pay an O(code) scan on every
/// split for nothing.
pub struct KernelRuntime {
    /// The compiled kernel. Invariant: passed `Kernel::validate` against
    /// the state count below.
    kernel: Kernel,
    /// Nested state values (generated / opt-1). Indexed by `StateId`.
    nested_state: Vec<Value>,
    /// Linearized state buffers (opt-2). Indexed by `StateId`.
    flat_state: Vec<Vec<f64>>,
    /// Chapel value of the loop variable for row 0 (the loop's lower
    /// bound).
    row_lo: i64,
}

impl KernelRuntime {
    /// Build a runtime for one translated job, validating the kernel
    /// once. All unchecked register/path accesses in the dispatch loop
    /// are justified by this validation.
    ///
    /// The state comes in the representation the kernel's strategy
    /// reads ([`crate::CompiledLoop::job_state`]): `flat_state` for opt-2 loads,
    /// `nested_state` for generated/opt-1 walks; the other may be empty.
    ///
    /// The `opt` argument is *diagnostic context only*: a malformed
    /// kernel is reported as e.g. `kernel validation failed (opt-2
    /// strategy) at pc 7: …`, naming both the offending instruction
    /// index and the translation strategy that produced it.
    pub fn new(
        kernel: Kernel,
        nested_state: Vec<Value>,
        flat_state: Vec<Vec<f64>>,
        row_lo: i64,
        opt: OptLevel,
    ) -> Result<KernelRuntime, CoreError> {
        kernel
            .validate(
                nested_state.len().max(flat_state.len()),
                usize::MAX, // group count is checked by the robj layout
            )
            .map_err(|e| {
                CoreError::translate(format!(
                    "kernel validation failed ({} strategy) {e}",
                    opt.label()
                ))
            })?;
        Ok(KernelRuntime {
            kernel,
            nested_state,
            flat_state,
            row_lo,
        })
    }

    /// Process one split: for every row, run the kernel with register 0
    /// holding the local row index and register 1 the Chapel loop value.
    ///
    /// This is the `reduction_t` FREERIDE calls through its function
    /// pointer.
    pub fn run_split(&self, split: &Split<'_>, robj: &mut dyn RObjHandle) {
        // One file per class, both indexed by register number (a
        // register lives in the file its class names). The row
        // registers exist even in a kernel that declares none.
        let n = self.kernel.regs.len().max(2);
        let (mut fr, mut ir) = (vec![0.0f64; n], vec![0i64; n]);
        let mut cx = Cx {
            data: split.rows,
            idx_buf: Vec::with_capacity(8),
            robj,
        };
        let (preamble, body) = self.kernel.code.split_at(self.kernel.entry);
        // Constant preamble, once per split.
        self.block(preamble, &mut fr, &mut ir, &mut cx);
        for local in 0..split.row_count {
            ir[REG_LOCAL_ROW as usize] = local as i64;
            ir[REG_CHAPEL_ROW as usize] = self.row_lo + (split.first_row + local) as i64;
            self.block(body, &mut fr, &mut ir, &mut cx);
        }
    }

    /// Execute one block over the register files `fr` (`F64`) and `ir`
    /// (`I64`). A `For` runs as a native Rust `for` whose body steps in
    /// this frame, so an innermost loop makes no call per iteration;
    /// deeper blocks recurse.
    fn block(&self, code: &[Instr], fr: &mut [f64], ir: &mut [i64], cx: &mut Cx<'_>) {
        for ins in code {
            if let Instr::For { var, lo, hi, body } = ins {
                // SAFETY: as in `step`.
                macro_rules! i {
                    ($r:expr) => {
                        *unsafe { ir.get_unchecked_mut($r as usize) }
                    };
                }
                // `lo..=hi` stepped by hand: `RangeInclusive`'s
                // exhaustion flag costs measurably per trip here.
                let (mut v, hi) = (i!(*lo), i!(*hi));
                while v <= hi {
                    i!(*var) = v;
                    for ins in body {
                        self.step(ins, fr, ir, cx);
                    }
                    if v == hi {
                        break;
                    }
                    v += 1;
                }
            } else {
                self.step(ins, fr, ir, cx);
            }
        }
    }

    /// Execute one instruction; a block-carrying one recurses through
    /// [`KernelRuntime::block`].
    #[inline(always)]
    fn step(&self, ins: &Instr, fr: &mut [f64], ir: &mut [i64], cx: &mut Cx<'_>) {
        let paths = &self.kernel.paths;
        // SAFETY (every unchecked access below): the kernel passed
        // `Kernel::validate` in `new`, so each operand is inside the
        // register file (both files have at least `regs.len()` slots)
        // and names the file of its class.
        macro_rules! f {
            ($r:expr) => {
                *unsafe { fr.get_unchecked_mut($r as usize) }
            };
        }
        macro_rules! i {
            ($r:expr) => {
                *unsafe { ir.get_unchecked_mut($r as usize) }
            };
        }
        match ins {
            Instr::Const { dst, val } => f!(*dst) = *val,
            Instr::IConst { dst, val } => i!(*dst) = *val,
            Instr::Mov { dst, src } => f!(*dst) = f!(*src),
            Instr::IMov { dst, src } => i!(*dst) = i!(*src),
            Instr::Bin { op, dst, a, b } => {
                let (x, y) = (f!(*a), f!(*b));
                f!(*dst) = match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => x / y,
                    ArithOp::Mod => x % y,
                    ArithOp::Pow => x.powf(y),
                    ArithOp::Min => x.min(y),
                    ArithOp::Max => x.max(y),
                };
            }
            Instr::IBin { op, dst, a, b } => {
                let (x, y) = (i!(*a), i!(*b));
                i!(*dst) = match op {
                    ArithOp::Add => x.wrapping_add(y),
                    ArithOp::Sub => x.wrapping_sub(y),
                    ArithOp::Mul => x.wrapping_mul(y),
                    ArithOp::Div => x / nonzero(y),
                    ArithOp::Mod => x % nonzero(y),
                    ArithOp::Min => x.min(y),
                    ArithOp::Max => x.max(y),
                    ArithOp::Pow => unreachable!("validated: no I64 Pow"),
                };
            }
            Instr::Cmp { op, dst, a, b } => i!(*dst) = compare(*op, f!(*a), f!(*b)) as i64,
            Instr::ICmp { op, dst, a, b } => i!(*dst) = compare(*op, i!(*a), i!(*b)) as i64,
            Instr::Not { dst, src } => i!(*dst) = (i!(*src) == 0) as i64,
            Instr::Neg { dst, src } => f!(*dst) = -f!(*src),
            Instr::Sqrt { dst, src } => f!(*dst) = f!(*src).sqrt(),
            Instr::Abs { dst, src } => f!(*dst) = f!(*src).abs(),
            Instr::IntToReal { dst, src } => f!(*dst) = i!(*src) as f64,
            Instr::RealToInt { dst, src } => i!(*dst) = f!(*src).floor() as i64,
            Instr::For { .. } => self.block(std::slice::from_ref(ins), fr, ir, cx),
            Instr::If { cond, then, els } => {
                let taken = if i!(*cond) != 0 { then } else { els };
                self.block(taken, fr, ir, cx);
            }
            Instr::While { head, cond, body } => loop {
                self.block(head, fr, ir, cx);
                if i!(*cond) == 0 {
                    break;
                }
                self.block(body, fr, ir, cx);
            },
            Instr::LoadRow { dst } => i!(*dst) = i!(REG_CHAPEL_ROW),
            Instr::Fma { dst, a, b } => f!(*dst) += f!(*a) * f!(*b),
            Instr::LoadData { dst, path, idx } => {
                // The full Algorithm-3 mapping, executed as a real
                // (non-inlined, recursive) call per access — the
                // *generated* version's cost.
                cx.idx_buf.clear();
                cx.idx_buf.extend(idx.iter().map(|r| i!(*r) as usize));
                let off = compute_index_call(&paths[*path as usize], &cx.idx_buf);
                f!(*dst) = cx.data[off];
            }
            Instr::DataBase { dst, path, outer } => {
                // opt-1: the one remaining computeIndex call per loop.
                cx.idx_buf.clear();
                cx.idx_buf.extend(outer.iter().map(|r| i!(*r) as usize));
                cx.idx_buf.push(0);
                let off = compute_index_call(&paths[*path as usize], &cx.idx_buf);
                i!(*dst) = off as i64;
            }
            Instr::LoadDataAt {
                dst,
                base,
                k,
                stride,
            } => {
                let off = i!(*base) as usize + i!(*k) as usize * stride;
                f!(*dst) = cx.data[off];
            }
            Instr::LoadStateNested { dst, state, steps } => {
                // The nested-structure walk through the emulated
                // Chapel runtime calls (wide-reference test, dope
                // vector, bounds check per level) — the "accesses to
                // complex Chapel structures" cost that opt-2
                // eliminates.
                let mut cur = &self.nested_state[*state as usize];
                for step in steps {
                    cur = match step {
                        NavStep::Field(pos) => chpl_record_field(cur, *pos),
                        NavStep::Index(r) => chpl_array_index(cur, i!(*r) as usize),
                    };
                }
                f!(*dst) = chpl_read_scalar(cur);
            }
            Instr::LoadStateFlat {
                dst,
                state,
                path,
                idx,
            } => {
                cx.idx_buf.clear();
                cx.idx_buf.extend(idx.iter().map(|r| i!(*r) as usize));
                let off = compute_index_call(&paths[*path as usize], &cx.idx_buf);
                f!(*dst) = self.flat_state[*state as usize][off];
            }
            Instr::StateBase {
                dst,
                state: _,
                path,
                outer,
            } => {
                cx.idx_buf.clear();
                cx.idx_buf.extend(outer.iter().map(|r| i!(*r) as usize));
                cx.idx_buf.push(0);
                let off = compute_index_call(&paths[*path as usize], &cx.idx_buf);
                i!(*dst) = off as i64;
            }
            Instr::LoadStateAt {
                dst,
                state,
                base,
                k,
                stride,
            } => {
                let off = i!(*base) as usize + i!(*k) as usize * stride;
                f!(*dst) = self.flat_state[*state as usize][off];
            }
            Instr::OutIndex { dst, path, idx } => {
                cx.idx_buf.clear();
                cx.idx_buf.extend(idx.iter().map(|r| i!(*r) as usize));
                let off = compute_index_call(&paths[*path as usize], &cx.idx_buf);
                i!(*dst) = off as i64;
            }
            Instr::Accumulate { group, cell, val } => {
                cx.robj
                    .accumulate(*group as usize, i!(*cell) as usize, f!(*val));
            }
        }
    }
}

/// The rest of one split's execution state: its rows and the
/// reduction object.
struct Cx<'a> {
    data: &'a [f64],
    /// Scratch index vector for the `computeIndex` calls.
    idx_buf: Vec<usize>,
    robj: &'a mut dyn RObjHandle,
}

/// `y`, or a panic for a zero integer divisor (never undefined
/// behaviour; the same failure mode as an out-of-bounds load). The
/// `/` and `%` it feeds panic on `i64::MIN / -1`, as the oracle's do.
#[inline]
fn nonzero(y: i64) -> i64 {
    if y == 0 {
        panic!("kernel: integer division by zero");
    }
    y
}

#[inline]
fn compare<T: PartialOrd>(op: CmpOp, x: T, y: T) -> bool {
    match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    }
}

// The engine dispatches translated jobs through the same seam as
// manual closures and compiled kernels.
impl SplitKernel for KernelRuntime {
    #[inline]
    fn run_split(&self, split: &Split<'_>, robj: &mut dyn RObjHandle) {
        KernelRuntime::run_split(self, split, robj)
    }
}

// SAFETY-free Sync: all fields are plain data.
// (KernelRuntime derives Sync automatically; this assertion documents
// the requirement — the FREERIDE engine shares it across workers.)
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<KernelRuntime>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_ir::RegClass;
    use freeride::{CombineOp, GroupSpec, RObjLayout, ReductionObject};

    /// Run `out[0] += a / b` (an `I64` divide) over one row.
    fn divide(a: i64, b: i64) -> f64 {
        use RegClass::*;
        let kernel = Kernel {
            code: vec![
                Instr::IConst { dst: 2, val: a },
                Instr::IConst { dst: 3, val: b },
                Instr::IConst { dst: 6, val: 0 },
                Instr::IBin {
                    op: ArithOp::Div,
                    dst: 4,
                    a: 2,
                    b: 3,
                },
                Instr::IntToReal { dst: 5, src: 4 },
                Instr::Accumulate {
                    group: 0,
                    cell: 6,
                    val: 5,
                },
            ],
            entry: 3,
            regs: vec![I64, I64, I64, I64, I64, F64, I64],
            paths: vec![],
            state_names: vec![],
            out_names: vec!["out".into()],
            combine: freeride::CombineOp::Sum,
        };
        let rt = KernelRuntime::new(kernel, vec![], vec![], 1, OptLevel::Opt2).unwrap();
        let layout = RObjLayout::new(vec![GroupSpec::new("out", 1, CombineOp::Sum)]);
        let mut robj = ReductionObject::alloc(layout);
        let split = Split {
            rows: &[0.0],
            unit: 1,
            first_row: 0,
            row_count: 1,
        };
        rt.run_split(&split, &mut robj.lend());
        robj.group_slice(0)[0]
    }

    #[test]
    fn integer_division_truncates_toward_zero() {
        assert_eq!(divide(-7, 2), -3.0);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn zero_divisor_panics() {
        divide(1, 0);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn min_over_minus_one_panics_like_the_oracle() {
        divide(i64::MIN, -1);
    }
}
