//! The kernel IR — the "generated C code" of the reproduction.
//!
//! The paper's modified Chapel compiler emits C code that FREERIDE calls
//! through function pointers. We emit a small register bytecode instead;
//! the three code-generation strategies differ only in which *access
//! instructions* they use:
//!
//! * **generated** — every dataset/state access executes the full
//!   `computeIndex` mapping ([`Instr::LoadData`] /
//!   [`Instr::LoadStateFlat`] with per-access index math), and state
//!   variables are *nested* values walked per access
//!   ([`Instr::LoadStateNested`]).
//! * **opt-1** — strength reduction: [`Instr::DataBase`] computes the
//!   innermost base once per loop, [`Instr::LoadDataAt`] walks it by
//!   stride.
//! * **opt-2** — state is linearized too, so [`Instr::LoadStateNested`]
//!   disappears in favour of flat loads (plus the opt-1 shapes).
//!
//! Every register has a [`RegClass`], carrying Chapel's `int`/`real`
//! distinction: `int` locals, loop counters and bounds, booleans and
//! everything an index or `computeIndex` consumes are [`RegClass::I64`];
//! data loads, state loads and accumulated values are [`RegClass::F64`].
//! Each instruction fixes the class of each operand, and conversions are
//! explicit ([`Instr::IntToReal`], [`Instr::RealToInt`]).
//! [`Kernel::validate`] rejects any mismatch. `I64` arithmetic follows
//! the `chapel-interp` oracle: wrapping `+ - *`, truncating `/` and `%`,
//! and a zero divisor or `i64::MIN / -1` panics (like an out-of-bounds
//! load) instead of being undefined.

use linearize::PathMeta;

/// A register index.
pub type Reg = u16;

/// Index of a resolved access path in the kernel's path table.
pub type PathId = u16;

/// Index of a state variable.
pub type StateId = u16;

/// Index of a reduction-object group (one per output variable).
pub type GroupId = u16;

/// Register 0 always holds the local (0-based) row index (`I64`).
pub const REG_LOCAL_ROW: Reg = 0;
/// Register 1 always holds the Chapel loop-variable value (`I64`).
pub const REG_CHAPEL_ROW: Reg = 1;

/// What a register holds: Chapel `int`/`bool` values or `real` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegClass {
    /// A 64-bit signed integer (Chapel `int`; booleans are 0/1).
    I64,
    /// A 64-bit float (Chapel `real`).
    F64,
}

/// Binary arithmetic operations. On `F64` registers ([`Instr::Bin`])
/// they are the IEEE operations; on `I64` registers ([`Instr::IBin`])
/// `Add`/`Sub`/`Mul` wrap, `Div`/`Mod` truncate and panic on a zero
/// divisor or on overflow (`i64::MIN / -1`), and `Pow` is not available.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `a % b`
    Mod,
    /// `a.powf(b)` (`F64` only)
    Pow,
    /// `a.min(b)`
    Min,
    /// `a.max(b)`
    Max,
}

/// Comparisons producing an `I64` 0 / 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// `a < b`
    Lt,
    /// `a <= b`
    Le,
    /// `a > b`
    Gt,
    /// `a >= b`
    Ge,
}

/// One navigation step through a nested state value (generated/opt-1
/// state access).
#[derive(Debug, Clone, PartialEq)]
pub enum NavStep {
    /// Select a record field by position.
    Field(usize),
    /// Index an array level; the `I64` register holds the already-0-based
    /// index.
    Index(Reg),
}

/// Kernel instructions. Operand classes are given as `F64`/`I64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = val` (`F64`)
    Const {
        /// Destination register.
        dst: Reg,
        /// Immediate.
        val: f64,
    },
    /// `dst = val` (`I64`)
    IConst {
        /// Destination register.
        dst: Reg,
        /// Immediate.
        val: i64,
    },
    /// `dst = src` (`F64`)
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = src` (`I64`)
    IMov {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = a op b` (`F64`)
    Bin {
        /// Operation.
        op: ArithOp,
        /// Destination.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst = a op b` (`I64`: wrapping, truncating, no `Pow`)
    IBin {
        /// Operation.
        op: ArithOp,
        /// Destination.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst = (a cmp b) as i64` over `F64` operands; `dst` is `I64`.
    Cmp {
        /// Comparison.
        op: CmpOp,
        /// Destination.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst = (a cmp b) as i64` over `I64` operands.
    ICmp {
        /// Comparison.
        op: CmpOp,
        /// Destination.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst = (src == 0) as i64` (`I64`)
    Not {
        /// Destination.
        dst: Reg,
        /// Source.
        src: Reg,
    },
    /// `dst = -src` (`F64`)
    Neg {
        /// Destination.
        dst: Reg,
        /// Source.
        src: Reg,
    },
    /// `dst = sqrt(src)` (`F64`)
    Sqrt {
        /// Destination.
        dst: Reg,
        /// Source.
        src: Reg,
    },
    /// `dst = abs(src)` (`F64`)
    Abs {
        /// Destination.
        dst: Reg,
        /// Source.
        src: Reg,
    },
    /// `dst = src as f64` (`I64` → `F64`)
    IntToReal {
        /// Destination (`F64`).
        dst: Reg,
        /// Source (`I64`).
        src: Reg,
    },
    /// `dst = src.floor() as i64` (`F64` → `I64`, saturating): the
    /// `int()`/`floor()` cast and the store of a real into an `int`.
    RealToInt {
        /// Destination (`I64`).
        dst: Reg,
        /// Source (`F64`).
        src: Reg,
    },
    /// Unconditional jump to an instruction index.
    Jump {
        /// Target pc.
        target: usize,
    },
    /// Jump when the `I64` register is 0.
    JumpIfZero {
        /// Condition register.
        cond: Reg,
        /// Target pc.
        target: usize,
    },
    /// `dst = <current global row index>` (the Chapel loop variable's
    /// value, 1-based by the loop's lower bound; `I64`).
    LoadRow {
        /// Destination.
        dst: Reg,
    },
    /// **generated**: full `computeIndex` per access. `idx[0]` is the
    /// *local row register* implicitly (level 0); deeper indices come
    /// from registers (already 0-based). Indices `I64`, `dst` `F64`.
    LoadData {
        /// Destination.
        dst: Reg,
        /// Path-table entry.
        path: PathId,
        /// One 0-based index register per level.
        idx: Vec<Reg>,
    },
    /// **opt-1**: compute the flat base address of the innermost run:
    /// `dst = computeIndex(path, outer..., 0)` (all `I64`).
    DataBase {
        /// Destination (holds a flat slot address).
        dst: Reg,
        /// Path-table entry.
        path: PathId,
        /// 0-based index registers of all levels but the innermost.
        outer: Vec<Reg>,
    },
    /// **opt-1**: `dst = buffer[base + k * stride]` (`base`, `k` `I64`).
    LoadDataAt {
        /// Destination.
        dst: Reg,
        /// Register holding the base address.
        base: Reg,
        /// Register holding the innermost (0-based) index.
        k: Reg,
        /// Stride in slots.
        stride: usize,
    },
    /// **generated/opt-1**: walk a nested state value (tag dispatch per
    /// step — the "accesses to complex Chapel structures" cost).
    LoadStateNested {
        /// Destination.
        dst: Reg,
        /// Which state variable.
        state: StateId,
        /// Navigation steps from the root.
        steps: Vec<NavStep>,
    },
    /// **opt-2**: state is linearized; full `computeIndex` per access.
    LoadStateFlat {
        /// Destination.
        dst: Reg,
        /// Which state variable.
        state: StateId,
        /// Path within the state variable.
        path: PathId,
        /// 0-based index registers, one per level.
        idx: Vec<Reg>,
    },
    /// **opt-2 + strength reduction**: base address into a state buffer.
    StateBase {
        /// Destination (flat address).
        dst: Reg,
        /// State variable.
        state: StateId,
        /// Path within the state variable.
        path: PathId,
        /// Outer 0-based index registers.
        outer: Vec<Reg>,
    },
    /// **opt-2 + strength reduction**: `dst = state[base + k*stride]`.
    LoadStateAt {
        /// Destination.
        dst: Reg,
        /// State variable.
        state: StateId,
        /// Base-address register.
        base: Reg,
        /// Innermost index register (0-based).
        k: Reg,
        /// Stride in slots.
        stride: usize,
    },
    /// Compute a reduction-object cell index: `dst = computeIndex(path,
    /// idx...)` over the *output* variable's layout (all `I64`).
    OutIndex {
        /// Destination (cell index).
        dst: Reg,
        /// Path within the output variable.
        path: PathId,
        /// 0-based index registers, one per level (empty for scalars).
        idx: Vec<Reg>,
    },
    /// Loop back-edge: `if var < hi { var += 1; goto target }` (both
    /// `I64`) — the loop bookkeeping a C compiler folds into one
    /// compare-and-branch. The counter never steps past `hi`, so it
    /// cannot overflow.
    IncRangeJump {
        /// Loop variable register.
        var: Reg,
        /// Register holding the (inclusive) upper bound.
        hi: Reg,
        /// Body start pc.
        target: usize,
    },
    /// `dst += a * b` — multiply-accumulate, unfused (`F64`).
    Fma {
        /// Accumulator register.
        dst: Reg,
        /// Left factor.
        a: Reg,
        /// Right factor.
        b: Reg,
    },
    /// `accumulate(group, cell, val)` — the FREERIDE update (`cell`
    /// `I64`, `val` `F64`).
    Accumulate {
        /// Reduction-object group (one per output variable).
        group: GroupId,
        /// Register holding the cell index.
        cell: Reg,
        /// Register holding the value.
        val: Reg,
    },
    /// End of the per-element kernel.
    Halt,
}

/// A compiled kernel: code plus its tables.
#[derive(Debug, Clone, Default)]
pub struct Kernel {
    /// The instruction stream: `code[..entry]` is the constant preamble
    /// (executed once per split), `code[entry..]` the per-element body.
    pub code: Vec<Instr>,
    /// First pc of the per-element body.
    pub entry: usize,
    /// The register file: one class per register. Registers
    /// [`REG_LOCAL_ROW`] and [`REG_CHAPEL_ROW`] are `I64`.
    pub regs: Vec<RegClass>,
    /// Resolved access paths (dataset paths use the *zipped* dataset
    /// unit at level 0; state/out paths are variable-local).
    pub paths: Vec<PathMeta>,
    /// Human-readable names of state variables (diagnostics).
    pub state_names: Vec<String>,
    /// Human-readable names of output variables/groups (diagnostics).
    pub out_names: Vec<String>,
}

/// A structural-validation failure of a [`Kernel`], naming the
/// offending instruction when the failure is instruction-local.
///
/// Both the interpreter ([`crate::KernelRuntime`], whose dispatch loop
/// performs unchecked register reads) and the codegen backend (which
/// declares each register with its class) require a kernel to have
/// passed [`Kernel::validate`] first; this error is their shared
/// precondition report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelValidateError {
    /// Offending instruction index, when instruction-local (`None` for
    /// whole-kernel failures like a missing terminal `Halt`).
    pub pc: Option<usize>,
    /// What was malformed.
    pub reason: String,
}

impl std::fmt::Display for KernelValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.pc {
            Some(pc) => write!(f, "at pc {pc}: {}", self.reason),
            None => f.write_str(&self.reason),
        }
    }
}

impl std::error::Error for KernelValidateError {}

impl Kernel {
    /// Validate structural invariants: every register operand addresses
    /// the register file and has the class its instruction requires,
    /// every path id addresses the path table, every jump target lands
    /// inside the code. The VM relies on this to use unchecked register
    /// access in its dispatch loop.
    pub fn validate(&self, states: usize, groups: usize) -> Result<(), KernelValidateError> {
        use RegClass::{F64, I64};
        // Each checker reports the *first* bad operand by name, so the
        // Display names the actual violated constraint instead of
        // listing every possible one.
        let reg = |r: &Reg, want: RegClass| match self.regs.get(*r as usize) {
            None => Some(format!(
                "register r{r} outside the register file (size {})",
                self.regs.len()
            )),
            Some(&got) if got != want => {
                Some(format!("register r{r} is {got:?}, used as {want:?}"))
            }
            Some(_) => None,
        };
        let ints = |rs: &[Reg]| rs.iter().find_map(|r| reg(r, I64));
        let path = |p: &PathId| {
            ((*p as usize) >= self.paths.len()).then(|| {
                format!(
                    "path #{p} outside the path table (size {})",
                    self.paths.len()
                )
            })
        };
        let state_ck = |s: &StateId| {
            ((*s as usize) >= states).then(|| format!("state #{s} outside {states} state slots"))
        };
        let target_ck = |t: &usize| {
            (*t >= self.code.len()).then(|| {
                format!(
                    "jump target {t} outside the code (length {})",
                    self.code.len()
                )
            })
        };
        let sig = |dst: &Reg, dc: RegClass, srcs: &[(&Reg, RegClass)]| {
            reg(dst, dc).or_else(|| srcs.iter().find_map(|(r, c)| reg(r, *c)))
        };
        for (pc, ins) in self.code.iter().enumerate() {
            let fail: Option<String> = match ins {
                Instr::Const { dst, .. } => reg(dst, F64),
                Instr::IConst { dst, .. } | Instr::LoadRow { dst } => reg(dst, I64),
                Instr::Mov { dst, src }
                | Instr::Neg { dst, src }
                | Instr::Sqrt { dst, src }
                | Instr::Abs { dst, src } => sig(dst, F64, &[(src, F64)]),
                Instr::IMov { dst, src } | Instr::Not { dst, src } => sig(dst, I64, &[(src, I64)]),
                Instr::IntToReal { dst, src } => sig(dst, F64, &[(src, I64)]),
                Instr::RealToInt { dst, src } => sig(dst, I64, &[(src, F64)]),
                Instr::Bin { dst, a, b, .. } | Instr::Fma { dst, a, b } => {
                    sig(dst, F64, &[(a, F64), (b, F64)])
                }
                Instr::IBin { op, dst, a, b } => (*op == ArithOp::Pow)
                    .then(|| "Pow has no I64 form".to_string())
                    .or_else(|| sig(dst, I64, &[(a, I64), (b, I64)])),
                Instr::Cmp { dst, a, b, .. } => sig(dst, I64, &[(a, F64), (b, F64)]),
                Instr::ICmp { dst, a, b, .. } => sig(dst, I64, &[(a, I64), (b, I64)]),
                Instr::Jump { target } => target_ck(target),
                Instr::JumpIfZero { cond, target } => reg(cond, I64).or_else(|| target_ck(target)),
                Instr::IncRangeJump { var, hi, target } => reg(var, I64)
                    .or_else(|| reg(hi, I64))
                    .or_else(|| target_ck(target)),
                Instr::LoadData { dst, path: p, idx } => {
                    reg(dst, F64).or_else(|| path(p)).or_else(|| ints(idx))
                }
                Instr::DataBase {
                    dst,
                    path: p,
                    outer,
                } => reg(dst, I64).or_else(|| path(p)).or_else(|| ints(outer)),
                Instr::LoadDataAt { dst, base, k, .. } => sig(dst, F64, &[(base, I64), (k, I64)]),
                Instr::LoadStateNested { dst, state, steps } => {
                    reg(dst, F64).or_else(|| state_ck(state)).or_else(|| {
                        steps.iter().find_map(|s| match s {
                            NavStep::Index(r) => reg(r, I64),
                            NavStep::Field(_) => None,
                        })
                    })
                }
                Instr::LoadStateFlat {
                    dst,
                    state,
                    path: p,
                    idx,
                } => reg(dst, F64)
                    .or_else(|| state_ck(state))
                    .or_else(|| path(p))
                    .or_else(|| ints(idx)),
                Instr::StateBase {
                    dst,
                    state,
                    path: p,
                    outer,
                } => reg(dst, I64)
                    .or_else(|| state_ck(state))
                    .or_else(|| path(p))
                    .or_else(|| ints(outer)),
                Instr::LoadStateAt {
                    dst,
                    state,
                    base,
                    k,
                    ..
                } => state_ck(state).or_else(|| sig(dst, F64, &[(base, I64), (k, I64)])),
                Instr::OutIndex { dst, path: p, idx } => {
                    reg(dst, I64).or_else(|| path(p)).or_else(|| ints(idx))
                }
                Instr::Accumulate { group, cell, val } => ((*group as usize) >= groups)
                    .then(|| format!("group #{group} outside {groups} reduction groups"))
                    .or_else(|| reg(cell, I64))
                    .or_else(|| reg(val, F64)),
                Instr::Halt => None,
            };
            if let Some(what) = fail {
                return Err(KernelValidateError {
                    pc: Some(pc),
                    reason: format!("{what} in {ins:?}"),
                });
            }
        }
        let whole = |reason: String| Err(KernelValidateError { pc: None, reason });
        if let Some(r) = [REG_LOCAL_ROW, REG_CHAPEL_ROW]
            .into_iter()
            .find(|&r| self.regs.get(r as usize).is_some_and(|&c| c != I64))
        {
            return whole(format!("row register r{r} must be I64"));
        }
        if self.entry > self.code.len() {
            return whole(format!(
                "entry {} beyond code length {}",
                self.entry,
                self.code.len()
            ));
        }
        match self.code.last() {
            Some(Instr::Halt) => Ok(()),
            _ => whole("kernel does not end in Halt".into()),
        }
    }

    /// Number of registers of each class: `(int, real)`.
    pub fn class_counts(&self) -> (usize, usize) {
        let ints = self.regs.iter().filter(|&&c| c == RegClass::I64).count();
        (ints, self.regs.len() - ints)
    }

    /// Render the kernel as pseudo-assembly (diagnostics and golden
    /// tests of the code generator).
    pub fn disassemble(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (pc, ins) in self.code.iter().enumerate() {
            let _ = writeln!(out, "{pc:4}: {ins:?}");
        }
        out
    }

    /// Count instructions of a particular shape (used by tests to prove
    /// opt-1 really removed per-access `computeIndex` calls).
    pub fn count_matching(&self, f: impl Fn(&Instr) -> bool) -> usize {
        self.code.iter().filter(|i| f(i)).count()
    }
}
