//! The kernel IR — the "generated C code" of the reproduction.
//!
//! The paper's modified Chapel compiler emits C code that FREERIDE calls
//! through function pointers. We emit a small register IR instead: a
//! loop nest that keeps the Chapel control structure ([`Instr::For`],
//! [`Instr::If`], [`Instr::While`] carry their blocks; there are no
//! jumps), over straight-line register instructions. The three
//! code-generation strategies differ only in which *access
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

use freeride::CombineOp;
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
    /// `for var in lo..=hi { body }` (all `I64`). The bounds are read
    /// once; `var` takes each value at the start of an iteration, and a
    /// body write to `var` lasts only until the end of that iteration
    /// (a fresh binding per iteration, as in the interpreter).
    For {
        /// Loop variable register.
        var: Reg,
        /// Register holding the (inclusive) lower bound.
        lo: Reg,
        /// Register holding the (inclusive) upper bound.
        hi: Reg,
        /// The loop body.
        body: Vec<Instr>,
    },
    /// `if cond != 0 { then } else { els }` (`cond` `I64`).
    If {
        /// Condition register.
        cond: Reg,
        /// Taken when `cond` is nonzero.
        then: Vec<Instr>,
        /// Taken when `cond` is 0.
        els: Vec<Instr>,
    },
    /// `loop { head; if cond == 0 { break } body }` (`cond` `I64`).
    While {
        /// Computes the condition, once per trip and once more on exit.
        head: Vec<Instr>,
        /// Condition register, written by `head`.
        cond: Reg,
        /// The loop body.
        body: Vec<Instr>,
    },
}

impl Instr {
    /// The nested blocks of a block-carrying instruction, in execution
    /// order (`For`: body; `If`: then, else; `While`: head, body); empty
    /// for every other instruction.
    pub fn blocks(&self) -> [&[Instr]; 2] {
        match self {
            Instr::For { body, .. } => [body, &[]],
            Instr::If { then, els, .. } => [then, els],
            Instr::While { head, body, .. } => [head, body],
            _ => [&[], &[]],
        }
    }
}

/// Every instruction of `code`, nested blocks included, in pre-order
/// (a block-carrying instruction before its blocks) with its nesting
/// depth. The position in this list is an instruction's *pc*.
fn preorder<'k>(code: &'k [Instr], depth: usize, out: &mut Vec<(usize, &'k Instr)>) {
    for ins in code {
        out.push((depth, ins));
        for block in ins.blocks() {
            preorder(block, depth + 1, out);
        }
    }
}

/// A compiled kernel: code plus its tables.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// The top-level block: `code[..entry]` is the constant preamble
    /// (executed once per split), `code[entry..]` the per-element body,
    /// whose loops and branches nest their own blocks.
    pub code: Vec<Instr>,
    /// First top-level index of the per-element body.
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
    /// The combine op of every output group: what `Accumulate` folds
    /// with (`Sum` for loops and user-defined reductions, the reduce's
    /// own op for a built-in reduce expression).
    pub combine: CombineOp,
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
    /// Offending instruction's pc (its pre-order position, nested
    /// blocks included), when instruction-local (`None` for whole-kernel
    /// failures like an entry past the end).
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
    /// Validate structural invariants: the preamble holds only
    /// constants, every register operand addresses the register file
    /// and has the class its instruction requires, every path id
    /// addresses the path table with one index per path level, in every
    /// nested block. The VM relies on this to use unchecked register
    /// access, and the code generator to print the tree without checks.
    pub fn validate(&self, states: usize, groups: usize) -> Result<(), KernelValidateError> {
        use RegClass::{F64, I64};
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
        // Every instruction before the first non-constant is a leaf, so
        // its top-level position is its pc.
        if let Some(pc) = self.code[..self.entry]
            .iter()
            .position(|ins| !matches!(ins, Instr::Const { .. } | Instr::IConst { .. }))
        {
            return Err(KernelValidateError {
                pc: Some(pc),
                reason: format!("non-constant {:?} in the preamble", self.code[pc]),
            });
        }
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
        // A path id inside the table, indexed by `n` registers, one per
        // level (`Base` instructions add the implicit innermost 0).
        let path = |p: &PathId, n: usize| match self.paths.get(*p as usize) {
            None => Some(format!(
                "path #{p} outside the path table (size {})",
                self.paths.len()
            )),
            Some(m) if n != m.levels || n == 0 => {
                Some(format!("{n} indices for path #{p} of {} levels", m.levels))
            }
            Some(_) => None,
        };
        let state_ck = |s: &StateId| {
            ((*s as usize) >= states).then(|| format!("state #{s} outside {states} state slots"))
        };
        let sig = |dst: &Reg, dc: RegClass, srcs: &[(&Reg, RegClass)]| {
            reg(dst, dc).or_else(|| srcs.iter().find_map(|(r, c)| reg(r, *c)))
        };
        let mut all = Vec::new();
        preorder(&self.code, 0, &mut all);
        for (pc, (_, ins)) in all.into_iter().enumerate() {
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
                Instr::For { var, lo, hi, .. } => ints(&[*var, *lo, *hi]),
                Instr::If { cond, .. } | Instr::While { cond, .. } => reg(cond, I64),
                Instr::LoadData { dst, path: p, idx } => reg(dst, F64)
                    .or_else(|| path(p, idx.len()))
                    .or_else(|| ints(idx)),
                Instr::DataBase {
                    dst,
                    path: p,
                    outer,
                } => reg(dst, I64)
                    .or_else(|| path(p, outer.len() + 1))
                    .or_else(|| ints(outer)),
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
                    .or_else(|| path(p, idx.len()))
                    .or_else(|| ints(idx)),
                Instr::StateBase {
                    dst,
                    state,
                    path: p,
                    outer,
                } => reg(dst, I64)
                    .or_else(|| state_ck(state))
                    .or_else(|| path(p, outer.len() + 1))
                    .or_else(|| ints(outer)),
                Instr::LoadStateAt {
                    dst,
                    state,
                    base,
                    k,
                    ..
                } => state_ck(state).or_else(|| sig(dst, F64, &[(base, I64), (k, I64)])),
                Instr::OutIndex { dst, path: p, idx } => reg(dst, I64)
                    .or_else(|| path(p, idx.len()))
                    .or_else(|| ints(idx)),
                Instr::Accumulate { group, cell, val } => ((*group as usize) >= groups)
                    .then(|| format!("group #{group} outside {groups} reduction groups"))
                    .or_else(|| reg(cell, I64))
                    .or_else(|| reg(val, F64)),
            };
            if let Some(what) = fail {
                return Err(KernelValidateError {
                    pc: Some(pc),
                    reason: format!("{what} in {}", headline(ins)),
                });
            }
        }
        Ok(())
    }

    /// Number of registers of each class: `(int, real)`.
    pub fn class_counts(&self) -> (usize, usize) {
        let ints = self.regs.iter().filter(|&&c| c == RegClass::I64).count();
        (ints, self.regs.len() - ints)
    }

    /// Render the kernel as pseudo-assembly, one instruction per line
    /// numbered by pc and indented by nesting (diagnostics and golden
    /// tests of the code generator).
    pub fn disassemble(&self) -> String {
        use std::fmt::Write;
        let mut all = Vec::new();
        preorder(&self.code, 0, &mut all);
        let mut out = String::new();
        for (pc, (depth, ins)) in all.into_iter().enumerate() {
            let _ = writeln!(out, "{pc:4}: {:w$}{}", "", headline(ins), w = 2 * depth);
        }
        out
    }

    /// Count instructions of a particular shape, nested blocks included
    /// (used by tests to prove opt-1 really removed per-access
    /// `computeIndex` calls).
    pub fn count_matching(&self, f: impl Fn(&Instr) -> bool) -> usize {
        let mut all = Vec::new();
        preorder(&self.code, 0, &mut all);
        all.into_iter().filter(|(_, ins)| f(ins)).count()
    }
}

/// One line for `ins`: its `Debug` form, with a block-carrying
/// instruction's blocks summarised by their lengths.
fn headline(ins: &Instr) -> String {
    match ins {
        Instr::For { var, lo, hi, body } => {
            format!("For r{var} in r{lo}..=r{hi} ({} body)", body.len())
        }
        Instr::If { cond, then, els } => {
            format!("If r{cond} ({} then, {} else)", then.len(), els.len())
        }
        Instr::While { head, cond, body } => {
            format!("While r{cond} ({} head, {} body)", head.len(), body.len())
        }
        other => format!("{other:?}"),
    }
}
