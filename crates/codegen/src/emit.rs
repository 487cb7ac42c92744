//! Printing the kernel IR as Rust source.
//!
//! The emitted translation unit contains one exported function,
//! `cfr_kernel_split`, that processes a whole FREERIDE split: the
//! constant preamble runs once, then a row loop executes the
//! per-element body. The IR is already a loop nest, so the emitter
//! prints it node for node as **structured Rust**, and `rustc` sees
//! code close to the Chapel source (Treebeard's "thin layer"):
//!
//! * every register is a local of its class (`I64` → `i64`, `F64` →
//!   `f64`);
//! * `For` becomes `for __iN in rLo..=rHi { rV = __iN; … }` (a body
//!   write to `rV` lasts one iteration, exactly the `For` semantics);
//! * `If` becomes `if`/`else`, and `While` becomes
//!   `loop { head; if rC == 0 { break; } body }`.
//!
//! [`emit_kernel`] validates the kernel first; a kernel that fails
//! [`Kernel::validate`] or walks nested state (generated/opt-1) is
//! [`CodegenError::Unsupported`], and the job runs on the interpreter
//! instead. Any other valid kernel prints.
//!
//! Bit-identity with the interpreter is by construction:
//!
//! * every instruction lowers to the *same operation* the interpreter
//!   performs — no reassociation, `Fma` stays an unfused
//!   `dst += a * b`, `I64` arithmetic wraps, and a zero divisor or
//!   `i64::MIN / -1` ends the split with the failure the interpreter
//!   panics with;
//! * float immediates are emitted as `f64::from_bits(0x…)`, an exact
//!   round-trip;
//! * `computeIndex` is baked in from the kernel's [`PathMeta`] table
//!   with the interpreter's exact formula, `I64` index registers cast
//!   `as usize` exactly as the interpreter casts them;
//! * a data or flat-state load is unchecked only where [`crate::range`]
//!   proves it in bounds; every other load is checked and fails the
//!   split where the interpreter's load panics;
//! * an update folds with the kernel's combine op, the operation
//!   `CombineOp::apply` performs.
//!
//! The body is printed once, generic over its update, and
//! instantiated for both update paths of the ABI (see [`crate::abi`]).

use cfr_core::{ArithOp, CmpOp, CodegenError, Instr, Kernel, RegClass};
use freeride::CombineOp;
use linearize::PathMeta;
use std::fmt::Write as _;

use crate::range::{prove, RangeProof};

/// The result of lowering one kernel.
pub struct EmittedKernel {
    /// Complete Rust source of the cdylib.
    pub source: String,
    /// Slots each flat-state buffer must hold: the bound the proven
    /// state loads assume, checked once when the kernel is bound.
    pub state_len: Vec<usize>,
    /// Slice loads printed unchecked (proven in range).
    pub loads_proven: usize,
    /// Slice loads that keep their bounds check.
    pub loads_checked: usize,
}

/// The exported symbol every emitted cdylib defines.
pub const KERNEL_SYMBOL: &str = "cfr_kernel_split";

fn reg(r: u16) -> String {
    format!("r{r}")
}

/// The interpreter's `compute_index_call` formula, constant-folded
/// against one `PathMeta` (validation guarantees one index per level):
/// `Σ_{i<levels-1} (unit_size[i]*idx[i] + level_offset[i])
///  + unit_size[last]*idx[last] + terminal_offset`.
fn index_expr(meta: &PathMeta, idx: &[String]) -> String {
    let mut terms: Vec<String> = Vec::new();
    for (i, idx_i) in idx.iter().enumerate() {
        terms.push(format!("{}usize * {}", meta.unit_size[i], idx_i));
        if i + 1 < meta.levels {
            terms.push(format!("{}usize", meta.level_offset[i]));
        } else {
            terms.push(format!("{}usize", meta.terminal_offset));
        }
    }
    terms.join(" + ")
}

/// `base + k * stride`, each register cast `as usize`.
fn strided(base: u16, k: u16, stride: usize) -> String {
    format!("(r{base} as usize) + (r{k} as usize) * {stride}usize")
}

fn reg_idx(regs: &[u16]) -> Vec<String> {
    regs.iter().map(|r| format!("(r{r} as usize)")).collect()
}

fn int_literal(v: i64) -> String {
    if v == i64::MIN {
        "i64::MIN".to_string()
    } else {
        format!("({v}i64)")
    }
}

/// The tree printer.
struct Emitter<'k> {
    kernel: &'k Kernel,
    proof: &'k RangeProof,
    out: String,
    /// `For` loops printed so far (names their `__iN` counters).
    loops: usize,
}

impl Emitter<'_> {
    fn line(&mut self, depth: usize, text: &str) {
        let _ = writeln!(self.out, "{:width$}{text}", "", width = 4 * depth);
    }

    /// Print a block, one instruction (or nested construct) at a time.
    fn block(&mut self, code: &[Instr], depth: usize) {
        for ins in code {
            self.instr(ins, depth);
        }
    }

    fn instr(&mut self, ins: &Instr, depth: usize) {
        let kernel = self.kernel;
        let path = |p: u16| &kernel.paths[p as usize];
        // A proven load reads unchecked (see `crate::range`).
        let load = |slice: &str, e: String| match self.proof.is_proven(ins) {
            true => format!("at({slice}, {e})"),
            false => format!("ld({slice}, {e})?"),
        };
        let line = match ins {
            Instr::For { var, lo, hi, body } => {
                let n = self.loops;
                self.loops += 1;
                self.line(depth, &format!("for __i{n} in r{lo}..=r{hi} {{"));
                self.line(depth + 1, &format!("r{var} = __i{n};"));
                self.block(body, depth + 1);
                self.line(depth, "}");
                return;
            }
            Instr::If { cond, then, els } => {
                self.line(depth, &format!("if r{cond} != 0 {{"));
                self.block(then, depth + 1);
                if !els.is_empty() {
                    self.line(depth, "} else {");
                    self.block(els, depth + 1);
                }
                self.line(depth, "}");
                return;
            }
            Instr::While { head, cond, body } => {
                self.line(depth, "loop {");
                self.block(head, depth + 1);
                self.line(depth + 1, &format!("if r{cond} == 0 {{ break; }}"));
                self.block(body, depth + 1);
                self.line(depth, "}");
                return;
            }
            Instr::Const { dst, val } => format!(
                "{} = f64::from_bits(0x{:016x}u64);",
                reg(*dst),
                val.to_bits()
            ),
            Instr::IConst { dst, val } => format!("{} = {};", reg(*dst), int_literal(*val)),
            Instr::Mov { dst, src } | Instr::IMov { dst, src } => {
                format!("{} = {};", reg(*dst), reg(*src))
            }
            Instr::Bin { op, dst, a, b } => {
                let (x, y, d) = (reg(*a), reg(*b), reg(*dst));
                match op {
                    ArithOp::Add => format!("{d} = {x} + {y};"),
                    ArithOp::Sub => format!("{d} = {x} - {y};"),
                    ArithOp::Mul => format!("{d} = {x} * {y};"),
                    ArithOp::Div => format!("{d} = {x} / {y};"),
                    ArithOp::Mod => format!("{d} = {x} % {y};"),
                    ArithOp::Pow => format!("{d} = {x}.powf({y});"),
                    ArithOp::Min => format!("{d} = {x}.min({y});"),
                    ArithOp::Max => format!("{d} = {x}.max({y});"),
                }
            }
            Instr::IBin { op, dst, a, b } => {
                let (x, y, d) = (reg(*a), reg(*b), reg(*dst));
                match op {
                    ArithOp::Add => format!("{d} = {x}.wrapping_add({y});"),
                    ArithOp::Sub => format!("{d} = {x}.wrapping_sub({y});"),
                    ArithOp::Mul => format!("{d} = {x}.wrapping_mul({y});"),
                    ArithOp::Div => format!("{d} = div({x}, {y})?;"),
                    ArithOp::Mod => format!("{d} = rem({x}, {y})?;"),
                    ArithOp::Min => format!("{d} = {x}.min({y});"),
                    ArithOp::Max => format!("{d} = {x}.max({y});"),
                    ArithOp::Pow => unreachable!("validated: no I64 Pow"),
                }
            }
            Instr::Cmp { op, dst, a, b } | Instr::ICmp { op, dst, a, b } => {
                let sym = match op {
                    CmpOp::Eq => "==",
                    CmpOp::Ne => "!=",
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                };
                format!("{} = ({} {sym} {}) as i64;", reg(*dst), reg(*a), reg(*b))
            }
            Instr::Not { dst, src } => format!("{} = ({} == 0) as i64;", reg(*dst), reg(*src)),
            Instr::Neg { dst, src } => format!("{} = -{};", reg(*dst), reg(*src)),
            Instr::Sqrt { dst, src } => format!("{} = {}.sqrt();", reg(*dst), reg(*src)),
            Instr::Abs { dst, src } => format!("{} = {}.abs();", reg(*dst), reg(*src)),
            Instr::IntToReal { dst, src } => format!("{} = {} as f64;", reg(*dst), reg(*src)),
            Instr::RealToInt { dst, src } => {
                format!("{} = {}.floor() as i64;", reg(*dst), reg(*src))
            }
            Instr::LoadRow { dst } => format!("{} = r1;", reg(*dst)),
            Instr::Fma { dst, a, b } => format!("{} += {} * {};", reg(*dst), reg(*a), reg(*b)),

            // ---- Data accesses (computeIndex baked in). ----
            Instr::LoadData { dst, path: p, idx } => {
                let e = index_expr(path(*p), &reg_idx(idx));
                format!("{} = {};", reg(*dst), load("data", e))
            }
            Instr::DataBase {
                dst,
                path: p,
                outer,
                ..
            }
            | Instr::StateBase {
                dst,
                path: p,
                outer,
                ..
            } => {
                let mut ix = reg_idx(outer);
                ix.push("0usize".to_string());
                let e = index_expr(path(*p), &ix);
                format!("{} = ({e}) as i64;", reg(*dst))
            }
            Instr::LoadDataAt {
                dst,
                base,
                k,
                stride,
            } => format!(
                "{} = {};",
                reg(*dst),
                load("data", strided(*base, *k, *stride))
            ),

            // ---- State accesses. ----
            Instr::LoadStateNested { .. } => unreachable!("emit_kernel refuses nested state"),
            Instr::LoadStateFlat {
                dst,
                state,
                path: p,
                idx,
            } => {
                let e = index_expr(path(*p), &reg_idx(idx));
                format!("{} = {};", reg(*dst), load(&format!("s{state}"), e))
            }
            Instr::LoadStateAt {
                dst,
                state,
                base,
                k,
                stride,
            } => format!(
                "{} = {};",
                reg(*dst),
                load(&format!("s{state}"), strided(*base, *k, *stride))
            ),
            Instr::OutIndex { dst, path: p, idx } => {
                let e = index_expr(path(*p), &reg_idx(idx));
                format!("{} = ({e}) as i64;", reg(*dst))
            }
            Instr::Accumulate { group, cell, val } => format!(
                "u.update({group}usize, {} as usize, {})?;",
                reg(*cell),
                reg(*val)
            ),
        };
        self.line(depth, &line);
    }
}

/// The `InPlace` op code of `op` (see `abi.rs`).
fn op_code(op: &CombineOp) -> Result<u8, CodegenError> {
    match op {
        CombineOp::Sum => Ok(0),
        CombineOp::Product => Ok(1),
        CombineOp::Min => Ok(2),
        CombineOp::Max => Ok(3),
        CombineOp::Custom(_) => Err(CodegenError::Unsupported(
            "a custom combine op cannot be compiled".to_string(),
        )),
    }
}

/// Lower `kernel` to Rust source.
///
/// A kernel that fails [`Kernel::validate`], or that walks nested state
/// ([`Instr::LoadStateNested`], generated and opt-1 only), is
/// [`CodegenError::Unsupported`] naming why; the caller falls back to
/// the interpreter.
pub fn emit_kernel(kernel: &Kernel) -> Result<EmittedKernel, CodegenError> {
    kernel
        .validate(kernel.state_names.len(), kernel.out_names.len())
        .map_err(|e| CodegenError::Unsupported(format!("invalid kernel: {e}")))?;
    if kernel.count_matching(|i| matches!(i, Instr::LoadStateNested { .. })) > 0 {
        return Err(CodegenError::Unsupported(
            "the kernel walks nested state; only flat (opt-2) state compiles".to_string(),
        ));
    }
    let op = op_code(&kernel.combine)?;
    let proof = prove(kernel);
    let mut em = Emitter {
        kernel,
        proof: &proof,
        out: String::new(),
        loops: 0,
    };
    let (preamble, body) = kernel.code.split_at(kernel.entry);
    // ---- Preamble: constants only, once per split. ----
    em.block(preamble, 1);
    let preamble = std::mem::take(&mut em.out);
    // ---- The per-row body, inside the row loop. ----
    em.block(body, 2);
    let body = em.out;

    // ---- Registers (one Rust local per register, of its class; the
    // row registers exist even when the kernel declares none) and
    // flat-state views. ----
    let mut decls = String::new();
    for r in 0..kernel.regs.len().max(2) {
        let decl = match kernel.regs.get(r).copied().unwrap_or(RegClass::I64) {
            RegClass::I64 => "i64 = 0",
            RegClass::F64 => "f64 = 0.0",
        };
        let _ = writeln!(decls, "    let mut r{r}: {decl};");
    }
    for s in 0..kernel.state_names.len() {
        let _ = writeln!(
            decls,
            "    let s{s}: &[f64] = if {s}usize < a.n_flat {{ \
             core::slice::from_raw_parts((*a.flat.add({s})).ptr, (*a.flat.add({s})).len) }} \
             else {{ &[] }};"
        );
    }
    let unit = proof.data_unit;
    let groups = kernel.out_names.len();

    let source = format!(
        r#"//! Generated by cfr-codegen from kernel bytecode — do not edit.
#![allow(unused_variables, unused_mut, unused_assignments, unused_parens, dead_code)]
{abi}
/// The kernel body, printed once for both update paths.
#[inline(always)]
unsafe fn split_body(a: &SplitArgs, mut u: impl Update) -> Result<(), Status> {{
    let data: &[f64] = core::slice::from_raw_parts(a.rows, a.rows_len);
    if a.row_count.checked_mul({unit}usize).is_none_or(|n| n > a.rows_len) {{
        return Err(Status::ShortSplit);
    }}
{decls}{preamble}    for __local in 0..a.row_count {{
        r0 = __local as i64;
        r1 = a.row_lo + (a.first_row + __local) as i64;
{body}    }}
    Ok(())
}}

/// Process one split, in place into the lent cells when the host lends
/// them, through `accumulate` otherwise.
#[no_mangle]
pub unsafe extern "C" fn {KERNEL_SYMBOL}(a: *const SplitArgs) -> Status {{
    let a = &*a;
    let run = match a.cells.is_null() {{
        true => split_body(a, Callback(a)),
        false => split_body(a, InPlace::<{groups}, {op}>::new(a)),
    }};
    run.err().unwrap_or(Status::Done)
}}
"#,
        abi = include_str!("abi.rs"),
    );

    Ok(EmittedKernel {
        source,
        state_len: proof.state_len,
        loads_proven: proof.loads_proven,
        loads_checked: proof.loads_checked,
    })
}
