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
//! [`Kernel::validate`] is [`CodegenError::Unsupported`], and the job
//! runs on the interpreter instead. A valid kernel always prints.
//!
//! Bit-identity with the interpreter is by construction:
//!
//! * every instruction lowers to the *same operation* the interpreter
//!   performs — no reassociation, `Fma` stays an unfused
//!   `dst += a * b`, `I64` arithmetic wraps and divides through the
//!   same zero-divisor panic;
//! * float immediates are emitted as `f64::from_bits(0x…)`, an exact
//!   round-trip;
//! * `computeIndex` is baked in from the kernel's [`PathMeta`] table
//!   with the interpreter's exact formula, `I64` index registers cast
//!   `as usize` exactly as the interpreter casts them;
//! * data and flat-state loads are *checked* slice indexes, so a
//!   malformed offset panics just as the interpreter would;
//! * nested-state walks and reduction-object updates call back into the
//!   host (so the generated/opt-1 "complex Chapel structure" cost
//!   profile — the thing opt-2 removes — is preserved even under the
//!   compiled backend).

use cfr_core::{ArithOp, CmpOp, CodegenError, Instr, Kernel, NavStep, RegClass};
use linearize::PathMeta;
use std::fmt::Write as _;

/// One `LoadStateNested` call site in the emitted code: the compiled
/// function passes the site id and the index-register values back to
/// the host, which performs the nested walk (`state` and `steps` are
/// host-side data the cdylib never sees).
#[derive(Debug, Clone, PartialEq)]
pub struct NestedSite {
    /// Which nested state value to walk.
    pub state: usize,
    /// The navigation steps from its root.
    pub steps: Vec<NavStep>,
}

/// The result of lowering one kernel.
pub struct EmittedKernel {
    /// Complete Rust source of the cdylib.
    pub source: String,
    /// Host-side table for the `nested_load` callback, indexed by the
    /// site id the emitted code passes.
    pub sites: Vec<NestedSite>,
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
    out: String,
    sites: Vec<NestedSite>,
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
                    ArithOp::Div => format!("{d} = {x} / nonzero({y});"),
                    ArithOp::Mod => format!("{d} = {x} % nonzero({y});"),
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
                format!("{} = data[{e}];", reg(*dst))
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
                "{} = data[({} as usize) + ({} as usize) * {stride}usize];",
                reg(*dst),
                reg(*base),
                reg(*k)
            ),

            // ---- State accesses. ----
            Instr::LoadStateNested { dst, state, steps } => {
                let site = self.sites.len();
                self.sites.push(NestedSite {
                    state: *state as usize,
                    steps: steps.clone(),
                });
                let idx_regs: Vec<String> = steps
                    .iter()
                    .filter_map(|s| match s {
                        NavStep::Index(r) => Some(reg(*r)),
                        NavStep::Field(_) => None,
                    })
                    .collect();
                format!(
                    "{{ let __i: [i64; {n}] = [{list}]; {d} = nested_load(ctx, {site}usize, __i.as_ptr(), {n}usize); }}",
                    n = idx_regs.len(),
                    list = idx_regs.join(", "),
                    d = reg(*dst)
                )
            }
            Instr::LoadStateFlat {
                dst,
                state,
                path: p,
                idx,
            } => {
                let e = index_expr(path(*p), &reg_idx(idx));
                format!("{} = s{state}[{e}];", reg(*dst))
            }
            Instr::LoadStateAt {
                dst,
                state,
                base,
                k,
                stride,
            } => format!(
                "{} = s{state}[({} as usize) + ({} as usize) * {stride}usize];",
                reg(*dst),
                reg(*base),
                reg(*k)
            ),
            Instr::OutIndex { dst, path: p, idx } => {
                let e = index_expr(path(*p), &reg_idx(idx));
                format!("{} = ({e}) as i64;", reg(*dst))
            }
            Instr::Accumulate { group, cell, val } => format!(
                "accumulate(ctx, {group}usize, {} as usize, {});",
                reg(*cell),
                reg(*val)
            ),
        };
        self.line(depth, &line);
    }
}

/// Lower `kernel` to Rust source plus its nested-site table.
///
/// A kernel that fails [`Kernel::validate`] is
/// [`CodegenError::Unsupported`] naming the failure; the caller falls
/// back to the interpreter.
pub fn emit_kernel(kernel: &Kernel) -> Result<EmittedKernel, CodegenError> {
    kernel
        .validate(kernel.state_names.len(), kernel.out_names.len())
        .map_err(|e| CodegenError::Unsupported(format!("invalid kernel: {e}")))?;
    let mut em = Emitter {
        kernel,
        out: String::new(),
        sites: Vec::new(),
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
    let mut states = String::new();
    for s in 0..kernel.state_names.len() {
        let _ = writeln!(
            states,
            "    let s{s}: &[f64] = if {s}usize < n_flat {{ \
             core::slice::from_raw_parts((*flat.add({s})).ptr, (*flat.add({s})).len) }} \
             else {{ &[] }};"
        );
    }

    let source = format!(
        r#"//! Generated by cfr-codegen from kernel bytecode — do not edit.
#![allow(unused_variables, unused_mut, unused_assignments, unused_parens, dead_code)]

/// A borrowed flat-state buffer (opt-2 linearized state), ABI-stable.
#[repr(C)]
pub struct FlatView {{
    pub ptr: *const f64,
    pub len: usize,
}}

/// A zero integer divisor panics (never undefined behaviour), like an
/// out-of-bounds load; `/` and `%` themselves panic on `i64::MIN / -1`.
#[inline(always)]
fn nonzero(y: i64) -> i64 {{
    if y == 0 {{
        panic!("kernel: integer division by zero");
    }}
    y
}}

/// cfr kernel ABI v2: process one split. `ctx` is an opaque host
/// pointer threaded back through the `accumulate` (reduction-object
/// update) and `nested_load` (nested Chapel-state walk, integer
/// indices) callbacks.
#[no_mangle]
pub unsafe extern "C-unwind" fn {KERNEL_SYMBOL}(
    rows: *const f64,
    rows_len: usize,
    row_count: usize,
    first_row: usize,
    row_lo: i64,
    flat: *const FlatView,
    n_flat: usize,
    ctx: *mut u8,
    accumulate: extern "C-unwind" fn(*mut u8, usize, usize, f64),
    nested_load: extern "C-unwind" fn(*mut u8, usize, *const i64, usize) -> f64,
) {{
    let data: &[f64] = core::slice::from_raw_parts(rows, rows_len);
{states}{decls}{preamble}    for __local in 0..row_count {{
        r0 = __local as i64;
        r1 = row_lo + (first_row + __local) as i64;
{body}    }}
}}
"#
    );

    Ok(EmittedKernel {
        source,
        sites: em.sites,
    })
}
