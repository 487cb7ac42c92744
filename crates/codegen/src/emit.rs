//! Lowering kernel-IR bytecode to Rust source.
//!
//! The emitted translation unit contains one exported function,
//! `cfr_kernel_split`, that processes a whole FREERIDE split: the
//! constant preamble runs once, then a row loop executes the
//! per-element body. The body is rebuilt as **structured Rust**: every
//! register is a local of its class (`I64` → `i64`, `F64` → `f64`), and
//! the control-flow shapes the kernel compiler produces become nested
//! Rust loops and branches, so `rustc` sees code close to the Chapel
//! source (Treebeard's "thin layer"):
//!
//! * a range loop — `ICmp Le c, v, h` / `JumpIfZero c → end` / body /
//!   `IncRangeJump v, h → body` — becomes `for __iN in rV..=rH`, or,
//!   when the body writes `v` or `h`, a `loop` that steps `v` itself;
//! * a `while` — a header reached again by a backward `Jump` — becomes
//!   a labeled `loop`, and its exit `JumpIfZero` a `break`;
//! * `JumpIfZero` over a region, optionally ending in a forward `Jump`
//!   over a second region, becomes `if`/`else` (short-circuit `&&`/`||`
//!   compile to the same shape).
//!
//! Bytecode outside those shapes (a jump into the middle of a loop, a
//! second back-edge) is [`CodegenError::Unsupported`], and the job runs
//! on the interpreter instead.
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
/// against one `PathMeta`:
/// `Σ_{i<levels-1} (unit_size[i]*idx[i] + level_offset[i])
///  + unit_size[last]*idx[last] + terminal_offset`.
fn index_expr(meta: &PathMeta, idx: &[String]) -> Result<String, CodegenError> {
    if idx.len() != meta.levels || meta.levels == 0 {
        return Err(CodegenError::Unsupported(format!(
            "access path arity mismatch: {} index registers for {} levels",
            idx.len(),
            meta.levels
        )));
    }
    let mut terms: Vec<String> = Vec::new();
    for (i, idx_i) in idx.iter().enumerate() {
        terms.push(format!("{}usize * {}", meta.unit_size[i], idx_i));
        if i + 1 < meta.levels {
            terms.push(format!("{}usize", meta.level_offset[i]));
        } else {
            terms.push(format!("{}usize", meta.terminal_offset));
        }
    }
    Ok(terms.join(" + "))
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

/// The register an instruction writes, if any.
fn written(ins: &Instr) -> Option<u16> {
    match ins {
        Instr::Const { dst, .. }
        | Instr::IConst { dst, .. }
        | Instr::Mov { dst, .. }
        | Instr::IMov { dst, .. }
        | Instr::Bin { dst, .. }
        | Instr::IBin { dst, .. }
        | Instr::Cmp { dst, .. }
        | Instr::ICmp { dst, .. }
        | Instr::Not { dst, .. }
        | Instr::Neg { dst, .. }
        | Instr::Sqrt { dst, .. }
        | Instr::Abs { dst, .. }
        | Instr::IntToReal { dst, .. }
        | Instr::RealToInt { dst, .. }
        | Instr::LoadRow { dst }
        | Instr::LoadData { dst, .. }
        | Instr::DataBase { dst, .. }
        | Instr::LoadDataAt { dst, .. }
        | Instr::LoadStateNested { dst, .. }
        | Instr::LoadStateFlat { dst, .. }
        | Instr::StateBase { dst, .. }
        | Instr::LoadStateAt { dst, .. }
        | Instr::OutIndex { dst, .. }
        | Instr::Fma { dst, .. } => Some(*dst),
        Instr::IncRangeJump { var, .. } => Some(*var),
        Instr::Jump { .. } | Instr::JumpIfZero { .. } | Instr::Accumulate { .. } | Instr::Halt => {
            None
        }
    }
}

/// An enclosing `while` loop during emission.
struct OpenLoop {
    /// First pc of the loop (its header).
    header: usize,
    /// The pc right after its back-edge: a jump here is a `break`.
    exit: usize,
    /// Rust label `'wN`.
    label: usize,
}

/// The structured emitter: walks the body region by region.
struct Emitter<'k> {
    kernel: &'k Kernel,
    out: String,
    sites: Vec<NestedSite>,
    loops: Vec<OpenLoop>,
    labels: usize,
}

impl Emitter<'_> {
    fn line(&mut self, depth: usize, text: &str) {
        let _ = writeln!(self.out, "{:width$}{text}", "", width = 4 * depth);
    }

    /// Emit `code[lo..hi]`, a sequence of straight-line instructions and
    /// whole structured constructs.
    fn region(&mut self, lo: usize, hi: usize, depth: usize) -> Result<(), CodegenError> {
        let mut pc = lo;
        while pc < hi {
            pc = self.construct(pc, hi, depth)?;
        }
        Ok(())
    }

    /// Emit the construct starting at `pc` inside a region ending at
    /// `hi`; return the pc after it.
    fn construct(&mut self, pc: usize, hi: usize, depth: usize) -> Result<usize, CodegenError> {
        let code = &self.kernel.code;
        // A `while`: some later `Jump` in this region comes back here.
        let open_here = self.loops.last().is_some_and(|l| l.header == pc);
        if !open_here {
            if let Some(back) = (pc..hi)
                .rev()
                .find(|&b| matches!(code[b], Instr::Jump { target } if target == pc))
            {
                let label = self.labels;
                self.labels += 1;
                self.line(depth, &format!("'w{label}: loop {{"));
                self.loops.push(OpenLoop {
                    header: pc,
                    exit: back + 1,
                    label,
                });
                self.region(pc, back, depth + 1)?;
                self.loops.pop();
                self.line(depth, "}");
                return Ok(back + 1);
            }
        }
        match &code[pc] {
            Instr::ICmp {
                op: CmpOp::Le,
                dst,
                a,
                b,
            } => match self.range_loop(pc, hi, *dst, *a, *b) {
                Some(end) => {
                    self.emit_range_loop(pc, end, depth)?;
                    Ok(end)
                }
                None => {
                    self.straight(pc, depth)?;
                    Ok(pc + 1)
                }
            },
            Instr::JumpIfZero { cond, target } => {
                let (c, t) = (reg(*cond), *target);
                if pc < t && t <= hi {
                    // `if`, or `if`/`else` when the then-region ends by
                    // jumping forward over an else-region.
                    if let Some(Instr::Jump { target: join }) = code.get(t - 1) {
                        if t - 1 > pc && t <= *join && *join <= hi {
                            let join = *join;
                            self.line(depth, &format!("if {c} != 0 {{"));
                            self.region(pc + 1, t - 1, depth + 1)?;
                            self.line(depth, "} else {");
                            self.region(t, join, depth + 1)?;
                            self.line(depth, "}");
                            return Ok(join);
                        }
                    }
                    self.line(depth, &format!("if {c} != 0 {{"));
                    self.region(pc + 1, t, depth + 1)?;
                    self.line(depth, "}");
                    return Ok(t);
                }
                // A `while` exit.
                match self.loops.iter().rev().find(|l| l.exit == t) {
                    Some(l) => {
                        let label = l.label;
                        self.line(depth, &format!("if {c} == 0 {{ break 'w{label}; }}"));
                        Ok(pc + 1)
                    }
                    None => Err(CodegenError::Unsupported(format!(
                        "conditional jump at pc {pc} to {t} leaves its structured region"
                    ))),
                }
            }
            Instr::Jump { target } => Err(CodegenError::Unsupported(format!(
                "jump at pc {pc} to {target} is neither a loop back-edge nor an else branch"
            ))),
            Instr::IncRangeJump { target, .. } => Err(CodegenError::Unsupported(format!(
                "range back-edge at pc {pc} to {target} does not close a range loop"
            ))),
            _ => {
                self.straight(pc, depth)?;
                Ok(pc + 1)
            }
        }
    }

    /// Does a range loop start at `pc` (the pre-test `ICmp Le c, v, h`)?
    /// Returns the pc after its back-edge.
    fn range_loop(&self, pc: usize, hi: usize, c: u16, v: u16, h: u16) -> Option<usize> {
        let code = &self.kernel.code;
        let Some(Instr::JumpIfZero { cond, target: end }) = code.get(pc + 1) else {
            return None;
        };
        let end = *end;
        let closes = end > pc + 2
            && end <= hi
            && *cond == c
            && matches!(code[end - 1], Instr::IncRangeJump { var, hi: bound, target }
                if var == v && bound == h && target == pc + 2);
        closes.then_some(end)
    }

    fn emit_range_loop(&mut self, pc: usize, end: usize, depth: usize) -> Result<(), CodegenError> {
        let Instr::ICmp { dst, a, b, .. } = self.kernel.code[pc] else {
            unreachable!("range loops start at their pre-test");
        };
        let (c, v, h) = (reg(dst), reg(a), reg(b));
        self.line(depth, &format!("{c} = ({v} <= {h}) as i64;"));
        let body = pc + 2..end - 1;
        let steps_itself = self.kernel.code[body.clone()]
            .iter()
            .any(|ins| written(ins).is_some_and(|w| w == a || w == b));
        if steps_itself {
            // The body writes the counter or the bound: keep the
            // bytecode's explicit `if v < h { v += 1 }` back-edge.
            self.line(depth, &format!("if {c} != 0 {{"));
            self.line(depth + 1, "loop {");
            self.region(body.start, body.end, depth + 2)?;
            self.line(
                depth + 2,
                &format!("if {v} < {h} {{ {v} += 1; }} else {{ break; }}"),
            );
            self.line(depth + 1, "}");
            self.line(depth, "}");
        } else {
            let label = self.labels;
            self.labels += 1;
            self.line(depth, &format!("for __i{label} in {v}..={h} {{"));
            self.line(depth + 1, &format!("{v} = __i{label};"));
            self.region(body.start, body.end, depth + 1)?;
            self.line(depth, "}");
        }
        Ok(())
    }

    /// Emit one straight-line instruction.
    fn straight(&mut self, pc: usize, depth: usize) -> Result<(), CodegenError> {
        let kernel = self.kernel;
        let path = |p: u16| &kernel.paths[p as usize];
        let line = match &kernel.code[pc] {
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
                    ArithOp::Pow => {
                        return Err(CodegenError::Unsupported(format!("I64 Pow at pc {pc}")));
                    }
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
                let e = index_expr(path(*p), &reg_idx(idx))?;
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
                let e = index_expr(path(*p), &ix)?;
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
                let e = index_expr(path(*p), &reg_idx(idx))?;
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
                let e = index_expr(path(*p), &reg_idx(idx))?;
                format!("{} = ({e}) as i64;", reg(*dst))
            }
            Instr::Accumulate { group, cell, val } => format!(
                "accumulate(ctx, {group}usize, {} as usize, {});",
                reg(*cell),
                reg(*val)
            ),
            Instr::Halt => "continue 'rows;".to_string(),
            Instr::Jump { .. } | Instr::JumpIfZero { .. } | Instr::IncRangeJump { .. } => {
                unreachable!("control flow is handled by `construct`")
            }
        };
        self.line(depth, &line);
        Ok(())
    }
}

/// Lower `kernel` to Rust source plus its nested-site table.
///
/// Errors are [`CodegenError::Unsupported`] naming the construct; the
/// caller falls back to the interpreter.
pub fn emit_kernel(kernel: &Kernel) -> Result<EmittedKernel, CodegenError> {
    let code = &kernel.code;
    if kernel.entry > code.len() {
        return Err(CodegenError::Unsupported(format!(
            "entry {} beyond code length {}",
            kernel.entry,
            code.len()
        )));
    }
    for (pc, ins) in code.iter().enumerate().skip(kernel.entry) {
        if let Instr::Jump { target }
        | Instr::JumpIfZero { target, .. }
        | Instr::IncRangeJump { target, .. } = ins
        {
            if *target < kernel.entry || *target >= code.len() {
                return Err(CodegenError::Unsupported(format!(
                    "jump at pc {pc} targets {target}, outside the body"
                )));
            }
        }
    }

    let mut em = Emitter {
        kernel,
        out: String::new(),
        sites: Vec::new(),
        loops: Vec::new(),
        labels: 0,
    };
    // ---- Preamble: constants only, once per split. ----
    for (pc, ins) in code[..kernel.entry].iter().enumerate() {
        if !matches!(ins, Instr::Const { .. } | Instr::IConst { .. }) {
            return Err(CodegenError::Unsupported(format!(
                "non-constant instruction {ins:?} in preamble at pc {pc}"
            )));
        }
        em.straight(pc, 1)?;
    }
    let preamble = std::mem::take(&mut em.out);
    // ---- The per-row body, structured, inside the row loop. ----
    em.region(kernel.entry, code.len(), 2)?;
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
#![allow(unused_variables, unused_mut, unused_assignments, unused_parens, unused_labels, dead_code, unreachable_code)]

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
{states}{decls}{preamble}    'rows: for __local in 0..row_count {{
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
