//! The kernel compiler: Chapel loop bodies → kernel IR.
//!
//! This is the reproduction's equivalent of the paper's modified Chapel
//! code generator. Given a detected reduction loop, it emits a
//! per-data-element kernel whose *access instructions* depend on the
//! optimization level:
//!
//! * [`OptLevel::Generated`] — dataset reads call `computeIndex` on
//!   every access; state reads walk nested structures.
//! * [`OptLevel::Opt1`] — strength reduction: `computeIndex` is hoisted
//!   out of loops whose last index is the loop variable and whose outer
//!   indices are loop-invariant; the innermost level walks by stride.
//! * [`OptLevel::Opt2`] — additionally, state variables are linearized
//!   and accessed through the mapping (no nested walks remain).
//!
//! Control flow keeps its Chapel shape: each `for`, `while` and `if`
//! (and each `&&`/`||` right-hand side) compiles into a block of its own
//! inside a [`Instr::For`], [`Instr::While`] or [`Instr::If`] node.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use chapel_frontend::ast::*;
use chapel_frontend::pretty::print_expr;
use chapel_sema::{Analysis, Ty};
use freeride::{CombineOp, GroupSpec, RObjLayout};
use linearize::{AccessPath, LinearMeta, PathMeta, Shape};

use crate::backend::NativeMemo;
use crate::detect::{ExprReduction, LoopReduction};
use crate::error::CoreError;
use crate::kernel_ir::*;

/// The three code-generation strategies of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptLevel {
    /// Naive translation (the paper's *generated*).
    #[default]
    Generated,
    /// Strength reduction (*opt-1*).
    Opt1,
    /// Strength reduction + selective linearization of state (*opt-2*).
    Opt2,
}

impl OptLevel {
    /// The paper's series label for this strategy.
    pub fn label(&self) -> &'static str {
        match self {
            OptLevel::Generated => "generated",
            OptLevel::Opt1 => "opt-1",
            OptLevel::Opt2 => "opt-2",
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One dataset variable's slot range within the zipped row.
#[derive(Debug, Clone)]
pub struct DatasetVar {
    /// Variable name.
    pub name: String,
    /// Shape of one element (one row's contribution).
    pub elem_shape: Shape,
    /// Lower bound of the Chapel array.
    pub lo: i64,
    /// Base slot offset within the zipped row.
    pub base: usize,
}

/// The zipped dataset layout handed to FREERIDE's 2-D view.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Constituent arrays, in first-use order.
    pub vars: Vec<DatasetVar>,
    /// Slots per (zipped) row.
    pub unit: usize,
    /// Number of rows.
    pub rows: usize,
    /// The virtual shape of the zipped dataset (an array of records with
    /// one field per constituent variable) — paths resolve against it.
    pub zip_shape: Shape,
}

/// A state variable used by the kernel.
#[derive(Debug, Clone)]
pub struct StateSpec {
    /// Variable name.
    pub name: String,
    /// Its dense shape.
    pub shape: Shape,
}

/// An output variable — one reduction-object group.
#[derive(Debug, Clone)]
pub struct OutSpec {
    /// Variable name.
    pub name: String,
    /// Its dense shape.
    pub shape: Shape,
    /// Number of reduction-object cells (`shape.slot_count()`).
    pub cells: usize,
}

/// A fully compiled reduction loop, ready for the execution bridge.
#[derive(Debug, Clone)]
pub struct CompiledLoop {
    /// The per-element kernel.
    pub kernel: Kernel,
    /// Dataset layout.
    pub dataset: DatasetSpec,
    /// State variables (order matches `StateId`s in the kernel).
    pub states: Vec<StateSpec>,
    /// Output variables (order matches `GroupId`s).
    pub outputs: Vec<OutSpec>,
    /// Loop lower bound (the Chapel value of the first row).
    pub lo: i64,
    /// Loop upper bound.
    pub hi: i64,
    /// The code-generation strategy this kernel was emitted under
    /// (diagnostics and codegen-cache context; reduce-expression
    /// kernels always compile as *generated* — they have no state).
    pub opt: OptLevel,
    /// The native kernel, compiled on first use (see
    /// [`CompiledLoop::runner`]).
    pub(crate) native: NativeMemo,
}

impl CompiledLoop {
    /// The reduction object this loop accumulates into: one group per
    /// output, each folding with the kernel's combine op.
    pub fn layout(&self) -> Arc<RObjLayout> {
        let groups = self
            .outputs
            .iter()
            .map(|o| GroupSpec::new(&o.name, o.cells, self.kernel.combine.clone()));
        RObjLayout::new(groups.collect())
    }
}

/// Compile a detected reduction loop at the given optimization level.
pub fn compile_loop(
    program: &Program,
    analysis: &Analysis,
    red: &LoopReduction,
    opt: OptLevel,
) -> Result<CompiledLoop, CoreError> {
    let Item::Stmt(Stmt::For { index, body, .. }) = &program.items[red.stmt_index] else {
        return Err(CoreError::translate("detected statement is not a loop"));
    };
    let rows = (red.hi - red.lo + 1) as usize;
    let dataset = zip_dataset(analysis, &red.dataset, rows)?;
    let shape_of = |name: &String, what: &str| {
        analysis
            .decls
            .shape_of_global(name)
            .ok_or_else(|| CoreError::translate(format!("{what} `{name}` has no layout")))
    };
    let states: Vec<StateSpec> = red
        .state
        .iter()
        .map(|name| {
            Ok(StateSpec {
                name: name.clone(),
                shape: shape_of(name, "state")?,
            })
        })
        .collect::<Result<_, CoreError>>()?;
    let outputs: Vec<OutSpec> = red
        .outputs
        .iter()
        .map(|name| {
            let shape = shape_of(name, "output")?;
            let cells = shape.slot_count();
            Ok(OutSpec {
                name: name.clone(),
                shape,
                cells,
            })
        })
        .collect::<Result<_, CoreError>>()?;
    let bounds = (red.lo, red.hi);
    compile_kernel(analysis, opt, dataset, states, outputs, bounds, |c| {
        c.loop_var = index.clone();
        c.stmts(&body.stmts)
    })
}

/// Compile a built-in reduce expression (`+ reduce A`, `min reduce
/// (A+B)`) into a one-cell kernel.
pub fn compile_reduce_expr(
    analysis: &Analysis,
    red: &ExprReduction,
) -> Result<CompiledLoop, CoreError> {
    // The leaves zip into the dataset; the operand is evaluated per row.
    let dataset = zip_dataset(analysis, &red.leaves, red.rows)?;
    let outputs = vec![OutSpec {
        name: red.target.clone(),
        shape: Shape::Real,
        cells: 1,
    }];
    let combine = match &red.op {
        ReduceOp::Sum => CombineOp::Sum,
        ReduceOp::Product => CombineOp::Product,
        ReduceOp::Min => CombineOp::Min,
        ReduceOp::Max => CombineOp::Max,
        other => {
            return Err(CoreError::translate(format!(
                "unsupported reduce op {other:?}"
            )))
        }
    };
    let bounds = leaf_bounds(&dataset);
    let body = |c: &mut Compiler<'_>| {
        // Evaluate the operand with every leaf ident meaning "this row's
        // element of that leaf".
        let val = c.reduce_operand(&red.operand)?;
        let val = c.real_of(val);
        let cell = c.int_const(0);
        c.code.push(Instr::Accumulate {
            group: 0,
            cell,
            val,
        });
        Ok(())
    };
    let mut compiled = compile_kernel(
        analysis,
        OptLevel::Generated,
        dataset,
        vec![],
        outputs,
        bounds,
        body,
    )?;
    compiled.kernel.combine = combine;
    Ok(compiled)
}

/// Compile a user-defined `ReduceScanOp` reduction (`MyOp reduce A`):
/// the class's scalar fields become one-cell reduction-object groups and
/// its `accumulate` body becomes the kernel, with the parameter bound to
/// the current data element. (`combine` was validated to be the pairwise
/// field sum, so the default cell-wise merge implements it; `generate`
/// runs on the interpreter after the job — see the translator.)
pub fn compile_user_reduce(
    analysis: &Analysis,
    red: &ExprReduction,
    class: &chapel_frontend::ast::ClassDecl,
) -> Result<CompiledLoop, CoreError> {
    // Dataset: identical to a built-in reduce expression.
    let dataset = zip_dataset(analysis, &red.leaves, red.rows)?;
    // One one-cell Sum group per class field.
    let outputs: Vec<OutSpec> = class
        .fields
        .iter()
        .map(|f| OutSpec {
            name: f.name.clone(),
            shape: Shape::Real,
            cells: 1,
        })
        .collect();
    let accumulate = class
        .method("accumulate")
        .ok_or_else(|| CoreError::translate("class has no accumulate"))?;
    let param = accumulate
        .params
        .first()
        .map(|p| p.name.clone())
        .ok_or_else(|| CoreError::translate("accumulate takes no argument"))?;
    let bounds = leaf_bounds(&dataset);
    let body = |c: &mut Compiler<'_>| {
        c.user_fields = (0..)
            .zip(&class.fields)
            .map(|(i, f)| (f.name.clone(), i))
            .collect();
        // Bind the accumulate parameter to this row's element value.
        let x = c.reduce_operand(&red.operand)?;
        c.scopes.last_mut().expect("scope").insert(param, x);
        accumulate.body.stmts.iter().try_for_each(|s| c.stmt(s))
    };
    compile_kernel(
        analysis,
        OptLevel::Generated,
        dataset,
        vec![],
        outputs,
        bounds,
        body,
    )
}

/// The zipped dataset over the arrays `names` (one record field each,
/// in order), `rows` rows long.
fn zip_dataset(
    analysis: &Analysis,
    names: &[String],
    rows: usize,
) -> Result<DatasetSpec, CoreError> {
    let mut vars = Vec::new();
    let mut unit = 0usize;
    let mut zip_fields = Vec::new();
    for name in names {
        let Some(Ty::Array { dims, elem }) = analysis.decls.globals.get(name) else {
            return Err(CoreError::translate(format!(
                "dataset `{name}` is not an array"
            )));
        };
        let elem_shape = analysis
            .decls
            .shape_of(elem)
            .ok_or_else(|| CoreError::translate(format!("dataset `{name}` has no layout")))?;
        vars.push(DatasetVar {
            name: name.clone(),
            elem_shape: elem_shape.clone(),
            lo: dims[0].0,
            base: unit,
        });
        unit += elem_shape.slot_count();
        zip_fields.push((name.clone(), elem_shape));
    }
    let zip_shape = Shape::array(Shape::Record { fields: zip_fields }, rows);
    Ok(DatasetSpec {
        vars,
        unit,
        rows,
        zip_shape,
    })
}

/// The Chapel bounds of a reduce expression's rows: its leaves share
/// one extent, so the last leaf's lower bound plus the row count.
fn leaf_bounds(dataset: &DatasetSpec) -> (i64, i64) {
    let lo = dataset.vars.last().map_or(1, |v| v.lo);
    (lo, lo + dataset.rows as i64 - 1)
}

/// Compile one kernel over `dataset`, `states` and `outputs`: `body`
/// emits the per-element code through a fresh [`Compiler`], whose
/// constant preamble then heads the kernel's top-level block.
fn compile_kernel(
    analysis: &Analysis,
    opt: OptLevel,
    dataset: DatasetSpec,
    states: Vec<StateSpec>,
    outputs: Vec<OutSpec>,
    (lo, hi): (i64, i64),
    body: impl FnOnce(&mut Compiler<'_>) -> Result<(), CoreError>,
) -> Result<CompiledLoop, CoreError> {
    let mut c = Compiler {
        analysis,
        opt,
        loop_var: String::new(),
        dataset: &dataset,
        states: &states,
        outputs: &outputs,
        code: Vec::new(),
        preamble: Vec::new(),
        regs: vec![RegClass::I64, RegClass::I64],
        scopes: vec![HashMap::new()],
        paths: Vec::new(),
        path_keys: HashMap::new(),
        const_regs: HashMap::new(),
        hoists: Vec::new(),
        user_fields: HashMap::new(),
    };
    body(&mut c)?;
    let entry = c.preamble.len();
    let mut code = c.preamble;
    code.append(&mut c.code);
    let kernel = Kernel {
        code,
        entry,
        regs: c.regs,
        paths: c.paths,
        state_names: states.iter().map(|s| s.name.clone()).collect(),
        out_names: outputs.iter().map(|o| o.name.clone()).collect(),
        combine: CombineOp::Sum,
    };
    Ok(CompiledLoop {
        kernel,
        dataset,
        states,
        outputs,
        lo,
        hi,
        opt,
        native: NativeMemo::default(),
    })
}

// ---------- the compiler ----------

enum Space {
    Data,
    State(StateId),
    Out(GroupId),
}

/// Resolved pieces of an access chain, before index compilation.
struct AccessParts<'e> {
    space: Space,
    path: PathId,
    /// Index expressions, one per level (outermost first). When
    /// `row_first` is set, the first entry is the dataset row index
    /// (compiled to the pre-adjusted local-row register, not evaluated).
    idx_exprs: Vec<&'e Expr>,
    /// Chapel lower bound of each indexed level (for 0-basing).
    lo_adjust: Vec<i64>,
    /// Level 0 is the dataset row (use `REG_LOCAL_ROW`).
    row_first: bool,
    /// The accessed element is a Chapel `int`/`bool` (its load converts
    /// the buffer's f64 payload to `I64`).
    int_leaf: bool,
}

/// Chapel types held in `I64` registers.
fn is_int_ty(ty: &Ty) -> bool {
    matches!(ty, Ty::Int | Ty::Bool)
}

struct HoistEntry {
    base: Reg,
    stride: usize,
    /// Register holding the 0-based innermost index, refreshed once per
    /// iteration at the loop-body head.
    k_reg: Reg,
}

struct HoistFrame {
    entries: HashMap<String, HoistEntry>,
    /// `(lo, reg)` pairs: registers to refresh with `var - lo` at the
    /// body head.
    k_regs: Vec<(i64, Reg)>,
}

struct Compiler<'a> {
    analysis: &'a Analysis,
    opt: OptLevel,
    loop_var: String,
    dataset: &'a DatasetSpec,
    states: &'a [StateSpec],
    outputs: &'a [OutSpec],
    code: Vec<Instr>,
    preamble: Vec<Instr>,
    /// Class of every allocated register (the kernel's register file).
    regs: Vec<RegClass>,
    scopes: Vec<HashMap<String, Reg>>,
    paths: Vec<PathMeta>,
    path_keys: HashMap<String, PathId>,
    /// Preamble constants, keyed by class and bit pattern.
    const_regs: HashMap<(RegClass, u64), Reg>,
    hoists: Vec<HoistFrame>,
    /// Reduction-object fields of a user-defined ReduceScanOp kernel
    /// (accumulate-body compilation): field name → group.
    user_fields: HashMap<String, GroupId>,
}

impl<'a> Compiler<'a> {
    fn alloc(&mut self, class: RegClass) -> Reg {
        let r = Reg::try_from(self.regs.len()).expect("kernel register file overflow");
        self.regs.push(class);
        r
    }

    fn class(&self, r: Reg) -> RegClass {
        self.regs[r as usize]
    }

    /// Constants live in the preamble, executed once per split — both
    /// faster and safe against first use inside a skipped branch.
    fn const_reg(&mut self, val: f64) -> Reg {
        let key = (RegClass::F64, val.to_bits());
        if let Some(&r) = self.const_regs.get(&key) {
            return r;
        }
        let r = self.alloc(RegClass::F64);
        self.preamble.push(Instr::Const { dst: r, val });
        self.const_regs.insert(key, r);
        r
    }

    /// The `I64` counterpart of [`Compiler::const_reg`].
    fn int_const(&mut self, val: i64) -> Reg {
        let key = (RegClass::I64, val as u64);
        if let Some(&r) = self.const_regs.get(&key) {
            return r;
        }
        let r = self.alloc(RegClass::I64);
        self.preamble.push(Instr::IConst { dst: r, val });
        self.const_regs.insert(key, r);
        r
    }

    /// The value of `r` if it is an `I64` preamble constant.
    fn int_const_value(&self, r: Reg) -> Option<i64> {
        self.preamble.iter().find_map(|ins| match ins {
            Instr::IConst { dst, val } if *dst == r => Some(*val),
            _ => None,
        })
    }

    /// `r` as a real: `IntToReal` for an `I64` (folded for constants,
    /// like the interpreter's `as_f64` widening).
    fn real_of(&mut self, r: Reg) -> Reg {
        if self.class(r) == RegClass::F64 {
            return r;
        }
        if let Some(v) = self.int_const_value(r) {
            return self.const_reg(v as f64);
        }
        let dst = self.alloc(RegClass::F64);
        self.code.push(Instr::IntToReal { dst, src: r });
        dst
    }

    /// `r` as an int: `RealToInt` for an `F64`. Only integer-valued
    /// reals reach it (int-typed loads from the linearized buffers,
    /// whole-number stores into `int` locals), for which it is exact.
    fn int_of(&mut self, r: Reg) -> Reg {
        if self.class(r) == RegClass::I64 {
            return r;
        }
        let dst = self.alloc(RegClass::I64);
        self.code.push(Instr::RealToInt { dst, src: r });
        dst
    }

    /// A condition: Chapel conditions are `bool`, held in `I64`.
    fn cond(&mut self, e: &Expr) -> Result<Reg, CoreError> {
        let r = self.expr(e)?;
        if self.class(r) != RegClass::I64 {
            return Err(CoreError::translate(format!(
                "condition `{}` is not a bool",
                print_expr(e)
            )));
        }
        Ok(r)
    }

    /// `dst = src`, converting to `dst`'s class (the interpreter keeps a
    /// variable's kind on assignment).
    fn assign_reg(&mut self, dst: Reg, src: Reg) {
        let ins = match (self.class(dst), self.class(src)) {
            (RegClass::F64, RegClass::F64) => Instr::Mov { dst, src },
            (RegClass::I64, RegClass::I64) => Instr::IMov { dst, src },
            (RegClass::F64, RegClass::I64) => match self.int_const_value(src) {
                Some(v) => Instr::Mov {
                    dst,
                    src: self.const_reg(v as f64),
                },
                None => Instr::IntToReal { dst, src },
            },
            (RegClass::I64, RegClass::F64) => Instr::RealToInt { dst, src },
        };
        self.code.push(ins);
    }

    /// `a op b` with the interpreter's promotion: `int op int` stays
    /// `I64`, anything else widens to `F64`. Writes into `into` when it
    /// has the result's class, else into a fresh register.
    fn binop(&mut self, op: ArithOp, a: Reg, b: Reg, into: Option<Reg>) -> Result<Reg, CoreError> {
        let int = self.class(a) == RegClass::I64 && self.class(b) == RegClass::I64;
        if int && op == ArithOp::Pow {
            // `int ** int` is an int or a real depending on the sign of
            // the exponent at run time; kernels have static classes.
            return Err(CoreError::translate("integer `**` in a kernel"));
        }
        let (a, b, class) = if int {
            (a, b, RegClass::I64)
        } else {
            (self.real_of(a), self.real_of(b), RegClass::F64)
        };
        let dst = match into {
            Some(r) if self.class(r) == class => r,
            _ => self.alloc(class),
        };
        self.code.push(if int {
            Instr::IBin { op, dst, a, b }
        } else {
            Instr::Bin { op, dst, a, b }
        });
        Ok(dst)
    }

    /// `a cmp b`: integer operands compare as `I64`, anything else as
    /// `F64`. The result is an `I64` 0/1.
    fn compare(&mut self, op: CmpOp, a: Reg, b: Reg) -> Reg {
        let dst = self.alloc(RegClass::I64);
        if self.class(a) == RegClass::I64 && self.class(b) == RegClass::I64 {
            self.code.push(Instr::ICmp { op, dst, a, b });
        } else {
            let (a, b) = (self.real_of(a), self.real_of(b));
            self.code.push(Instr::Cmp { op, dst, a, b });
        }
        dst
    }

    /// `-src` in `src`'s class (`0 - src` for an int, wrapping).
    fn negate(&mut self, src: Reg) -> Result<Reg, CoreError> {
        if self.class(src) == RegClass::I64 {
            let zero = self.int_const(0);
            return self.binop(ArithOp::Sub, zero, src, None);
        }
        let dst = self.alloc(RegClass::F64);
        self.code.push(Instr::Neg { dst, src });
        Ok(dst)
    }

    fn lookup_local(&self, name: &str) -> Option<Reg> {
        for scope in self.scopes.iter().rev() {
            if let Some(&r) = scope.get(name) {
                return Some(r);
            }
        }
        None
    }

    fn dataset_var(&self, name: &str) -> Option<(usize, &DatasetVar)> {
        self.dataset
            .vars
            .iter()
            .enumerate()
            .find(|(_, v)| v.name == name)
    }

    fn state_id(&self, name: &str) -> Option<StateId> {
        self.states
            .iter()
            .position(|s| s.name == name)
            .map(|i| i as StateId)
    }

    fn out_id(&self, name: &str) -> Option<GroupId> {
        self.outputs
            .iter()
            .position(|o| o.name == name)
            .map(|i| i as GroupId)
    }

    fn intern_path(&mut self, key: String, meta: PathMeta) -> PathId {
        if let Some(&id) = self.path_keys.get(&key) {
            return id;
        }
        let id = self.paths.len() as PathId;
        self.paths.push(meta);
        self.path_keys.insert(key, id);
        id
    }

    // ---------- statements ----------

    fn stmt(&mut self, s: &Stmt) -> Result<(), CoreError> {
        match s {
            Stmt::Var(v) => {
                if v.ty
                    .as_ref()
                    .is_some_and(|t| matches!(t, TypeExpr::Array { .. } | TypeExpr::Named(_)))
                {
                    return Err(CoreError::translate(format!(
                        "local `{}` is not a scalar; kernel locals must be scalars",
                        v.name
                    )));
                }
                // The register class follows the interpreter: a `real`
                // declaration widens an `int` initializer, otherwise the
                // initializer's kind sticks (`var best = 1` is an int).
                let reg = match &v.init {
                    Some(init) => {
                        let src = self.expr(init)?;
                        let class = match v.ty {
                            Some(TypeExpr::Real) => RegClass::F64,
                            _ => self.class(src),
                        };
                        let reg = self.alloc(class);
                        self.assign_reg(reg, src);
                        reg
                    }
                    None => {
                        // Default-initialise; mirror the interpreter's
                        // zero defaults for scalars.
                        let class = match v.ty {
                            Some(TypeExpr::Int | TypeExpr::Bool) => RegClass::I64,
                            _ => RegClass::F64,
                        };
                        let reg = self.alloc(class);
                        let zero = match self.class(reg) {
                            RegClass::F64 => Instr::Const { dst: reg, val: 0.0 },
                            RegClass::I64 => Instr::IConst { dst: reg, val: 0 },
                        };
                        self.code.push(zero);
                        reg
                    }
                };
                self.scopes
                    .last_mut()
                    .expect("scope")
                    .insert(v.name.clone(), reg);
                Ok(())
            }
            Stmt::Assign { lhs, op, rhs, .. } => self.assign(lhs, *op, rhs),
            Stmt::Expr(_) => Err(CoreError::translate(
                "expression statements are not supported in kernels",
            )),
            Stmt::For {
                index, iter, body, ..
            } => self.for_loop(index, iter, body),
            Stmt::While { cond, body, .. } => {
                let mut c = 0;
                let head = self.block(|k| {
                    c = k.cond(cond)?;
                    Ok(())
                })?;
                let body = self.block(|k| k.stmts(&body.stmts))?;
                self.code.push(Instr::While {
                    head,
                    cond: c,
                    body,
                });
                Ok(())
            }
            Stmt::If {
                cond, then, els, ..
            } => {
                let cond = self.cond(cond)?;
                let then = self.block(|k| k.stmts(&then.stmts))?;
                let els = match els {
                    Some(e) => self.block(|k| k.stmts(&e.stmts))?,
                    None => Vec::new(),
                };
                self.code.push(Instr::If { cond, then, els });
                Ok(())
            }
            Stmt::Return { .. } => Err(CoreError::translate("`return` inside a kernel")),
            Stmt::Writeln { .. } => Err(CoreError::translate("`writeln` inside a kernel")),
            Stmt::Block(b) => self.stmts(&b.stmts),
        }
    }

    /// Compile statements in a scope of their own.
    fn stmts(&mut self, stmts: &[Stmt]) -> Result<(), CoreError> {
        self.scopes.push(HashMap::new());
        let done = stmts.iter().try_for_each(|s| self.stmt(s));
        self.scopes.pop();
        done
    }

    /// Compile `f`'s code into a fresh block and return it; the
    /// enclosing block continues after it.
    fn block(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<(), CoreError>,
    ) -> Result<Vec<Instr>, CoreError> {
        let outer = std::mem::take(&mut self.code);
        let done = f(self);
        let inner = std::mem::replace(&mut self.code, outer);
        done.map(|()| inner)
    }

    fn assign(&mut self, lhs: &Expr, op: AssignOp, rhs: &Expr) -> Result<(), CoreError> {
        // Local scalar?
        if let Some(name) = lhs.as_ident() {
            if let Some(reg) = self.lookup_local(name) {
                let val = match (op, rhs) {
                    // Peephole: `x += a * b` on a real fuses to a
                    // multiply-accumulate, as any C compiler would emit.
                    // An `int * int` product stays an integer multiply.
                    (
                        AssignOp::Add,
                        Expr::Binary {
                            op: BinOp::Mul,
                            l,
                            r,
                            ..
                        },
                    ) => {
                        let a = self.expr(l)?;
                        let b = self.expr(r)?;
                        let int_product =
                            self.class(a) == RegClass::I64 && self.class(b) == RegClass::I64;
                        if self.class(reg) == RegClass::F64 && !int_product {
                            let (a, b) = (self.real_of(a), self.real_of(b));
                            self.code.push(Instr::Fma { dst: reg, a, b });
                            return Ok(());
                        }
                        self.binop(ArithOp::Mul, a, b, None)?
                    }
                    _ => self.expr(rhs)?,
                };
                let op = match op {
                    AssignOp::Set => {
                        self.assign_reg(reg, val);
                        return Ok(());
                    }
                    AssignOp::Add => ArithOp::Add,
                    AssignOp::Sub => ArithOp::Sub,
                    AssignOp::Mul => ArithOp::Mul,
                    AssignOp::Div => ArithOp::Div,
                };
                let res = self.binop(op, reg, val, Some(reg))?;
                if res != reg {
                    self.assign_reg(reg, res);
                }
                return Ok(());
            }
        }
        // User-defined reduction field (accumulate-body kernels):
        // `f += e` or the Figure 2 idiom `f = f + e`.
        if let Some(name) = lhs.as_ident() {
            if let Some(&group) = self.user_fields.get(name) {
                let contribution: &Expr = match op {
                    AssignOp::Add => rhs,
                    AssignOp::Set => match rhs {
                        Expr::Binary {
                            op: BinOp::Add,
                            l,
                            r,
                            ..
                        } if l.as_ident() == Some(name) => r,
                        Expr::Binary {
                            op: BinOp::Add,
                            l,
                            r,
                            ..
                        } if r.as_ident() == Some(name) => l,
                        _ => {
                            return Err(CoreError::translate(format!(
                                "field `{name}` must be accumulated (`{name} += e` or \
                                 `{name} = {name} + e`)"
                            )));
                        }
                    },
                    _ => {
                        return Err(CoreError::translate(format!(
                            "field `{name}` must be accumulated with addition"
                        )));
                    }
                };
                let val = self.expr(contribution)?;
                let val = self.real_of(val);
                let cell = self.int_const(0);
                self.code.push(Instr::Accumulate { group, cell, val });
                return Ok(());
            }
        }
        // Output accumulation.
        let root = crate::detect::root_ident(lhs)
            .ok_or_else(|| CoreError::translate("unassignable left-hand side"))?
            .to_string();
        if self.out_id(&root).is_some() {
            if op != AssignOp::Add {
                return Err(CoreError::translate(format!(
                    "output `{root}` must be accumulated with `+=`"
                )));
            }
            let val = self.expr(rhs)?;
            let val = self.real_of(val);
            let (group, cell) = self.out_cell(lhs)?;
            self.code.push(Instr::Accumulate { group, cell, val });
            return Ok(());
        }
        Err(CoreError::translate(format!(
            "assignment to `{root}`, which is neither a kernel local nor an output"
        )))
    }

    /// Compile the cell index of an output access.
    fn out_cell(&mut self, lhs: &Expr) -> Result<(GroupId, Reg), CoreError> {
        let parts = self
            .access_parts(lhs)?
            .ok_or_else(|| CoreError::translate("output access is not an access chain"))?;
        let Space::Out(group) = parts.space else {
            return Err(CoreError::translate("expected an output access"));
        };
        if parts.idx_exprs.is_empty() {
            // Scalar output: cell 0.
            let cell = self.int_const(0);
            return Ok((group, cell));
        }
        // Hoisted?
        let key = print_expr(lhs);
        if let Some((base, stride, k)) = self.hoisted(&key)? {
            let cell = self.emit_base_plus_k(base, k, stride);
            return Ok((group, cell));
        }
        let idx = self.compile_access_indices(&parts, parts.idx_exprs.len())?;
        let dst = self.alloc(RegClass::I64);
        self.code.push(Instr::OutIndex {
            dst,
            path: parts.path,
            idx,
        });
        Ok((group, dst))
    }

    fn for_loop(&mut self, index: &str, iter: &Expr, body: &Block) -> Result<(), CoreError> {
        let Expr::Range(range) = iter else {
            return Err(CoreError::translate(
                "kernel loops must iterate over ranges",
            ));
        };
        // `For` reads its bounds once, so body writes to their source
        // variables cannot change the trip count mid-flight.
        let lo = self.expr(&range.lo)?;
        let lo = self.int_of(lo);
        let hi = self.expr(&range.hi)?;
        let hi = self.int_of(hi);
        let var = self.alloc(RegClass::I64);
        self.scopes.push(HashMap::from([(index.to_string(), var)]));

        // Strength reduction: pre-compute bases of eligible accesses.
        let frame = if self.opt != OptLevel::Generated {
            self.build_hoist_frame(index, body)?
        } else {
            HoistFrame {
                entries: HashMap::new(),
                k_regs: Vec::new(),
            }
        };
        let k_regs = frame.k_regs.clone();
        self.hoists.push(frame);
        let body = self.block(|c| {
            // Per-iteration 0-based index registers shared by every
            // hoisted access of this loop (k = var - lo).
            for &(lo_val, k_reg) in &k_regs {
                let ins = if lo_val == 0 {
                    Instr::IMov {
                        dst: k_reg,
                        src: var,
                    }
                } else {
                    Instr::IBin {
                        op: ArithOp::Sub,
                        dst: k_reg,
                        a: var,
                        b: c.int_const(lo_val),
                    }
                };
                c.code.push(ins);
            }
            c.stmts(&body.stmts)
        })?;
        self.hoists.pop();
        self.scopes.pop();
        self.code.push(Instr::For { var, lo, hi, body });
        Ok(())
    }

    /// Scan a loop body for accesses whose innermost index is exactly the
    /// loop variable and whose outer indices are loop-invariant; emit
    /// their base computations (the single remaining `computeIndex` call
    /// of opt-1) before the loop. A body that writes or rebinds the loop
    /// variable hoists nothing: its accesses must see the write, not
    /// the `k` register refreshed at the body head.
    fn build_hoist_frame(&mut self, loop_var: &str, body: &Block) -> Result<HoistFrame, CoreError> {
        let mut entries = HashMap::new();
        let mut k_regs: Vec<(i64, Reg)> = Vec::new();
        // Names assigned or declared inside the body (these invalidate
        // outer-index invariance).
        let mut tainted: BTreeSet<String> = BTreeSet::new();
        for s in &body.stmts {
            walk_stmt(
                s,
                &mut |st| match st {
                    Stmt::Var(v) => {
                        tainted.insert(v.name.clone());
                    }
                    Stmt::For { index, .. } => {
                        tainted.insert(index.clone());
                    }
                    Stmt::Assign { lhs, .. } => {
                        if let Some(r) = crate::detect::root_ident(lhs) {
                            tainted.insert(r.to_string());
                        }
                    }
                    _ => {}
                },
                &mut |_| {},
            );
        }
        if !tainted.insert(loop_var.to_string()) {
            return Ok(HoistFrame { entries, k_regs });
        }

        // Collect candidate access expressions.
        let mut candidates: Vec<Expr> = Vec::new();
        for s in &body.stmts {
            walk_stmt(s, &mut |_| {}, &mut |e| {
                if matches!(e, Expr::Index { .. }) {
                    candidates.push(e.clone());
                }
            });
            // Assignment lhs chains are also accesses (output writes).
            walk_stmt(
                s,
                &mut |st| {
                    if let Stmt::Assign { lhs, .. } = st {
                        if matches!(lhs, Expr::Index { .. } | Expr::Field { .. }) {
                            candidates.push(lhs.clone());
                        }
                    }
                },
                &mut |_| {},
            );
        }

        for cand in candidates {
            let key = print_expr(&cand);
            if entries.contains_key(&key) {
                continue;
            }
            let Some(parts) = self.access_parts(&cand)? else {
                continue;
            };
            // Eligible spaces: dataset and outputs always (their storage
            // is flat in every version); state only at opt-2 (it is
            // nested before that).
            let state_ok = matches!(self.opt, OptLevel::Opt2);
            if matches!(parts.space, Space::State(_)) && !state_ok {
                continue;
            }
            let n = parts.idx_exprs.len();
            if n == 0 {
                continue;
            }
            // Innermost index must be exactly the loop variable.
            if !matches!(parts.idx_exprs[n - 1], Expr::Ident(name, _) if name == loop_var) {
                continue;
            }
            // Outer indices must not mention tainted names.
            let mut invariant = true;
            for outer in &parts.idx_exprs[..n - 1] {
                walk_expr(outer, &mut |e| {
                    if let Expr::Ident(name, _) = e {
                        if tainted.contains(name) {
                            invariant = false;
                        }
                    }
                });
            }
            if !invariant {
                continue;
            }

            // Emit the base computation now (pre-loop).
            let outer_regs = self.compile_access_indices(&parts, n - 1)?;
            let meta = &self.paths[parts.path as usize];
            let stride = meta.innermost_stride();
            let base = self.alloc(RegClass::I64);
            match &parts.space {
                Space::Data => {
                    self.code.push(Instr::DataBase {
                        dst: base,
                        path: parts.path,
                        outer: outer_regs,
                    });
                }
                Space::State(id) => {
                    self.code.push(Instr::StateBase {
                        dst: base,
                        state: *id,
                        path: parts.path,
                        outer: outer_regs,
                    });
                }
                Space::Out(_) => {
                    // Base cell index of the output run: computeIndex
                    // with innermost index 0.
                    let zero = self.int_const(0);
                    let mut idx = outer_regs;
                    idx.push(zero);
                    self.code.push(Instr::OutIndex {
                        dst: base,
                        path: parts.path,
                        idx,
                    });
                }
            }
            let k_lo = parts.lo_adjust[n - 1];
            let k_reg = match k_regs.iter().find(|(lo, _)| *lo == k_lo) {
                Some(&(_, r)) => r,
                None => {
                    let r = self.alloc(RegClass::I64);
                    k_regs.push((k_lo, r));
                    r
                }
            };
            entries.insert(
                key,
                HoistEntry {
                    base,
                    stride,
                    k_reg,
                },
            );
        }
        Ok(HoistFrame { entries, k_regs })
    }

    /// Look up a hoisted access in any enclosing loop; returns
    /// `(base, stride, k_reg)`. The k register is refreshed at the
    /// owning loop's body head, so the use site emits nothing.
    fn hoisted(&mut self, key: &str) -> Result<Option<(Reg, usize, Reg)>, CoreError> {
        for frame in self.hoists.iter().rev() {
            if let Some(entry) = frame.entries.get(key) {
                return Ok(Some((entry.base, entry.stride, entry.k_reg)));
            }
        }
        Ok(None)
    }

    fn emit_base_plus_k(&mut self, base: Reg, k: Reg, stride: usize) -> Reg {
        if stride == 1 {
            let dst = self.alloc(RegClass::I64);
            self.code.push(Instr::IBin {
                op: ArithOp::Add,
                dst,
                a: base,
                b: k,
            });
            return dst;
        }
        let s = self.int_const(stride as i64);
        let t = self.alloc(RegClass::I64);
        self.code.push(Instr::IBin {
            op: ArithOp::Mul,
            dst: t,
            a: k,
            b: s,
        });
        let dst = self.alloc(RegClass::I64);
        self.code.push(Instr::IBin {
            op: ArithOp::Add,
            dst,
            a: base,
            b: t,
        });
        dst
    }

    // ---------- access chains ----------

    /// Decompose an expression into an access chain over the dataset, a
    /// state variable, or an output. Returns `None` when the expression
    /// is not an access chain (e.g. arithmetic).
    fn access_parts<'e>(&mut self, e: &'e Expr) -> Result<Option<AccessParts<'e>>, CoreError> {
        // Unroll the chain, outermost-last.
        let mut elems: Vec<&'e Expr> = Vec::new();
        let mut cur = e;
        let root = loop {
            match cur {
                Expr::Ident(name, _) => break name.clone(),
                Expr::Index { base, .. } | Expr::Field { base, .. } => {
                    elems.push(cur);
                    cur = base;
                }
                _ => return Ok(None),
            }
        };
        elems.reverse();

        // Dataset access: `root[loop_var]` then deeper selections.
        if let Some((vpos, _)) = self.dataset_var(&root) {
            if elems.is_empty() {
                return Err(CoreError::translate(format!(
                    "dataset `{root}` used without an index"
                )));
            }
            let Expr::Index { indices, .. } = elems[0] else {
                return Err(CoreError::translate(format!(
                    "dataset `{root}` must be indexed by the loop variable first"
                )));
            };
            if indices.len() != 1 {
                return Err(CoreError::translate("dataset arrays are one-dimensional"));
            }
            // Level 0 of the zipped shape: select this variable's field.
            let elem_ty = match self.analysis.decls.globals.get(&root) {
                Some(Ty::Array { elem, .. }) => (**elem).clone(),
                _ => return Err(CoreError::translate("dataset type vanished")),
            };
            let (chains, idx_exprs, lo_adjust, key_suffix, leaf) =
                self.chain_tail(&elems[1..], &elem_ty, false)?;
            let mut full_chains = vec![Vec::new(); chains.len() + 1];
            full_chains[0].push(vpos);
            if let Some(first) = chains.first() {
                full_chains[0].extend(first.iter().copied());
            }
            for (i, c) in chains.iter().enumerate().skip(1) {
                full_chains[i] = c.clone();
            }
            // idx: local row (register 0, no lo adjustment needed — the
            // VM provides it 0-based) plus the deeper indices.
            let mut all_idx: Vec<&'e Expr> = vec![&indices[0]];
            all_idx.extend(idx_exprs);
            let mut all_lo = vec![0i64]; // row reg is pre-adjusted
            all_lo.extend(lo_adjust);

            let key = format!("data:{root}:{key_suffix}");
            let meta = LinearMeta::new(&self.dataset.zip_shape)
                .for_path(&AccessPath::new(full_chains))
                .map_err(|e| CoreError::translate(format!("path resolution: {e}")))?;
            let path = self.intern_path(key, meta);
            return Ok(Some(AccessParts {
                space: Space::Data,
                path,
                idx_exprs: all_idx,
                lo_adjust: all_lo,
                row_first: true,
                int_leaf: is_int_ty(&leaf),
            }));
        }

        // State or output access.
        let (space, var_ty) = if let Some(id) = self.state_id(&root) {
            (
                Space::State(id),
                self.analysis.decls.globals.get(&root).cloned(),
            )
        } else if let Some(id) = self.out_id(&root) {
            (
                Space::Out(id),
                self.analysis.decls.globals.get(&root).cloned(),
            )
        } else {
            return Ok(None);
        };
        let Some(ty) = var_ty else {
            return Err(CoreError::translate(format!("`{root}` has no type")));
        };
        let shape = self
            .analysis
            .decls
            .shape_of(&ty)
            .ok_or_else(|| CoreError::translate(format!("`{root}` has no layout")))?;
        let (chains, idx_exprs, lo_adjust, key_suffix, leaf) =
            self.chain_tail(&elems, &ty, true)?;
        let int_leaf = is_int_ty(&leaf);
        let prefix = match space {
            Space::State(_) => "state",
            Space::Out(_) => "out",
            Space::Data => unreachable!(),
        };
        let key = format!("{prefix}:{root}:{key_suffix}");
        if idx_exprs.is_empty() {
            // Scalar (or whole-variable) access: no path needed.
            let meta = PathMeta {
                levels: 0,
                unit_size: Vec::new(),
                unit_offset: Vec::new(),
                position: Vec::new(),
                level_offset: Vec::new(),
                terminal_offset: 0,
            };
            let path = self.intern_path(key, meta);
            return Ok(Some(AccessParts {
                space,
                path,
                idx_exprs,
                lo_adjust,
                row_first: false,
                int_leaf,
            }));
        }
        let meta = LinearMeta::new(&shape)
            .for_path(&AccessPath::new(chains))
            .map_err(|e| CoreError::translate(format!("path resolution: {e}")))?;
        let path = self.intern_path(key, meta);
        Ok(Some(AccessParts {
            space,
            path,
            idx_exprs,
            lo_adjust,
            row_first: false,
            int_leaf,
        }))
    }

    /// Convert syntactic chain elements into per-level field chains plus
    /// the index expressions and their lower-bound adjustments, tracking
    /// the semantic type as we descend (returned last: the leaf type).
    #[allow(clippy::type_complexity)]
    fn chain_tail<'e>(
        &self,
        elems: &[&'e Expr],
        root_ty: &Ty,
        reject_pre_index_fields: bool,
    ) -> Result<(Vec<Vec<usize>>, Vec<&'e Expr>, Vec<i64>, String, Ty), CoreError> {
        let mut chains: Vec<Vec<usize>> = Vec::new();
        let mut idx_exprs: Vec<&'e Expr> = Vec::new();
        let mut lo_adjust: Vec<i64> = Vec::new();
        let mut cur_chain: Vec<usize> = Vec::new();
        // For dataset tails the level-0 index was already consumed, so
        // leading fields belong to the level-0 chain; for state/output
        // chains leading fields would need pre-index offset folding,
        // which the subset does not support.
        let mut pre_index = reject_pre_index_fields;
        let mut ty = root_ty.clone();
        let mut key = String::new();

        for elem in elems {
            match elem {
                Expr::Field { field, .. } => {
                    let Ty::Record(rname) = &ty else {
                        return Err(CoreError::translate(format!(
                            "field `{field}` on non-record"
                        )));
                    };
                    let info =
                        self.analysis.decls.records.get(rname).ok_or_else(|| {
                            CoreError::translate(format!("unknown record `{rname}`"))
                        })?;
                    let (pos, fty) = info.field(field).ok_or_else(|| {
                        CoreError::translate(format!("`{rname}` has no field `{field}`"))
                    })?;
                    if pre_index {
                        return Err(CoreError::translate(
                            "record selection before the first index is not supported",
                        ));
                    }
                    cur_chain.push(pos);
                    key.push_str(&format!(".{pos}"));
                    ty = fty.clone();
                }
                Expr::Index { indices, .. } => {
                    let Ty::Array { dims, elem } = &ty else {
                        return Err(CoreError::translate("indexing a non-array"));
                    };
                    if indices.len() != dims.len() {
                        return Err(CoreError::translate(format!(
                            "{} indices on a {}-dimensional array",
                            indices.len(),
                            dims.len()
                        )));
                    }
                    // Close the pending field chain at the boundary
                    // *before* this index group.
                    if !pre_index {
                        chains.push(std::mem::take(&mut cur_chain));
                    }
                    pre_index = false;
                    for (i, idx) in indices.iter().enumerate() {
                        idx_exprs.push(idx);
                        lo_adjust.push(dims[i].0);
                        key.push_str("[i]");
                        if i + 1 < indices.len() {
                            chains.push(Vec::new());
                        }
                    }
                    ty = (**elem).clone();
                }
                other => {
                    return Err(CoreError::translate(format!(
                        "unsupported chain element {other:?}"
                    )));
                }
            }
        }
        if !cur_chain.is_empty() {
            chains.push(cur_chain);
        }
        Ok((chains, idx_exprs, lo_adjust, key, ty))
    }

    /// Compile the first `count` index registers of an access, mapping a
    /// dataset row index to the pre-adjusted local-row register.
    fn compile_access_indices(
        &mut self,
        parts: &AccessParts<'_>,
        count: usize,
    ) -> Result<Vec<Reg>, CoreError> {
        let mut regs = Vec::with_capacity(count);
        let start = if parts.row_first && count > 0 {
            regs.push(REG_LOCAL_ROW);
            1
        } else {
            0
        };
        for i in start..count {
            let r = self.compile_indices(&parts.idx_exprs[i..=i], &parts.lo_adjust[i..=i])?;
            regs.push(r[0]);
        }
        Ok(regs)
    }

    fn compile_indices(
        &mut self,
        exprs: &[&Expr],
        lo_adjust: &[i64],
    ) -> Result<Vec<Reg>, CoreError> {
        let mut regs = Vec::with_capacity(exprs.len());
        for (e, &lo) in exprs.iter().zip(lo_adjust) {
            let raw = self.expr(e)?;
            let raw = self.int_of(raw);
            if lo == 0 {
                regs.push(raw);
            } else {
                let lo_reg = self.int_const(lo);
                let dst = self.alloc(RegClass::I64);
                self.code.push(Instr::IBin {
                    op: ArithOp::Sub,
                    dst,
                    a: raw,
                    b: lo_reg,
                });
                regs.push(dst);
            }
        }
        Ok(regs)
    }

    /// Emit the load for a resolved access. Loads read the f64 buffers;
    /// an `int`/`bool` element converts to `I64` right after.
    fn emit_load(&mut self, e: &Expr) -> Result<Option<Reg>, CoreError> {
        let key = print_expr(e);
        let Some(parts) = self.access_parts(e)? else {
            return Ok(None);
        };
        let ins = match parts.space {
            Space::Data => match self.hoisted(&key)? {
                Some((base, stride, k)) => Instr::LoadDataAt {
                    dst: 0,
                    base,
                    k,
                    stride,
                },
                None => Instr::LoadData {
                    dst: 0,
                    path: parts.path,
                    idx: self.compile_access_indices(&parts, parts.idx_exprs.len())?,
                },
            },
            Space::State(state) if self.opt == OptLevel::Opt2 => match self.hoisted(&key)? {
                Some((base, stride, k)) => Instr::LoadStateAt {
                    dst: 0,
                    state,
                    base,
                    k,
                    stride,
                },
                None => {
                    let idx = self.compile_access_indices(&parts, parts.idx_exprs.len())?;
                    if idx.is_empty() {
                        self.scalar_state_load(state)?
                    } else {
                        Instr::LoadStateFlat {
                            dst: 0,
                            state,
                            path: parts.path,
                            idx,
                        }
                    }
                }
            },
            // generated / opt-1: nested walk, one step per selector.
            Space::State(state) => Instr::LoadStateNested {
                dst: 0,
                state,
                steps: self.nested_steps(e)?,
            },
            Space::Out(_) => {
                return Err(CoreError::translate(
                    "outputs cannot be read inside a kernel",
                ))
            }
        };
        Ok(Some(self.push_load(ins, parts.int_leaf)))
    }

    /// A read of a whole scalar state global: slot 0 of its one-slot
    /// flat buffer at opt-2, so no opt-2 kernel walks nested state; the
    /// nested value itself otherwise.
    fn scalar_state_load(&mut self, state: StateId) -> Result<Instr, CoreError> {
        if self.opt != OptLevel::Opt2 {
            return Ok(Instr::LoadStateNested {
                dst: 0,
                state,
                steps: Vec::new(),
            });
        }
        let spec = &self.states[state as usize];
        if !spec.shape.is_prim() {
            return Err(CoreError::translate(format!(
                "state `{}` is read without an index",
                spec.name
            )));
        }
        let zero = self.int_const(0);
        Ok(Instr::LoadStateAt {
            dst: 0,
            state,
            base: zero,
            k: zero,
            stride: 1,
        })
    }

    /// Push a load instruction (built with a placeholder `dst`) into a
    /// fresh `F64` register; convert an `int` element to `I64`.
    fn push_load(&mut self, mut ins: Instr, int_leaf: bool) -> Reg {
        let dst = self.alloc(RegClass::F64);
        match &mut ins {
            Instr::LoadData { dst: d, .. }
            | Instr::LoadDataAt { dst: d, .. }
            | Instr::LoadStateNested { dst: d, .. }
            | Instr::LoadStateFlat { dst: d, .. }
            | Instr::LoadStateAt { dst: d, .. } => *d = dst,
            other => unreachable!("not a load: {other:?}"),
        }
        self.code.push(ins);
        if int_leaf {
            self.int_of(dst)
        } else {
            dst
        }
    }

    /// Build the nested navigation steps for a state access
    /// (generated/opt-1 path).
    fn nested_steps(&mut self, e: &Expr) -> Result<Vec<NavStep>, CoreError> {
        let mut elems: Vec<&Expr> = Vec::new();
        let mut cur = e;
        let root_ty = loop {
            match cur {
                Expr::Ident(name, _) => {
                    break self
                        .analysis
                        .decls
                        .globals
                        .get(name)
                        .cloned()
                        .ok_or_else(|| CoreError::translate(format!("`{name}` untyped")))?;
                }
                Expr::Index { base, .. } | Expr::Field { base, .. } => {
                    elems.push(cur);
                    cur = base;
                }
                other => {
                    return Err(CoreError::translate(format!("bad chain element {other:?}")));
                }
            }
        };
        elems.reverse();
        let mut ty = root_ty;
        let mut steps = Vec::new();
        for elem in elems {
            match elem {
                Expr::Field { field, .. } => {
                    let Ty::Record(rname) = &ty else {
                        return Err(CoreError::translate("field on non-record"));
                    };
                    let info =
                        self.analysis.decls.records.get(rname).ok_or_else(|| {
                            CoreError::translate(format!("unknown record `{rname}`"))
                        })?;
                    let (pos, fty) = info
                        .field(field)
                        .ok_or_else(|| CoreError::translate(format!("no field `{field}`")))?;
                    steps.push(NavStep::Field(pos));
                    ty = fty.clone();
                }
                Expr::Index { indices, .. } => {
                    let Ty::Array { dims, elem: ety } = &ty.clone() else {
                        return Err(CoreError::translate("indexing non-array"));
                    };
                    for (i, idx) in indices.iter().enumerate() {
                        let regs = self.compile_indices(&[idx], &[dims[i].0])?;
                        steps.push(NavStep::Index(regs[0]));
                    }
                    ty = (**ety).clone();
                }
                _ => unreachable!("chain elements are Index/Field"),
            }
        }
        Ok(steps)
    }

    // ---------- expressions ----------

    /// Compile a reduce-expression operand: leaf idents denote "this
    /// row's element of that array".
    fn reduce_operand(&mut self, e: &Expr) -> Result<Reg, CoreError> {
        match e {
            Expr::Ident(name, _) => {
                let (vpos, var) = self
                    .dataset_var(name)
                    .ok_or_else(|| CoreError::translate(format!("`{name}` is not a leaf")))?;
                let int_leaf = matches!(var.elem_shape, Shape::Int);
                let key = format!("leaf:{name}");
                let meta = LinearMeta::new(&self.dataset.zip_shape)
                    .for_path(&AccessPath::new(vec![vec![vpos]]))
                    .map_err(|e| CoreError::translate(format!("leaf path: {e}")))?;
                let path = self.intern_path(key, meta);
                let load = Instr::LoadData {
                    dst: 0,
                    path,
                    idx: vec![REG_LOCAL_ROW],
                };
                Ok(self.push_load(load, int_leaf))
            }
            Expr::Int(v, _) => Ok(self.int_const(*v)),
            Expr::Real(v, _) => Ok(self.const_reg(*v)),
            Expr::Binary { op, l, r, .. } => {
                let a = self.reduce_operand(l)?;
                let b = self.reduce_operand(r)?;
                let aop = match op {
                    BinOp::Add => ArithOp::Add,
                    BinOp::Sub => ArithOp::Sub,
                    BinOp::Mul => ArithOp::Mul,
                    BinOp::Div => ArithOp::Div,
                    other => {
                        return Err(CoreError::translate(format!(
                            "operator {other:?} in reduce operand"
                        )));
                    }
                };
                self.binop(aop, a, b, None)
            }
            Expr::Unary {
                op: UnOp::Neg, e, ..
            } => {
                let src = self.reduce_operand(e)?;
                self.negate(src)
            }
            other => Err(CoreError::translate(format!(
                "unsupported reduce operand {other:?}"
            ))),
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<Reg, CoreError> {
        match e {
            Expr::Int(v, _) => Ok(self.int_const(*v)),
            Expr::Real(v, _) => Ok(self.const_reg(*v)),
            Expr::Bool(b, _) => Ok(self.int_const(*b as i64)),
            Expr::Ident(name, _) => {
                if let Some(r) = self.lookup_local(name) {
                    return Ok(r);
                }
                if self.user_fields.contains_key(name) {
                    return Err(CoreError::translate(format!(
                        "reduction field `{name}` cannot be read inside accumulate \
                         (the result must be order-independent)"
                    )));
                }
                if name == &self.loop_var {
                    return Ok(REG_CHAPEL_ROW);
                }
                if let Some(v) = self.analysis.decls.consts.get(name) {
                    // Sema folds any integer initializer, so a `real`
                    // constant like `const s: real = 3;` lands here too.
                    let real = matches!(self.analysis.decls.globals.get(name), Some(Ty::Real));
                    return Ok(if real {
                        self.const_reg(*v as f64)
                    } else {
                        self.int_const(*v)
                    });
                }
                // Scalar state global.
                if let Some(state) = self.state_id(name) {
                    let int_leaf = self.analysis.decls.globals.get(name).is_some_and(is_int_ty);
                    let load = self.scalar_state_load(state)?;
                    return Ok(self.push_load(load, int_leaf));
                }
                Err(CoreError::translate(format!(
                    "unknown name `{name}` in kernel"
                )))
            }
            Expr::Index { .. } | Expr::Field { .. } => self
                .emit_load(e)?
                .ok_or_else(|| CoreError::translate("unsupported access in kernel")),
            Expr::Unary {
                op: UnOp::Neg,
                e: inner,
                ..
            } => {
                let src = self.expr(inner)?;
                self.negate(src)
            }
            Expr::Unary {
                op: UnOp::Not,
                e: inner,
                ..
            } => {
                let src = self.cond(inner)?;
                let dst = self.alloc(RegClass::I64);
                self.code.push(Instr::Not { dst, src });
                Ok(dst)
            }
            Expr::Binary {
                op: op @ (BinOp::And | BinOp::Or),
                l,
                r,
                ..
            } => {
                // Short-circuit && / || compile to an `If` around the
                // rhs (the kernel must not index out of bounds on the
                // skipped side).
                let dst = self.alloc(RegClass::I64);
                let a = self.cond(l)?;
                self.code.push(Instr::IMov { dst, src: a });
                let rhs = self.block(|c| {
                    let b = c.cond(r)?;
                    c.code.push(Instr::IMov { dst, src: b });
                    Ok(())
                })?;
                let (then, els) = match op {
                    BinOp::And => (rhs, Vec::new()),
                    _ => (Vec::new(), rhs),
                };
                self.code.push(Instr::If { cond: a, then, els });
                Ok(dst)
            }
            Expr::Binary { op, l, r, .. } => {
                let a = self.expr(l)?;
                let b = self.expr(r)?;
                let op = match op {
                    BinOp::Add => ArithOp::Add,
                    BinOp::Sub => ArithOp::Sub,
                    BinOp::Mul => ArithOp::Mul,
                    BinOp::Div => ArithOp::Div,
                    BinOp::Mod => ArithOp::Mod,
                    BinOp::Pow => ArithOp::Pow,
                    BinOp::Eq => return Ok(self.compare(CmpOp::Eq, a, b)),
                    BinOp::Ne => return Ok(self.compare(CmpOp::Ne, a, b)),
                    BinOp::Lt => return Ok(self.compare(CmpOp::Lt, a, b)),
                    BinOp::Le => return Ok(self.compare(CmpOp::Le, a, b)),
                    BinOp::Gt => return Ok(self.compare(CmpOp::Gt, a, b)),
                    BinOp::Ge => return Ok(self.compare(CmpOp::Ge, a, b)),
                    BinOp::And | BinOp::Or => unreachable!("short-circuit operators handled above"),
                };
                self.binop(op, a, b, None)
            }
            Expr::Call { callee, args, .. } => {
                let Some(name) = callee.as_ident() else {
                    return Err(CoreError::translate("unsupported call in kernel"));
                };
                match (name, args.len()) {
                    ("int" | "floor", 1) => {
                        let src = self.expr(&args[0])?;
                        Ok(self.int_of(src))
                    }
                    ("real", 1) => {
                        let src = self.expr(&args[0])?;
                        Ok(self.real_of(src))
                    }
                    ("sqrt", 1) => {
                        let src = self.expr(&args[0])?;
                        let src = self.real_of(src);
                        let dst = self.alloc(RegClass::F64);
                        self.code.push(Instr::Sqrt { dst, src });
                        Ok(dst)
                    }
                    ("abs", 1) => {
                        let src = self.expr(&args[0])?;
                        if self.class(src) == RegClass::I64 {
                            // max(x, 0 - x): wrapping, like `i64::abs`
                            // in a release build.
                            let neg = self.negate(src)?;
                            return self.binop(ArithOp::Max, src, neg, None);
                        }
                        let dst = self.alloc(RegClass::F64);
                        self.code.push(Instr::Abs { dst, src });
                        Ok(dst)
                    }
                    ("min", 2) | ("max", 2) => {
                        let a = self.expr(&args[0])?;
                        let b = self.expr(&args[1])?;
                        let op = if name == "min" {
                            ArithOp::Min
                        } else {
                            ArithOp::Max
                        };
                        self.binop(op, a, b, None)
                    }
                    ("max", 1) if args[0].as_ident() == Some("int") => Ok(self.int_const(i64::MAX)),
                    ("min", 1) if args[0].as_ident() == Some("int") => Ok(self.int_const(i64::MIN)),
                    ("max", 1) if args[0].as_ident() == Some("real") => {
                        Ok(self.const_reg(f64::INFINITY))
                    }
                    ("min", 1) if args[0].as_ident() == Some("real") => {
                        Ok(self.const_reg(f64::NEG_INFINITY))
                    }
                    _ => Err(CoreError::translate(format!(
                        "function `{name}` is not available in kernels"
                    ))),
                }
            }
            other => Err(CoreError::translate(format!(
                "unsupported kernel expression {other:?}"
            ))),
        }
    }
}
