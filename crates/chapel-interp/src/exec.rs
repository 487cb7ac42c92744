//! The tree-walking interpreter.
//!
//! This is the semantic oracle of the reproduction: every FREERIDE
//! translation is differentially tested against direct interpretation of
//! the same Chapel program. It implements Chapel value semantics for
//! records and arrays (copy on assignment), reference semantics for
//! class instances, 1-based (declared-bound) array indexing,
//! short-circuit logical operators, and both built-in and user-defined
//! (`ReduceScanOp`) reductions.
//!
//! It evaluates the slot-resolved tree of [`crate::resolve`]: names are
//! frame or global slots, and an index/field chain is a place whose
//! indices are evaluated first and whose path is then walked by
//! reference, cloning only the value at its end (or, for an update,
//! changing it in place).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use chapel_frontend::ast::{AssignOp, BinOp, Program, ReduceOp, UnOp};
use chapel_frontend::token::Span;

use crate::error::InterpError;
use crate::resolve::{
    Builtin, Call, Code, Expr, Field, FieldInit, Func, Globals, Init, Place, Root, Step, Stmt,
    Type, Var,
};
use crate::value::{ObjectData, RtValue};

/// Control flow result of statement execution.
enum Flow {
    Normal,
    Return(RtValue),
}

/// The interpreter. Create one, [`Interpreter::run`] a program, then
/// inspect [`Interpreter::global`] values and [`Interpreter::output`].
#[derive(Debug)]
pub struct Interpreter {
    /// Resolved declarations of the prepared program.
    code: Rc<Code>,
    globals: Globals,
    /// Slots of every active frame; the current one starts at `base`.
    /// The top-level statement's frame starts at 0.
    stack: Vec<RtValue>,
    base: usize,
    /// Evaluated indices of the access paths being walked, innermost
    /// path last.
    idx: Vec<i64>,
    /// `self` objects of active method calls.
    self_stack: Vec<Rc<RefCell<ObjectData>>>,
    output: Vec<String>,
    steps: u64,
    step_limit: u64,
}

impl Default for Interpreter {
    fn default() -> Self {
        Interpreter::new()
    }
}

impl Interpreter {
    /// A fresh interpreter with the default step limit (2^33 ≈ 8.6e9
    /// evaluation steps — enough for the bench-scale kernels, finite so
    /// runaway loops fail loudly).
    pub fn new() -> Interpreter {
        Interpreter {
            code: Rc::default(),
            globals: Globals::default(),
            stack: Vec::new(),
            base: 0,
            idx: Vec::new(),
            self_stack: Vec::new(),
            output: Vec::new(),
            steps: 0,
            step_limit: 1 << 33,
        }
    }

    /// Override the evaluation step limit.
    pub fn with_step_limit(mut self, limit: u64) -> Interpreter {
        self.step_limit = limit;
        self
    }

    /// Parse and run a source string.
    pub fn run_source(src: &str) -> Result<Interpreter, InterpError> {
        let program = chapel_frontend::parse(src)
            .map_err(|e| InterpError::new(Span::default(), e.to_string()))?;
        let mut interp = Interpreter::new();
        interp.run(&program)?;
        Ok(interp)
    }

    /// Execute a program's top-level statements.
    pub fn run(&mut self, program: &Program) -> Result<(), InterpError> {
        self.prepare(program);
        for item in &program.items {
            if let chapel_frontend::ast::Item::Stmt(s) = item {
                if let Flow::Return(_) = self.exec_program_stmt(s)? {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Load a program's declarations (records, classes, functions)
    /// without executing its statements. Used by drivers that interleave
    /// interpretation with translated execution.
    pub fn prepare(&mut self, program: &Program) {
        self.code = Rc::new(Code::new(program, &mut self.globals));
    }

    /// Execute one top-level statement (after [`Interpreter::prepare`]).
    pub fn exec_top(&mut self, s: &chapel_frontend::ast::Stmt) -> Result<(), InterpError> {
        self.exec_program_stmt(s).map(|_| ())
    }

    fn exec_program_stmt(&mut self, s: &chapel_frontend::ast::Stmt) -> Result<Flow, InterpError> {
        let (stmt, slots) = self.code.top_stmt(s, &mut self.globals);
        self.stack.clear();
        self.stack.resize(slots, RtValue::Nil);
        self.base = 0;
        self.exec_stmt(&stmt)
    }

    /// Look up a global variable after a run.
    pub fn global(&self, name: &str) -> Option<&RtValue> {
        self.globals.get(name)
    }

    /// Overwrite (or create) a global variable — used by the translator
    /// to write FREERIDE results back into the Chapel world.
    pub fn set_global(&mut self, name: &str, value: RtValue) {
        let g = self.globals.slot(name);
        self.globals.values[g] = Some(value);
    }

    /// Lines printed by `writeln`.
    pub fn output(&self) -> &[String] {
        &self.output
    }

    /// Evaluation steps taken so far (the unit of the step limit).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Simulate FREERIDE-style parallel execution of a user-defined
    /// reduction class: split `items` into `threads` chunks, run
    /// `accumulate` on a private instance per chunk, `combine` the
    /// instances pairwise, then `generate`. Differentially tests the
    /// user's `combine` against sequential accumulation.
    pub fn user_reduce_parallel(
        &mut self,
        class: &str,
        items: &[RtValue],
        threads: usize,
    ) -> Result<RtValue, InterpError> {
        let threads = threads.max(1);
        let chunk = items.len().div_ceil(threads).max(1);
        let mut instances = Vec::new();
        for part in items.chunks(chunk) {
            let obj = self.instantiate(class, Span::default())?;
            for item in part {
                self.call_method(&obj, "accumulate", vec![item.clone()], Span::default())?;
            }
            instances.push(obj);
        }
        let first = instances.remove(0);
        for other in instances {
            self.call_method(
                &first,
                "combine",
                vec![RtValue::Object(other)],
                Span::default(),
            )?;
        }
        self.call_method(&first, "generate", vec![], Span::default())
    }

    // ---------- statements ----------

    #[inline]
    fn tick(&mut self, span: Span) -> Result<(), InterpError> {
        self.tick_n(1, span)
    }

    #[inline]
    fn tick_n(&mut self, n: u64, span: Span) -> Result<(), InterpError> {
        self.steps += n;
        if self.steps > self.step_limit {
            return Err(step_limit_exceeded(span));
        }
        Ok(())
    }

    fn exec_block(&mut self, stmts: &[Stmt]) -> Result<Flow, InterpError> {
        for s in stmts {
            if let Flow::Return(v) = self.exec_stmt(s)? {
                return Ok(Flow::Return(v));
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &Stmt) -> Result<Flow, InterpError> {
        match s {
            Stmt::Var { var, init, span } => {
                self.tick(*span)?;
                let value = match init {
                    Init::Expr { e, real } => match self.eval(e)? {
                        // Respect a declared numeric type: `var x: real = 1`
                        // stores 1.0.
                        RtValue::Int(i) if *real => RtValue::Real(i as f64),
                        v => v,
                    },
                    Init::Default(ty) => self.default_value(ty, *span)?,
                    Init::Missing(name) => {
                        return Err(InterpError::new(
                            *span,
                            format!("`{name}` has neither type nor initializer"),
                        ));
                    }
                };
                match var {
                    Var::Local(slot) => self.stack[self.base + slot] = value,
                    Var::Global(g) | Var::Outer(g) => self.globals.values[*g] = Some(value),
                }
                Ok(Flow::Normal)
            }
            Stmt::Assign { lhs, op, rhs, span } => {
                self.tick(*span)?;
                let value = self.eval(rhs)?;
                let start = self.idx.len();
                let done = match op {
                    AssignOp::Set => self.store(lhs, value),
                    _ => self.update(lhs, *op, value, *span),
                };
                self.idx.truncate(start);
                done.map(|()| Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::For {
                slot,
                iter,
                body,
                span,
            } => {
                self.tick(*span)?;
                let slot = self.base + slot;
                match self.eval(iter)? {
                    RtValue::Range(lo, hi) => {
                        for i in lo..=hi {
                            self.tick(*span)?;
                            match &mut self.stack[slot] {
                                RtValue::Int(cell) => *cell = i,
                                other => *other = RtValue::Int(i),
                            }
                            if let Flow::Return(v) = self.exec_block(body)? {
                                return Ok(Flow::Return(v));
                            }
                        }
                    }
                    RtValue::Array { items, .. } => {
                        for item in items {
                            self.tick(*span)?;
                            self.stack[slot] = item;
                            if let Flow::Return(v) = self.exec_block(body)? {
                                return Ok(Flow::Return(v));
                            }
                        }
                    }
                    other => {
                        return Err(InterpError::new(
                            *span,
                            format!("cannot iterate over {}", other.kind()),
                        ));
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::While { cond, body, span } => {
                loop {
                    self.tick(*span)?;
                    if !self.eval(cond)?.as_bool().map_err(|e| e.with_span(*span))? {
                        break;
                    }
                    if let Flow::Return(v) = self.exec_block(body)? {
                        return Ok(Flow::Return(v));
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then,
                els,
                span,
            } => {
                self.tick(*span)?;
                if self.eval(cond)?.as_bool().map_err(|e| e.with_span(*span))? {
                    self.exec_block(then)
                } else if let Some(e) = els {
                    self.exec_block(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::Return(value, span) => {
                self.tick(*span)?;
                let v = match value {
                    Some(e) => self.eval(e)?,
                    None => RtValue::Nil,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Writeln(args, span) => {
                self.tick(*span)?;
                let mut line = String::new();
                for a in args {
                    line.push_str(&self.eval(a)?.to_string());
                }
                self.output.push(line);
                Ok(Flow::Normal)
            }
            Stmt::Block(b) => self.exec_block(b),
        }
    }

    // ---------- values and defaults ----------

    /// Default-construct a value of a resolved type, evaluating array
    /// bounds in the current environment (they may be runtime values).
    fn default_value(&mut self, ty: &Type, span: Span) -> Result<RtValue, InterpError> {
        match ty {
            Type::Int => Ok(RtValue::Int(0)),
            Type::Real => Ok(RtValue::Real(0.0)),
            Type::Bool => Ok(RtValue::Bool(false)),
            Type::Str => Ok(RtValue::Str(String::new())),
            Type::Record(r) => self.default_record(*r),
            // Class variables default to an uninitialised object.
            Type::Class(name) => Ok(RtValue::Object(self.instantiate(name, span)?)),
            Type::Unknown(name) => Err(InterpError::new(span, format!("unknown type `{name}`"))),
            Type::Array(dims, elem) => {
                // Evaluate all dimension bounds, then build nested
                // arrays, first dimension outermost.
                let mut bounds = Vec::with_capacity(dims.len());
                for d in dims {
                    let lo = self
                        .eval(&d.lo)?
                        .as_i64()
                        .map_err(|e| e.with_span(d.span))?;
                    let hi = self
                        .eval(&d.hi)?
                        .as_i64()
                        .map_err(|e| e.with_span(d.span))?;
                    if hi < lo {
                        return Err(InterpError::new(d.span, format!("empty range {lo}..{hi}")));
                    }
                    bounds.push((lo, hi));
                }
                let mut value = self.default_value(elem, span)?;
                for &(lo, hi) in bounds.iter().rev() {
                    let len = (hi - lo + 1) as usize;
                    value = RtValue::Array {
                        lo,
                        items: vec![value; len],
                    };
                }
                Ok(value)
            }
        }
    }

    fn default_record(&mut self, r: usize) -> Result<RtValue, InterpError> {
        let code = Rc::clone(&self.code);
        let decl = &code.records[r];
        let mut fields = Vec::with_capacity(decl.fields.len());
        for f in &decl.fields {
            let v = match &f.init {
                FieldInit::Expr(init) => self.eval(init)?,
                FieldInit::Type(ty) => self.default_value(ty, f.span)?,
                FieldInit::None => RtValue::Nil,
            };
            fields.push(v);
        }
        Ok(RtValue::Record {
            name: decl.name.clone(),
            fields,
        })
    }

    /// Instantiate a class with default-valued fields (type-parameter
    /// constructor arguments, as in `new SumOp(real)`, are accepted and
    /// ignored — the subset is dynamically typed at runtime).
    fn instantiate(
        &mut self,
        class: &str,
        span: Span,
    ) -> Result<Rc<RefCell<ObjectData>>, InterpError> {
        let code = Rc::clone(&self.code);
        let decl = code
            .class(class)
            .ok_or_else(|| InterpError::new(span, format!("unknown class `{class}`")))?;
        let mut fields = HashMap::new();
        for f in &decl.fields {
            let v = match &f.init {
                FieldInit::Expr(init) => self.eval(init)?,
                FieldInit::Type(ty) => match self.default_value(ty, f.span) {
                    Ok(v) => v,
                    // Fields of a generic `type` parameter default to 0.0.
                    Err(_) if f.generic => RtValue::Real(0.0),
                    Err(e) => return Err(e),
                },
                FieldInit::None => RtValue::Real(0.0),
            };
            fields.insert(f.name.clone(), v);
        }
        Ok(Rc::new(RefCell::new(ObjectData {
            class: class.to_string(),
            fields,
        })))
    }

    // ---------- names and places ----------

    fn unknown(&self, g: usize, span: Span) -> InterpError {
        InterpError::new(
            span,
            format!("unknown identifier `{}`", self.globals.names[g]),
        )
    }

    /// Apply `f` to the value `var` names, by reference.
    fn with_var<R>(
        &self,
        var: &Var,
        span: Span,
        f: impl FnOnce(&RtValue) -> Result<R, InterpError>,
    ) -> Result<R, InterpError> {
        let g = match var {
            Var::Local(slot) => return f(&self.stack[self.base + slot]),
            Var::Global(g) => *g,
            Var::Outer(g) => {
                if let Some(obj) = self.self_stack.last() {
                    if let Some(v) = obj.borrow().fields.get(&self.globals.names[*g]) {
                        return f(v);
                    }
                }
                *g
            }
        };
        match &self.globals.values[g] {
            Some(v) => f(v),
            None => Err(self.unknown(g, span)),
        }
    }

    /// Walk `steps` from `var` by mutable reference (indices from
    /// `self.idx[start..]`) and apply `f` to the slot at the end. Path
    /// errors carry `span`.
    fn with_slot<R>(
        &mut self,
        var: &Var,
        steps: &[Step],
        start: usize,
        span: Span,
        f: impl FnOnce(&mut RtValue) -> R,
    ) -> Result<R, InterpError> {
        let Interpreter {
            code,
            globals,
            stack,
            base,
            idx,
            self_stack,
            ..
        } = self;
        let idx = &idx[start..];
        let g = match var {
            Var::Local(slot) => {
                return navigate(&mut stack[*base + slot], steps, idx, code, span).map(f)
            }
            Var::Global(g) => *g,
            Var::Outer(g) => {
                if let Some(obj) = self_stack.last() {
                    if let Some(v) = obj.borrow_mut().fields.get_mut(&globals.names[*g]) {
                        return navigate(v, steps, idx, code, span).map(f);
                    }
                }
                *g
            }
        };
        match &mut globals.values[g] {
            Some(v) => navigate(v, steps, idx, code, span).map(f),
            None => Err(InterpError::new(
                span,
                format!("unknown identifier `{}`", globals.names[g]),
            )),
        }
    }

    /// Walk `steps` from `root` by reference (indices from
    /// `self.idx[start..]`) and apply `leaf` to the value at the end.
    fn walk_from<R>(
        &self,
        root: RootRef<'_>,
        steps: &[Step],
        start: usize,
        leaf: impl Fn(&RtValue) -> R + Copy,
    ) -> Result<R, InterpError> {
        let idx = &self.idx[start..];
        match root {
            RootRef::Var(var, span) => {
                self.with_var(var, span, |v| walk(v, steps, idx, &self.code, leaf))
            }
            RootRef::Value(v) => walk(v, steps, idx, &self.code, leaf),
        }
    }

    /// Evaluate the indices of `p`'s steps onto `self.idx`, the step
    /// nearest the root first. When one fails, a step before it that
    /// cannot be walked reports first, as when each step is walked before
    /// the next one's indices are evaluated.
    fn eval_indices(&mut self, p: &Place, root: RootRef<'_>) -> Result<(), InterpError> {
        let start = self.idx.len();
        for (k, step) in p.steps.iter().enumerate() {
            let Step::Index(indices, span) = step else {
                continue;
            };
            for i in indices {
                match self
                    .operand(i)
                    .and_then(|v| v.as_i64().map_err(|e| e.with_span(*span)))
                {
                    Ok(x) => self.idx.push(x),
                    Err(e) => {
                        let earlier = self.walk_from(root, &p.steps[..k], start, |_| ());
                        return Err(earlier.err().unwrap_or(e));
                    }
                }
            }
        }
        Ok(())
    }

    /// Read a place: walk it by reference and clone the value at its end.
    fn read(&mut self, p: &Place) -> Result<RtValue, InterpError> {
        self.tick_n(p.steps.len() as u64, p.span)?;
        let start = self.idx.len();
        let value = self.read_indexed(p, start);
        self.idx.truncate(start);
        value
    }

    fn read_indexed(&mut self, p: &Place, start: usize) -> Result<RtValue, InterpError> {
        match &p.root {
            Root::Var(var, span) => {
                self.tick(*span)?;
                self.with_var(var, *span, |_| Ok(()))?;
                let root = RootRef::Var(var, *span);
                self.eval_indices(p, root)?;
                self.walk_from(root, &p.steps, start, copy)
            }
            Root::Value(e) => {
                let value = self.eval(e)?;
                let root = RootRef::Value(&value);
                self.eval_indices(p, root)?;
                self.walk_from(root, &p.steps, start, copy)
            }
        }
    }

    /// `lhs = value`: indices are evaluated outermost step first, then
    /// the path is walked in place.
    fn store(&mut self, lhs: &Place, value: RtValue) -> Result<(), InterpError> {
        let start = self.idx.len();
        for step in lhs.steps.iter().rev() {
            if let Step::Index(indices, span) = step {
                for i in indices {
                    let x = self.operand(i)?.as_i64().map_err(|e| e.with_span(*span))?;
                    self.idx.push(x);
                }
            }
        }
        // Put the steps back in walk order, each step's indices in theirs.
        self.idx[start..].reverse();
        let mut at = start;
        for step in &lhs.steps {
            if let Step::Index(indices, _) = step {
                self.idx[at..at + indices.len()].reverse();
                at += indices.len();
            }
        }
        let Root::Var(var, _) = &lhs.root else {
            let Root::Value(e) = &lhs.root else {
                unreachable!()
            };
            return Err(not_assignable(e));
        };
        let span = lhs.span;
        self.with_slot(var, &lhs.steps, start, span, |slot| {
            assign_preserving_kind(slot, value, span)
        })?
    }

    /// `lhs op= rhs`: the path is evaluated once, in read order, and its
    /// slot updated in place.
    fn update(
        &mut self,
        lhs: &Place,
        op: AssignOp,
        rhs: RtValue,
        span: Span,
    ) -> Result<(), InterpError> {
        let bop = match op {
            AssignOp::Add => BinOp::Add,
            AssignOp::Sub => BinOp::Sub,
            AssignOp::Mul => BinOp::Mul,
            AssignOp::Div => BinOp::Div,
            AssignOp::Set => unreachable!("plain stores go through `store`"),
        };
        let (var, vspan) = match &lhs.root {
            Root::Var(var, vspan) => (var, *vspan),
            Root::Value(e) => {
                // Not assignable: the read and the operator still report
                // their own errors first.
                let cur = self.read(lhs)?;
                binary_op(bop, &cur, &rhs, span)?;
                return Err(not_assignable(e));
            }
        };
        self.tick_n(lhs.steps.len() as u64 + 1, lhs.span)?;
        self.with_var(var, vspan, |_| Ok(()))?;
        let start = self.idx.len();
        let root = RootRef::Var(var, vspan);
        self.eval_indices(lhs, root)?;
        let updated = self.with_slot(var, &lhs.steps, start, lhs.span, |slot| {
            let new = binary_op(bop, slot, &rhs, span)?;
            assign_preserving_kind(slot, new, span)
        });
        match updated {
            Ok(done) => done,
            Err(store_err) => {
                // The path reads but does not store (it crosses an
                // object): the read and the operator report first.
                let cur = self.walk_from(root, &lhs.steps, start, copy)?;
                binary_op(bop, &cur, &rhs, span)?;
                Err(store_err)
            }
        }
    }

    // ---------- expressions ----------

    /// Evaluate an expression. The arms here are the hot ones; the rest
    /// live in [`Interpreter::eval_other`] so this frame stays small.
    fn eval(&mut self, e: &Expr) -> Result<RtValue, InterpError> {
        match e {
            Expr::Const(v, span) => {
                self.tick(*span)?;
                Ok(copy(v))
            }
            Expr::Var(Var::Local(slot), span) => {
                self.tick(*span)?;
                Ok(copy(&self.stack[self.base + slot]))
            }
            Expr::Binary(op, l, r, span) if !matches!(op, BinOp::And | BinOp::Or) => {
                self.tick(*span)?;
                let lv = self.operand(l)?;
                let rv = self.operand(r)?;
                binary_op(*op, &lv, &rv, *span)
            }
            Expr::Arith(tree, nodes) => self.arith_tree(tree, *nodes),
            Expr::Place(p) => self.read(p),
            _ => self.eval_other(e),
        }
    }

    /// [`Interpreter::eval`] with the leaves inline (no call for a
    /// literal or a local).
    #[inline(always)]
    fn operand(&mut self, e: &Expr) -> Result<RtValue, InterpError> {
        match e {
            Expr::Const(v, span) => {
                self.tick(*span)?;
                Ok(copy(v))
            }
            Expr::Var(Var::Local(slot), span) => {
                self.tick(*span)?;
                Ok(copy(&self.stack[self.base + slot]))
            }
            _ => self.eval(e),
        }
    }

    /// Evaluate an [`Expr::Arith`] tree of `nodes` nodes: in one pass
    /// when every operand is an `int` or a `real` and no step fails,
    /// node by node otherwise (which reports any error where it arises).
    fn arith_tree(&mut self, e: &Expr, nodes: u64) -> Result<RtValue, InterpError> {
        if self.steps + nodes <= self.step_limit {
            if let Some(n) = num(&self.stack[self.base..], e) {
                self.steps += nodes;
                return Ok(n.value());
            }
        }
        self.eval(e)
    }

    #[inline(never)]
    fn eval_other(&mut self, e: &Expr) -> Result<RtValue, InterpError> {
        match e {
            Expr::Const(..) | Expr::Arith(..) | Expr::Place(_) => self.eval(e),
            Expr::Binary(op, ..) if !matches!(op, BinOp::And | BinOp::Or) => self.eval(e),
            Expr::Var(var, span) => {
                self.tick(*span)?;
                self.with_var(var, *span, |v| Ok(v.clone()))
            }
            Expr::Range(lo, hi, span) => {
                self.tick(*span)?;
                let lo = self.eval(lo)?.as_i64().map_err(|e| e.with_span(*span))?;
                let hi = self.eval(hi)?.as_i64().map_err(|e| e.with_span(*span))?;
                Ok(RtValue::Range(lo, hi))
            }
            Expr::Unary(op, inner, span) => {
                self.tick(*span)?;
                let v = self.eval(inner)?;
                match op {
                    UnOp::Neg => match v {
                        RtValue::Int(x) => Ok(RtValue::Int(-x)),
                        RtValue::Real(x) => Ok(RtValue::Real(-x)),
                        other => Err(InterpError::new(
                            *span,
                            format!("cannot negate {}", other.kind()),
                        )),
                    },
                    UnOp::Not => Ok(RtValue::Bool(!v.as_bool().map_err(|e| e.with_span(*span))?)),
                }
            }
            Expr::Binary(op, l, r, span) => {
                self.tick(*span)?;
                // Short-circuit logical operators.
                let lv = self.eval(l)?.as_bool().map_err(|e| e.with_span(*span))?;
                if lv == matches!(op, BinOp::Or) {
                    return Ok(RtValue::Bool(lv));
                }
                let rv = self.eval(r)?.as_bool().map_err(|e| e.with_span(*span))?;
                Ok(RtValue::Bool(rv))
            }
            Expr::Call(c) => {
                self.tick(c.span())?;
                self.eval_call(c)
            }
            Expr::Reduce(op, expr, span) => {
                self.tick(*span)?;
                self.eval_reduce(op, expr, *span)
            }
            Expr::Scan(op, expr, span) => {
                self.tick(*span)?;
                self.eval_scan(op, expr, *span)
            }
            Expr::New(class, span) => {
                self.tick(*span)?;
                let obj = self.instantiate(class, *span)?;
                Ok(RtValue::Object(obj))
            }
        }
    }

    fn eval_args(&mut self, args: &[Expr]) -> Result<Vec<RtValue>, InterpError> {
        let mut argv = Vec::with_capacity(args.len());
        for a in args {
            argv.push(self.eval(a)?);
        }
        Ok(argv)
    }

    fn eval_call(&mut self, c: &Call) -> Result<RtValue, InterpError> {
        match c {
            Call::Method {
                base,
                name,
                args,
                span,
            } => {
                let obj = self.eval(base)?;
                let RtValue::Object(obj) = obj else {
                    return Err(InterpError::new(
                        *span,
                        format!("cannot call method `{name}` on {}", obj.kind()),
                    ));
                };
                let argv = self.eval_args(args)?;
                self.call_method(&obj, name, argv, *span)
            }
            Call::Builtin { f, args, span } => self.builtin(*f, args, *span),
            Call::Extreme { value, name, span } => value.clone().ok_or_else(|| {
                InterpError::new(
                    *span,
                    format!("`{name}` with one argument expects a type name"),
                )
            }),
            Call::Func { func, args, span } => {
                let f = Rc::clone(&self.code.funcs[*func]);
                let argv = self.eval_args(args)?;
                if argv.len() != f.params {
                    return Err(InterpError::new(
                        *span,
                        format!(
                            "`{}` takes {} arguments, got {}",
                            f.name,
                            f.params,
                            argv.len()
                        ),
                    ));
                }
                self.invoke(&f, argv)
            }
            Call::Index {
                var,
                name,
                args,
                span,
            } => {
                // Call-style array indexing: `A(i, j)`.
                let is_array = self
                    .with_var(var, *span, |v| Ok(matches!(v, RtValue::Array { .. })))
                    .unwrap_or(false);
                if !is_array {
                    return Err(InterpError::new(
                        *span,
                        format!("unknown function `{name}`"),
                    ));
                }
                let mut idx = Vec::with_capacity(args.len());
                for a in args {
                    idx.push(self.eval(a)?.as_i64().map_err(|e| e.with_span(*span))?);
                }
                self.with_var(var, *span, |v| {
                    let mut cur = v;
                    for &i in &idx {
                        cur = element(cur, i, *span)?;
                    }
                    Ok(cur.clone())
                })
            }
            Call::Unnamed(span) => Err(InterpError::new(
                *span,
                "only named functions can be called",
            )),
        }
    }

    /// Run `f` in a new frame holding `args` in its parameter slots.
    fn invoke(&mut self, f: &Func, args: Vec<RtValue>) -> Result<RtValue, InterpError> {
        let base = self.stack.len();
        self.stack.extend(args);
        self.stack.resize(base + f.slots, RtValue::Nil);
        let caller = std::mem::replace(&mut self.base, base);
        let flow = self.exec_block(&f.body);
        self.base = caller;
        self.stack.truncate(base);
        Ok(match flow? {
            Flow::Return(v) => v,
            Flow::Normal => RtValue::Nil,
        })
    }

    fn builtin(&mut self, f: Builtin, args: &[Expr], span: Span) -> Result<RtValue, InterpError> {
        let name = f.name();
        let mut unary_f64 = || -> Result<f64, InterpError> {
            if args.len() != 1 {
                return Err(InterpError::new(span, format!("`{name}` takes 1 argument")));
            }
            self.eval(&args[0])?.as_f64().map_err(|e| e.with_span(span))
        };
        Ok(match f {
            Builtin::Floor(_) => RtValue::Int(unary_f64()?.floor() as i64),
            Builtin::Ceil => RtValue::Int(unary_f64()?.ceil() as i64),
            Builtin::Round => RtValue::Int(unary_f64()?.round() as i64),
            Builtin::Real => RtValue::Real(unary_f64()?),
            Builtin::Math(_, op) => RtValue::Real(op(unary_f64()?)),
            Builtin::Abs => {
                if args.len() != 1 {
                    return Err(InterpError::new(span, "`abs` takes 1 argument"));
                }
                match self.eval(&args[0])? {
                    RtValue::Int(x) => RtValue::Int(x.abs()),
                    RtValue::Real(x) => RtValue::Real(x.abs()),
                    other => {
                        return Err(InterpError::new(
                            span,
                            format!("cannot `abs` {}", other.kind()),
                        ));
                    }
                }
            }
            Builtin::Min | Builtin::Max => {
                if args.len() != 2 {
                    return Err(InterpError::new(
                        span,
                        format!("`{name}` takes 2 arguments"),
                    ));
                }
                let is_min = matches!(f, Builtin::Min);
                let a = self.eval(&args[0])?;
                let b = self.eval(&args[1])?;
                match (&a, &b) {
                    (RtValue::Int(x), RtValue::Int(y)) => {
                        RtValue::Int(if is_min { *x.min(y) } else { *x.max(y) })
                    }
                    _ => {
                        let x = a.as_f64().map_err(|e| e.with_span(span))?;
                        let y = b.as_f64().map_err(|e| e.with_span(span))?;
                        RtValue::Real(if is_min { x.min(y) } else { x.max(y) })
                    }
                }
            }
        })
    }

    /// Instantiate a class with default-valued fields (public for the
    /// translator's user-defined-reduction bridge).
    pub fn instantiate_object(
        &mut self,
        class: &str,
    ) -> Result<Rc<RefCell<ObjectData>>, InterpError> {
        self.instantiate(class, Span::default())
    }

    /// Call a method on a class instance, binding `self` fields.
    pub fn call_method(
        &mut self,
        obj: &Rc<RefCell<ObjectData>>,
        method: &str,
        args: Vec<RtValue>,
        span: Span,
    ) -> Result<RtValue, InterpError> {
        let m = {
            let data = obj.borrow();
            let class = &data.class;
            let decl = self
                .code
                .class(class)
                .ok_or_else(|| InterpError::new(span, format!("unknown class `{class}`")))?;
            let m = decl
                .methods
                .iter()
                .find(|m| m.name == method)
                .ok_or_else(|| {
                    InterpError::new(span, format!("`{class}` has no method `{method}`"))
                })?;
            if args.len() != m.params {
                return Err(InterpError::new(
                    span,
                    format!(
                        "`{class}.{method}` takes {} arguments, got {}",
                        m.params,
                        args.len()
                    ),
                ));
            }
            Rc::clone(m)
        };
        self.self_stack.push(obj.clone());
        let result = self.invoke(&m, args);
        self.self_stack.pop();
        result
    }

    // ---------- reductions ----------

    /// Inclusive prefix scan with a built-in operator: element `i` of
    /// the result folds elements `1..=i` of the operand.
    fn eval_scan(
        &mut self,
        op: &ReduceOp,
        expr: &Expr,
        span: Span,
    ) -> Result<RtValue, InterpError> {
        let operand = self.eval(expr)?;
        let (lo, items): (i64, Vec<RtValue>) = match operand {
            RtValue::Array { lo, items } => (lo, items),
            RtValue::Range(a, b) => (1, (a..=b).map(RtValue::Int).collect()),
            other => {
                return Err(InterpError::new(
                    span,
                    format!("cannot scan over {}", other.kind()),
                ));
            }
        };
        let bop = match op {
            ReduceOp::Sum => BinOp::Add,
            ReduceOp::Product => BinOp::Mul,
            ReduceOp::Min | ReduceOp::Max | ReduceOp::LogicalAnd | ReduceOp::LogicalOr => {
                // Folded inline below.
                BinOp::Add
            }
            ReduceOp::UserDefined(_) => {
                return Err(InterpError::new(
                    span,
                    "user-defined scans are not supported by the subset",
                ));
            }
        };
        let mut out = Vec::with_capacity(items.len());
        let mut acc: Option<RtValue> = None;
        for v in items {
            let next = match (&acc, op) {
                (None, _) => v,
                (Some(a), ReduceOp::Min) => {
                    if v.as_f64().map_err(|e| e.with_span(span))?
                        < a.as_f64().map_err(|e| e.with_span(span))?
                    {
                        v
                    } else {
                        a.clone()
                    }
                }
                (Some(a), ReduceOp::Max) => {
                    if v.as_f64().map_err(|e| e.with_span(span))?
                        > a.as_f64().map_err(|e| e.with_span(span))?
                    {
                        v
                    } else {
                        a.clone()
                    }
                }
                (Some(a), ReduceOp::LogicalAnd) => RtValue::Bool(
                    a.as_bool().map_err(|e| e.with_span(span))?
                        && v.as_bool().map_err(|e| e.with_span(span))?,
                ),
                (Some(a), ReduceOp::LogicalOr) => RtValue::Bool(
                    a.as_bool().map_err(|e| e.with_span(span))?
                        || v.as_bool().map_err(|e| e.with_span(span))?,
                ),
                (Some(a), _) => binary_op(bop, a, &v, span)?,
            };
            out.push(next.clone());
            acc = Some(next);
        }
        Ok(RtValue::Array { lo, items: out })
    }

    fn eval_reduce(
        &mut self,
        op: &ReduceOp,
        expr: &Expr,
        span: Span,
    ) -> Result<RtValue, InterpError> {
        let operand = self.eval(expr)?;
        let items: Vec<RtValue> = match operand {
            RtValue::Array { items, .. } => items,
            RtValue::Range(lo, hi) => (lo..=hi).map(RtValue::Int).collect(),
            other => {
                return Err(InterpError::new(
                    span,
                    format!("cannot reduce over {}", other.kind()),
                ));
            }
        };
        if items.is_empty() {
            return Err(InterpError::new(span, "reduction over an empty collection"));
        }
        match op {
            ReduceOp::Sum => fold_binop(BinOp::Add, items, span),
            ReduceOp::Product => fold_binop(BinOp::Mul, items, span),
            ReduceOp::Min => fold_minmax(items, true, span),
            ReduceOp::Max => fold_minmax(items, false, span),
            ReduceOp::LogicalAnd => {
                let mut acc = true;
                for v in items {
                    acc = acc && v.as_bool().map_err(|e| e.with_span(span))?;
                }
                Ok(RtValue::Bool(acc))
            }
            ReduceOp::LogicalOr => {
                let mut acc = false;
                for v in items {
                    acc = acc || v.as_bool().map_err(|e| e.with_span(span))?;
                }
                Ok(RtValue::Bool(acc))
            }
            ReduceOp::UserDefined(class) => {
                let obj = self.instantiate(class, span)?;
                for item in items {
                    self.call_method(&obj, "accumulate", vec![item], span)?;
                }
                self.call_method(&obj, "generate", vec![], span)
            }
        }
    }
}

/// The root of a path being walked.
#[derive(Clone, Copy)]
enum RootRef<'a> {
    Var(&'a Var, Span),
    Value(&'a RtValue),
}

// ---------- free helpers ----------

#[cold]
fn step_limit_exceeded(span: Span) -> InterpError {
    InterpError::new(span, "evaluation step limit exceeded")
}

fn not_assignable(e: &Expr) -> InterpError {
    let span = match e {
        Expr::Const(_, s)
        | Expr::Var(_, s)
        | Expr::Range(.., s)
        | Expr::Unary(.., s)
        | Expr::Binary(.., s)
        | Expr::Reduce(.., s)
        | Expr::Scan(.., s)
        | Expr::New(_, s) => *s,
        Expr::Arith(tree, _) => return not_assignable(tree),
        Expr::Place(p) => p.span,
        Expr::Call(c) => c.span(),
    };
    InterpError::new(span, "left side of assignment is not assignable")
}

fn fold_binop(op: BinOp, items: Vec<RtValue>, span: Span) -> Result<RtValue, InterpError> {
    let mut it = items.into_iter();
    let mut acc = it.next().expect("non-empty");
    for v in it {
        acc = binary_op(op, &acc, &v, span)?;
    }
    Ok(acc)
}

fn fold_minmax(items: Vec<RtValue>, is_min: bool, span: Span) -> Result<RtValue, InterpError> {
    let mut it = items.into_iter();
    let mut acc = it.next().expect("non-empty");
    for v in it {
        let take = match (&acc, &v) {
            (RtValue::Int(a), RtValue::Int(b)) => {
                if is_min {
                    b < a
                } else {
                    b > a
                }
            }
            _ => {
                let a = acc.as_f64().map_err(|e| e.with_span(span))?;
                let b = v.as_f64().map_err(|e| e.with_span(span))?;
                if is_min {
                    b < a
                } else {
                    b > a
                }
            }
        };
        if take {
            acc = v;
        }
    }
    Ok(acc)
}

/// A clone that copies scalars without a call.
#[inline]
fn copy(v: &RtValue) -> RtValue {
    match v {
        RtValue::Int(x) => RtValue::Int(*x),
        RtValue::Real(x) => RtValue::Real(*x),
        other => other.clone(),
    }
}

/// A scalar on the [`Expr::Arith`] fast path (returned in registers).
#[derive(Clone, Copy)]
enum Num {
    Int(i64),
    Real(f64),
}

impl Num {
    /// An `int` or a `real`.
    fn of(v: &RtValue) -> Option<Num> {
        match v {
            RtValue::Int(x) => Some(Num::Int(*x)),
            RtValue::Real(x) => Some(Num::Real(*x)),
            _ => None,
        }
    }

    fn value(self) -> RtValue {
        match self {
            Num::Int(x) => RtValue::Int(x),
            Num::Real(x) => RtValue::Real(x),
        }
    }

    fn real(self) -> f64 {
        match self {
            Num::Int(x) => x as f64,
            Num::Real(x) => x,
        }
    }

    /// `a op b` for `+ - * / %`, exactly as [`binary_op`] computes it,
    /// or `None` where that could fail: an integer `/` or `%` by zero or
    /// overflowing.
    fn apply(op: BinOp, a: Num, b: Num) -> Option<Num> {
        use BinOp::*;
        Some(match (op, a, b) {
            (Add, Num::Int(a), Num::Int(b)) => Num::Int(a.wrapping_add(b)),
            (Sub, Num::Int(a), Num::Int(b)) => Num::Int(a.wrapping_sub(b)),
            (Mul, Num::Int(a), Num::Int(b)) => Num::Int(a.wrapping_mul(b)),
            (Div, Num::Int(a), Num::Int(b)) => Num::Int(a.checked_div(b)?),
            (Mod, Num::Int(a), Num::Int(b)) => Num::Int(a.checked_rem(b)?),
            (Add, a, b) => Num::Real(a.real() + b.real()),
            (Sub, a, b) => Num::Real(a.real() - b.real()),
            (Mul, a, b) => Num::Real(a.real() * b.real()),
            (Div, a, b) => Num::Real(a.real() / b.real()),
            (Mod, a, b) => Num::Real(a.real() % b.real()),
            _ => return None,
        })
    }
}

/// An arithmetic tree's value, or `None` where [`binary_op`] might
/// compute it differently or fail: an operand that is not an `int` or a
/// `real`, or a failing [`Num::apply`]. `frame` is the current frame's
/// slots.
fn num(frame: &[RtValue], e: &Expr) -> Option<Num> {
    match e {
        Expr::Const(v, _) => Num::of(v),
        Expr::Var(Var::Local(slot), _) => Num::of(&frame[*slot]),
        Expr::Binary(op, l, r, _) => Num::apply(*op, num(frame, l)?, num(frame, r)?),
        _ => None,
    }
}

/// Apply a binary operator. Int×Int stays Int (Chapel truncating `/`);
/// anything mixed with Real widens; arrays combine elementwise for the
/// arithmetic operators (Chapel promoted expressions like `A + B`).
fn binary_op(op: BinOp, l: &RtValue, r: &RtValue, span: Span) -> Result<RtValue, InterpError> {
    use BinOp::*;
    // Elementwise promotion over arrays.
    if matches!(op, Add | Sub | Mul | Div) {
        match (l, r) {
            (RtValue::Array { lo, items: li }, RtValue::Array { items: ri, .. }) => {
                if li.len() != ri.len() {
                    return Err(InterpError::new(
                        span,
                        "elementwise arrays differ in length",
                    ));
                }
                let items: Result<Vec<RtValue>, InterpError> = li
                    .iter()
                    .zip(ri)
                    .map(|(a, b)| binary_op(op, a, b, span))
                    .collect();
                return Ok(RtValue::Array {
                    lo: *lo,
                    items: items?,
                });
            }
            (RtValue::Array { lo, items }, scalar) if !matches!(scalar, RtValue::Array { .. }) => {
                let items: Result<Vec<RtValue>, InterpError> = items
                    .iter()
                    .map(|a| binary_op(op, a, scalar, span))
                    .collect();
                return Ok(RtValue::Array {
                    lo: *lo,
                    items: items?,
                });
            }
            (scalar, RtValue::Array { lo, items }) if !matches!(scalar, RtValue::Array { .. }) => {
                let items: Result<Vec<RtValue>, InterpError> = items
                    .iter()
                    .map(|b| binary_op(op, scalar, b, span))
                    .collect();
                return Ok(RtValue::Array {
                    lo: *lo,
                    items: items?,
                });
            }
            _ => {}
        }
    }

    match op {
        Add | Sub | Mul | Div | Mod | Pow => match (l, r) {
            (RtValue::Int(a), RtValue::Int(b)) => {
                let v = match op {
                    Add => a.wrapping_add(*b),
                    Sub => a.wrapping_sub(*b),
                    Mul => a.wrapping_mul(*b),
                    Div => {
                        if *b == 0 {
                            return Err(InterpError::new(span, "integer division by zero"));
                        }
                        a / b
                    }
                    Mod => {
                        if *b == 0 {
                            return Err(InterpError::new(span, "integer modulo by zero"));
                        }
                        a % b
                    }
                    Pow => {
                        if *b >= 0 {
                            a.pow((*b).min(63) as u32)
                        } else {
                            return Ok(RtValue::Real((*a as f64).powi(*b as i32)));
                        }
                    }
                    _ => unreachable!(),
                };
                Ok(RtValue::Int(v))
            }
            _ => {
                let a = l.as_f64().map_err(|e| e.with_span(span))?;
                let b = r.as_f64().map_err(|e| e.with_span(span))?;
                let v = match op {
                    Add => a + b,
                    Sub => a - b,
                    Mul => a * b,
                    Div => a / b,
                    Mod => a % b,
                    Pow => a.powf(b),
                    _ => unreachable!(),
                };
                Ok(RtValue::Real(v))
            }
        },
        Eq | Ne => {
            let eq = match (l, r) {
                (RtValue::Str(a), RtValue::Str(b)) => a == b,
                (RtValue::Bool(a), RtValue::Bool(b)) => a == b,
                _ => {
                    l.as_f64().map_err(|e| e.with_span(span))?
                        == r.as_f64().map_err(|e| e.with_span(span))?
                }
            };
            Ok(RtValue::Bool(if matches!(op, Eq) { eq } else { !eq }))
        }
        Lt | Le | Gt | Ge => {
            let a = l.as_f64().map_err(|e| e.with_span(span))?;
            let b = r.as_f64().map_err(|e| e.with_span(span))?;
            let v = match op {
                Lt => a < b,
                Le => a <= b,
                Gt => a > b,
                Ge => a >= b,
                _ => unreachable!(),
            };
            Ok(RtValue::Bool(v))
        }
        And | Or => unreachable!("short-circuited in eval"),
    }
}

fn out_of_bounds(i: i64, lo: i64, len: usize, span: Span) -> InterpError {
    InterpError::new(
        span,
        format!("index {i} out of bounds {}..{}", lo, lo + len as i64 - 1),
    )
}

/// Element `i` of an array value (declared-bound indexing).
fn element(v: &RtValue, i: i64, span: Span) -> Result<&RtValue, InterpError> {
    match v {
        RtValue::Array { lo, items } => {
            let off = i.wrapping_sub(*lo);
            usize::try_from(off)
                .ok()
                .and_then(|off| items.get(off))
                .ok_or_else(|| out_of_bounds(i, *lo, items.len(), span))
        }
        other => Err(InterpError::new(
            span,
            format!("cannot index {}", other.kind()),
        )),
    }
}

/// [`element`], mutably.
fn element_mut(v: &mut RtValue, i: i64, span: Span) -> Result<&mut RtValue, InterpError> {
    match v {
        RtValue::Array { lo, items } => {
            let (lo, len) = (*lo, items.len());
            let off = i.wrapping_sub(lo);
            usize::try_from(off)
                .ok()
                .and_then(|off| items.get_mut(off))
                .ok_or_else(|| out_of_bounds(i, lo, len, span))
        }
        other => Err(InterpError::new(
            span,
            format!("cannot index {}", other.kind()),
        )),
    }
}

impl Field {
    /// This field's position in a record named `record`.
    fn position(&self, record: &str, code: &Code, span: Span) -> Result<usize, InterpError> {
        match self.at.iter().find(|(r, _)| r == record) {
            Some(&(_, pos)) => Ok(pos),
            None => Err(match code.record(record) {
                None => InterpError::new(span, format!("unknown record `{record}`")),
                Some(_) => {
                    InterpError::new(span, format!("`{record}` has no field `{}`", self.name))
                }
            }),
        }
    }
}

/// Walk a read path by reference (indices `idx`, in step order) and
/// apply `leaf` to the value at its end. Object fields are read through
/// a borrow held while the rest of the path is walked.
fn walk<R>(
    mut v: &RtValue,
    steps: &[Step],
    mut idx: &[i64],
    code: &Code,
    leaf: impl Fn(&RtValue) -> R + Copy,
) -> Result<R, InterpError> {
    for (k, step) in steps.iter().enumerate() {
        match step {
            Step::Index(indices, span) => {
                let (now, rest) = idx.split_at(indices.len());
                for &i in now {
                    v = element(v, i, *span)?;
                }
                idx = rest;
            }
            Step::Field(field, span) => match v {
                RtValue::Record { name, fields } => {
                    v = &fields[field.position(name, code, *span)?];
                }
                RtValue::Object(obj) => {
                    let data = obj.borrow();
                    let inner = data.fields.get(&field.name).ok_or_else(|| {
                        InterpError::new(*span, format!("object has no field `{}`", field.name))
                    })?;
                    return walk(inner, &steps[k + 1..], idx, code, leaf);
                }
                other => {
                    return Err(InterpError::new(
                        *span,
                        format!("{} has no fields", other.kind()),
                    ));
                }
            },
        }
    }
    Ok(leaf(v))
}

/// Walk a store path to its slot. Every error carries `span`, the whole
/// target's; objects are never entered (their fields are assigned by
/// name inside their methods).
fn navigate<'a>(
    mut slot: &'a mut RtValue,
    steps: &[Step],
    mut idx: &[i64],
    code: &Code,
    span: Span,
) -> Result<&'a mut RtValue, InterpError> {
    for step in steps {
        match step {
            Step::Index(indices, _) => {
                let (now, rest) = idx.split_at(indices.len());
                for &i in now {
                    slot = element_mut(slot, i, span)?;
                }
                idx = rest;
            }
            Step::Field(field, _) => match slot {
                RtValue::Record { name, fields } => {
                    slot = &mut fields[field.position(name, code, span)?];
                }
                other => {
                    return Err(InterpError::new(
                        span,
                        format!("{} has no fields", other.kind()),
                    ));
                }
            },
        }
    }
    Ok(slot)
}

/// Assign into a slot, preserving an `int` slot's kind when the value is
/// a whole-number real (mirrors Chapel's typed variables under our
/// dynamically-typed execution).
#[inline]
fn assign_preserving_kind(
    slot: &mut RtValue,
    value: RtValue,
    span: Span,
) -> Result<(), InterpError> {
    match (&mut *slot, &value) {
        // Same-kind scalars: overwrite the payload, no drop.
        (RtValue::Real(cell), RtValue::Real(x)) => {
            *cell = *x;
            Ok(())
        }
        (RtValue::Int(cell), RtValue::Int(x)) => {
            *cell = *x;
            Ok(())
        }
        (RtValue::Int(_), RtValue::Real(x)) => {
            if x.fract() == 0.0 {
                *slot = RtValue::Int(*x as i64);
                Ok(())
            } else {
                Err(InterpError::new(
                    span,
                    format!("cannot store non-integer {x} into an int variable"),
                ))
            }
        }
        (RtValue::Real(_), RtValue::Int(x)) => {
            *slot = RtValue::Real(*x as f64);
            Ok(())
        }
        _ => {
            *slot = value;
            Ok(())
        }
    }
}
