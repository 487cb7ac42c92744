//! Name resolution: the AST to a slot-resolved tree.
//!
//! The resolver runs once per declaration (in
//! [`Interpreter::prepare`](crate::Interpreter::prepare)) and once per
//! top-level statement (in
//! [`Interpreter::exec_top`](crate::Interpreter::exec_top)). It gives
//! every parameter, local and loop index a slot in its frame, every
//! global a slot in one globals table, and every record field name its
//! position in each record that declares it. Index and field chains
//! rooted at a name become [`Place`]s, which the evaluator walks by
//! reference. The evaluator then indexes `Vec`s: it never hashes or
//! clones a name on the hot path.
//!
//! Resolution keeps the evaluator's scoping rules: a block, a
//! loop body (per iteration) and a call each open a scope; a name
//! refers to the innermost declaration that precedes it; and a name that
//! is not a local of function or method code is looked up at run time
//! among the fields of the active `self` object first, then among the
//! globals ([`Var::Outer`]). Record and class field initializers resolve
//! in that same non-local context.

use std::collections::HashMap;
use std::rc::Rc;

use chapel_frontend::ast::{self, AssignOp, BinOp, ReduceOp, TypeExpr, UnOp};
use chapel_frontend::token::Span;

use crate::value::RtValue;

/// Where a resolved name lives at run time.
#[derive(Debug)]
pub(crate) enum Var {
    /// A slot of the current frame.
    Local(usize),
    /// A global named from top-level code.
    Global(usize),
    /// A non-local name in function, method or field-initializer code:
    /// the active `self` object's field of that name if it has one,
    /// else the global.
    Outer(usize),
}

/// A resolved expression.
#[derive(Debug)]
pub(crate) enum Expr {
    /// A literal.
    Const(RtValue, Span),
    /// A name.
    Var(Var, Span),
    /// `lo..hi`.
    Range(Box<Expr>, Box<Expr>, Span),
    /// `op e`.
    Unary(UnOp, Box<Expr>, Span),
    /// `l op r`.
    Binary(BinOp, Box<Expr>, Box<Expr>, Span),
    /// A tree of `+ - * / %` over numeric literals and locals, with its
    /// node count: evaluated without a call per node when every operand
    /// is an `int` or a `real` (see `exec::arith_tree`).
    Arith(Box<Expr>, u64),
    /// An index/field chain, read by reference.
    Place(Box<Place>),
    /// A call.
    Call(Box<Call>),
    /// `op reduce e`.
    Reduce(ReduceOp, Box<Expr>, Span),
    /// `op scan e`.
    Scan(ReduceOp, Box<Expr>, Span),
    /// `new Class(..)` (constructor arguments are not evaluated).
    New(String, Span),
}

/// An access path: a root and the index/field steps applied to it.
#[derive(Debug)]
pub(crate) struct Place {
    /// What the path starts from.
    pub root: Root,
    /// Steps, the one applied to the root first.
    pub steps: Vec<Step>,
    /// Span of the whole access (stores report path errors here).
    pub span: Span,
}

/// The start of an access path.
#[derive(Debug)]
pub(crate) enum Root {
    /// A name: the path is walked in place.
    Var(Var, Span),
    /// Any other expression: the path is walked on its value.
    Value(Expr),
}

/// One step of an access path.
#[derive(Debug)]
pub(crate) enum Step {
    /// `[i, j, ...]`: one index per nesting level.
    Index(Vec<Expr>, Span),
    /// `.field`.
    Field(Field, Span),
}

/// A field name with its position in every record that declares it.
#[derive(Debug)]
pub(crate) struct Field {
    /// The field name.
    pub name: String,
    /// `(record name, position)` for each record with this field.
    pub at: Vec<(String, usize)>,
}

/// A resolved call.
#[derive(Debug)]
pub(crate) enum Call {
    /// `base.name(args)`.
    Method {
        base: Expr,
        name: String,
        args: Vec<Expr>,
        span: Span,
    },
    /// A cast or math builtin.
    Builtin {
        f: Builtin,
        args: Vec<Expr>,
        span: Span,
    },
    /// `min(int)`, `max(real)`, …: the type's extreme, or the error for
    /// a single argument that is not a numeric type name.
    Extreme {
        value: Option<RtValue>,
        name: &'static str,
        span: Span,
    },
    /// A user function, by index into [`Code::funcs`].
    Func {
        func: usize,
        args: Vec<Expr>,
        span: Span,
    },
    /// `A(i, j)`: call-style indexing of an array variable (an unknown
    /// function when `name` is not one).
    Index {
        var: Var,
        name: String,
        args: Vec<Expr>,
        span: Span,
    },
    /// A callee that is not a name.
    Unnamed(Span),
}

impl Call {
    /// Source span of the call.
    pub fn span(&self) -> Span {
        match self {
            Call::Method { span, .. }
            | Call::Builtin { span, .. }
            | Call::Extreme { span, .. }
            | Call::Func { span, .. }
            | Call::Index { span, .. }
            | Call::Unnamed(span) => *span,
        }
    }
}

/// The cast and math builtins.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Builtin {
    /// `int`, `floor`.
    Floor(&'static str),
    /// `ceil`.
    Ceil,
    /// `round`.
    Round,
    /// `real`.
    Real,
    /// `sqrt`, `sin`, `cos`, `exp`, `log`.
    Math(&'static str, fn(f64) -> f64),
    /// `abs`.
    Abs,
    /// `min`.
    Min,
    /// `max`.
    Max,
}

impl Builtin {
    fn named(name: &str) -> Option<Builtin> {
        Some(match name {
            "int" => Builtin::Floor("int"),
            "floor" => Builtin::Floor("floor"),
            "ceil" => Builtin::Ceil,
            "round" => Builtin::Round,
            "real" => Builtin::Real,
            "sqrt" => Builtin::Math("sqrt", f64::sqrt),
            "sin" => Builtin::Math("sin", f64::sin),
            "cos" => Builtin::Math("cos", f64::cos),
            "exp" => Builtin::Math("exp", f64::exp),
            "log" => Builtin::Math("log", f64::ln),
            "abs" => Builtin::Abs,
            "min" => Builtin::Min,
            "max" => Builtin::Max,
            _ => return None,
        })
    }

    /// The name the program called it by.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Floor(name) | Builtin::Math(name, _) => name,
            Builtin::Ceil => "ceil",
            Builtin::Round => "round",
            Builtin::Real => "real",
            Builtin::Abs => "abs",
            Builtin::Min => "min",
            Builtin::Max => "max",
        }
    }
}

/// A resolved statement.
#[derive(Debug)]
pub(crate) enum Stmt {
    /// A declaration into `var` (a local or a global).
    Var { var: Var, init: Init, span: Span },
    /// `lhs op rhs;`.
    Assign {
        lhs: Place,
        op: AssignOp,
        rhs: Expr,
        span: Span,
    },
    /// An expression statement.
    Expr(Expr),
    /// `for` over a range or an array; the index lives in `slot`.
    For {
        slot: usize,
        iter: Expr,
        body: Vec<Stmt>,
        span: Span,
    },
    /// `while cond { body }`.
    While {
        cond: Expr,
        body: Vec<Stmt>,
        span: Span,
    },
    /// `if cond { then } else { els }`.
    If {
        cond: Expr,
        then: Vec<Stmt>,
        els: Option<Vec<Stmt>>,
        span: Span,
    },
    /// `return value;`.
    Return(Option<Expr>, Span),
    /// `writeln(args);`.
    Writeln(Vec<Expr>, Span),
    /// A nested block.
    Block(Vec<Stmt>),
}

/// How a declaration gets its value.
#[derive(Debug)]
pub(crate) enum Init {
    /// From an initializer; `real` when declared `real` (an `int`
    /// initializer is widened).
    Expr { e: Expr, real: bool },
    /// The declared type's default.
    Default(Type),
    /// Neither type nor initializer (a run-time error naming the
    /// variable).
    Missing(String),
}

/// A resolved type expression.
#[derive(Debug)]
pub(crate) enum Type {
    Int,
    Real,
    Bool,
    Str,
    /// A record, by index into [`Code::records`].
    Record(usize),
    /// A class, by name.
    Class(String),
    /// A name that is neither.
    Unknown(String),
    /// `[lo..hi, ...] elem`.
    Array(Vec<Dim>, Box<Type>),
}

/// One array dimension.
#[derive(Debug)]
pub(crate) struct Dim {
    pub lo: Expr,
    pub hi: Expr,
    pub span: Span,
}

/// A record or class field's default.
#[derive(Debug)]
pub(crate) struct FieldDef {
    pub name: String,
    pub init: FieldInit,
    /// Typed by one of the class's `type` parameters (its default falls
    /// back to `0.0`).
    pub generic: bool,
    pub span: Span,
}

/// Where a field's default value comes from.
#[derive(Debug)]
pub(crate) enum FieldInit {
    Expr(Expr),
    Type(Type),
    None,
}

/// A resolved record declaration.
#[derive(Debug)]
pub(crate) struct RecordDef {
    pub name: String,
    pub fields: Vec<FieldDef>,
}

/// A resolved class declaration.
#[derive(Debug)]
pub(crate) struct ClassDef {
    pub fields: Vec<FieldDef>,
    pub methods: Vec<Rc<Func>>,
}

/// A resolved function or method.
#[derive(Debug)]
pub(crate) struct Func {
    pub name: String,
    /// Parameters occupy slots `0..params`.
    pub params: usize,
    /// Frame size.
    pub slots: usize,
    pub body: Vec<Stmt>,
}

/// `l op r`, as one [`Expr::Arith`] tree when both operands are
/// numeric literals, locals or such trees.
fn binary(op: BinOp, l: Expr, r: Expr, span: Span) -> Expr {
    fn nodes(e: &Expr) -> Option<u64> {
        match e {
            Expr::Const(RtValue::Int(_) | RtValue::Real(_), _) | Expr::Var(Var::Local(_), _) => {
                Some(1)
            }
            Expr::Arith(_, n) => Some(*n),
            _ => None,
        }
    }
    fn inner(e: Expr) -> Box<Expr> {
        match e {
            Expr::Arith(tree, _) => tree,
            e => Box::new(e),
        }
    }
    let arithmetic = matches!(
        op,
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
    );
    match (nodes(&l), nodes(&r)) {
        (Some(a), Some(b)) if arithmetic => Expr::Arith(
            Box::new(Expr::Binary(op, inner(l), inner(r), span)),
            a + b + 1,
        ),
        _ => Expr::Binary(op, Box::new(l), Box::new(r), span),
    }
}

/// Declaration names, known before any body is resolved.
#[derive(Debug, Default)]
struct Names {
    records: HashMap<String, usize>,
    classes: HashMap<String, usize>,
    funcs: HashMap<String, usize>,
    /// Field name → `(record, position)` for every record declaring it.
    fields: HashMap<String, Vec<(String, usize)>>,
}

/// A program's resolved declarations.
#[derive(Debug, Default)]
pub(crate) struct Code {
    names: Names,
    pub records: Vec<RecordDef>,
    pub classes: Vec<ClassDef>,
    pub funcs: Vec<Rc<Func>>,
}

impl Code {
    /// Resolve a program's declarations. Later declarations of a name
    /// replace earlier ones.
    pub fn new(program: &ast::Program, globals: &mut Globals) -> Code {
        fn last_wins<'p, T>(
            ix: &mut HashMap<String, usize>,
            decls: &mut Vec<&'p T>,
            name: &str,
            d: &'p T,
        ) {
            match ix.get(name) {
                Some(&i) => decls[i] = d,
                None => {
                    ix.insert(name.to_string(), decls.len());
                    decls.push(d);
                }
            }
        }
        let mut names = Names::default();
        let (mut records, mut classes, mut funcs) = (Vec::new(), Vec::new(), Vec::new());
        for item in &program.items {
            match item {
                ast::Item::Record(r) => last_wins(&mut names.records, &mut records, &r.name, r),
                ast::Item::Class(c) => last_wins(&mut names.classes, &mut classes, &c.name, c),
                ast::Item::Func(f) => last_wins(&mut names.funcs, &mut funcs, &f.name, f),
                ast::Item::Stmt(_) => {}
            }
        }
        for r in &records {
            for (pos, f) in r.fields.iter().enumerate() {
                let at = names.fields.entry(f.name.clone()).or_default();
                if !at.iter().any(|(name, _)| *name == r.name) {
                    at.push((r.name.clone(), pos));
                }
            }
        }

        let records = records
            .iter()
            .map(|r| RecordDef {
                name: r.name.clone(),
                fields: Resolver::fields(&names, globals, &r.fields, &[]),
            })
            .collect();
        let classes = classes
            .iter()
            .map(|c| ClassDef {
                fields: Resolver::fields(&names, globals, &c.fields, &c.type_params),
                methods: c
                    .methods
                    .iter()
                    .map(|m| Rc::new(Resolver::func(&names, globals, m)))
                    .collect(),
            })
            .collect();
        let funcs = funcs
            .iter()
            .map(|f| Rc::new(Resolver::func(&names, globals, f)))
            .collect();
        Code {
            names,
            records,
            classes,
            funcs,
        }
    }

    /// A record by name.
    pub fn record(&self, name: &str) -> Option<&RecordDef> {
        self.names.records.get(name).map(|&i| &self.records[i])
    }

    /// A class by name.
    pub fn class(&self, name: &str) -> Option<&ClassDef> {
        self.names.classes.get(name).map(|&i| &self.classes[i])
    }

    /// Resolve one top-level statement; returns it with the number of
    /// top-level frame slots it needs.
    pub fn top_stmt(&self, s: &ast::Stmt, globals: &mut Globals) -> (Stmt, usize) {
        let mut r = Resolver::new(&self.names, globals, true);
        let stmt = r.stmt(s);
        (stmt, r.max)
    }
}

/// The globals: one slot per name ever resolved or set.
#[derive(Debug, Default)]
pub(crate) struct Globals {
    ix: HashMap<String, usize>,
    pub names: Vec<String>,
    /// `None` until the global is declared.
    pub values: Vec<Option<RtValue>>,
}

impl Globals {
    /// The slot of `name`, created unset if new.
    pub fn slot(&mut self, name: &str) -> usize {
        if let Some(&g) = self.ix.get(name) {
            return g;
        }
        let g = self.names.len();
        self.ix.insert(name.to_string(), g);
        self.names.push(name.to_string());
        self.values.push(None);
        g
    }

    /// The value of a declared global.
    pub fn get(&self, name: &str) -> Option<&RtValue> {
        self.ix.get(name).and_then(|&g| self.values[g].as_ref())
    }
}

/// Resolves one body: a top-level statement, a function, or a field
/// initializer.
struct Resolver<'a> {
    names: &'a Names,
    globals: &'a mut Globals,
    /// Open scopes, innermost last, each with the first slot it owns.
    scopes: Vec<(HashMap<String, usize>, usize)>,
    /// Next free slot.
    next: usize,
    /// Frame size so far.
    max: usize,
    /// Top-level code: non-locals are plain globals, and a declaration
    /// outside any block declares one.
    top: bool,
}

impl<'a> Resolver<'a> {
    fn new(names: &'a Names, globals: &'a mut Globals, top: bool) -> Resolver<'a> {
        Resolver {
            names,
            globals,
            scopes: Vec::new(),
            next: 0,
            max: 0,
            top,
        }
    }

    fn func(names: &Names, globals: &mut Globals, f: &ast::FuncDecl) -> Func {
        let mut r = Resolver::new(names, globals, false);
        // The body runs in the parameters' scope.
        r.push();
        for p in &f.params {
            r.fresh(&p.name);
        }
        let body = r.stmts(&f.body.stmts);
        Func {
            name: f.name.clone(),
            params: f.params.len(),
            slots: r.max,
            body,
        }
    }

    /// Field defaults, resolved in the non-local context (names are
    /// [`Var::Outer`]).
    fn fields(
        names: &Names,
        globals: &mut Globals,
        fields: &[ast::VarDecl],
        type_params: &[String],
    ) -> Vec<FieldDef> {
        let mut r = Resolver::new(names, globals, false);
        fields.iter().map(|f| r.field(f, type_params)).collect()
    }

    fn push(&mut self) {
        self.scopes.push((HashMap::new(), self.next));
    }

    fn pop(&mut self) {
        let (_, first) = self.scopes.pop().expect("scope");
        self.next = first;
    }

    /// A new slot for `name` in the innermost scope.
    fn fresh(&mut self, name: &str) -> usize {
        let slot = self.next;
        self.next += 1;
        self.max = self.max.max(self.next);
        let (scope, _) = self.scopes.last_mut().expect("scope");
        scope.insert(name.to_string(), slot);
        slot
    }

    /// Declare `name` in the innermost scope; a redeclaration in the same
    /// scope overwrites the same slot.
    fn declare(&mut self, name: &str) -> Var {
        match self.scopes.last() {
            None => Var::Global(self.globals.slot(name)),
            Some((scope, _)) => match scope.get(name) {
                Some(&slot) => Var::Local(slot),
                None => Var::Local(self.fresh(name)),
            },
        }
    }

    fn var(&mut self, name: &str) -> Var {
        for (scope, _) in self.scopes.iter().rev() {
            if let Some(&slot) = scope.get(name) {
                return Var::Local(slot);
            }
        }
        let g = self.globals.slot(name);
        if self.top {
            Var::Global(g)
        } else {
            Var::Outer(g)
        }
    }

    fn block(&mut self, b: &ast::Block) -> Vec<Stmt> {
        self.push();
        let stmts = self.stmts(&b.stmts);
        self.pop();
        stmts
    }

    fn stmts(&mut self, stmts: &[ast::Stmt]) -> Vec<Stmt> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &ast::Stmt) -> Stmt {
        match s {
            ast::Stmt::Var(v) => {
                // The initializer sees the scope before the declaration.
                let init = match (&v.init, &v.ty) {
                    (Some(e), ty) => Init::Expr {
                        e: self.expr(e),
                        real: matches!(ty, Some(TypeExpr::Real)),
                    },
                    (None, Some(ty)) => Init::Default(self.ty(ty)),
                    (None, None) => Init::Missing(v.name.clone()),
                };
                Stmt::Var {
                    var: self.declare(&v.name),
                    init,
                    span: v.span,
                }
            }
            ast::Stmt::Assign { lhs, op, rhs, span } => Stmt::Assign {
                lhs: self.place(lhs),
                op: *op,
                rhs: self.expr(rhs),
                span: *span,
            },
            ast::Stmt::Expr(e) => Stmt::Expr(self.expr(e)),
            ast::Stmt::For {
                index,
                iter,
                body,
                span,
                ..
            } => {
                let iter = self.expr(iter);
                // The body runs in the index's scope, fresh per item.
                self.push();
                let slot = self.fresh(index);
                let body = self.stmts(&body.stmts);
                self.pop();
                Stmt::For {
                    slot,
                    iter,
                    body,
                    span: *span,
                }
            }
            ast::Stmt::While { cond, body, span } => Stmt::While {
                cond: self.expr(cond),
                body: self.block(body),
                span: *span,
            },
            ast::Stmt::If {
                cond,
                then,
                els,
                span,
            } => Stmt::If {
                cond: self.expr(cond),
                then: self.block(then),
                els: els.as_ref().map(|b| self.block(b)),
                span: *span,
            },
            ast::Stmt::Return { value, span } => {
                Stmt::Return(value.as_ref().map(|e| self.expr(e)), *span)
            }
            ast::Stmt::Writeln { args, span } => Stmt::Writeln(self.exprs(args), *span),
            ast::Stmt::Block(b) => Stmt::Block(self.block(b)),
        }
    }

    fn exprs(&mut self, es: &[ast::Expr]) -> Vec<Expr> {
        es.iter().map(|e| self.expr(e)).collect()
    }

    fn expr(&mut self, e: &ast::Expr) -> Expr {
        match e {
            ast::Expr::Int(v, span) => Expr::Const(RtValue::Int(*v), *span),
            ast::Expr::Real(v, span) => Expr::Const(RtValue::Real(*v), *span),
            ast::Expr::Bool(v, span) => Expr::Const(RtValue::Bool(*v), *span),
            ast::Expr::Str(s, span) => Expr::Const(RtValue::Str(s.clone()), *span),
            ast::Expr::Ident(name, span) => Expr::Var(self.var(name), *span),
            ast::Expr::Range(r) => Expr::Range(
                Box::new(self.expr(&r.lo)),
                Box::new(self.expr(&r.hi)),
                r.span,
            ),
            ast::Expr::Unary { op, e, span } => Expr::Unary(*op, Box::new(self.expr(e)), *span),
            ast::Expr::Binary { op, l, r, span } => binary(*op, self.expr(l), self.expr(r), *span),
            ast::Expr::Index { .. } | ast::Expr::Field { .. } => {
                Expr::Place(Box::new(self.place(e)))
            }
            ast::Expr::Call { callee, args, span } => {
                Expr::Call(Box::new(self.call(callee, args, *span)))
            }
            ast::Expr::Reduce { op, expr, span } => {
                Expr::Reduce(op.clone(), Box::new(self.expr(expr)), *span)
            }
            ast::Expr::Scan { op, expr, span } => {
                Expr::Scan(op.clone(), Box::new(self.expr(expr)), *span)
            }
            ast::Expr::New { class, span, .. } => Expr::New(class.clone(), *span),
        }
    }

    fn place(&mut self, e: &ast::Expr) -> Place {
        let mut steps = Vec::new();
        let mut cur = e;
        let root = loop {
            match cur {
                ast::Expr::Index {
                    base,
                    indices,
                    span,
                } => {
                    steps.push(Step::Index(self.exprs(indices), *span));
                    cur = base;
                }
                ast::Expr::Field { base, field, span } => {
                    let at = self.names.fields.get(field).cloned().unwrap_or_default();
                    let field = Field {
                        name: field.clone(),
                        at,
                    };
                    steps.push(Step::Field(field, *span));
                    cur = base;
                }
                ast::Expr::Ident(name, span) => break Root::Var(self.var(name), *span),
                other => break Root::Value(self.expr(other)),
            }
        };
        steps.reverse();
        Place {
            root,
            steps,
            span: e.span(),
        }
    }

    fn call(&mut self, callee: &ast::Expr, args: &[ast::Expr], span: Span) -> Call {
        if let ast::Expr::Field { base, field, .. } = callee {
            return Call::Method {
                base: self.expr(base),
                name: field.clone(),
                args: self.exprs(args),
                span,
            };
        }
        let Some(name) = callee.as_ident() else {
            return Call::Unnamed(span);
        };
        if let Some(f) = Builtin::named(name) {
            if matches!(f, Builtin::Min | Builtin::Max) && args.len() == 1 {
                let value = match (f, args[0].as_ident()) {
                    (Builtin::Max, Some("int")) => Some(RtValue::Int(i64::MAX)),
                    (Builtin::Min, Some("int")) => Some(RtValue::Int(i64::MIN)),
                    (Builtin::Max, Some("real")) => Some(RtValue::Real(f64::INFINITY)),
                    (Builtin::Min, Some("real")) => Some(RtValue::Real(f64::NEG_INFINITY)),
                    _ => None,
                };
                return Call::Extreme {
                    value,
                    name: f.name(),
                    span,
                };
            }
            return Call::Builtin {
                f,
                args: self.exprs(args),
                span,
            };
        }
        if let Some(&func) = self.names.funcs.get(name) {
            return Call::Func {
                func,
                args: self.exprs(args),
                span,
            };
        }
        Call::Index {
            var: self.var(name),
            name: name.to_string(),
            args: self.exprs(args),
            span,
        }
    }

    fn ty(&mut self, t: &TypeExpr) -> Type {
        match t {
            TypeExpr::Int => Type::Int,
            TypeExpr::Real => Type::Real,
            TypeExpr::Bool => Type::Bool,
            TypeExpr::String => Type::Str,
            TypeExpr::Named(name) => {
                if let Some(&r) = self.names.records.get(name) {
                    Type::Record(r)
                } else if self.names.classes.contains_key(name) {
                    Type::Class(name.clone())
                } else {
                    Type::Unknown(name.clone())
                }
            }
            TypeExpr::Array { dims, elem } => Type::Array(
                dims.iter()
                    .map(|d| Dim {
                        lo: self.expr(&d.lo),
                        hi: self.expr(&d.hi),
                        span: d.span,
                    })
                    .collect(),
                Box::new(self.ty(elem)),
            ),
        }
    }

    fn field(&mut self, f: &ast::VarDecl, type_params: &[String]) -> FieldDef {
        let init = match (&f.init, &f.ty) {
            (Some(e), _) => FieldInit::Expr(self.expr(e)),
            (None, Some(ty)) => FieldInit::Type(self.ty(ty)),
            (None, None) => FieldInit::None,
        };
        FieldDef {
            name: f.name.clone(),
            init,
            generic: matches!(&f.ty, Some(TypeExpr::Named(n)) if type_params.contains(n)),
            span: f.span,
        }
    }
}
