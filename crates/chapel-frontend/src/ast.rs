//! Abstract syntax tree for the Chapel subset.
//!
//! The subset covers everything the paper's figures use: records, arrays
//! over ranges, `ReduceScanOp` subclasses with
//! `accumulate`/`combine`/`generate` methods, `for`/`forall` loops, and
//! `reduce` expressions (built-in ops and user-defined classes).

use crate::token::Span;

/// A whole compilation unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A `record` declaration.
    Record(RecordDecl),
    /// A `class` declaration (notably `ReduceScanOp` subclasses).
    Class(ClassDecl),
    /// A `def`/`proc` function.
    Func(FuncDecl),
    /// Top-level statement (module-level code).
    Stmt(Stmt),
}

/// `record Name { fields }`.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordDecl {
    /// Record name.
    pub name: String,
    /// Field declarations.
    pub fields: Vec<VarDecl>,
    /// Source span of the declaration header.
    pub span: Span,
}

/// `class Name: Parent { type params; fields; methods }`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDecl {
    /// Class name.
    pub name: String,
    /// Superclass, if any (e.g. `ReduceScanOp`).
    pub parent: Option<String>,
    /// `type` parameters (Chapel's generic fields, e.g. `eltType`).
    pub type_params: Vec<String>,
    /// Value fields.
    pub fields: Vec<VarDecl>,
    /// Methods.
    pub methods: Vec<FuncDecl>,
    /// Source span of the declaration header.
    pub span: Span,
}

impl ClassDecl {
    /// Is this a `ReduceScanOp` subclass (a user-defined reduction)?
    pub fn is_reduce_op(&self) -> bool {
        matches!(
            self.parent.as_deref(),
            Some("ReduceScanOp" | "ReductionScanOp")
        )
    }

    /// Find a method by name.
    pub fn method(&self, name: &str) -> Option<&FuncDecl> {
        self.methods.iter().find(|m| m.name == name)
    }
}

/// A function or method declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDecl {
    /// Function name.
    pub name: String,
    /// Parameters.
    pub params: Vec<Param>,
    /// Declared return type, if any.
    pub ret: Option<TypeExpr>,
    /// Body.
    pub body: Block,
    /// Source span of the header.
    pub span: Span,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Declared type (omitted in the paper's generic `accumulate(x)`).
    pub ty: Option<TypeExpr>,
    /// Source span.
    pub span: Span,
}

/// Kinds of variable declarations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// `var` — mutable.
    Var,
    /// `const` — runtime constant.
    Const,
    /// `param` — compile-time constant.
    Param,
}

/// `var name: type = init;`
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Declaration kind.
    pub kind: VarKind,
    /// Variable name.
    pub name: String,
    /// Declared type, if any.
    pub ty: Option<TypeExpr>,
    /// Initializer, if any.
    pub init: Option<Expr>,
    /// Source span.
    pub span: Span,
}

/// Type expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeExpr {
    /// `int`
    Int,
    /// `real`
    Real,
    /// `bool`
    Bool,
    /// `string`
    String,
    /// A named type (record, class, or `type` parameter).
    Named(String),
    /// `[dom1, dom2, ...] elem` — a rectangular array over ranges.
    Array {
        /// One range per dimension.
        dims: Vec<RangeExpr>,
        /// Element type.
        elem: Box<TypeExpr>,
    },
}

/// A range `lo..hi` (inclusive on both ends, Chapel-style).
#[derive(Debug, Clone, PartialEq)]
pub struct RangeExpr {
    /// Lower bound.
    pub lo: Box<Expr>,
    /// Upper bound.
    pub hi: Box<Expr>,
    /// Source span.
    pub span: Span,
}

/// A block of statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Source span.
    pub span: Span,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A variable declaration.
    Var(VarDecl),
    /// `lhs op rhs;` where op ∈ {=, +=, -=, *=, /=}.
    Assign {
        /// Assignment target (identifier, index, or field chain).
        lhs: Expr,
        /// Which assignment operator.
        op: AssignOp,
        /// Right-hand side.
        rhs: Expr,
        /// Source span.
        span: Span,
    },
    /// An expression statement (e.g. a call).
    Expr(Expr),
    /// `for`/`forall idx in iter { body }`.
    For {
        /// Loop index names (one per zippered iterand; subset: one).
        index: String,
        /// The iterated expression (range or array).
        iter: Expr,
        /// Loop body.
        body: Block,
        /// `forall` (parallel) vs `for` (serial).
        parallel: bool,
        /// Source span of the header.
        span: Span,
    },
    /// `while cond { body }`.
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Block,
        /// Source span of the header.
        span: Span,
    },
    /// `if cond { then } else { els }`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then: Block,
        /// Else branch, if any.
        els: Option<Block>,
        /// Source span of the header.
        span: Span,
    },
    /// `return expr;`
    Return {
        /// Returned value, if any.
        value: Option<Expr>,
        /// Source span.
        span: Span,
    },
    /// `writeln(args);` — the subset's output statement.
    Writeln {
        /// Arguments.
        args: Vec<Expr>,
        /// Source span.
        span: Span,
    },
    /// A nested block.
    Block(Block),
}

/// Assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    /// `=`
    Set,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
    /// `/=`
    Div,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `**`
    Pow,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `!`
    Not,
}

/// Built-in reduction operators usable in `reduce` expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReduceOp {
    /// `+ reduce`
    Sum,
    /// `* reduce`
    Product,
    /// `min reduce`
    Min,
    /// `max reduce`
    Max,
    /// `&& reduce`
    LogicalAnd,
    /// `|| reduce`
    LogicalOr,
    /// `MyOp reduce` — a user-defined `ReduceScanOp` subclass by name.
    UserDefined(String),
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64, Span),
    /// Real literal.
    Real(f64, Span),
    /// Boolean literal.
    Bool(bool, Span),
    /// String literal.
    Str(String, Span),
    /// Identifier reference.
    Ident(String, Span),
    /// A range value `lo..hi`.
    Range(RangeExpr),
    /// `l op r`.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        l: Box<Expr>,
        /// Right operand.
        r: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// `op e`.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        e: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// `base[i, j, ...]` (or Chapel's `base(i, j)` call-style indexing,
    /// normalised to this by the parser when `base` is not a function).
    Index {
        /// Indexed expression.
        base: Box<Expr>,
        /// One index per dimension.
        indices: Vec<Expr>,
        /// Source span.
        span: Span,
    },
    /// `base.field`.
    Field {
        /// Base expression.
        base: Box<Expr>,
        /// Field name.
        field: String,
        /// Source span.
        span: Span,
    },
    /// `f(args)` — call of a named function or method.
    Call {
        /// Callee expression (identifier or field access for methods).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// Source span.
        span: Span,
    },
    /// `op reduce expr` — the heart of the paper.
    Reduce {
        /// The reduction operator.
        op: ReduceOp,
        /// The reduced iterable expression (array, range, or elementwise
        /// expression like `A + B`).
        expr: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// `op scan expr` — the inclusive prefix counterpart (Chapel's
    /// global-view scans share the ReduceScanOp machinery).
    Scan {
        /// The scan operator (built-in subset).
        op: ReduceOp,
        /// The scanned iterable expression.
        expr: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// `new ClassName(args)`.
    New {
        /// Class name.
        class: String,
        /// Constructor arguments.
        args: Vec<Expr>,
        /// Source span.
        span: Span,
    },
}

impl Expr {
    /// The source span of this expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s)
            | Expr::Real(_, s)
            | Expr::Bool(_, s)
            | Expr::Str(_, s)
            | Expr::Ident(_, s) => *s,
            Expr::Range(r) => r.span,
            Expr::Binary { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Index { span, .. }
            | Expr::Field { span, .. }
            | Expr::Call { span, .. }
            | Expr::Reduce { span, .. }
            | Expr::Scan { span, .. }
            | Expr::New { span, .. } => *span,
        }
    }

    /// Is this expression a plain identifier?
    pub fn as_ident(&self) -> Option<&str> {
        match self {
            Expr::Ident(s, _) => Some(s),
            _ => None,
        }
    }
}

/// Depth-first expression visitor used by analyses (e.g. the
/// translator's access-pattern detection).
pub fn walk_expr(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    match e {
        Expr::Int(..) | Expr::Real(..) | Expr::Bool(..) | Expr::Str(..) | Expr::Ident(..) => {}
        Expr::Range(r) => {
            walk_expr(&r.lo, f);
            walk_expr(&r.hi, f);
        }
        Expr::Binary { l, r, .. } => {
            walk_expr(l, f);
            walk_expr(r, f);
        }
        Expr::Unary { e, .. } => walk_expr(e, f),
        Expr::Index { base, indices, .. } => {
            walk_expr(base, f);
            indices.iter().for_each(|i| walk_expr(i, f));
        }
        Expr::Field { base, .. } => walk_expr(base, f),
        Expr::Call { callee, args, .. } => {
            walk_expr(callee, f);
            args.iter().for_each(|a| walk_expr(a, f));
        }
        Expr::Reduce { expr, .. } | Expr::Scan { expr, .. } => walk_expr(expr, f),
        Expr::New { args, .. } => args.iter().for_each(|a| walk_expr(a, f)),
    }
}

/// Depth-first statement visitor (visits nested blocks and all
/// expressions via `ef`).
pub fn walk_stmt(s: &Stmt, sf: &mut impl FnMut(&Stmt), ef: &mut impl FnMut(&Expr)) {
    sf(s);
    match s {
        Stmt::Var(v) => {
            if let Some(init) = &v.init {
                walk_expr(init, ef);
            }
        }
        Stmt::Assign { lhs, rhs, .. } => {
            walk_expr(lhs, ef);
            walk_expr(rhs, ef);
        }
        Stmt::Expr(e) => walk_expr(e, ef),
        Stmt::For { iter, body, .. } => {
            walk_expr(iter, ef);
            body.stmts.iter().for_each(|st| walk_stmt(st, sf, ef));
        }
        Stmt::While { cond, body, .. } => {
            walk_expr(cond, ef);
            body.stmts.iter().for_each(|st| walk_stmt(st, sf, ef));
        }
        Stmt::If {
            cond, then, els, ..
        } => {
            walk_expr(cond, ef);
            then.stmts.iter().for_each(|st| walk_stmt(st, sf, ef));
            if let Some(els) = els {
                els.stmts.iter().for_each(|st| walk_stmt(st, sf, ef));
            }
        }
        Stmt::Return { value, .. } => {
            if let Some(v) = value {
                walk_expr(v, ef);
            }
        }
        Stmt::Writeln { args, .. } => args.iter().for_each(|a| walk_expr(a, ef)),
        Stmt::Block(b) => b.stmts.iter().for_each(|st| walk_stmt(st, sf, ef)),
    }
}

#[cfg(test)]
mod ast_tests {
    use super::*;

    fn sp() -> Span {
        Span::default()
    }

    #[test]
    fn class_reduce_op_detection() {
        let c = ClassDecl {
            name: "SumOp".into(),
            parent: Some("ReduceScanOp".into()),
            type_params: vec!["eltType".into()],
            fields: vec![],
            methods: vec![],
            span: sp(),
        };
        assert!(c.is_reduce_op());
        let c2 = ClassDecl {
            parent: Some("Other".into()),
            ..c.clone()
        };
        assert!(!c2.is_reduce_op());
        // The paper's Figure 3 spells it `ReductionScanOp`; accept both.
        let c3 = ClassDecl {
            parent: Some("ReductionScanOp".into()),
            ..c
        };
        assert!(c3.is_reduce_op());
    }

    #[test]
    fn expr_walk_visits_everything() {
        // a[i].f + g(b)
        let e = Expr::Binary {
            op: BinOp::Add,
            l: Box::new(Expr::Field {
                base: Box::new(Expr::Index {
                    base: Box::new(Expr::Ident("a".into(), sp())),
                    indices: vec![Expr::Ident("i".into(), sp())],
                    span: sp(),
                }),
                field: "f".into(),
                span: sp(),
            }),
            r: Box::new(Expr::Call {
                callee: Box::new(Expr::Ident("g".into(), sp())),
                args: vec![Expr::Ident("b".into(), sp())],
                span: sp(),
            }),
            span: sp(),
        };
        let mut idents = Vec::new();
        walk_expr(&e, &mut |x| {
            if let Expr::Ident(n, _) = x {
                idents.push(n.clone());
            }
        });
        assert_eq!(idents, vec!["a", "i", "g", "b"]);
    }

    #[test]
    fn stmt_walk_reaches_nested_blocks() {
        let inner = Stmt::Return {
            value: Some(Expr::Int(1, sp())),
            span: sp(),
        };
        let s = Stmt::If {
            cond: Expr::Bool(true, sp()),
            then: Block {
                stmts: vec![inner],
                span: sp(),
            },
            els: None,
            span: sp(),
        };
        let mut count = 0;
        walk_stmt(&s, &mut |_| count += 1, &mut |_| {});
        assert_eq!(count, 2); // the if and the return
    }
}
