//! Tokens and source spans for the Chapel subset.

use std::fmt;

/// A half-open byte range into the source, with the 1-based line and
/// column of its start (for diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based column of `start`.
    pub col: u32,
}

impl Span {
    /// A span covering both operands.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
            line: self.line,
            col: self.col,
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Keywords of the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Keyword {
    /// `var`
    Var,
    /// `const`
    Const,
    /// `param`
    Param,
    /// `type`
    Type,
    /// `record`
    Record,
    /// `class`
    Class,
    /// `def` (the 2010-era Chapel function keyword, as in the paper's
    /// figures; `proc` is accepted as a synonym)
    Def,
    /// `proc` (modern synonym of `def`)
    Proc,
    /// `for`
    For,
    /// `forall`
    Forall,
    /// `while`
    While,
    /// `do`
    Do,
    /// `if`
    If,
    /// `then`
    Then,
    /// `else`
    Else,
    /// `return`
    Return,
    /// `in`
    In,
    /// `reduce`
    Reduce,
    /// `scan`
    Scan,
    /// `new`
    New,
    /// `true`
    True,
    /// `false`
    False,
    /// `int`
    Int,
    /// `real`
    Real,
    /// `bool`
    Bool,
    /// `string`
    StringKw,
    /// `writeln`
    Writeln,
}

impl Keyword {
    /// Keyword for an identifier, if any.
    pub fn lookup(s: &str) -> Option<Keyword> {
        Some(match s {
            "var" => Keyword::Var,
            "const" => Keyword::Const,
            "param" => Keyword::Param,
            "type" => Keyword::Type,
            "record" => Keyword::Record,
            "class" => Keyword::Class,
            "def" => Keyword::Def,
            "proc" => Keyword::Proc,
            "for" => Keyword::For,
            "forall" => Keyword::Forall,
            "while" => Keyword::While,
            "do" => Keyword::Do,
            "if" => Keyword::If,
            "then" => Keyword::Then,
            "else" => Keyword::Else,
            "return" => Keyword::Return,
            "in" => Keyword::In,
            "reduce" => Keyword::Reduce,
            "scan" => Keyword::Scan,
            "new" => Keyword::New,
            "true" => Keyword::True,
            "false" => Keyword::False,
            "int" => Keyword::Int,
            "real" => Keyword::Real,
            "bool" => Keyword::Bool,
            "string" => Keyword::StringKw,
            "writeln" => Keyword::Writeln,
            _ => return None,
        })
    }

    /// The source text of the keyword.
    pub fn as_str(&self) -> &'static str {
        match self {
            Keyword::Var => "var",
            Keyword::Const => "const",
            Keyword::Param => "param",
            Keyword::Type => "type",
            Keyword::Record => "record",
            Keyword::Class => "class",
            Keyword::Def => "def",
            Keyword::Proc => "proc",
            Keyword::For => "for",
            Keyword::Forall => "forall",
            Keyword::While => "while",
            Keyword::Do => "do",
            Keyword::If => "if",
            Keyword::Then => "then",
            Keyword::Else => "else",
            Keyword::Return => "return",
            Keyword::In => "in",
            Keyword::Reduce => "reduce",
            Keyword::Scan => "scan",
            Keyword::New => "new",
            Keyword::True => "true",
            Keyword::False => "false",
            Keyword::Int => "int",
            Keyword::Real => "real",
            Keyword::Bool => "bool",
            Keyword::StringKw => "string",
            Keyword::Writeln => "writeln",
        }
    }
}

/// Lexical token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// An identifier (not a keyword).
    Ident(String),
    /// An integer literal.
    IntLit(i64),
    /// A real literal.
    RealLit(f64),
    /// A string literal (unescaped content).
    StrLit(String),
    /// A keyword.
    Kw(Keyword),
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `**`
    StarStar,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Assign,
    /// `+=`
    PlusAssign,
    /// `-=`
    MinusAssign,
    /// `*=`
    StarAssign,
    /// `/=`
    SlashAssign,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// `..`
    DotDot,
    /// `min` / `max` are contextual identifiers handled by the parser,
    /// so they are not separate kinds. End of input:
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::IntLit(v) => write!(f, "integer `{v}`"),
            TokenKind::RealLit(v) => write!(f, "real `{v}`"),
            TokenKind::StrLit(s) => write!(f, "string \"{s}\""),
            TokenKind::Kw(k) => write!(f, "`{}`", k.as_str()),
            TokenKind::Plus => write!(f, "`+`"),
            TokenKind::Minus => write!(f, "`-`"),
            TokenKind::Star => write!(f, "`*`"),
            TokenKind::StarStar => write!(f, "`**`"),
            TokenKind::Slash => write!(f, "`/`"),
            TokenKind::Percent => write!(f, "`%`"),
            TokenKind::Assign => write!(f, "`=`"),
            TokenKind::PlusAssign => write!(f, "`+=`"),
            TokenKind::MinusAssign => write!(f, "`-=`"),
            TokenKind::StarAssign => write!(f, "`*=`"),
            TokenKind::SlashAssign => write!(f, "`/=`"),
            TokenKind::EqEq => write!(f, "`==`"),
            TokenKind::NotEq => write!(f, "`!=`"),
            TokenKind::Lt => write!(f, "`<`"),
            TokenKind::Le => write!(f, "`<=`"),
            TokenKind::Gt => write!(f, "`>`"),
            TokenKind::Ge => write!(f, "`>=`"),
            TokenKind::AndAnd => write!(f, "`&&`"),
            TokenKind::OrOr => write!(f, "`||`"),
            TokenKind::Bang => write!(f, "`!`"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::LBracket => write!(f, "`[`"),
            TokenKind::RBracket => write!(f, "`]`"),
            TokenKind::LBrace => write!(f, "`{{`"),
            TokenKind::RBrace => write!(f, "`}}`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Semi => write!(f, "`;`"),
            TokenKind::Colon => write!(f, "`:`"),
            TokenKind::Dot => write!(f, "`.`"),
            TokenKind::DotDot => write!(f, "`..`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// Where it came from.
    pub span: Span,
}
