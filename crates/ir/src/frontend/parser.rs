//! Recursive-descent parser for MiniC with precedence climbing for
//! expressions.

use super::ast::*;
use super::lexer::{Lexer, Token, TokenKind};
use std::fmt;

/// Parse failure with the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: u32,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// How deep MiniC may nest. Parentheses, unary operators, ternary
/// branches, call arguments, `mem[…]` and blocks each open a level, and
/// so does every operator of a flat binary chain (`a + a + …` builds a
/// left-deep tree). The parser, the lowering and `Drop` all recurse once
/// per level, so without a bound a 10 KB kernel overflows the stack of
/// the thread that compiles it; the example and suite kernels nest a
/// handful of levels.
pub const MAX_NESTING: usize = 256;

/// The MiniC parser.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels open around the token at `pos`.
    depth: usize,
}

/// An expression and the height of its tree (a leaf is 0).
type Tall = (Expr, usize);

impl Parser {
    pub fn new(src: &str) -> Result<Self, ParseError> {
        let tokens = Lexer::new(src).tokenize().map_err(|(line, c)| ParseError {
            line,
            message: format!("unexpected character `{c}`"),
        })?;
        Ok(Parser {
            tokens,
            pos: 0,
            depth: 0,
        })
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos.min(self.tokens.len() - 1)].line
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)]
            .kind
            .clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), ParseError> {
        if self.eat(&kind) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kind}, found {}", self.peek())))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError {
            line: self.line(),
            message,
        }
    }

    /// Parse with `inner` one level deeper.
    fn nested<T>(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.depth += 1;
        let parsed = if self.depth > MAX_NESTING {
            Err(self.too_deep())
        } else {
            inner(self)
        };
        self.depth -= 1;
        parsed
    }

    /// `e`, `height` levels tall, if that fits under the bound here.
    fn tall(&self, e: Expr, height: usize) -> Result<Tall, ParseError> {
        if self.depth + height > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok((e, height))
    }

    fn too_deep(&self) -> ParseError {
        self.err(format!("nested deeper than {MAX_NESTING} levels"))
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    /// Parse a whole program.
    pub fn program(&mut self) -> Result<Program, ParseError> {
        let mut items = Vec::new();
        while self.peek() != &TokenKind::Eof {
            items.push(self.item()?);
        }
        Ok(Program { items })
    }

    fn item(&mut self) -> Result<Item, ParseError> {
        match self.bump() {
            TokenKind::Kernel => {
                let name = self.ident()?;
                self.expect(TokenKind::LParen)?;
                let mut params = Vec::new();
                if self.peek() != &TokenKind::RParen {
                    loop {
                        params.push(self.param()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(TokenKind::RParen)?;
                let body = self.block()?;
                Ok(Item::Kernel(KernelDef { name, params, body }))
            }
            TokenKind::Func => {
                let name = self.ident()?;
                self.expect(TokenKind::LParen)?;
                let mut args = Vec::new();
                if self.peek() != &TokenKind::RParen {
                    loop {
                        args.push(self.ident()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(TokenKind::RParen)?;
                let body = self.block()?;
                Ok(Item::Func(FuncDef { name, args, body }))
            }
            other => Err(self.err(format!("expected `kernel` or `func`, found {other}"))),
        }
    }

    fn param(&mut self) -> Result<Param, ParseError> {
        let dir = match self.bump() {
            TokenKind::In => ParamDir::In,
            TokenKind::Out => ParamDir::Out,
            TokenKind::InOut => ParamDir::InOut,
            other => return Err(self.err(format!("expected `in`/`out`/`inout`, found {other}"))),
        };
        let name = self.ident()?;
        let mut init = 0;
        if self.eat(&TokenKind::Assign) {
            let neg = self.eat(&TokenKind::Minus);
            match self.bump() {
                TokenKind::Int(v) => init = if neg { -v } else { v },
                other => return Err(self.err(format!("expected integer init, found {other}"))),
            }
        }
        Ok(Param { dir, name, init })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek().clone() {
            TokenKind::Var => {
                self.bump();
                let name = self.ident()?;
                self.expect(TokenKind::Assign)?;
                let value = self.expr()?;
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Assign { name, value })
            }
            TokenKind::If => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let then_body = self.nested(Self::block)?;
                let else_body = if self.eat(&TokenKind::Else) {
                    self.nested(Self::block)?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                })
            }
            TokenKind::While => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let body = self.nested(Self::block)?;
                Ok(Stmt::While { cond, body })
            }
            TokenKind::For => {
                // `for (init; cond; step) { body }` desugars to
                // `init; while (cond) { body; step; }`.
                self.bump();
                self.expect(TokenKind::LParen)?;
                let init = self.simple_assign()?;
                self.expect(TokenKind::Semi)?;
                let cond = self.expr()?;
                self.expect(TokenKind::Semi)?;
                let step = self.simple_assign()?;
                self.expect(TokenKind::RParen)?;
                let mut body = self.nested(Self::block)?;
                body.push(step);
                Ok(Stmt::Seq(vec![init, Stmt::While { cond, body }]))
            }
            TokenKind::Return => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Return)
            }
            TokenKind::Mem => {
                self.bump();
                self.expect(TokenKind::LBracket)?;
                let addr = self.expr()?;
                self.expect(TokenKind::RBracket)?;
                self.expect(TokenKind::Assign)?;
                let value = self.expr()?;
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::MemStore { addr, value })
            }
            TokenKind::Ident(name) => {
                self.bump();
                let op = self.bump();
                let rhs = self.expr()?;
                self.expect(TokenKind::Semi)?;
                let value = match op {
                    TokenKind::Assign => rhs,
                    TokenKind::PlusAssign => {
                        Expr::Binary(BinOp::Add, Box::new(Expr::Var(name.clone())), Box::new(rhs))
                    }
                    TokenKind::MinusAssign => {
                        Expr::Binary(BinOp::Sub, Box::new(Expr::Var(name.clone())), Box::new(rhs))
                    }
                    TokenKind::StarAssign => {
                        Expr::Binary(BinOp::Mul, Box::new(Expr::Var(name.clone())), Box::new(rhs))
                    }
                    other => return Err(self.err(format!("expected assignment, found {other}"))),
                };
                Ok(Stmt::Assign { name, value })
            }
            other => Err(self.err(format!("unexpected token {other} at statement start"))),
        }
    }

    /// An assignment without the trailing semicolon (for-loop header).
    fn simple_assign(&mut self) -> Result<Stmt, ParseError> {
        let has_var = self.eat(&TokenKind::Var);
        let _ = has_var;
        let name = self.ident()?;
        let op = self.bump();
        let rhs = self.expr()?;
        let value = match op {
            TokenKind::Assign => rhs,
            TokenKind::PlusAssign => {
                Expr::Binary(BinOp::Add, Box::new(Expr::Var(name.clone())), Box::new(rhs))
            }
            TokenKind::MinusAssign => {
                Expr::Binary(BinOp::Sub, Box::new(Expr::Var(name.clone())), Box::new(rhs))
            }
            TokenKind::StarAssign => {
                Expr::Binary(BinOp::Mul, Box::new(Expr::Var(name.clone())), Box::new(rhs))
            }
            other => return Err(self.err(format!("expected assignment, found {other}"))),
        };
        Ok(Stmt::Assign { name, value })
    }

    /// Full expression, including the ternary.
    pub fn expr(&mut self) -> Result<Expr, ParseError> {
        self.ternary().map(|(e, _)| e)
    }

    fn ternary(&mut self) -> Result<Tall, ParseError> {
        let (cond, hc) = self.binary(0)?;
        if !self.eat(&TokenKind::Question) {
            return Ok((cond, hc));
        }
        let (a, ha) = self.nested(Self::ternary)?;
        self.expect(TokenKind::Colon)?;
        let (b, hb) = self.nested(Self::ternary)?;
        let height = 1 + hc.max(ha).max(hb);
        self.tall(
            Expr::Ternary(Box::new(cond), Box::new(a), Box::new(b)),
            height,
        )
    }

    /// Binding power of a binary operator, or `None` if not binary.
    fn bin_op(kind: &TokenKind) -> Option<(BinOp, u8)> {
        use TokenKind::*;
        Some(match kind {
            PipePipe => (BinOp::LogOr, 1),
            AmpAmp => (BinOp::LogAnd, 2),
            Pipe => (BinOp::Or, 3),
            Caret => (BinOp::Xor, 4),
            Amp => (BinOp::And, 5),
            EqEq => (BinOp::Eq, 6),
            NotEq => (BinOp::Ne, 6),
            Lt => (BinOp::Lt, 7),
            Le => (BinOp::Le, 7),
            Gt => (BinOp::Gt, 7),
            Ge => (BinOp::Ge, 7),
            Shl => (BinOp::Shl, 8),
            Shr => (BinOp::Shr, 8),
            Plus => (BinOp::Add, 9),
            Minus => (BinOp::Sub, 9),
            Star => (BinOp::Mul, 10),
            Slash => (BinOp::Div, 10),
            Percent => (BinOp::Rem, 10),
            _ => return None,
        })
    }

    /// A chain of operators binding at least `min_bp`. The right operand
    /// recurses only once per precedence level; the chain itself is a
    /// loop, and the left-deep tree it builds is held to the bound by
    /// its height.
    fn binary(&mut self, min_bp: u8) -> Result<Tall, ParseError> {
        let (mut lhs, mut height) = self.unary()?;
        while let Some((op, bp)) = Self::bin_op(self.peek()) {
            if bp < min_bp {
                break;
            }
            self.bump();
            let (rhs, hr) = self.binary(bp + 1)?; // left associative
            let joined = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
            (lhs, height) = self.tall(joined, 1 + height.max(hr))?;
        }
        Ok((lhs, height))
    }

    fn unary(&mut self) -> Result<Tall, ParseError> {
        let op = match self.peek() {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Bang => UnOp::Not,
            TokenKind::Tilde => UnOp::BitNot,
            _ => return self.primary(),
        };
        self.bump();
        let (e, height) = self.nested(Self::unary)?;
        self.tall(Expr::Unary(op, Box::new(e)), height + 1)
    }

    fn primary(&mut self) -> Result<Tall, ParseError> {
        // Remember where the expression started: `bump` advances past
        // the offending token, which would misattribute the error to
        // the following line.
        let line = self.line();
        match self.bump() {
            TokenKind::Int(v) => Ok((Expr::Int(v), 0)),
            TokenKind::LParen => {
                let inner = self.nested(Self::ternary)?;
                self.expect(TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::Mem => {
                self.expect(TokenKind::LBracket)?;
                let (addr, height) = self.nested(Self::ternary)?;
                self.expect(TokenKind::RBracket)?;
                self.tall(Expr::MemLoad(Box::new(addr)), height + 1)
            }
            TokenKind::Ident(name) => {
                if self.eat(&TokenKind::LParen) {
                    let (mut args, mut height) = (Vec::new(), 0);
                    if self.peek() != &TokenKind::RParen {
                        loop {
                            let (arg, h) = self.nested(Self::ternary)?;
                            args.push(arg);
                            height = height.max(h);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                    self.tall(Expr::Call(name, args), height + 1)
                } else {
                    Ok((Expr::Var(name), 0))
                }
            }
            other => Err(ParseError {
                line,
                message: format!("unexpected {other} in expression"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_expr(src: &str) -> Expr {
        let full = format!("kernel k(in x) {{ y = {src}; }}");
        let prog = Parser::new(&full).unwrap().program().unwrap();
        match &prog.items[0] {
            Item::Kernel(k) => match &k.body[0] {
                Stmt::Assign { value, .. } => value.clone(),
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_expr("a + b * c");
        match e {
            Expr::Binary(BinOp::Add, _, rhs) => {
                assert!(matches!(*rhs, Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn left_associativity() {
        let e = parse_expr("a - b - c");
        // ((a - b) - c)
        match e {
            Expr::Binary(BinOp::Sub, lhs, rhs) => {
                assert!(matches!(*lhs, Expr::Binary(BinOp::Sub, _, _)));
                assert!(matches!(*rhs, Expr::Var(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ternary_and_comparison() {
        let e = parse_expr("a > b ? a - b : b - a");
        assert!(matches!(e, Expr::Ternary(_, _, _)));
    }

    #[test]
    fn unary_chains() {
        let e = parse_expr("--a");
        assert!(matches!(e, Expr::Unary(UnOp::Neg, _)));
        let e = parse_expr("~!a");
        assert!(matches!(e, Expr::Unary(UnOp::BitNot, _)));
    }

    #[test]
    fn calls_and_mem() {
        let e = parse_expr("min(mem[a + 1], abs(b))");
        match e {
            Expr::Call(name, args) => {
                assert_eq!(name, "min");
                assert_eq!(args.len(), 2);
                assert!(matches!(args[0], Expr::MemLoad(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn kernel_params_with_init() {
        let prog = Parser::new("kernel k(in a, inout acc = -5, out y) { y = a; }")
            .unwrap()
            .program()
            .unwrap();
        match &prog.items[0] {
            Item::Kernel(k) => {
                assert_eq!(k.params.len(), 3);
                assert_eq!(k.params[1].dir, ParamDir::InOut);
                assert_eq!(k.params[1].init, -5);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn compound_assignment_desugars() {
        let prog = Parser::new("kernel k(inout s, in x) { s += x; }")
            .unwrap()
            .program()
            .unwrap();
        match &prog.items[0] {
            Item::Kernel(k) => match &k.body[0] {
                Stmt::Assign { name, value } => {
                    assert_eq!(name, "s");
                    assert!(matches!(value, Expr::Binary(BinOp::Add, _, _)));
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn func_with_while() {
        let prog = Parser::new("func f(n) { var i = 0; while (i < n) { i += 1; } return; }")
            .unwrap()
            .program()
            .unwrap();
        match &prog.items[0] {
            Item::Func(f) => {
                assert_eq!(f.args, vec!["n"]);
                assert!(matches!(f.body[1], Stmt::While { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn error_reports_line() {
        let err = Parser::new("kernel k(in a) {\n  y = ;\n}")
            .unwrap()
            .program()
            .unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn for_loop_desugars_to_seq_while() {
        let prog =
            Parser::new("func f(n) { var s = 0; for (i = 0; i < n; i += 1) { s += i; } return; }")
                .unwrap()
                .program()
                .unwrap();
        match &prog.items[0] {
            Item::Func(f) => match &f.body[1] {
                Stmt::Seq(stmts) => {
                    assert!(matches!(stmts[0], Stmt::Assign { .. }));
                    match &stmts[1] {
                        Stmt::While { body, .. } => {
                            // body + step
                            assert_eq!(body.len(), 2);
                        }
                        other => panic!("{other:?}"),
                    }
                }
                other => panic!("{other:?}"),
            },
            _ => panic!(),
        }
    }

    /// `kernel k(..) { <body> }` parsed.
    fn parse_body(body: &str) -> Result<Program, ParseError> {
        Parser::new(&format!("kernel k(in a, out y) {{ {body} }}"))?.program()
    }

    /// A kernel body holding `shape` nested `k` levels deep.
    fn nested_body(shape: &str, k: usize) -> String {
        let (open, close) = match shape {
            "parens" => ("(", ")"),
            "unary" => ("-", ""),
            "flat sum" => ("", "+a"),
            "ternary" => ("a ? ", " : a"),
            "calls" => ("abs(", ")"),
            "mem" => ("mem[", "]"),
            _ => return format!("{}y = a;{}", "if (a) { ".repeat(k), " }".repeat(k)),
        };
        format!("y = {}a{};", open.repeat(k), close.repeat(k))
    }

    #[test]
    fn nesting_is_bounded_for_every_shape() {
        let n = MAX_NESTING;
        for shape in [
            "parens", "unary", "flat sum", "ternary", "calls", "mem", "blocks",
        ] {
            assert!(parse_body(&nested_body(shape, n)).is_ok(), "{shape} at {n}");
            let err = parse_body(&nested_body(shape, n + 1)).unwrap_err();
            assert_eq!(err.message, "nested deeper than 256 levels", "{shape}");
        }
        // What used to overflow the stack: 5 000 parentheses, 20 000
        // terms, and operands that mix the two.
        for body in [
            format!("y = {}a{};", "(".repeat(5_000), ")".repeat(5_000)),
            format!("y = a{};", "+a".repeat(20_000)),
            format!("y = (a{}){};", "+a".repeat(200), "+a".repeat(200)),
            format!("y = {}(a{});", "-".repeat(200), "+a".repeat(100)),
        ] {
            assert!(parse_body(&body).is_err());
        }
    }

    #[test]
    fn if_else_statement() {
        let prog = Parser::new("kernel k(in x, out y) { if (x > 0) { y = x; } else { y = -x; } }")
            .unwrap()
            .program()
            .unwrap();
        match &prog.items[0] {
            Item::Kernel(k) => {
                assert!(matches!(k.body[0], Stmt::If { .. }));
            }
            _ => panic!(),
        }
    }
}
