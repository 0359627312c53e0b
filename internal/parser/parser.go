// Package parser parses the engine's JavaScript subset into an AST.
//
// The grammar covers what library-initialization code needs: functions and
// closures, prototypes, `new`, object/array literals, named and computed
// property access, the usual statements and operators, for-in, and
// try/catch. Semicolons are accepted wherever JavaScript allows them and
// are optional between statements (the generated workloads always include
// them; the leniency keeps hand-written examples pleasant).
package parser

import (
	"fmt"
	"strconv"

	"ricjs/internal/ast"
	"ricjs/internal/lexer"
	"ricjs/internal/source"
	"ricjs/internal/token"
)

// Error is a syntax error with its source position.
type Error struct {
	Script string
	Pos    source.Pos
	Msg    string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("%s:%s: %s", e.Script, e.Pos, e.Msg)
}

// maxNesting bounds how deep a script may nest, which bounds both the
// parser's recursion and the height of the AST the compiler recurses
// over. Every statement, assignment-level expression and prefix operator
// being parsed holds one level, so a parenthesized or array-literal
// expression, a nested block or if, and a prefix operator each cost one
// level per nesting, and a nested function literal two. Left-nested
// chains built by a loop (a + b + c, a.b(c)[d]) cost one level per link
// above their deepest operand. The deepest input among the workload
// profiles, the examples, the testdata scripts and progen seeds 0-9999
// reaches 14 levels. Past the limit the parser returns a syntax error
// instead of exhausting the goroutine stack, which the Go runtime treats
// as a fatal error that no recover can catch.
const maxNesting = 1000

// Parser parses one script.
type Parser struct {
	script string
	lx     *lexer.Lexer
	tok    token.Token
	ahead  *token.Token
	// depth is the number of nesting levels held by the productions
	// being parsed; peak is the deepest level reached by the chain being
	// measured (see chainStart).
	depth int
	peak  int
}

// Parse parses a complete script.
func Parse(script, src string) (*ast.Program, error) {
	p := &Parser{script: script, lx: lexer.New(script, src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	prog := &ast.Program{Script: script}
	for !p.tok.Is(token.EOF) {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		prog.Body = append(prog.Body, s)
	}
	return prog, nil
}

func (p *Parser) next() error {
	if p.ahead != nil {
		p.tok = *p.ahead
		p.ahead = nil
		return nil
	}
	t, err := p.lx.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// peek returns the token after the current one.
func (p *Parser) peek() (token.Token, error) {
	if p.ahead == nil {
		t, err := p.lx.Next()
		if err != nil {
			return token.Token{}, err
		}
		p.ahead = &t
	}
	return *p.ahead, nil
}

func (p *Parser) nestingError() error {
	return p.errf(p.tok.Pos, "nesting exceeds %d levels", maxNesting)
}

// enter claims one nesting level for a recursive production; when it
// succeeds, the caller calls leave once the production is parsed.
func (p *Parser) enter() error {
	if p.depth >= maxNesting {
		return p.nestingError()
	}
	p.depth++
	p.peak = max(p.peak, p.depth)
	return nil
}

func (p *Parser) leave() { p.depth-- }

// chainStart begins measuring a left-nested chain at the current depth.
// Each link the loop adds wraps every operand parsed so far, so it sits
// one level above the chain's peak (chainLink); chainEnd folds the
// chain's height back into the enclosing measurement.
func (p *Parser) chainStart() (outer int) {
	outer, p.peak = p.peak, p.depth
	return outer
}

func (p *Parser) chainLink() error {
	if p.peak >= maxNesting {
		return p.nestingError()
	}
	p.peak++
	return nil
}

func (p *Parser) chainEnd(outer int) { p.peak = max(p.peak, outer) }

func (p *Parser) errf(pos source.Pos, format string, args ...any) error {
	return &Error{Script: p.script, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) expect(k token.Kind) (token.Token, error) {
	if !p.tok.Is(k) {
		return token.Token{}, p.errf(p.tok.Pos, "expected %s, found %s", k, p.tok)
	}
	t := p.tok
	if err := p.next(); err != nil {
		return token.Token{}, err
	}
	return t, nil
}

// eatSemi consumes an optional semicolon.
func (p *Parser) eatSemi() error {
	if p.tok.Is(token.Semicolon) {
		return p.next()
	}
	return nil
}

// ---- Statements ----

// statement parses one statement, holding a nesting level for it.
func (p *Parser) statement() (ast.Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	s, err := p.statementBody()
	p.leave()
	return s, err
}

func (p *Parser) statementBody() (ast.Stmt, error) {
	switch p.tok.Kind {
	case token.KwVar:
		return p.varDecl(true)
	case token.KwFunction:
		return p.functionDecl()
	case token.KwReturn:
		return p.returnStmt()
	case token.KwIf:
		return p.ifStmt()
	case token.KwWhile:
		return p.whileStmt()
	case token.KwDo:
		return p.doWhileStmt()
	case token.KwFor:
		return p.forStmt()
	case token.LBrace:
		return p.block()
	case token.KwBreak:
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		return &ast.BreakStmt{P: pos}, p.eatSemi()
	case token.KwContinue:
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		return &ast.ContinueStmt{P: pos}, p.eatSemi()
	case token.KwThrow:
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		v, err := p.expression()
		if err != nil {
			return nil, err
		}
		return &ast.ThrowStmt{P: pos, Value: v}, p.eatSemi()
	case token.KwTry:
		return p.tryStmt()
	case token.KwSwitch:
		return p.switchStmt()
	case token.Semicolon:
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		return &ast.BlockStmt{P: pos}, nil // empty statement
	default:
		pos := p.tok.Pos
		x, err := p.expression()
		if err != nil {
			return nil, err
		}
		return &ast.ExprStmt{P: pos, X: x}, p.eatSemi()
	}
}

// varDecl parses `var a = 1, b;`. consumeSemi is false inside for-clauses.
func (p *Parser) varDecl(consumeSemi bool) (*ast.VarDecl, error) {
	pos := p.tok.Pos
	if err := p.next(); err != nil { // skip var
		return nil, err
	}
	d := &ast.VarDecl{P: pos}
	for {
		name, err := p.expect(token.Ident)
		if err != nil {
			return nil, err
		}
		d.Names = append(d.Names, name.Lit)
		var init ast.Expr
		if p.tok.Is(token.Assign) {
			if err := p.next(); err != nil {
				return nil, err
			}
			init, err = p.assignExpr()
			if err != nil {
				return nil, err
			}
		}
		d.Inits = append(d.Inits, init)
		if !p.tok.Is(token.Comma) {
			break
		}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if consumeSemi {
		return d, p.eatSemi()
	}
	return d, nil
}

func (p *Parser) functionDecl() (ast.Stmt, error) {
	pos := p.tok.Pos
	fn, err := p.functionLit(true)
	if err != nil {
		return nil, err
	}
	return &ast.FunctionDecl{P: pos, Fn: fn}, nil
}

// functionLit parses `function name?(params) { body }`; the current token
// must be `function`.
func (p *Parser) functionLit(requireName bool) (*ast.FunctionLit, error) {
	pos := p.tok.Pos
	if err := p.next(); err != nil { // skip function
		return nil, err
	}
	fn := &ast.FunctionLit{P: pos}
	if p.tok.Is(token.Ident) {
		fn.Name = p.tok.Lit
		if err := p.next(); err != nil {
			return nil, err
		}
	} else if requireName {
		return nil, p.errf(p.tok.Pos, "function declaration requires a name")
	}
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	for !p.tok.Is(token.RParen) {
		name, err := p.expect(token.Ident)
		if err != nil {
			return nil, err
		}
		fn.Params = append(fn.Params, name.Lit)
		if p.tok.Is(token.Comma) {
			if err := p.next(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.next(); err != nil { // skip )
		return nil, err
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	for !p.tok.Is(token.RBrace) {
		if p.tok.Is(token.EOF) {
			return nil, p.errf(pos, "unterminated function body")
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		fn.Body = append(fn.Body, s)
	}
	return fn, p.next() // skip }
}

func (p *Parser) returnStmt() (ast.Stmt, error) {
	pos := p.tok.Pos
	if err := p.next(); err != nil {
		return nil, err
	}
	r := &ast.ReturnStmt{P: pos}
	if !p.tok.Is(token.Semicolon) && !p.tok.Is(token.RBrace) && !p.tok.Is(token.EOF) {
		v, err := p.expression()
		if err != nil {
			return nil, err
		}
		r.Value = v
	}
	return r, p.eatSemi()
}

func (p *Parser) ifStmt() (ast.Stmt, error) {
	pos := p.tok.Pos
	if err := p.next(); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	then, err := p.statement()
	if err != nil {
		return nil, err
	}
	s := &ast.IfStmt{P: pos, Cond: cond, Then: then}
	if p.tok.Is(token.KwElse) {
		if err := p.next(); err != nil {
			return nil, err
		}
		s.Else, err = p.statement()
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *Parser) whileStmt() (ast.Stmt, error) {
	pos := p.tok.Pos
	if err := p.next(); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &ast.WhileStmt{P: pos, Cond: cond, Body: body}, nil
}

func (p *Parser) doWhileStmt() (ast.Stmt, error) {
	pos := p.tok.Pos
	if err := p.next(); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.KwWhile); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	return &ast.DoWhileStmt{P: pos, Body: body, Cond: cond}, p.eatSemi()
}

func (p *Parser) forStmt() (ast.Stmt, error) {
	pos := p.tok.Pos
	if err := p.next(); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}

	// Disambiguate for-in: `for (var x in e)` or `for (x in e)`.
	if p.tok.Is(token.KwVar) {
		ahead, err := p.peek()
		if err != nil {
			return nil, err
		}
		_ = ahead
		d, err := p.varDecl(false)
		if err != nil {
			return nil, err
		}
		if p.tok.Is(token.KwIn) && len(d.Names) == 1 && d.Inits[0] == nil {
			return p.forInTail(pos, d.Names[0], true)
		}
		return p.forClassicTail(pos, d)
	}
	if p.tok.Is(token.Ident) {
		ahead, err := p.peek()
		if err != nil {
			return nil, err
		}
		if ahead.Is(token.KwIn) {
			name := p.tok.Lit
			if err := p.next(); err != nil { // ident
				return nil, err
			}
			return p.forInTail(pos, name, false)
		}
	}
	var init ast.Stmt
	if !p.tok.Is(token.Semicolon) {
		x, err := p.expression()
		if err != nil {
			return nil, err
		}
		init = &ast.ExprStmt{P: x.Pos(), X: x}
	}
	return p.forClassicTail(pos, init)
}

func (p *Parser) forInTail(pos source.Pos, name string, decl bool) (ast.Stmt, error) {
	if _, err := p.expect(token.KwIn); err != nil {
		return nil, err
	}
	subject, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &ast.ForInStmt{P: pos, Name: name, Decl: decl, Subject: subject, Body: body}, nil
}

func (p *Parser) forClassicTail(pos source.Pos, init ast.Stmt) (ast.Stmt, error) {
	if _, err := p.expect(token.Semicolon); err != nil {
		return nil, err
	}
	s := &ast.ForStmt{P: pos, Init: init}
	var err error
	if !p.tok.Is(token.Semicolon) {
		s.Cond, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(token.Semicolon); err != nil {
		return nil, err
	}
	if !p.tok.Is(token.RParen) {
		s.Post, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	s.Body, err = p.statement()
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (p *Parser) block() (ast.Stmt, error) {
	pos := p.tok.Pos
	if err := p.next(); err != nil { // skip {
		return nil, err
	}
	b := &ast.BlockStmt{P: pos}
	for !p.tok.Is(token.RBrace) {
		if p.tok.Is(token.EOF) {
			return nil, p.errf(pos, "unterminated block")
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		b.Body = append(b.Body, s)
	}
	return b, p.next()
}

func (p *Parser) tryStmt() (ast.Stmt, error) {
	pos := p.tok.Pos
	if err := p.next(); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	s := &ast.TryStmt{P: pos, Body: body.(*ast.BlockStmt).Body}
	hasCatch := false
	if p.tok.Is(token.KwCatch) {
		hasCatch = true
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		name, err := p.expect(token.Ident)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		catch, err := p.block()
		if err != nil {
			return nil, err
		}
		s.CatchName = name.Lit
		s.Catch = catch.(*ast.BlockStmt).Body
	}
	hasFinally := false
	if p.tok.Is(token.KwFinally) {
		hasFinally = true
		if err := p.next(); err != nil {
			return nil, err
		}
		fin, err := p.block()
		if err != nil {
			return nil, err
		}
		s.Finally = fin.(*ast.BlockStmt).Body
	}
	if !hasCatch && !hasFinally {
		return nil, p.errf(pos, "try requires catch or finally")
	}
	return s, nil
}

func (p *Parser) switchStmt() (ast.Stmt, error) {
	pos := p.tok.Pos
	if err := p.next(); err != nil { // skip switch
		return nil, err
	}
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	subject, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	s := &ast.SwitchStmt{P: pos, Subject: subject}
	sawDefault := false
	for !p.tok.Is(token.RBrace) {
		clausePos := p.tok.Pos
		var test ast.Expr
		switch p.tok.Kind {
		case token.KwCase:
			if err := p.next(); err != nil {
				return nil, err
			}
			test, err = p.expression()
			if err != nil {
				return nil, err
			}
		case token.KwDefault:
			if sawDefault {
				return nil, p.errf(clausePos, "duplicate default clause")
			}
			sawDefault = true
			if err := p.next(); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf(clausePos, "expected case or default, found %s", p.tok)
		}
		if _, err := p.expect(token.Colon); err != nil {
			return nil, err
		}
		var body []ast.Stmt
		for !p.tok.Is(token.KwCase) && !p.tok.Is(token.KwDefault) && !p.tok.Is(token.RBrace) {
			if p.tok.Is(token.EOF) {
				return nil, p.errf(pos, "unterminated switch")
			}
			stmt, err := p.statement()
			if err != nil {
				return nil, err
			}
			body = append(body, stmt)
		}
		s.Cases = append(s.Cases, ast.SwitchCase{P: clausePos, Test: test, Body: body})
	}
	return s, p.next() // skip }
}

// ---- Expressions (precedence climbing) ----

func (p *Parser) expression() (ast.Expr, error) { return p.assignExpr() }

// assignExpr parses an assignment-level expression, holding a nesting
// level for it.
func (p *Parser) assignExpr() (ast.Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	x, err := p.assignBody()
	p.leave()
	return x, err
}

func (p *Parser) assignBody() (ast.Expr, error) {
	left, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	var op string
	switch p.tok.Kind {
	case token.Assign:
		op = "="
	case token.PlusAssign:
		op = "+="
	case token.MinusAssign:
		op = "-="
	case token.StarAssign:
		op = "*="
	case token.SlashAssign:
		op = "/="
	case token.PctAssign:
		op = "%="
	default:
		return left, nil
	}
	pos := p.tok.Pos
	switch left.(type) {
	case *ast.Ident, *ast.MemberExpr, *ast.IndexExpr:
	default:
		return nil, p.errf(pos, "invalid assignment target")
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	right, err := p.assignExpr() // right associative
	if err != nil {
		return nil, err
	}
	return &ast.AssignExpr{P: pos, Op: op, Target: left, Value: right}, nil
}

func (p *Parser) condExpr() (ast.Expr, error) {
	cond, err := p.binaryExpr(1)
	if err != nil {
		return nil, err
	}
	if !p.tok.Is(token.Question) {
		return cond, nil
	}
	pos := p.tok.Pos
	if err := p.next(); err != nil {
		return nil, err
	}
	then, err := p.assignExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Colon); err != nil {
		return nil, err
	}
	els, err := p.assignExpr()
	if err != nil {
		return nil, err
	}
	return &ast.CondExpr{P: pos, Cond: cond, Then: then, Else: els}, nil
}

// binPrec returns the precedence of a binary/logical operator token, or 0.
func binPrec(k token.Kind) int {
	switch k {
	case token.OrOr:
		return 1
	case token.AndAnd:
		return 2
	case token.BitOr:
		return 3
	case token.BitXor:
		return 4
	case token.BitAnd:
		return 5
	case token.Eq, token.NotEq, token.StrictEq, token.StrictNe:
		return 6
	case token.Lt, token.Le, token.Gt, token.Ge, token.KwIn, token.KwInstanceof:
		return 7
	case token.Shl, token.Shr:
		return 8
	case token.Plus, token.Minus:
		return 9
	case token.Star, token.Slash, token.Percent:
		return 10
	default:
		return 0
	}
}

// binaryExpr parses a chain of binary operators at precedence minPrec or
// above; every operand's member/call chain is measured inside it too.
func (p *Parser) binaryExpr(minPrec int) (ast.Expr, error) {
	outer := p.chainStart()
	x, err := p.binaryChain(minPrec)
	p.chainEnd(outer)
	return x, err
}

func (p *Parser) binaryChain(minPrec int) (ast.Expr, error) {
	left, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		prec := binPrec(p.tok.Kind)
		if prec == 0 || prec < minPrec {
			return left, nil
		}
		opTok := p.tok
		if err := p.next(); err != nil {
			return nil, err
		}
		right, err := p.binaryExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		if err := p.chainLink(); err != nil {
			return nil, err
		}
		op := opTok.Kind.String()
		if opTok.Kind == token.AndAnd || opTok.Kind == token.OrOr {
			left = &ast.LogicalExpr{P: opTok.Pos, Op: op, L: left, R: right}
		} else {
			left = &ast.BinaryExpr{P: opTok.Pos, Op: op, L: left, R: right}
		}
	}
}

func (p *Parser) unaryExpr() (ast.Expr, error) {
	switch p.tok.Kind {
	case token.Not, token.Minus, token.Plus, token.KwTypeof, token.KwDelete:
		op := p.tok.Kind.String()
		if p.tok.Kind == token.KwTypeof {
			op = "typeof"
		}
		if p.tok.Kind == token.KwDelete {
			op = "delete"
		}
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		operand, err := p.prefixOperand()
		if err != nil {
			return nil, err
		}
		return &ast.UnaryExpr{P: pos, Op: op, Operand: operand}, nil
	case token.PlusPlus, token.MinusMinus:
		op := p.tok.Kind.String()
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		operand, err := p.prefixOperand()
		if err != nil {
			return nil, err
		}
		return &ast.UnaryExpr{P: pos, Op: op, Operand: operand}, nil
	case token.KwNew:
		return p.newExpr()
	default:
		return p.postfixExpr()
	}
}

// prefixOperand parses the operand of a prefix operator, holding a
// nesting level for the operator.
func (p *Parser) prefixOperand() (ast.Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	x, err := p.unaryExpr()
	p.leave()
	return x, err
}

func (p *Parser) newExpr() (ast.Expr, error) {
	pos := p.tok.Pos
	if err := p.next(); err != nil { // skip new
		return nil, err
	}
	// The callee of new binds member accesses but not calls.
	callee, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	callee, err = p.callTail(callee, false)
	if err != nil {
		return nil, err
	}
	if err := p.chainLink(); err != nil {
		return nil, err
	}
	n := &ast.NewExpr{P: pos, Callee: callee}
	if p.tok.Is(token.LParen) {
		if err := p.next(); err != nil {
			return nil, err
		}
		for !p.tok.Is(token.RParen) {
			arg, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			n.Args = append(n.Args, arg)
			if p.tok.Is(token.Comma) {
				if err := p.next(); err != nil {
					return nil, err
				}
			}
		}
		if err := p.next(); err != nil { // skip )
			return nil, err
		}
	}
	// new F().m() — continue the member/call tail on the result.
	return p.postfixTail(n)
}

func (p *Parser) postfixExpr() (ast.Expr, error) {
	x, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	return p.postfixTail(x)
}

func (p *Parser) postfixTail(x ast.Expr) (ast.Expr, error) {
	x, err := p.callTail(x, true)
	if err != nil {
		return nil, err
	}
	if p.tok.Is(token.PlusPlus) || p.tok.Is(token.MinusMinus) {
		op := p.tok.Kind.String()
		pos := p.tok.Pos
		if err := p.chainLink(); err != nil {
			return nil, err
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		return &ast.PostfixExpr{P: pos, Op: op, Operand: x}, nil
	}
	return x, nil
}

// callTail parses chains of .name, [index] and (args) after a primary.
// The enclosing binaryExpr measures the chain from before the primary.
func (p *Parser) callTail(x ast.Expr, allowCall bool) (ast.Expr, error) {
	for {
		switch p.tok.Kind {
		case token.Dot:
			if err := p.next(); err != nil {
				return nil, err
			}
			if !p.tok.Is(token.Ident) && token.Keywords[p.tok.Lit] == 0 {
				return nil, p.errf(p.tok.Pos, "expected property name, found %s", p.tok)
			}
			name := p.tok.Lit
			pos := p.tok.Pos
			if err := p.next(); err != nil {
				return nil, err
			}
			if err := p.chainLink(); err != nil {
				return nil, err
			}
			x = &ast.MemberExpr{P: pos, Obj: x, Name: name}
		case token.LBracket:
			pos := p.tok.Pos
			if err := p.next(); err != nil {
				return nil, err
			}
			idx, err := p.expression()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RBracket); err != nil {
				return nil, err
			}
			if err := p.chainLink(); err != nil {
				return nil, err
			}
			x = &ast.IndexExpr{P: pos, Obj: x, Index: idx}
		case token.LParen:
			if !allowCall {
				return x, nil
			}
			pos := p.tok.Pos
			if err := p.next(); err != nil {
				return nil, err
			}
			call := &ast.CallExpr{P: pos, Callee: x}
			for !p.tok.Is(token.RParen) {
				arg, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if p.tok.Is(token.Comma) {
					if err := p.next(); err != nil {
						return nil, err
					}
				}
			}
			if err := p.next(); err != nil { // skip )
				return nil, err
			}
			if err := p.chainLink(); err != nil {
				return nil, err
			}
			x = call
		default:
			return x, nil
		}
	}
}

func (p *Parser) primaryExpr() (ast.Expr, error) {
	tok := p.tok
	switch tok.Kind {
	case token.Number:
		if err := p.next(); err != nil {
			return nil, err
		}
		var f float64
		var err error
		if len(tok.Lit) > 2 && (tok.Lit[:2] == "0x" || tok.Lit[:2] == "0X") {
			var n int64
			n, err = strconv.ParseInt(tok.Lit, 0, 64)
			f = float64(n)
		} else {
			f, err = strconv.ParseFloat(tok.Lit, 64)
		}
		if err != nil {
			return nil, p.errf(tok.Pos, "bad number literal %q", tok.Lit)
		}
		return &ast.NumberLit{P: tok.Pos, Value: f}, nil
	case token.String:
		if err := p.next(); err != nil {
			return nil, err
		}
		return &ast.StringLit{P: tok.Pos, Value: tok.Lit}, nil
	case token.KwTrue, token.KwFalse:
		if err := p.next(); err != nil {
			return nil, err
		}
		return &ast.BoolLit{P: tok.Pos, Value: tok.Kind == token.KwTrue}, nil
	case token.KwNull:
		if err := p.next(); err != nil {
			return nil, err
		}
		return &ast.NullLit{P: tok.Pos}, nil
	case token.KwUndefined:
		if err := p.next(); err != nil {
			return nil, err
		}
		return &ast.UndefinedLit{P: tok.Pos}, nil
	case token.KwThis:
		if err := p.next(); err != nil {
			return nil, err
		}
		return &ast.ThisExpr{P: tok.Pos}, nil
	case token.Ident:
		if err := p.next(); err != nil {
			return nil, err
		}
		return &ast.Ident{P: tok.Pos, Name: tok.Lit}, nil
	case token.KwFunction:
		return p.functionLit(false)
	case token.LParen:
		if err := p.next(); err != nil {
			return nil, err
		}
		x, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		return x, nil
	case token.LBrace:
		return p.objectLit()
	case token.LBracket:
		return p.arrayLit()
	default:
		return nil, p.errf(tok.Pos, "unexpected %s", tok)
	}
}

func (p *Parser) objectLit() (ast.Expr, error) {
	pos := p.tok.Pos
	if err := p.next(); err != nil { // skip {
		return nil, err
	}
	o := &ast.ObjectLit{P: pos}
	for !p.tok.Is(token.RBrace) {
		keyTok := p.tok
		var key string
		switch keyTok.Kind {
		case token.Ident, token.String, token.Number:
			key = keyTok.Lit
		default:
			// Allow keyword property names like {delete: f}.
			if name, ok := keywordName(keyTok.Kind); ok {
				key = name
			} else {
				return nil, p.errf(keyTok.Pos, "expected property key, found %s", keyTok)
			}
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Colon); err != nil {
			return nil, err
		}
		val, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		o.Props = append(o.Props, ast.ObjectProp{P: keyTok.Pos, Key: key, Value: val})
		if p.tok.Is(token.Comma) {
			if err := p.next(); err != nil {
				return nil, err
			}
		} else if !p.tok.Is(token.RBrace) {
			return nil, p.errf(p.tok.Pos, "expected , or } in object literal, found %s", p.tok)
		}
	}
	return o, p.next()
}

func keywordName(k token.Kind) (string, bool) {
	for name, kind := range token.Keywords {
		if kind == k {
			return name, true
		}
	}
	return "", false
}

func (p *Parser) arrayLit() (ast.Expr, error) {
	pos := p.tok.Pos
	if err := p.next(); err != nil { // skip [
		return nil, err
	}
	a := &ast.ArrayLit{P: pos}
	for !p.tok.Is(token.RBracket) {
		el, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		a.Elems = append(a.Elems, el)
		if p.tok.Is(token.Comma) {
			if err := p.next(); err != nil {
				return nil, err
			}
		} else if !p.tok.Is(token.RBracket) {
			return nil, p.errf(p.tok.Pos, "expected , or ] in array literal, found %s", p.tok)
		}
	}
	return a, p.next()
}
