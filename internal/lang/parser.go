package lang

import "fmt"

// Parser builds a PIL AST from the lexer's token stream. It never
// backtracks, so a two-token lookahead window is all it keeps.
type Parser struct {
	lx  *Lexer
	tok [2]Token // the current token and the one after it
	// lexErr is the first lexer error. The stream reads as EOF after
	// it, and Parse reports it in place of any parse error.
	lexErr error
}

// Parse lexes and parses a PIL source file. A lexical error anywhere in
// src takes precedence over a parse error, even an earlier one.
func Parse(src string) (*Program, error) {
	p := &Parser{lx: NewLexer(src)}
	p.tok[0] = p.lex()
	p.tok[1] = p.lex()
	prog, err := p.parseProgram()
	if err != nil {
		// Drain the lexer: a later lexical error outranks this one.
		for p.lexErr == nil && p.lex().Kind != EOF {
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return prog, err
}

// lex pulls the next token from the lexer, recording a lexer error and
// yielding EOF in its place.
func (p *Parser) lex() Token {
	if p.lexErr == nil {
		tok, err := p.lx.Next()
		if err == nil {
			return tok
		}
		p.lexErr = err
	}
	return Token{Kind: EOF}
}

func (p *Parser) cur() Token  { return p.tok[0] }
func (p *Parser) peek() Token { return p.tok[1] }

func (p *Parser) next() Token {
	t := p.tok[0]
	if t.Kind != EOF {
		p.tok[0] = p.tok[1]
		p.tok[1] = p.lex()
	}
	return t
}

func (p *Parser) accept(k Kind) bool {
	if p.cur().Kind == k {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k Kind) (Token, error) {
	if p.cur().Kind != k {
		return Token{}, errf(p.cur().Pos, "expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *Parser) skipSemis() {
	for p.cur().Kind == SEMI {
		p.next()
	}
}

func (p *Parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for {
		p.skipSemis()
		t := p.cur()
		switch t.Kind {
		case EOF:
			return prog, nil
		case KWVAR:
			d, err := p.parseGlobal()
			if err != nil {
				return nil, err
			}
			prog.Globals = append(prog.Globals, d)
		case KWMUTEX:
			p.next()
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			prog.Mutexes = append(prog.Mutexes, &SyncDecl{Pos: t.Pos, Name: name.Text})
		case KWCOND:
			p.next()
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			prog.Conds = append(prog.Conds, &SyncDecl{Pos: t.Pos, Name: name.Text})
		case KWBARRIER:
			p.next()
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(LPAREN); err != nil {
				return nil, err
			}
			cnt, err := p.expect(INT)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			prog.Barriers = append(prog.Barriers, &BarrierDecl{Pos: t.Pos, Name: name.Text, Count: cnt.Int})
		case KWFN:
			f, err := p.parseFunc()
			if err != nil {
				return nil, err
			}
			prog.Funcs = append(prog.Funcs, f)
		default:
			return nil, errf(t.Pos, "expected declaration, found %s", t)
		}
	}
}

func (p *Parser) parseGlobal() (*GlobalDecl, error) {
	t, _ := p.expect(KWVAR)
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	d := &GlobalDecl{Pos: t.Pos, Name: name.Text}
	if p.accept(LBRACK) {
		sz, err := p.expect(INT)
		if err != nil {
			return nil, err
		}
		if sz.Int <= 0 {
			return nil, errf(sz.Pos, "array size must be positive")
		}
		d.Size = sz.Int
		if _, err := p.expect(RBRACK); err != nil {
			return nil, err
		}
		return d, nil
	}
	if p.accept(ASSIGN) {
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	return d, nil
}

func (p *Parser) parseFunc() (*FuncDecl, error) {
	t, _ := p.expect(KWFN)
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	f := &FuncDecl{Pos: t.Pos, Name: name.Text}
	if p.cur().Kind != RPAREN {
		for {
			prm, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			f.Params = append(f.Params, prm.Text)
			if !p.accept(COMMA) {
				break
			}
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	lb, err := p.expect(LBRACE)
	if err != nil {
		return nil, err
	}
	b := &Block{Pos: lb.Pos}
	for {
		p.skipSemis()
		if p.cur().Kind == RBRACE {
			p.next()
			return b, nil
		}
		if p.cur().Kind == EOF {
			return nil, errf(lb.Pos, "unclosed block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
}

func (p *Parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case KWLET:
		p.next()
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(ASSIGN); err != nil {
			return nil, err
		}
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &LetStmt{Pos: t.Pos, Name: name.Text, Init: init}, nil

	case KWIF:
		return p.parseIf()

	case KWWHILE:
		p.next()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Pos: t.Pos, Cond: cond, Body: body}, nil

	case KWFOR:
		p.next()
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(ASSIGN); err != nil {
			return nil, err
		}
		from, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		// ".." spelled as two dots is not a token; reuse ". ." via COMMA?
		// PIL spells the range with the keyword-free form `for i = a .. b`,
		// lexed as two DOTs — we do not have DOT, so the range separator is
		// the token pair ".."; accept COMMA as the separator instead.
		if _, err := p.expect(COMMA); err != nil {
			return nil, errf(p.cur().Pos, "expected ',' in for range (for i = lo, hi)")
		}
		to, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &ForStmt{Pos: t.Pos, Var: name.Text, From: from, To: to, Body: body}, nil

	case KWRETURN:
		p.next()
		if p.cur().Kind == SEMI || p.cur().Kind == RBRACE {
			return &ReturnStmt{Pos: t.Pos}, nil
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ReturnStmt{Pos: t.Pos, Value: v}, nil

	case KWBREAK:
		p.next()
		return &BreakStmt{Pos: t.Pos}, nil

	case KWCONTINUE:
		p.next()
		return &ContinueStmt{Pos: t.Pos}, nil

	case LBRACE:
		return p.parseBlock()

	case IDENT:
		// assignment or expression statement
		if p.peek().Kind == ASSIGN || p.peek().Kind == PLUSEQ || p.peek().Kind == MINUSEQ {
			name := p.next()
			op := assignOpOf(p.next().Kind)
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &AssignStmt{Pos: t.Pos, Target: &VarRef{Pos: name.Pos, Name: name.Text}, Op: op, Value: val}, nil
		}
		if p.peek().Kind == LBRACK {
			// could be `a[i] = e` or expression `a[i]` — parse the index
			// then decide.
			name := p.next()
			p.next() // [
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			target := &IndexExpr{Pos: name.Pos, Name: name.Text, Index: idx}
			switch p.cur().Kind {
			case ASSIGN, PLUSEQ, MINUSEQ:
				op := assignOpOf(p.next().Kind)
				val, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				return &AssignStmt{Pos: t.Pos, Target: target, Op: op, Value: val}, nil
			}
			// bare element read as statement: allow, though useless
			return &ExprStmt{Pos: t.Pos, X: target}, nil
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ExprStmt{Pos: t.Pos, X: x}, nil

	case KWSPAWN:
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ExprStmt{Pos: t.Pos, X: x}, nil
	}
	return nil, errf(t.Pos, "expected statement, found %s", t)
}

func assignOpOf(k Kind) AssignOp {
	switch k {
	case PLUSEQ:
		return AssignAdd
	case MINUSEQ:
		return AssignSub
	}
	return AssignSet
}

func (p *Parser) parseIf() (Stmt, error) {
	t, _ := p.expect(KWIF)
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{Pos: t.Pos, Cond: cond, Then: then}
	if p.accept(KWELSE) {
		if p.cur().Kind == KWIF {
			el, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			s.Else = el
		} else {
			el, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			s.Else = el
		}
	}
	return s, nil
}

// Expression parsing: precedence climbing.

type precLevel struct {
	kinds []Kind
}

var precedence = []precLevel{
	{[]Kind{LOR}},
	{[]Kind{LAND}},
	{[]Kind{PIPE}},
	{[]Kind{CARET}},
	{[]Kind{AMP}},
	{[]Kind{EQ, NE}},
	{[]Kind{LT, LE, GT, GE}},
	{[]Kind{SHL, SHR}},
	{[]Kind{PLUS, MINUS}},
	{[]Kind{STAR, SLASH, PERCENT}},
}

func (p *Parser) parseExpr() (Expr, error) { return p.parseBinary(0) }

func (p *Parser) parseBinary(level int) (Expr, error) {
	if level == len(precedence) {
		return p.parseUnary()
	}
	lhs, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		k := p.cur().Kind
		matched := false
		for _, want := range precedence[level].kinds {
			if k == want {
				matched = true
				break
			}
		}
		if !matched {
			return lhs, nil
		}
		op := p.next()
		rhs, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinaryExpr{Pos: op.Pos, Op: op.Kind, L: lhs, R: rhs}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case MINUS, NOT, TILDE:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Pos: t.Pos, Op: t.Kind, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case INT:
		p.next()
		return &IntLit{Pos: t.Pos, Val: t.Int}, nil
	case KWTRUE:
		p.next()
		return &IntLit{Pos: t.Pos, Val: 1}, nil
	case KWFALSE:
		p.next()
		return &IntLit{Pos: t.Pos, Val: 0}, nil
	case STRING:
		p.next()
		return &StrLit{Pos: t.Pos, Val: t.Text}, nil
	case LPAREN:
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return x, nil
	case KWSPAWN:
		p.next()
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		args, err := p.parseArgs()
		if err != nil {
			return nil, err
		}
		return &SpawnExpr{Pos: t.Pos, Name: name.Text, Args: args}, nil
	case IDENT:
		p.next()
		switch p.cur().Kind {
		case LPAREN:
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return &CallExpr{Pos: t.Pos, Name: t.Text, Args: args}, nil
		case LBRACK:
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			return &IndexExpr{Pos: t.Pos, Name: t.Text, Index: idx}, nil
		}
		return &VarRef{Pos: t.Pos, Name: t.Text}, nil
	}
	return nil, errf(t.Pos, "expected expression, found %s", t)
}

func (p *Parser) parseArgs() ([]Expr, error) {
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	var args []Expr
	if p.cur().Kind != RPAREN {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if !p.accept(COMMA) {
				break
			}
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	return args, nil
}

// MustParse parses src and panics on error; for tests and embedded
// workloads whose sources are compile-time constants.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("lang.MustParse: %v", err))
	}
	return prog
}
