package lang

import (
	"strings"
	"testing"
)

// lexAll tokenizes the whole input. The returned slice always ends with EOF.
func lexAll(src string) ([]Token, error) {
	lx := NewLexer(src)
	var out []Token
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, tok)
		if tok.Kind == EOF {
			return out, nil
		}
	}
}

func lexKinds(t *testing.T, src string) []Kind {
	t.Helper()
	toks, err := lexAll(src)
	if err != nil {
		t.Fatalf("lex: %v", err)
	}
	kinds := make([]Kind, len(toks))
	for i, tok := range toks {
		kinds[i] = tok.Kind
	}
	return kinds
}

func TestLexBasics(t *testing.T) {
	kinds := lexKinds(t, "let x = 40 + 2")
	want := []Kind{KWLET, IDENT, ASSIGN, INT, PLUS, INT, SEMI, EOF}
	if len(kinds) != len(want) {
		t.Fatalf("got %v want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d: got %v want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexOperators(t *testing.T) {
	kinds := lexKinds(t, "== != <= >= << >> && || += -= = < > ! & | ^ ~ %")
	want := []Kind{EQ, NE, LE, GE, SHL, SHR, LAND, LOR, PLUSEQ, MINUSEQ,
		ASSIGN, LT, GT, NOT, AMP, PIPE, CARET, TILDE, PERCENT, EOF}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d: got %v want %v", i, kinds[i], want[i])
		}
	}
}

func TestSemicolonInsertion(t *testing.T) {
	// Newline after an identifier inserts SEMI; after '{' it must not.
	kinds := lexKinds(t, "fn main() {\n let a = 1\n a = 2\n}")
	text := ""
	for _, k := range kinds {
		if k == SEMI {
			text += ";"
		} else {
			text += "."
		}
	}
	// fn main ( ) {  let a = 1 ;  a = 2 ; } ; EOF
	if strings.Count(text, ";") != 3 {
		t.Fatalf("want 3 inserted semis, got %q", text)
	}
}

func TestLexComments(t *testing.T) {
	kinds := lexKinds(t, `
// line comment
let x = 1 /* block
   spanning */ + 2
`)
	want := []Kind{KWLET, IDENT, ASSIGN, INT, PLUS, INT, SEMI, EOF}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d: got %v want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := lexAll(`print("a\nb\t\"q\"")`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].Kind != STRING || toks[2].Text != "a\nb\t\"q\"" {
		t.Fatalf("got %q", toks[2].Text)
	}
}

func TestLexHex(t *testing.T) {
	toks, err := lexAll("let x = 0x1F")
	if err != nil {
		t.Fatal(err)
	}
	if toks[3].Kind != INT || toks[3].Int != 31 {
		t.Fatalf("got %v %d", toks[3].Kind, toks[3].Int)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{
		`let s = "unterminated`,
		"/* unterminated block",
		"let x = @",
		`"bad \q escape"`,
	} {
		if _, err := lexAll(src); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}

func TestParseDeclarations(t *testing.T) {
	p, err := Parse(`
var x = 3
var buf[16]
mutex m
cond c
barrier b(4)
fn helper(a, bb) { return a + bb }
fn main() { print(helper(1, 2)) }
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Globals) != 2 || p.Globals[0].Name != "x" || p.Globals[1].Size != 16 {
		t.Fatalf("globals: %+v", p.Globals)
	}
	if len(p.Mutexes) != 1 || len(p.Conds) != 1 || len(p.Barriers) != 1 {
		t.Fatal("sync decls wrong")
	}
	if p.Barriers[0].Count != 4 {
		t.Fatal("barrier count wrong")
	}
	if len(p.Funcs) != 2 || len(p.Funcs[0].Params) != 2 {
		t.Fatalf("funcs: %+v", p.Funcs)
	}
}

func TestParsePrecedence(t *testing.T) {
	p, err := Parse(`fn main() { let x = 1 + 2 * 3 == 7 && 1 < 2 }`)
	if err != nil {
		t.Fatal(err)
	}
	let := p.Funcs[0].Body.Stmts[0].(*LetStmt)
	top, ok := let.Init.(*BinaryExpr)
	if !ok || top.Op != LAND {
		t.Fatalf("top should be &&, got %#v", let.Init)
	}
	l, ok := top.L.(*BinaryExpr)
	if !ok || l.Op != EQ {
		t.Fatalf("left of && should be ==, got %#v", top.L)
	}
	sum, ok := l.L.(*BinaryExpr)
	if !ok || sum.Op != PLUS {
		t.Fatalf("left of == should be +, got %#v", l.L)
	}
	if mul, ok := sum.R.(*BinaryExpr); !ok || mul.Op != STAR {
		t.Fatalf("right of + should be *, got %#v", sum.R)
	}
}

func TestParseControlFlow(t *testing.T) {
	p, err := Parse(`
fn main() {
	if 1 { yield() } else if 2 { yield() } else { yield() }
	while 1 { break; continue }
	for i = 0, 10 { print(i) }
}`)
	if err != nil {
		t.Fatal(err)
	}
	stmts := p.Funcs[0].Body.Stmts
	ifs, ok := stmts[0].(*IfStmt)
	if !ok {
		t.Fatalf("want if, got %#v", stmts[0])
	}
	if _, ok := ifs.Else.(*IfStmt); !ok {
		t.Fatal("else-if chain not parsed")
	}
	if _, ok := stmts[1].(*WhileStmt); !ok {
		t.Fatal("while not parsed")
	}
	f, ok := stmts[2].(*ForStmt)
	if !ok || f.Var != "i" {
		t.Fatal("for not parsed")
	}
}

func TestParseSpawnAndAssignments(t *testing.T) {
	p, err := Parse(`
var g = 0
var a[4]
fn w(x) {}
fn main() {
	let t = spawn w(3)
	g += 1
	a[2] -= 5
	join(t)
}`)
	if err != nil {
		t.Fatal(err)
	}
	stmts := p.Funcs[1].Body.Stmts
	let := stmts[0].(*LetStmt)
	if _, ok := let.Init.(*SpawnExpr); !ok {
		t.Fatal("spawn expression not parsed")
	}
	as1 := stmts[1].(*AssignStmt)
	if as1.Op != AssignAdd {
		t.Fatal("+= not parsed")
	}
	as2 := stmts[2].(*AssignStmt)
	if as2.Op != AssignSub {
		t.Fatal("-= not parsed")
	}
	if _, ok := as2.Target.(*IndexExpr); !ok {
		t.Fatal("indexed target not parsed")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"fn main( {}",                 // bad params
		"fn main() { let = 3 }",       // missing name
		"fn main() { if { } }",        // missing condition
		"var",                         // missing name
		"barrier b()",                 // missing count
		"fn main() { a[1 }",           // unclosed index
		"fn main() { ",                // unclosed block
		"fn main() { break } }",       // stray brace
		"let x = 1",                   // top-level statement
		"fn main() { x = }",           // missing rhs
		`fn main() { for i = 0 { } }`, // missing range
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Fatalf("expected parse error for %q", src)
		}
	}
}

// TestLexErrorOutranksEarlierParseError pins the error precedence of the
// streaming parser: a lexical error anywhere in the source is reported
// even when a parse error comes first, and a parse error without any
// lexical one is reported as itself.
func TestLexErrorOutranksEarlierParseError(t *testing.T) {
	_, err := Parse("fn main( {}\nfn other() {\n\tlet y = 1 @ 2\n}")
	le, ok := err.(*Error)
	if !ok {
		t.Fatalf("want *Error, got %T (%v)", err, err)
	}
	if le.Pos.Line != 3 || !strings.Contains(le.Msg, "unexpected character") {
		t.Fatalf("got %v, want the line-3 lexical error", le)
	}

	_, err = Parse("fn main( {}\nfn other() {\n\tlet y = 1 + 2\n}")
	if le, ok = err.(*Error); !ok || le.Pos.Line != 1 {
		t.Fatalf("got %v, want the line-1 parse error", err)
	}
}

func TestParseUnaryChain(t *testing.T) {
	p, err := Parse(`fn main() { let x = - - 3 ; let y = !~0 }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Funcs[0].Body.Stmts) != 2 {
		t.Fatal("statements missing")
	}
}

func TestPosReporting(t *testing.T) {
	_, err := Parse("fn main() {\n\tbogus £\n}")
	if err == nil {
		t.Fatal("expected error")
	}
	le, ok := err.(*Error)
	if !ok {
		t.Fatalf("want *Error, got %T", err)
	}
	if le.Pos.Line != 2 {
		t.Fatalf("error line = %d, want 2", le.Pos.Line)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad input")
		}
	}()
	MustParse("not a program ~~~")
}

func TestTokenStrings(t *testing.T) {
	if KWWHILE.String() != "while" || IDENT.String() != "identifier" {
		t.Fatal("kind names wrong")
	}
	tok := Token{Kind: STRING, Text: "hi"}
	if tok.String() != `"hi"` {
		t.Fatalf("got %s", tok.String())
	}
	if (Pos{3, 7}).String() != "3:7" {
		t.Fatal("pos string wrong")
	}
}
