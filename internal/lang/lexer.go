package lang

import (
	"strconv"
	"strings"
)

// Lexer turns PIL source into tokens. Like Go, PIL is newline-sensitive:
// the lexer inserts a SEMI token at a newline when the previous token could
// end a statement, so programs need no explicit semicolons.
type Lexer struct {
	src  string
	off  int
	line int
	col  int

	lastKind    Kind
	haveLast    bool
	pendingSemi bool
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) peekByte() (byte, bool) {
	if lx.off >= len(lx.src) {
		return 0, false
	}
	return lx.src[lx.off], true
}

func (lx *Lexer) advance() byte {
	b := lx.src[lx.off]
	lx.off++
	if b == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return b
}

// canEndStatement reports whether a token kind may terminate a statement,
// for automatic semicolon insertion.
func canEndStatement(k Kind) bool {
	switch k {
	case IDENT, INT, STRING, RPAREN, RBRACK, RBRACE,
		KWTRUE, KWFALSE, KWRETURN, KWBREAK, KWCONTINUE:
		return true
	}
	return false
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	if lx.pendingSemi {
		lx.pendingSemi = false
		lx.haveLast = false
		return Token{Kind: SEMI, Pos: Pos{lx.line, lx.col}}, nil
	}

	// Skip whitespace and comments, watching for newlines that trigger
	// semicolon insertion.
	for {
		b, ok := lx.peekByte()
		if !ok {
			break
		}
		switch {
		case b == '\n':
			if lx.haveLast && canEndStatement(lx.lastKind) {
				pos := Pos{lx.line, lx.col}
				lx.advance()
				lx.haveLast = false
				return Token{Kind: SEMI, Pos: pos}, nil
			}
			lx.advance()
			continue
		case b == ' ' || b == '\t' || b == '\r':
			lx.advance()
			continue
		case b == '/' && lx.off+1 < len(lx.src) && lx.src[lx.off+1] == '/':
			for {
				c, ok := lx.peekByte()
				if !ok || c == '\n' {
					break
				}
				lx.advance()
			}
			continue
		case b == '/' && lx.off+1 < len(lx.src) && lx.src[lx.off+1] == '*':
			pos := Pos{lx.line, lx.col}
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.src[lx.off] == '*' && lx.off+1 < len(lx.src) && lx.src[lx.off+1] == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return Token{}, errf(pos, "unterminated block comment")
			}
			continue
		}
		break
	}

	pos := Pos{lx.line, lx.col}
	b, ok := lx.peekByte()
	if !ok {
		if lx.haveLast && canEndStatement(lx.lastKind) {
			lx.haveLast = false
			return Token{Kind: SEMI, Pos: pos}, nil
		}
		return Token{Kind: EOF, Pos: pos}, nil
	}

	emit := func(t Token) (Token, error) {
		lx.lastKind = t.Kind
		lx.haveLast = true
		return t, nil
	}

	switch {
	case isIdentStart(b):
		start := lx.off
		for {
			c, ok := lx.peekByte()
			if !ok || !isIdentPart(c) {
				break
			}
			lx.advance()
		}
		text := lx.src[start:lx.off]
		if kw, isKw := keywords[text]; isKw {
			return emit(Token{Kind: kw, Pos: pos, Text: text})
		}
		return emit(Token{Kind: IDENT, Pos: pos, Text: text})

	case b >= '0' && b <= '9':
		start := lx.off
		for {
			c, ok := lx.peekByte()
			if !ok || !(c >= '0' && c <= '9' || c == 'x' || c == 'X' ||
				c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F') {
				break
			}
			lx.advance()
		}
		text := lx.src[start:lx.off]
		v, err := strconv.ParseInt(text, 0, 64)
		if err != nil {
			return Token{}, errf(pos, "bad integer literal %q", text)
		}
		return emit(Token{Kind: INT, Pos: pos, Text: text, Int: v})

	case b == '"':
		lx.advance()
		var sb strings.Builder
		for {
			c, ok := lx.peekByte()
			if !ok || c == '\n' {
				return Token{}, errf(pos, "unterminated string literal")
			}
			lx.advance()
			if c == '"' {
				break
			}
			if c == '\\' {
				e, ok := lx.peekByte()
				if !ok {
					return Token{}, errf(pos, "unterminated escape")
				}
				lx.advance()
				switch e {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '\\':
					sb.WriteByte('\\')
				case '"':
					sb.WriteByte('"')
				default:
					return Token{}, errf(pos, "unknown escape \\%c", e)
				}
				continue
			}
			sb.WriteByte(c)
		}
		return emit(Token{Kind: STRING, Pos: pos, Text: sb.String()})
	}

	lx.advance()
	two := func(next byte, k2, k1 Kind) (Token, error) {
		if c, ok := lx.peekByte(); ok && c == next {
			lx.advance()
			return emit(Token{Kind: k2, Pos: pos})
		}
		return emit(Token{Kind: k1, Pos: pos})
	}

	switch b {
	case '(':
		return emit(Token{Kind: LPAREN, Pos: pos})
	case ')':
		return emit(Token{Kind: RPAREN, Pos: pos})
	case '{':
		return emit(Token{Kind: LBRACE, Pos: pos})
	case '}':
		return emit(Token{Kind: RBRACE, Pos: pos})
	case '[':
		return emit(Token{Kind: LBRACK, Pos: pos})
	case ']':
		return emit(Token{Kind: RBRACK, Pos: pos})
	case ',':
		return emit(Token{Kind: COMMA, Pos: pos})
	case ';':
		return emit(Token{Kind: SEMI, Pos: pos})
	case '+':
		return two('=', PLUSEQ, PLUS)
	case '-':
		return two('=', MINUSEQ, MINUS)
	case '*':
		return emit(Token{Kind: STAR, Pos: pos})
	case '/':
		return emit(Token{Kind: SLASH, Pos: pos})
	case '%':
		return emit(Token{Kind: PERCENT, Pos: pos})
	case '~':
		return emit(Token{Kind: TILDE, Pos: pos})
	case '^':
		return emit(Token{Kind: CARET, Pos: pos})
	case '&':
		return two('&', LAND, AMP)
	case '|':
		return two('|', LOR, PIPE)
	case '=':
		return two('=', EQ, ASSIGN)
	case '!':
		return two('=', NE, NOT)
	case '<':
		if c, ok := lx.peekByte(); ok {
			if c == '=' {
				lx.advance()
				return emit(Token{Kind: LE, Pos: pos})
			}
			if c == '<' {
				lx.advance()
				return emit(Token{Kind: SHL, Pos: pos})
			}
		}
		return emit(Token{Kind: LT, Pos: pos})
	case '>':
		if c, ok := lx.peekByte(); ok {
			if c == '=' {
				lx.advance()
				return emit(Token{Kind: GE, Pos: pos})
			}
			if c == '>' {
				lx.advance()
				return emit(Token{Kind: SHR, Pos: pos})
			}
		}
		return emit(Token{Kind: GT, Pos: pos})
	}
	return Token{}, errf(pos, "unexpected character %q", string(b))
}

func isIdentStart(b byte) bool {
	return b == '_' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
}

func isIdentPart(b byte) bool {
	return isIdentStart(b) || b >= '0' && b <= '9'
}
