package sql

import (
	"fmt"
	"strings"
)

// Lexer tokenizes a SQL statement. It is a straightforward hand-rolled
// scanner; statements are short, so it lexes eagerly into a slice that
// the parser indexes with lookahead.
type Lexer struct {
	input string
	pos   int
}

// Lex tokenizes the whole input, returning the token stream terminated
// by a TokEOF token.
func Lex(input string) ([]Token, error) {
	l := &Lexer{input: input}
	// A token takes four bytes of SQL on average (a word and its
	// space, or a symbol): size for that instead of growing from zero.
	toks := make([]Token, 0, len(input)/4+1)
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Kind == TokEOF {
			return toks, nil
		}
	}
}

func (l *Lexer) next() (Token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.input) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.input[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.input) && isIdentPart(l.input[l.pos]) {
			l.pos++
		}
		return Token{Kind: TokIdent, Text: l.input[start:l.pos], Pos: start}, nil
	case c >= '0' && c <= '9':
		return l.lexNumber(start)
	case c == '\'':
		return l.lexString(start)
	case c == '?':
		l.pos++
		return Token{Kind: TokParam, Pos: start}, nil
	default:
		return l.lexSymbol(start)
	}
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.input) {
		c := l.input[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.input) && l.input[l.pos+1] == '-':
			// Line comment to end of line.
			for l.pos < len(l.input) && l.input[l.pos] != '\n' {
				l.pos++
			}
		default:
			return
		}
	}
}

func (l *Lexer) lexNumber(start int) (Token, error) {
	isFloat := false
	for l.pos < len(l.input) {
		c := l.input[l.pos]
		switch {
		case c >= '0' && c <= '9':
			l.pos++
		case c == '.' && !isFloat:
			isFloat = true
			l.pos++
		case (c == 'e' || c == 'E') && l.pos > start:
			isFloat = true
			l.pos++
			if l.pos < len(l.input) && (l.input[l.pos] == '+' || l.input[l.pos] == '-') {
				l.pos++
			}
		default:
			return Token{Kind: TokNumber, Text: l.input[start:l.pos], Pos: start, IsFloat: isFloat}, nil
		}
	}
	return Token{Kind: TokNumber, Text: l.input[start:l.pos], Pos: start, IsFloat: isFloat}, nil
}

func (l *Lexer) lexString(start int) (Token, error) {
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.input) {
		c := l.input[l.pos]
		if c == '\'' {
			// '' is an escaped quote.
			if l.pos+1 < len(l.input) && l.input[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return Token{Kind: TokString, Text: b.String(), Pos: start}, nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return Token{}, fmt.Errorf("sql: unterminated string literal at offset %d", start)
}

// twoCharSymbols are the multi-byte operators, checked before single
// bytes.
var twoCharSymbols = []string{"<=", ">=", "<>", "!=", "||"}

func (l *Lexer) lexSymbol(start int) (Token, error) {
	if l.pos+1 < len(l.input) {
		two := l.input[l.pos : l.pos+2]
		for _, s := range twoCharSymbols {
			if two == s {
				l.pos += 2
				return Token{Kind: TokSymbol, Text: two, Pos: start}, nil
			}
		}
	}
	c := l.input[l.pos]
	switch c {
	case '(', ')', ',', '*', '+', '-', '/', '%', '=', '<', '>', '.', ';':
		l.pos++
		return Token{Kind: TokSymbol, Text: string(c), Pos: start}, nil
	default:
		return Token{}, fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}
