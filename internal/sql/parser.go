package sql

import (
	"fmt"
	"strconv"
	"strings"

	"sstore/internal/types"
)

// Parser is a recursive-descent parser over the token stream produced
// by Lex.
type Parser struct {
	toks      []Token
	pos       int
	numParams int
}

// Parse parses a single SQL statement (a trailing semicolon is
// allowed).
func Parse(input string) (Statement, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.acceptSymbol(";")
	if p.peek().Kind != TokEOF {
		return nil, p.errorf("unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

func (p *Parser) peek() Token { return p.toks[p.pos] }
func (p *Parser) advance() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *Parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: "+format+" (near offset %d)", append(args, p.peek().Pos)...)
}

// isKeyword reports whether the next token is the given keyword
// (case-insensitive) without consuming it. Identifiers are ASCII, so
// EqualFold matches exactly what lower-casing would, without
// allocating a lower-case copy of every candidate token.
func (p *Parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == TokIdent && strings.EqualFold(t.Text, kw)
}

// acceptKeyword consumes the keyword if present.
func (p *Parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

// expectKeyword consumes the keyword or fails.
func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, got %s", kw, p.peek())
	}
	return nil
}

func (p *Parser) acceptSymbol(sym string) bool {
	t := p.peek()
	if t.Kind == TokSymbol && t.Text == sym {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errorf("expected %q, got %s", sym, p.peek())
	}
	return nil
}

// expectIdent consumes and returns an identifier.
func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return "", p.errorf("expected identifier, got %s", t)
	}
	p.advance()
	return t.Text, nil
}

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.isKeyword("select"):
		return p.parseSelect()
	case p.isKeyword("insert"):
		return p.parseInsert()
	case p.isKeyword("update"):
		return p.parseUpdate()
	case p.isKeyword("delete"):
		return p.parseDelete()
	case p.isKeyword("create"):
		return p.parseCreate()
	default:
		return nil, p.errorf("expected statement, got %s", p.peek())
	}
}

// --- SELECT ---

func (p *Parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	sel := &Select{Limit: -1, LimitParam: -1}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	sel.From = from
	for p.acceptKeyword("join") || (p.isKeyword("inner") && p.lookaheadJoin()) {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("on"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Joins = append(sel.Joins, Join{Table: tr, On: on})
	}
	if p.acceptKeyword("where") {
		if sel.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("having") {
		if sel.Having, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("desc") {
				item.Desc = true
			} else {
				p.acceptKeyword("asc")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("limit") {
		t := p.peek()
		switch {
		case t.Kind == TokParam:
			p.advance()
			sel.LimitParam = p.numParams
			p.numParams++
		case t.Kind == TokNumber && !t.IsFloat:
			p.advance()
			n, err := strconv.Atoi(t.Text)
			if err != nil || n < 0 {
				return nil, p.errorf("bad LIMIT %q", t.Text)
			}
			sel.Limit = n
		default:
			return nil, p.errorf("LIMIT expects an integer or ?, got %s", t)
		}
	}
	return sel, nil
}

// lookaheadJoin consumes "INNER" when followed by JOIN.
func (p *Parser) lookaheadJoin() bool {
	if p.pos+1 < len(p.toks) {
		next := p.toks[p.pos+1]
		if next.Kind == TokIdent && lower(next.Text) == "join" {
			p.advance() // INNER
			p.advance() // JOIN
			return true
		}
	}
	return false
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("as") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = lower(alias)
	} else if t := p.peek(); t.Kind == TokIdent && !p.reservedAfterItem() {
		item.Alias = lower(t.Text)
		p.advance()
	}
	return item, nil
}

// reservedAfterItem reports whether the upcoming identifier is a clause
// keyword rather than an implicit alias.
func (p *Parser) reservedAfterItem() bool {
	for _, kw := range []string{"from", "where", "group", "having", "order", "limit", "join", "inner", "on", "as", "values", "select"} {
		if p.isKeyword(kw) {
			return true
		}
	}
	return false
}

func (p *Parser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	tr := TableRef{Name: lower(name), Alias: lower(name)}
	if p.acceptKeyword("as") {
		alias, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		tr.Alias = lower(alias)
	} else if t := p.peek(); t.Kind == TokIdent && !p.reservedAfterItem() {
		tr.Alias = lower(t.Text)
		p.advance()
	}
	return tr, nil
}

// --- DML ---

func (p *Parser) parseInsert() (*Insert, error) {
	if err := p.expectKeyword("insert"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: lower(table)}
	if p.acceptSymbol("(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, lower(col))
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if p.isKeyword("select") {
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Query = q
		return ins, nil
	}
	if err := p.expectKeyword("values"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return ins, nil
}

func (p *Parser) parseUpdate() (*Update, error) {
	if err := p.expectKeyword("update"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	upd := &Update{Table: lower(table)}
	if err := p.expectKeyword("set"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Set = append(upd.Set, SetClause{Column: lower(col), Value: val})
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("where") {
		if upd.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return upd, nil
}

func (p *Parser) parseDelete() (*Delete, error) {
	if err := p.expectKeyword("delete"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: lower(table)}
	if p.acceptKeyword("where") {
		if del.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return del, nil
}

// --- DDL ---

func (p *Parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("create"); err != nil {
		return nil, err
	}
	switch {
	case p.acceptKeyword("table"):
		return p.parseCreateTable(false, false)
	case p.acceptKeyword("archive"):
		if err := p.expectKeyword("table"); err != nil {
			return nil, err
		}
		return p.parseCreateTable(false, true)
	case p.acceptKeyword("stream"):
		return p.parseCreateTable(true, false)
	case p.acceptKeyword("window"):
		return p.parseCreateWindow()
	case p.acceptKeyword("unique"):
		if err := p.expectKeyword("index"); err != nil {
			return nil, err
		}
		return p.parseCreateIndex(true)
	case p.acceptKeyword("index"):
		return p.parseCreateIndex(false)
	default:
		return nil, p.errorf("expected TABLE, ARCHIVE TABLE, STREAM, WINDOW, or INDEX after CREATE, got %s", p.peek())
	}
}

func (p *Parser) parseColumnDefs() ([]ColumnDef, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		typeName, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		kind, err := types.KindFromName(typeName)
		if err != nil {
			return nil, p.errorf("column %s: %v", name, err)
		}
		// Swallow a parenthesized length, e.g. VARCHAR(64).
		if p.acceptSymbol("(") {
			if t := p.peek(); t.Kind == TokNumber {
				p.advance()
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
		}
		col := ColumnDef{Name: lower(name), Kind: kind}
		if p.acceptKeyword("primary") {
			if err := p.expectKeyword("key"); err != nil {
				return nil, err
			}
			col.PrimaryKey = true
		}
		p.acceptKeyword("not") // tolerate NOT NULL
		p.acceptKeyword("null")
		cols = append(cols, col)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return cols, nil
}

func (p *Parser) parseCreateTable(stream, archive bool) (*CreateTable, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	cols, err := p.parseColumnDefs()
	if err != nil {
		return nil, err
	}
	return &CreateTable{Name: lower(name), Stream: stream, Archive: archive, Columns: cols}, nil
}

func (p *Parser) parseCreateWindow() (*CreateWindow, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	cols, err := p.parseColumnDefs()
	if err != nil {
		return nil, err
	}
	w := &CreateWindow{Name: lower(name), Columns: cols}
	if err := p.expectKeyword("size"); err != nil {
		return nil, err
	}
	if w.Size, err = p.expectInt(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("slide"); err != nil {
		return nil, err
	}
	if w.Slide, err = p.expectInt(); err != nil {
		return nil, err
	}
	if p.acceptKeyword("on") {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		w.TimeColumn = lower(col)
	}
	return w, nil
}

func (p *Parser) parseCreateIndex(unique bool) (*CreateIndex, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("on"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	idx := &CreateIndex{Name: lower(name), Table: lower(table), Unique: unique}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		idx.Columns = append(idx.Columns, lower(col))
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("using") {
		method, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		switch lower(method) {
		case "hash":
		case "btree":
			idx.BTree = true
		default:
			return nil, p.errorf("unknown index method %q", method)
		}
	}
	return idx, nil
}

func (p *Parser) expectInt() (int64, error) {
	t := p.peek()
	if t.Kind != TokNumber || t.IsFloat {
		return 0, p.errorf("expected integer, got %s", t)
	}
	p.advance()
	return strconv.ParseInt(t.Text, 10, 64)
}

// --- Expressions (precedence climbing) ---

// parseExpr parses a full boolean expression.
func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("and") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("not") {
		operand, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Neg: false, Operand: operand}, nil
	}
	return p.parseComparison()
}

var comparisonOps = map[string]BinaryOp{
	"=": OpEq, "<>": OpNe, "!=": OpNe,
	"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL postfix.
	if p.acceptKeyword("is") {
		neg := p.acceptKeyword("not")
		if err := p.expectKeyword("null"); err != nil {
			return nil, err
		}
		return &IsNull{Operand: left, Negate: neg}, nil
	}
	// [NOT] IN / BETWEEN / LIKE postfixes.
	negate := false
	if p.isKeyword("not") && p.postfixFollowsNot() {
		p.advance()
		negate = true
	}
	switch {
	case p.acceptKeyword("in"):
		return p.parseInList(left, negate)
	case p.acceptKeyword("between"):
		return p.parseBetween(left, negate)
	case p.acceptKeyword("like"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Like{Operand: left, Pattern: pat, Negate: negate}, nil
	}
	if negate {
		return nil, p.errorf("expected IN, BETWEEN, or LIKE after NOT")
	}
	t := p.peek()
	if t.Kind == TokSymbol {
		if op, ok := comparisonOps[t.Text]; ok {
			p.advance()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

// postfixFollowsNot reports whether the token after a pending NOT is
// IN, BETWEEN, or LIKE (so the NOT belongs to the postfix form rather
// than a prefix negation — which parseNot would already have
// consumed).
func (p *Parser) postfixFollowsNot() bool {
	if p.pos+1 >= len(p.toks) {
		return false
	}
	next := p.toks[p.pos+1]
	if next.Kind != TokIdent {
		return false
	}
	switch lower(next.Text) {
	case "in", "between", "like":
		return true
	default:
		return false
	}
}

func (p *Parser) parseInList(left Expr, negate bool) (Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	in := &InList{Operand: left, Negate: negate}
	for {
		item, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		in.Items = append(in.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *Parser) parseBetween(left Expr, negate bool) (Expr, error) {
	lo, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("and"); err != nil {
		return nil, err
	}
	hi, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &Between{Operand: left, Lo: lo, Hi: hi, Negate: negate}, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch {
		case p.acceptSymbol("+"):
			op = OpAdd
		case p.acceptSymbol("-"):
			op = OpSub
		case p.acceptSymbol("||"):
			op = OpConcat
		default:
			return left, nil
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch {
		case p.acceptSymbol("*"):
			op = OpMul
		case p.acceptSymbol("/"):
			op = OpDiv
		case p.acceptSymbol("%"):
			op = OpMod
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Neg: true, Operand: operand}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.advance()
		if t.IsFloat {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errorf("bad float literal %q", t.Text)
			}
			return &Literal{Value: types.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal %q", t.Text)
		}
		return &Literal{Value: types.NewInt(i)}, nil
	case TokString:
		p.advance()
		return &Literal{Value: types.NewText(t.Text)}, nil
	case TokParam:
		p.advance()
		idx := p.numParams
		p.numParams++
		return &Param{Index: idx}, nil
	case TokSymbol:
		if t.Text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errorf("unexpected %s in expression", t)
	case TokIdent:
		word := lower(t.Text)
		switch word {
		case "null":
			p.advance()
			return &Literal{Value: types.Null}, nil
		case "true":
			p.advance()
			return &Literal{Value: types.NewBool(true)}, nil
		case "false":
			p.advance()
			return &Literal{Value: types.NewBool(false)}, nil
		}
		p.advance()
		// Function call?
		if p.acceptSymbol("(") {
			return p.parseFuncCall(word)
		}
		// Qualified column?
		if p.acceptSymbol(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: word, Column: lower(col)}, nil
		}
		return &ColumnRef{Column: word}, nil
	default:
		return nil, p.errorf("unexpected %s in expression", t)
	}
}

func (p *Parser) parseFuncCall(name string) (Expr, error) {
	call := &FuncCall{Name: name}
	if p.acceptSymbol("*") {
		call.Star = true
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return call, nil
	}
	if p.acceptSymbol(")") {
		return call, nil
	}
	if p.acceptKeyword("distinct") {
		call.Distinct = true
	}
	for {
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, arg)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return call, nil
}
