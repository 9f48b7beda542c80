package sql

import (
	"fmt"
	"testing"

	"sstore/internal/types"
)

func mustParse(t *testing.T, input string) Statement {
	t.Helper()
	stmt, err := Parse(input)
	if err != nil {
		t.Fatalf("Parse(%q): %v", input, err)
	}
	return stmt
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, 'it''s', 3.5, ? FROM t -- comment\nWHERE x >= 2")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	// SELECT a , 'it's' , 3.5 , ? FROM t WHERE x >= 2 EOF
	want := []TokenKind{TokIdent, TokIdent, TokSymbol, TokString, TokSymbol, TokNumber,
		TokSymbol, TokParam, TokIdent, TokIdent, TokIdent, TokIdent, TokSymbol, TokNumber, TokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("token kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d kind = %v, want %v", i, kinds[i], want[i])
		}
	}
	if toks[3].Text != "it's" {
		t.Errorf("string literal = %q", toks[3].Text)
	}
	if !toks[5].IsFloat {
		t.Error("3.5 should be float")
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := Lex("a @ b"); err == nil {
		t.Error("invalid character should fail")
	}
}

func TestParseSelectFull(t *testing.T) {
	stmt := mustParse(t, `SELECT c.name, COUNT(*) AS n, SUM(v.amount)
		FROM votes v JOIN contestants c ON v.contestant_id = c.id
		WHERE v.amount > 10 AND c.active = true
		GROUP BY c.name HAVING COUNT(*) > 2
		ORDER BY n DESC, c.name LIMIT 5`)
	sel, ok := stmt.(*Select)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if len(sel.Items) != 3 {
		t.Errorf("items = %d", len(sel.Items))
	}
	if sel.Items[1].Alias != "n" {
		t.Errorf("alias = %q", sel.Items[1].Alias)
	}
	if sel.From.Name != "votes" || sel.From.Alias != "v" {
		t.Errorf("from = %+v", sel.From)
	}
	if len(sel.Joins) != 1 || sel.Joins[0].Table.Alias != "c" {
		t.Fatalf("joins = %+v", sel.Joins)
	}
	if sel.Where == nil || sel.Having == nil {
		t.Error("missing where/having")
	}
	if len(sel.GroupBy) != 1 || len(sel.OrderBy) != 2 {
		t.Errorf("groupBy=%d orderBy=%d", len(sel.GroupBy), len(sel.OrderBy))
	}
	if !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Error("order directions wrong")
	}
	if sel.Limit != 5 {
		t.Errorf("limit = %d", sel.Limit)
	}
}

func TestParseSelectStar(t *testing.T) {
	sel := mustParse(t, "SELECT * FROM t").(*Select)
	if len(sel.Items) != 1 || !sel.Items[0].Star {
		t.Errorf("items = %+v", sel.Items)
	}
	if sel.Limit != -1 {
		t.Errorf("default limit = %d", sel.Limit)
	}
}

func TestParseInnerJoin(t *testing.T) {
	sel := mustParse(t, "SELECT a FROM t INNER JOIN u ON t.id = u.id").(*Select)
	if len(sel.Joins) != 1 {
		t.Fatalf("joins = %+v", sel.Joins)
	}
}

func TestParseInsertValues(t *testing.T) {
	ins := mustParse(t, "INSERT INTO votes (phone, cand) VALUES (?, ?), (1, 2)").(*Insert)
	if ins.Table != "votes" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("insert = %+v", ins)
	}
	if p, ok := ins.Rows[0][0].(*Param); !ok || p.Index != 0 {
		t.Errorf("first param = %+v", ins.Rows[0][0])
	}
	if p, ok := ins.Rows[0][1].(*Param); !ok || p.Index != 1 {
		t.Errorf("second param = %+v", ins.Rows[0][1])
	}
}

func TestParseInsertSelect(t *testing.T) {
	ins := mustParse(t, "INSERT INTO s2 SELECT a, b FROM s1 WHERE a > 0").(*Insert)
	if ins.Query == nil || ins.Rows != nil {
		t.Fatalf("insert = %+v", ins)
	}
}

func TestParseUpdate(t *testing.T) {
	upd := mustParse(t, "UPDATE contestants SET votes = votes + 1, name = 'x' WHERE id = ?").(*Update)
	if upd.Table != "contestants" || len(upd.Set) != 2 || upd.Where == nil {
		t.Fatalf("update = %+v", upd)
	}
	if upd.Set[0].Column != "votes" {
		t.Errorf("set column = %q", upd.Set[0].Column)
	}
}

func TestParseDelete(t *testing.T) {
	del := mustParse(t, "DELETE FROM votes WHERE contestant_id = 3").(*Delete)
	if del.Table != "votes" || del.Where == nil {
		t.Fatalf("delete = %+v", del)
	}
	del = mustParse(t, "DELETE FROM votes").(*Delete)
	if del.Where != nil {
		t.Error("bare delete should have nil where")
	}
}

func TestParseCreateTable(t *testing.T) {
	ct := mustParse(t, "CREATE TABLE t (id BIGINT PRIMARY KEY, name VARCHAR(64) NOT NULL, score FLOAT)").(*CreateTable)
	if ct.Stream || ct.Name != "t" || len(ct.Columns) != 3 {
		t.Fatalf("create = %+v", ct)
	}
	if !ct.Columns[0].PrimaryKey || ct.Columns[1].PrimaryKey {
		t.Error("primary key flags wrong")
	}
	if ct.Columns[2].Kind != types.KindFloat {
		t.Errorf("kind = %v", ct.Columns[2].Kind)
	}
}

func TestParseCreateArchiveTable(t *testing.T) {
	ct := mustParse(t, "CREATE ARCHIVE TABLE hist (id BIGINT PRIMARY KEY, v FLOAT)").(*CreateTable)
	if !ct.Archive || ct.Stream || ct.Name != "hist" || len(ct.Columns) != 2 {
		t.Fatalf("archive create = %+v", ct)
	}
	// ARCHIVE must be followed by TABLE.
	if _, err := Parse("CREATE ARCHIVE STREAM s (v BIGINT)"); err == nil {
		t.Error("CREATE ARCHIVE STREAM parsed")
	}
}

func TestParseCreateStream(t *testing.T) {
	ct := mustParse(t, "CREATE STREAM s1 (v BIGINT, ts TIMESTAMP)").(*CreateTable)
	if !ct.Stream {
		t.Error("stream flag missing")
	}
}

func TestParseCreateWindow(t *testing.T) {
	cw := mustParse(t, "CREATE WINDOW w (v BIGINT, ts TIMESTAMP) SIZE 100 SLIDE 10 ON ts").(*CreateWindow)
	if cw.Size != 100 || cw.Slide != 10 || cw.TimeColumn != "ts" {
		t.Fatalf("window = %+v", cw)
	}
	cw = mustParse(t, "CREATE WINDOW w (v BIGINT) SIZE 5 SLIDE 5").(*CreateWindow)
	if cw.TimeColumn != "" {
		t.Error("tuple window should have empty time column")
	}
}

func TestParseCreateIndex(t *testing.T) {
	ci := mustParse(t, "CREATE UNIQUE INDEX votes_pk ON votes (phone) USING HASH").(*CreateIndex)
	if !ci.Unique || ci.BTree || ci.Table != "votes" {
		t.Fatalf("index = %+v", ci)
	}
	ci = mustParse(t, "CREATE INDEX i ON t (a, b) USING BTREE").(*CreateIndex)
	if ci.Unique || !ci.BTree || len(ci.Columns) != 2 {
		t.Fatalf("index = %+v", ci)
	}
}

func TestExpressionPrecedence(t *testing.T) {
	sel := mustParse(t, "SELECT a + b * c FROM t").(*Select)
	b, ok := sel.Items[0].Expr.(*Binary)
	if !ok || b.Op != OpAdd {
		t.Fatalf("top op = %+v", sel.Items[0].Expr)
	}
	if inner, ok := b.Right.(*Binary); !ok || inner.Op != OpMul {
		t.Errorf("b*c should bind tighter: %+v", b.Right)
	}

	sel = mustParse(t, "SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3").(*Select)
	or, ok := sel.Where.(*Binary)
	if !ok || or.Op != OpOr {
		t.Fatalf("top should be OR: %+v", sel.Where)
	}
	if and, ok := or.Right.(*Binary); !ok || and.Op != OpAnd {
		t.Errorf("AND should bind tighter: %+v", or.Right)
	}
}

func TestExpressionForms(t *testing.T) {
	sel := mustParse(t, "SELECT -a, NOT b, c IS NULL, d IS NOT NULL, e <> 1, f || 'x' FROM t").(*Select)
	if u, ok := sel.Items[0].Expr.(*Unary); !ok || !u.Neg {
		t.Error("negation")
	}
	if u, ok := sel.Items[1].Expr.(*Unary); !ok || u.Neg {
		t.Error("NOT")
	}
	if n, ok := sel.Items[2].Expr.(*IsNull); !ok || n.Negate {
		t.Error("IS NULL")
	}
	if n, ok := sel.Items[3].Expr.(*IsNull); !ok || !n.Negate {
		t.Error("IS NOT NULL")
	}
	if b, ok := sel.Items[4].Expr.(*Binary); !ok || b.Op != OpNe {
		t.Error("<>")
	}
	if b, ok := sel.Items[5].Expr.(*Binary); !ok || b.Op != OpConcat {
		t.Error("||")
	}
}

func TestParamCounting(t *testing.T) {
	sel := mustParse(t, "SELECT a FROM t WHERE x = ? AND y = ? AND z = ? LIMIT ?").(*Select)
	var got []int
	var walk func(e Expr)
	walk = func(e Expr) {
		switch e := e.(type) {
		case *Binary:
			walk(e.Left)
			walk(e.Right)
		case *Param:
			got = append(got, e.Index)
		}
	}
	walk(sel.Where)
	if fmt.Sprint(got) != "[0 1 2]" || sel.LimitParam != 3 {
		t.Errorf("param indexes = %v, LIMIT ? = %d; want [0 1 2], 3", got, sel.LimitParam)
	}
}

func TestQualifiedColumns(t *testing.T) {
	sel := mustParse(t, "SELECT t.a FROM t WHERE t.b = 1").(*Select)
	ref, ok := sel.Items[0].Expr.(*ColumnRef)
	if !ok || ref.Table != "t" || ref.Column != "a" {
		t.Fatalf("ref = %+v", sel.Items[0].Expr)
	}
}

func TestCountVariants(t *testing.T) {
	sel := mustParse(t, "SELECT COUNT(*), COUNT(x), COUNT(DISTINCT y) FROM t").(*Select)
	c0 := sel.Items[0].Expr.(*FuncCall)
	if !c0.Star || !c0.IsAggregate() {
		t.Error("COUNT(*)")
	}
	c2 := sel.Items[2].Expr.(*FuncCall)
	if !c2.Distinct {
		t.Error("COUNT(DISTINCT)")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"SELECT a",
		"SELECT a FROM t WHERE",
		"INSERT votes VALUES (1)",
		"INSERT INTO votes VALUES 1",
		"UPDATE t SET",
		"DELETE t",
		"CREATE TABLE t",
		"CREATE TABLE t (x BLOB)",
		"CREATE WINDOW w (v BIGINT) SIZE 5",
		"SELECT a FROM t LIMIT 1.5",
		"SELECT a FROM t extra garbage ,",
		"SELECT (a FROM t",
	}
	for _, input := range bad {
		if _, err := Parse(input); err == nil {
			t.Errorf("Parse(%q) should fail", input)
		}
	}
}

func TestTrailingSemicolon(t *testing.T) {
	mustParse(t, "SELECT a FROM t;")
}
