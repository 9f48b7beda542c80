package types

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueAccessors(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		kind Kind
		str  string
	}{
		{"null", Null, KindNull, "NULL"},
		{"int", NewInt(-42), KindInt, "-42"},
		{"float", NewFloat(2.5), KindFloat, "2.5"},
		{"text", NewText("abc"), KindText, "abc"},
		{"bool", NewBool(true), KindBool, "true"},
		{"timestamp", NewTimestamp(7), KindTimestamp, "7µs"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Kind(); got != tt.kind {
				t.Errorf("Kind() = %v, want %v", got, tt.kind)
			}
			if got := tt.v.String(); got != tt.str {
				t.Errorf("String() = %q, want %q", got, tt.str)
			}
		})
	}
	if NewInt(3).Int() != 3 {
		t.Error("Int payload mismatch")
	}
	if NewFloat(1.5).Float() != 1.5 {
		t.Error("Float payload mismatch")
	}
	if NewText("x").Text() != "x" {
		t.Error("Text payload mismatch")
	}
	if !NewBool(true).Bool() {
		t.Error("Bool payload mismatch")
	}
	if NewTimestamp(9).Timestamp() != 9 {
		t.Error("Timestamp payload mismatch")
	}
	if NewInt(2).Float() != 2.0 {
		t.Error("int should coerce through Float()")
	}
}

func TestValuePanicsOnWrongKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Text() on int should panic")
		}
	}()
	_ = NewInt(1).Text()
}

func TestCompare(t *testing.T) {
	tests := []struct {
		name    string
		a, b    Value
		want    int
		wantErr bool
	}{
		{"int lt", NewInt(1), NewInt(2), -1, false},
		{"int eq", NewInt(5), NewInt(5), 0, false},
		{"int gt", NewInt(3), NewInt(2), 1, false},
		{"int float mixed", NewInt(1), NewFloat(1.5), -1, false},
		{"float int equal", NewFloat(2.0), NewInt(2), 0, false},
		{"text", NewText("a"), NewText("b"), -1, false},
		{"bool", NewBool(false), NewBool(true), -1, false},
		{"null lt int", Null, NewInt(0), -1, false},
		{"int gt null", NewInt(0), Null, 1, false},
		{"null eq null", Null, Null, 0, false},
		{"ts int", NewTimestamp(5), NewInt(6), -1, false},
		{"text int err", NewText("a"), NewInt(1), 0, true},
		{"bool int err", NewBool(true), NewInt(1), 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := tt.a.Compare(tt.b)
			if (err != nil) != tt.wantErr {
				t.Fatalf("Compare error = %v, wantErr %v", err, tt.wantErr)
			}
			if !tt.wantErr && got != tt.want {
				t.Errorf("Compare = %d, want %d", got, tt.want)
			}
		})
	}
}

// TestCompareTotalOrderInts checks antisymmetry and transitivity of the
// integer ordering via testing/quick.
func TestCompareTotalOrderInts(t *testing.T) {
	antisym := func(a, b int64) bool {
		x, y := NewInt(a), NewInt(b)
		return x.MustCompare(y) == -y.MustCompare(x)
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Error(err)
	}
	trans := func(a, b, c int64) bool {
		vals := []Value{NewInt(a), NewInt(b), NewInt(c)}
		// If a<=b and b<=c then a<=c.
		if vals[0].MustCompare(vals[1]) <= 0 && vals[1].MustCompare(vals[2]) <= 0 {
			return vals[0].MustCompare(vals[2]) <= 0
		}
		return true
	}
	if err := quick.Check(trans, nil); err != nil {
		t.Error(err)
	}
}

// TestHashConsistentWithEqual: equal values hash equal, across numeric
// kinds.
func TestHashConsistentWithEqual(t *testing.T) {
	f := func(n int64) bool {
		iv, fv := NewInt(n), NewFloat(float64(n))
		if !iv.Equal(fv) {
			return true
		}
		return iv.Hash() == fv.Hash()
	}
	cfg := &quick.Config{MaxCount: 200, Values: nil}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	for _, eq := range [][2]Value{
		{NewFloat(0), NewFloat(math.Copysign(0, -1))},
		{NewInt(0), NewFloat(math.Copysign(0, -1))},
		{NewTimestamp(5), NewFloat(5)},
	} {
		if !eq[0].Equal(eq[1]) || eq[0].Hash() != eq[1].Hash() {
			t.Errorf("%v and %v must compare and hash equal", eq[0], eq[1])
		}
	}
	if NewText("a").Hash() == NewText("b").Hash() {
		t.Error("distinct texts should rarely collide; got equal hashes for a/b")
	}
}

func TestCoerceTo(t *testing.T) {
	v, err := NewInt(3).CoerceTo(KindFloat)
	if err != nil || v.Float() != 3.0 {
		t.Errorf("int→float = %v, %v", v, err)
	}
	v, err = NewFloat(4.0).CoerceTo(KindInt)
	if err != nil || v.Int() != 4 {
		t.Errorf("float→int = %v, %v", v, err)
	}
	if _, err = NewFloat(4.5).CoerceTo(KindInt); err == nil {
		t.Error("lossy float→int should fail")
	}
	if _, err = NewText("x").CoerceTo(KindInt); err == nil {
		t.Error("text→int should fail")
	}
	v, err = Null.CoerceTo(KindInt)
	if err != nil || !v.IsNull() {
		t.Errorf("null coercion = %v, %v", v, err)
	}
	v, err = NewInt(8).CoerceTo(KindTimestamp)
	if err != nil || v.Timestamp() != 8 {
		t.Errorf("int→timestamp = %v, %v", v, err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rows := []Row{
		{},
		{Null},
		{NewInt(math.MaxInt64), NewInt(math.MinInt64)},
		{NewFloat(3.14159), NewFloat(math.Inf(1))},
		{NewText(""), NewText("héllo, wörld")},
		{NewBool(true), NewBool(false)},
		{NewTimestamp(1717000000000000)},
		{NewInt(1), NewFloat(2), NewText("3"), NewBool(true), NewTimestamp(5), Null},
	}
	for i, row := range rows {
		buf := EncodeRow(nil, row)
		got, n, err := DecodeRow(buf)
		if err != nil {
			t.Fatalf("row %d: decode: %v", i, err)
		}
		if n != len(buf) {
			t.Errorf("row %d: consumed %d of %d bytes", i, n, len(buf))
		}
		if !got.Equal(row) {
			t.Errorf("row %d: round trip = %v, want %v", i, got, row)
		}
	}
}

// TestEncodeDecodeQuick round-trips randomly generated rows.
func TestEncodeDecodeQuick(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		row := Row{NewInt(i), NewFloat(fl), NewText(s), NewBool(b)}
		got, _, err := DecodeRow(EncodeRow(nil, row))
		if err != nil {
			return false
		}
		if math.IsNaN(fl) {
			// NaN != NaN under SQL comparison; check the bits field
			// survived via kind only.
			return got[1].Kind() == KindFloat
		}
		return got.Equal(row)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	row := Row{NewInt(77), NewText("hello")}
	buf := EncodeRow(nil, row)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeRow(buf[:cut]); err == nil {
			t.Errorf("truncation at %d bytes should fail", cut)
		}
	}
}

func TestSchemaValidate(t *testing.T) {
	s := MustSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "score", Kind: KindFloat},
	)
	// Exact types pass through without copying.
	row := Row{NewInt(1), NewFloat(2)}
	got, err := s.Validate(row)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &row[0] {
		t.Error("validate should not copy an already-valid row")
	}
	// Coercion int→float.
	got, err = s.Validate(Row{NewInt(1), NewInt(2)})
	if err != nil || got[1].Kind() != KindFloat {
		t.Errorf("coercion failed: %v, %v", got, err)
	}
	// Arity mismatch.
	if _, err = s.Validate(Row{NewInt(1)}); err == nil {
		t.Error("short row should fail")
	}
	// Bad type.
	if _, err = s.Validate(Row{NewText("x"), NewFloat(0)}); err == nil {
		t.Error("text in int column should fail")
	}
}

func TestSchemaLookup(t *testing.T) {
	s := MustSchema(
		Column{Name: "A", Kind: KindInt},
		Column{Name: "b", Kind: KindText},
	)
	if i, ok := s.Index("a"); !ok || i != 0 {
		t.Errorf("case-insensitive lookup failed: %d %v", i, ok)
	}
	if _, err := NewSchema(Column{Name: "x", Kind: KindInt}, Column{Name: "X", Kind: KindInt}); err == nil {
		t.Error("duplicate (case-insensitive) columns should fail")
	}
}

func TestKindFromName(t *testing.T) {
	for name, want := range map[string]Kind{
		"int": KindInt, "BIGINT": KindInt, "Integer": KindInt,
		"float": KindFloat, "DOUBLE": KindFloat,
		"varchar": KindText, "TEXT": KindText, "string": KindText,
		"bool": KindBool, "BOOLEAN": KindBool,
		"timestamp": KindTimestamp,
	} {
		got, err := KindFromName(name)
		if err != nil || got != want {
			t.Errorf("KindFromName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := KindFromName("blob"); err == nil {
		t.Error("unknown type should fail")
	}
}
