package types

import (
	"fmt"
	"strings"
)

// Column describes one column of a table or stream schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered set of named, typed columns.
type Schema struct {
	cols   []Column
	byName map[string]int
}

// NewSchema builds a schema from columns. Column names are
// case-insensitive and must be unique.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{cols: append([]Column(nil), cols...), byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		key := strings.ToLower(c.Name)
		if key == "" {
			return nil, fmt.Errorf("types: column %d has empty name", i)
		}
		if _, dup := s.byName[key]; dup {
			return nil, fmt.Errorf("types: duplicate column %q", c.Name)
		}
		s.byName[key] = i
	}
	return s, nil
}

// MustSchema is NewSchema for statically-known schemas; it panics on error.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Column returns the i-th column.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Index returns the ordinal of the named column (case-insensitive) and
// whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.byName[strings.ToLower(name)]
	return i, ok
}

// Validate checks a row against the schema: correct arity, and each
// value either NULL or coercible to the column kind. It returns the
// (possibly coerced) row.
func (s *Schema) Validate(row Row) (Row, error) {
	if len(row) != len(s.cols) {
		return nil, fmt.Errorf("types: row has %d values, schema has %d columns", len(row), len(s.cols))
	}
	out := row
	copied := false
	for i, v := range row {
		if v.IsNull() || v.Kind() == s.cols[i].Kind {
			continue
		}
		cv, err := v.CoerceTo(s.cols[i].Kind)
		if err != nil {
			return nil, fmt.Errorf("types: column %q: %w", s.cols[i].Name, err)
		}
		if !copied {
			out = append(Row(nil), row...)
			copied = true
		}
		out[i] = cv
	}
	return out, nil
}

// String renders the schema as "(name TYPE, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Row is a tuple of values positionally matching a schema.
type Row []Value

// Clone returns a deep-enough copy of the row (values are immutable).
func (r Row) Clone() Row { return append(Row(nil), r...) }

// String renders the row for debugging.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Equal reports whether two rows are the same length and pairwise equal.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}
