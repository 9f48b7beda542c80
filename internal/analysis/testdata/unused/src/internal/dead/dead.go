// Package dead exercises the unused analyzer: an internal package
// whose only readers are the main package cmd/app and the public
// package pub.
package dead

import (
	"errors"
	"fmt"
)

func deadFunc() {} // want "func dead.deadFunc is unused"

func recursive(n int) int { // want "func dead.recursive is unused"
	if n == 0 {
		return 0
	}
	return recursive(n - 1)
}

var deadVar = 1 // want "var deadVar is unused"

const deadConst = 2 // want "const deadConst is unused"

type deadType struct{} // want "type deadType is unused"

func (deadType) self() deadType { return deadType{} } // want "method dead.deadType.self is unused"

// Record is built by cmd/app.
type Record struct {
	Kept   int
	lost   int // want "field lost is unused"
	Tagged int `json:"tagged"`
}

// Sum is called by pub only.
func (r *Record) Sum() int { return r.Kept }

func (r *Record) drop() {} // want "method dead.Record.drop is unused"

// String makes *Record a fmt.Stringer; nothing calls it directly.
func (r *Record) String() string { return fmt.Sprint(r.Kept) }

// UsedByMain is called from cmd/app only.
func UsedByMain() {}

// Shape is satisfied by Square through Area, which nothing calls
// directly.
type Shape interface{ Area() int }

type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

// ErrMissing is what NotFound matches.
var ErrMissing = errors.New("missing")

// NotFound's Is is called only by errors.Is, through an anonymous
// interface.
type NotFound struct{}

func (NotFound) Error() string { return "not found" }

func (NotFound) Is(target error) bool { return target == ErrMissing }

//lint:allow unused -- test support: the suppression case
func allowed() {}

// Exposed is reached by pub's exported API through an alias, so its
// exported method has readers outside the module.
type Exposed struct{}

func (Exposed) Public() {}

func (Exposed) private() {} // want "method dead.Exposed.private is unused"
