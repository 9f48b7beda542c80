package ee

import (
	"fmt"

	"sstore/internal/sql"
	"sstore/internal/types"
)

// aggKind selects an aggregator's function.
type aggKind uint8

const (
	aggCount aggKind = iota
	aggCountDistinct
	aggSum
	aggAvg
	aggMin
	aggMax
)

// aggregator accumulates one aggregate function over the rows of one
// group. It is a plain struct, not an interface value, so a statement's
// scratch can re-arm its groups' accumulators run after run without
// allocating (COUNT(DISTINCT) keeps its cleared set).
type aggregator struct {
	kind aggKind
	n    int64 // COUNT, COUNT(DISTINCT), AVG's divisor
	sum  sumAgg
	best types.Value // MIN/MAX
	any  bool        // MIN/MAX saw a non-null value
	seen map[uint64][]types.Value
}

// aggKindOf maps an aggregate call to its function.
func aggKindOf(call *sql.FuncCall) (aggKind, error) {
	switch call.Name {
	case "count":
		if call.Distinct {
			return aggCountDistinct, nil
		}
		return aggCount, nil
	case "sum":
		return aggSum, nil
	case "avg":
		return aggAvg, nil
	case "min":
		return aggMin, nil
	case "max":
		return aggMax, nil
	default:
		return 0, fmt.Errorf("ee: unknown aggregate %s", call.Name)
	}
}

// reset re-arms the accumulator for a new group of the given kind.
func (a *aggregator) reset(kind aggKind) {
	seen := a.seen
	if kind == aggCountDistinct {
		if seen == nil {
			seen = make(map[uint64][]types.Value)
		} else {
			clear(seen)
		}
	}
	*a = aggregator{kind: kind, seen: seen}
}

// add folds one input value. NULLs are skipped by every function;
// the caller feeds a non-null marker for COUNT(*).
func (a *aggregator) add(v types.Value) error {
	if v.IsNull() {
		return nil
	}
	switch a.kind {
	case aggCount:
		a.n++
	case aggCountDistinct:
		h := v.Hash()
		for _, prev := range a.seen[h] {
			if prev.Equal(v) {
				return nil
			}
		}
		a.seen[h] = append(a.seen[h], v)
		a.n++
	case aggSum:
		return a.sum.add(v)
	case aggAvg:
		if err := a.sum.add(v); err != nil {
			return fmt.Errorf("ee: AVG: %w", err)
		}
		a.n++
	case aggMin, aggMax:
		if !a.any {
			a.best, a.any = v, true
			return nil
		}
		c, err := v.Compare(a.best)
		if err != nil {
			return fmt.Errorf("ee: MIN/MAX: %w", err)
		}
		if (a.kind == aggMin && c < 0) || (a.kind == aggMax && c > 0) {
			a.best = v
		}
	}
	return nil
}

// result returns the aggregate's value over the values added so far.
func (a *aggregator) result() types.Value {
	switch a.kind {
	case aggCount, aggCountDistinct:
		return types.NewInt(a.n)
	case aggSum:
		return a.sum.result()
	case aggAvg:
		if a.n == 0 {
			return types.Null
		}
		return types.NewFloat(a.sum.result().Float() / float64(a.n))
	default:
		if !a.any {
			return types.Null
		}
		return a.best
	}
}

// sumAgg sums ints exactly and floats in float64; mixing promotes to
// float.
type sumAgg struct {
	i       int64
	f       float64
	isFloat bool
	any     bool
}

func (a *sumAgg) add(v types.Value) error {
	if !v.IsNumeric() {
		return fmt.Errorf("ee: SUM of %s", v.Kind())
	}
	a.any = true
	if v.Kind() == types.KindFloat || a.isFloat {
		if !a.isFloat {
			a.f = float64(a.i)
			a.isFloat = true
		}
		a.f += v.Float()
		return nil
	}
	a.i += v.Int()
	return nil
}

func (a *sumAgg) result() types.Value {
	if !a.any {
		return types.Null
	}
	if a.isFloat {
		return types.NewFloat(a.f)
	}
	return types.NewInt(a.i)
}

// collectAggregates walks an expression tree appending every aggregate
// FuncCall (deduplicated by pointer) to calls.
func collectAggregates(e sql.Expr, calls *[]*sql.FuncCall) {
	switch e := e.(type) {
	case *sql.FuncCall:
		if e.IsAggregate() {
			*calls = append(*calls, e)
			return
		}
		for _, a := range e.Args {
			collectAggregates(a, calls)
		}
	case *sql.Binary:
		collectAggregates(e.Left, calls)
		collectAggregates(e.Right, calls)
	case *sql.Unary:
		collectAggregates(e.Operand, calls)
	case *sql.IsNull:
		collectAggregates(e.Operand, calls)
	case *sql.InList:
		collectAggregates(e.Operand, calls)
		for _, it := range e.Items {
			collectAggregates(it, calls)
		}
	case *sql.Between:
		collectAggregates(e.Operand, calls)
		collectAggregates(e.Lo, calls)
		collectAggregates(e.Hi, calls)
	case *sql.Like:
		collectAggregates(e.Operand, calls)
		collectAggregates(e.Pattern, calls)
	}
}
