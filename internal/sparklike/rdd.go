// Package sparklike is a miniature of Spark Streaming's D-Stream model
// (§4.6.1, §5 of the paper), built as a comparison baseline:
// computations are series of deterministic transformations over
// immutable, partitioned datasets (RDDs), state is carried between
// micro-batches as RDDs (so every fine-grained update pays a
// copy-on-write), every transformation records a lineage node, and
// there is no indexing over state — the property that dominates the
// paper's Figure 10 comparison.
package sparklike

import (
	"sync"
	"sync/atomic"

	"sstore/internal/types"
)

// RDD is an immutable, partitioned collection of rows. Transformations
// return new RDDs and record lineage; they never mutate their input.
type RDD struct {
	partitions [][]types.Row
	lineage    *Lineage
}

// Lineage is one node in the dependency graph used for recomputation
// after failures. The paper notes the graph "gets bigger as each
// operation needs to be logged".
type Lineage struct {
	Op      string
	Parents []*Lineage
	RDDID   int64
}

// Context creates RDDs and runs jobs with fixed parallelism, standing
// in for a Spark driver plus its workers.
type Context struct {
	parallelism int
	nextID      atomic.Int64
}

// NewContext creates a context with the given worker parallelism
// (minimum 1).
func NewContext(parallelism int) *Context {
	if parallelism < 1 {
		parallelism = 1
	}
	return &Context{parallelism: parallelism}
}

func (c *Context) newRDD(op string, parts [][]types.Row, parents ...*Lineage) *RDD {
	id := c.nextID.Add(1)
	return &RDD{
		partitions: parts,
		lineage:    &Lineage{Op: op, Parents: parents, RDDID: id},
	}
}

// Parallelize distributes rows round-robin over the context's
// partitions.
func (c *Context) Parallelize(rows []types.Row) *RDD {
	parts := make([][]types.Row, c.parallelism)
	for i, row := range rows {
		p := i % c.parallelism
		parts[p] = append(parts[p], row)
	}
	return c.newRDD("parallelize", parts)
}

// Empty returns an empty RDD.
func (c *Context) Empty() *RDD {
	return c.newRDD("empty", make([][]types.Row, c.parallelism))
}

// mapPartitions applies fn to each partition in parallel, producing a
// new RDD — the common core of all narrow transformations.
func (c *Context) mapPartitions(op string, r *RDD, fn func(rows []types.Row) []types.Row) *RDD {
	out := make([][]types.Row, len(r.partitions))
	var wg sync.WaitGroup
	for i, part := range r.partitions {
		wg.Add(1)
		go func(i int, part []types.Row) {
			defer wg.Done()
			out[i] = fn(part)
		}(i, part)
	}
	wg.Wait()
	return c.newRDD(op, out, r.lineage)
}

// Map applies fn to every row.
func (c *Context) Map(r *RDD, fn func(types.Row) types.Row) *RDD {
	return c.mapPartitions("map", r, func(rows []types.Row) []types.Row {
		out := make([]types.Row, len(rows))
		for i, row := range rows {
			out[i] = fn(row)
		}
		return out
	})
}

// Filter keeps rows for which fn returns true.
func (c *Context) Filter(r *RDD, fn func(types.Row) bool) *RDD {
	return c.mapPartitions("filter", r, func(rows []types.Row) []types.Row {
		var out []types.Row
		for _, row := range rows {
			if fn(row) {
				out = append(out, row)
			}
		}
		return out
	})
}

// Union concatenates two RDDs partition-wise.
func (c *Context) Union(a, b *RDD) *RDD {
	n := len(a.partitions)
	if len(b.partitions) > n {
		n = len(b.partitions)
	}
	out := make([][]types.Row, n)
	for i := range out {
		var part []types.Row
		if i < len(a.partitions) {
			part = append(part, a.partitions[i]...)
		}
		if i < len(b.partitions) {
			part = append(part, b.partitions[i]...)
		}
		out[i] = part
	}
	return c.newRDD("union", out, a.lineage, b.lineage)
}

// ReduceByKey groups rows by keyFn and folds each group with reduceFn
// (a shuffle: rows are re-partitioned by key hash).
func (c *Context) ReduceByKey(r *RDD, keyFn func(types.Row) types.Value, reduceFn func(a, b types.Row) types.Row) *RDD {
	// Shuffle phase: hash-partition every row by key.
	shuffled := make([]map[uint64][]types.Row, c.parallelism)
	for i := range shuffled {
		shuffled[i] = make(map[uint64][]types.Row)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, part := range r.partitions {
		wg.Add(1)
		go func(part []types.Row) {
			defer wg.Done()
			local := make(map[int]map[uint64][]types.Row)
			for _, row := range part {
				h := keyFn(row).Hash()
				p := int(h % uint64(c.parallelism))
				if local[p] == nil {
					local[p] = make(map[uint64][]types.Row)
				}
				local[p][h] = append(local[p][h], row)
			}
			mu.Lock()
			for p, groups := range local {
				for h, rows := range groups {
					shuffled[p][h] = append(shuffled[p][h], rows...)
				}
			}
			mu.Unlock()
		}(part)
	}
	wg.Wait()
	// Reduce phase.
	out := make([][]types.Row, c.parallelism)
	for i := range shuffled {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var part []types.Row
			for _, rows := range shuffled[i] {
				// Hash buckets can mix keys on collision; split by
				// exact key.
				for len(rows) > 0 {
					key := keyFn(rows[0])
					acc := rows[0]
					rest := rows[:0]
					for _, row := range rows[1:] {
						if keyFn(row).Equal(key) {
							acc = reduceFn(acc, row)
						} else {
							rest = append(rest, row)
						}
					}
					part = append(part, acc)
					rows = rest
				}
			}
			out[i] = part
		}(i)
	}
	wg.Wait()
	return c.newRDD("reduceByKey", out, r.lineage)
}

// Collect gathers all rows into one slice (partition order).
func (r *RDD) Collect() []types.Row {
	var out []types.Row
	for _, part := range r.partitions {
		out = append(out, part...)
	}
	return out
}

// Count returns the number of rows.
func (r *RDD) Count() int {
	n := 0
	for _, part := range r.partitions {
		n += len(part)
	}
	return n
}

// Lookup scans the whole RDD for rows whose column col equals v. This
// is deliberately a full scan: "Spark Streaming provides no method of
// indexing over state" (§4.6.3), which is the bottleneck the paper's
// Figure 10 (left) exposes.
func (r *RDD) Lookup(col int, v types.Value) []types.Row {
	var out []types.Row
	for _, part := range r.partitions {
		for _, row := range part {
			if col < len(row) && row[col].Equal(v) {
				out = append(out, row)
			}
		}
	}
	return out
}
