package leaderboard

import (
	"sort"
	"time"

	"sstore/internal/netsim"
	"sstore/internal/sparklike"
	"sstore/internal/types"
)

// SparkLeaderboard is the Spark-Streaming-style deployment (§4.6.1):
// the whole pipeline collapses into a single micro-batch computation —
// Spark has no transactions, so "a Spark batch is the proper analog to
// a transaction". Vote state and totals live in immutable RDDs; the
// trending leaderboard is a time window expressed as a union of
// retained micro-batches; and, critically, there is no index over
// state: with validation enabled, every vote scans all previously
// recorded votes, which is the bottleneck of Figure 10 (left).
type SparkLeaderboard struct {
	ctx *sparklike.Context
	cfg Config
	// votes is the recorded-votes RDD (phone, contestant); scanned
	// per validation.
	votes *sparklike.RDD
	// totals is the per-contestant totals RDD (contestant, total).
	totals *sparklike.RDD
	// Validation toggles the phone-number check — Figure 10 runs the
	// benchmark both with and without it.
	Validation bool
	// ScheduleOverhead models Spark's per-micro-batch job cost
	// (driver scheduling, task serialization, stage dispatch) that a
	// plain in-process loop would otherwise omit. Zero disables it.
	ScheduleOverhead time.Duration

	win  *winState
	tops []Standing
}

// winState retains recent micro-batches of valid votes for the
// time-windowed trending board.
type winState struct {
	retain  int
	history []*sparklike.RDD
}

// Standing is one leaderboard row.
type Standing struct {
	Contestant int64
	Count      int64
}

// NewSparkLeaderboard builds the deployment. retainBatches models the
// 10-second window sliding by one 1-second micro-batch (retain 10).
func NewSparkLeaderboard(cfg Config, parallelism, retainBatches int, validation bool) *SparkLeaderboard {
	ctx := sparklike.NewContext(parallelism)
	return &SparkLeaderboard{
		ctx:        ctx,
		cfg:        cfg.withDefaults(),
		votes:      ctx.Empty(),
		totals:     ctx.Empty(),
		Validation: validation,
		win:        &winState{retain: retainBatches},
	}
}

// ProcessBatch runs one micro-batch of votes (rows: phone, contestant,
// ts) atomically, returning the number of valid votes.
func (s *SparkLeaderboard) ProcessBatch(rows []types.Row) (int, error) {
	netsim.Delay(s.ScheduleOverhead)
	if s.Validation {
		// Batch-local duplicates are removed up front, as a real
		// Spark job would distinct() the batch before joining.
		seen := make(map[int64]bool)
		distinct := rows[:0:0]
		for _, r := range rows {
			if phone := r[0].Int(); !seen[phone] {
				seen[phone] = true
				distinct = append(distinct, r)
			}
		}
		rows = distinct
	}
	input := s.ctx.Parallelize(rows)
	valid := input
	if s.Validation {
		// No index over state: each vote's phone is checked by
		// scanning the whole votes RDD (§4.6.3) — the read-only
		// lookup is safe to run from parallel partitions.
		votes := s.votes
		valid = s.ctx.Filter(input, func(r types.Row) bool {
			return len(votes.Lookup(0, r[0])) == 0
		})
	}
	// Record valid votes: immutability means a new RDD per batch.
	s.votes = s.ctx.Union(s.votes, valid)
	// Update totals state (full copy-with-merge).
	s.totals = sparklike.UpdateStateByKey(s.ctx, s.totals,
		s.ctx.Map(valid, func(r types.Row) types.Row {
			return types.Row{r[1], types.NewInt(1)}
		}),
		0,
		func(existing, incoming types.Row) types.Row {
			if existing == nil {
				return types.Row{incoming[0], types.NewInt(1)}
			}
			return types.Row{existing[0], types.NewInt(existing[1].Int() + 1)}
		})
	// Window: retain this batch, build the trending counts over the
	// union of retained batches.
	s.win.history = append(s.win.history, valid)
	if len(s.win.history) > s.win.retain {
		s.win.history = s.win.history[1:]
	}
	windowed := s.ctx.Empty()
	for _, b := range s.win.history {
		windowed = s.ctx.Union(windowed, b)
	}
	counts := s.ctx.ReduceByKey(
		s.ctx.Map(windowed, func(r types.Row) types.Row {
			return types.Row{r[1], types.NewInt(1)}
		}),
		func(r types.Row) types.Value { return r[0] },
		func(a, b types.Row) types.Row {
			return types.Row{a[0], types.NewInt(a[1].Int() + b[1].Int())}
		})
	s.tops = topK(counts.Collect(), s.cfg.TopK)
	return valid.Count(), nil
}

func topK(rows []types.Row, k int) []Standing {
	out := make([]Standing, 0, len(rows))
	for _, r := range rows {
		out = append(out, Standing{Contestant: r[0].Int(), Count: r[1].Int()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Contestant < out[j].Contestant
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
