// Package leaderboard implements the paper's motivating application
// (§1.1, Figure 1): an American-Idol-style voting pipeline with three
// transactional steps — validate and record each vote, maintain
// top/bottom/trending leaderboards over a sliding window, and every
// DeleteEvery votes remove the lowest contestant and return their
// votes. It provides the S-Store deployment (streams, window, PE/EE
// triggers), the client-driven H-Store-style deployment, and the
// Spark-Streaming-like and Trident-like deployments used in §4.5–4.6.
package leaderboard

import (
	"fmt"
	"math/rand"
	"strings"

	"sstore/internal/pe"
	"sstore/internal/types"
	"sstore/internal/workflow"
)

// Config parameterizes the workload.
type Config struct {
	// Contestants is the number of candidates (default 6).
	Contestants int
	// TrendingWindow is the sliding-window size in votes (default
	// 100, per §1.1).
	TrendingWindow int64
	// TrendingSlide is the window slide (default 1).
	TrendingSlide int64
	// DeleteEvery removes the lowest contestant every N valid votes
	// (default 1000).
	DeleteEvery int64
	// TopK is the leaderboard depth (default 3).
	TopK int
	// SkipValidation removes the phone-number check from the
	// validate step — the second benchmark variant of §4.6.3, built
	// "in order to better compare against Spark's strengths".
	SkipValidation bool
}

func (c Config) withDefaults() Config {
	if c.Contestants <= 0 {
		c.Contestants = 6
	}
	if c.TrendingWindow <= 0 {
		c.TrendingWindow = 100
	}
	if c.TrendingSlide <= 0 {
		c.TrendingSlide = 1
	}
	if c.DeleteEvery <= 0 {
		c.DeleteEvery = 1000
	}
	if c.TopK <= 0 {
		c.TopK = 3
	}
	return c
}

// Stored procedure and stream names.
const (
	SPValidate = "Validate"
	SPMaintain = "Maintain"
	SPDelete   = "DeleteLowest"

	StreamVotesIn    = "votes_in"
	StreamValidVotes = "valid_votes"
	StreamRemovals   = "removals_due"
)

// ddl is the shared schema: the three state categories of §2 — public
// tables, streams, and a window (created separately with its owner).
// tableDDL builds the shared table schema. The phone index is unique
// only when validation is on: the no-validation variant of §4.6.3
// records every vote, duplicates included.
func tableDDL(cfg Config) []string {
	phoneIdx := "CREATE UNIQUE INDEX votes_phone ON votes (phone)"
	if cfg.SkipValidation {
		phoneIdx = "CREATE INDEX votes_phone ON votes (phone)"
	}
	return []string{
		"CREATE TABLE contestants (id BIGINT PRIMARY KEY, name VARCHAR, active BOOLEAN, total BIGINT)",
		"CREATE TABLE votes (phone BIGINT, contestant_id BIGINT, ts BIGINT)",
		phoneIdx,
		"CREATE INDEX votes_by_cand ON votes (contestant_id)",
		"CREATE TABLE leaderboard_top (rank BIGINT, contestant_id BIGINT, total BIGINT)",
		"CREATE TABLE leaderboard_bottom (rank BIGINT, contestant_id BIGINT, total BIGINT)",
		"CREATE TABLE leaderboard_trend (rank BIGINT, contestant_id BIGINT, recent BIGINT)",
		"CREATE TABLE vote_counter (n BIGINT)",
	}
}

// streamDDL is the streaming-state half of the schema (S-Store only).
var streamDDL = []string{
	"CREATE STREAM " + StreamVotesIn + " (phone BIGINT, contestant_id BIGINT, ts BIGINT)",
	"CREATE STREAM " + StreamValidVotes + " (phone BIGINT, contestant_id BIGINT, ts BIGINT)",
	"CREATE STREAM " + StreamRemovals + " (n BIGINT)",
}

// Engine abstracts the setup surface shared by *pe.Engine and the
// public facade; it keeps this package usable from both benches and
// examples.
type Engine interface {
	ExecDDL(ddl string) error
	ExecDDLOwned(owner, ddl string) error
	MaintainWindowAggregate(table, fn, column string, groupBy ...string) error
}

// SetupSchema creates tables, streams, the trending window (owned by
// SPMaintain) with COUNT(*) maintained per contestant — so the trending
// board reads per-contestant counts instead of re-grouping the window
// on every vote (§4.3) — and seeds contestants and the counter. seed
// runs a statement on every partition.
func SetupSchema(eng Engine, cfg Config, seed func(stmt string) error) error {
	return setupSchema(eng, cfg, seed, true)
}

// SetupSchemaNoPhoneIndex is SetupSchema without any index on
// votes.phone, so validation degrades to a table scan; used by the
// index-vs-scan ablation.
func SetupSchemaNoPhoneIndex(eng Engine, cfg Config, seed func(stmt string) error) error {
	return setupSchema(eng, cfg, seed, false)
}

func setupSchema(eng Engine, cfg Config, seed func(stmt string) error, phoneIndex bool) error {
	cfg = cfg.withDefaults()
	for _, d := range append(tableDDL(cfg), streamDDL...) {
		if !phoneIndex && strings.Contains(d, "votes_phone") {
			continue
		}
		if err := eng.ExecDDL(d); err != nil {
			return err
		}
	}
	win := fmt.Sprintf(
		"CREATE WINDOW trending (contestant_id BIGINT, ts BIGINT) SIZE %d SLIDE %d",
		cfg.TrendingWindow, cfg.TrendingSlide,
	)
	if err := eng.ExecDDLOwned(SPMaintain, win); err != nil {
		return err
	}
	if err := eng.MaintainWindowAggregate("trending", "count", "*", "contestant_id"); err != nil {
		return err
	}
	for i := 1; i <= cfg.Contestants; i++ {
		stmt := fmt.Sprintf("INSERT INTO contestants VALUES (%d, 'contestant%d', true, 0)", i, i)
		if err := seed(stmt); err != nil {
			return err
		}
	}
	return seed("INSERT INTO vote_counter VALUES (0)")
}

// Generator produces a stream of votes: mostly fresh phone numbers
// with a configurable duplicate rate (invalid re-votes), contestant
// choice Zipf-ish skewed so leaderboards are non-trivial.
type Generator struct {
	rng         *rand.Rand
	cfg         Config
	nextPhone   int64
	DupRate     float64 // probability a vote reuses a seen phone
	clockMicros int64
}

// NewGenerator creates a deterministic vote generator.
func NewGenerator(seed int64, cfg Config) *Generator {
	return &Generator{
		rng:       rand.New(rand.NewSource(seed)),
		cfg:       cfg.withDefaults(),
		nextPhone: 1_000_000,
		DupRate:   0.02,
	}
}

// Next returns one vote row (phone, contestant_id, ts).
func (g *Generator) Next() types.Row {
	var phone int64
	if g.rng.Float64() < g.DupRate && g.nextPhone > 1_000_000 {
		phone = 1_000_000 + g.rng.Int63n(g.nextPhone-1_000_000)
	} else {
		phone = g.nextPhone
		g.nextPhone++
	}
	// Skew: contestant i gets weight proportional to i+1.
	total := g.cfg.Contestants * (g.cfg.Contestants + 1) / 2
	pick := g.rng.Intn(total)
	cand := 1
	for w := 1; pick >= w; w++ {
		pick -= w
		cand++
	}
	g.clockMicros += 1000
	return types.Row{types.NewInt(phone), types.NewInt(int64(cand)), types.NewInt(g.clockMicros)}
}

// Workflow returns the three-step DAG of Figure 1.
func Workflow() (*workflow.Workflow, error) {
	return workflow.New("leaderboard", []workflow.Node{
		{SP: SPValidate, Input: StreamVotesIn, Outputs: []string{StreamValidVotes}},
		{SP: SPMaintain, Input: StreamValidVotes, Outputs: []string{StreamRemovals}},
		{SP: SPDelete, Input: StreamRemovals},
	})
}

// Procs returns the three stored procedures parameterized by cfg.
func Procs(cfg Config) []*pe.StoredProc {
	cfg = cfg.withDefaults()
	return []*pe.StoredProc{
		{Name: SPValidate, Func: validateProc(cfg), Stmts: validateStmts},
		{Name: SPMaintain, Func: maintainProc(cfg), Stmts: maintainStmts},
		{Name: SPDelete, Func: deleteProc(cfg, true), Stmts: deleteStmts(true)},
	}
}
