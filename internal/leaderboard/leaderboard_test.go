package leaderboard

import (
	"runtime"
	"testing"

	"sstore/internal/pe"
	"sstore/internal/stream"
	"sstore/internal/types"
)

func testConfig() Config {
	return Config{Contestants: 4, TrendingWindow: 10, TrendingSlide: 1, DeleteEvery: 25, TopK: 3}
}

// newSStore builds a ready S-Store deployment of the workload.
func newSStore(t *testing.T, cfg Config) *pe.Engine {
	t.Helper()
	eng, err := pe.NewEngine(pe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	seed := func(stmt string) error {
		_, err := eng.AdHoc(0, stmt)
		return err
	}
	if err := SetupSchema(eng, cfg, seed); err != nil {
		t.Fatal(err)
	}
	for _, sp := range Procs(cfg) {
		if err := eng.RegisterProc(sp); err != nil {
			t.Fatal(err)
		}
	}
	w, err := Workflow()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.DeployWorkflow(w); err != nil {
		t.Fatal(err)
	}
	return eng
}

func adhocQuery(eng *pe.Engine) func(sql string, params ...types.Value) (*QueryRows, error) {
	return func(sql string, params ...types.Value) (*QueryRows, error) {
		res, err := eng.AdHoc(0, sql, params...)
		if err != nil {
			return nil, err
		}
		return &QueryRows{Rows: res.Rows}, nil
	}
}

func TestSStoreWorkflowProcessesVotes(t *testing.T) {
	cfg := testConfig()
	eng := newSStore(t, cfg)
	gen := NewGenerator(1, cfg)
	gen.DupRate = 0 // all valid
	for b := int64(1); b <= 60; b++ {
		if err := eng.IngestSync(StreamVotesIn, &stream.Batch{ID: b, Rows: []types.Row{gen.Next()}}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	// Two removals happened (at 25 and 50): two contestants gone.
	res, _ := eng.AdHoc(0, "SELECT COUNT(*) FROM contestants WHERE active = true")
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("active contestants = %v, want 2", res.Rows[0][0])
	}
	// The counter saw every *valid* vote: votes cast for an already
	// removed contestant fail validation, so the count is at most 60
	// but must have crossed the second removal boundary (50).
	res, _ = eng.AdHoc(0, "SELECT n FROM vote_counter")
	if n := res.Rows[0][0].Int(); n < 50 || n > 60 {
		t.Errorf("counter = %d, want in [50, 60]", n)
	}
	// Leaderboards populated and sized.
	res, _ = eng.AdHoc(0, "SELECT COUNT(*) FROM leaderboard_top")
	if res.Rows[0][0].Int() == 0 || res.Rows[0][0].Int() > int64(cfg.TopK) {
		t.Errorf("top board size = %v", res.Rows[0][0])
	}
	// Cross-table invariant: totals match recorded votes.
	if err := Validate(adhocQuery(eng)); err != nil {
		t.Error(err)
	}
	// Streams drained.
	for _, s := range []string{StreamVotesIn, StreamValidVotes, StreamRemovals} {
		res, _ = eng.AdHoc(0, "SELECT COUNT(*) FROM "+s)
		if res.Rows[0][0].Int() != 0 {
			t.Errorf("stream %s not drained", s)
		}
	}
}

// TestVoteMallocsBounded caps heap allocations per vote through the
// S-Store deployment at steady state: the trending window is full and
// every measured vote runs both SPs (validate, then slide the window
// and rebuild the three boards, one of them a GROUP BY over the
// 100-row window served from its per-contestant counts), all before
// the first elimination. A path that allocates per window row costs
// 100 per vote per allocation. The procedures run declared statements
// on their compiled scratch, so what is left — about 31 per vote — is
// mostly the 13 rows a vote stores, the rows UPDATE replaces, and
// index keys.
func TestVoteMallocsBounded(t *testing.T) {
	cfg := Config{} // §1.1 defaults: 100-vote window, elimination every 1000
	eng := newSStore(t, cfg)
	gen := NewGenerator(1, cfg)
	gen.DupRate = 0 // every vote is valid and reaches the window
	const warm, n = 200, 600
	batches := make([]stream.Batch, warm+n)
	for i := range batches {
		batches[i] = stream.Batch{ID: int64(i + 1), Rows: []types.Row{gen.Next()}}
	}
	ingest := func(bs []stream.Batch) {
		for i := range bs {
			if err := eng.IngestSync(StreamVotesIn, &bs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(batches[:warm])
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ingest(batches[warm:])
	runtime.ReadMemStats(&m1)
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	res, err := eng.AdHoc(0, "SELECT n FROM vote_counter")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != warm+n {
		t.Fatalf("counted %d votes, want %d all valid and before the first elimination", got, warm+n)
	}
	perVote := float64(m1.Mallocs-m0.Mallocs) / n
	t.Logf("steady voting: %.1f mallocs/vote", perVote)
	if perVote >= 50 {
		t.Fatalf("steady voting allocates %.1f/vote, want < 50", perVote)
	}
}

func TestSStoreRejectsDuplicatePhones(t *testing.T) {
	cfg := testConfig()
	eng := newSStore(t, cfg)
	vote := types.Row{types.NewInt(555), types.NewInt(1), types.NewInt(1)}
	for b := int64(1); b <= 3; b++ {
		if err := eng.IngestSync(StreamVotesIn, &stream.Batch{ID: b, Rows: []types.Row{vote.Clone()}}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	res, _ := eng.AdHoc(0, "SELECT COUNT(*) FROM votes")
	if res.Rows[0][0].Int() != 1 {
		t.Errorf("votes = %v, want 1 (duplicates rejected)", res.Rows[0][0])
	}
	res, _ = eng.AdHoc(0, "SELECT total FROM contestants WHERE id = 1")
	if res.Rows[0][0].Int() != 1 {
		t.Errorf("total = %v, want 1", res.Rows[0][0])
	}
}

func TestSStoreRejectsUnknownContestant(t *testing.T) {
	cfg := testConfig()
	eng := newSStore(t, cfg)
	vote := types.Row{types.NewInt(1), types.NewInt(99), types.NewInt(1)}
	if err := eng.IngestSync(StreamVotesIn, &stream.Batch{ID: 1, Rows: []types.Row{vote}}); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	res, _ := eng.AdHoc(0, "SELECT COUNT(*) FROM votes")
	if res.Rows[0][0].Int() != 0 {
		t.Errorf("votes = %v, want 0", res.Rows[0][0])
	}
}

func TestVotesReturnedAfterRemoval(t *testing.T) {
	cfg := testConfig()
	cfg.DeleteEvery = 10
	eng := newSStore(t, cfg)
	// Vote only for contestants 1 and 2; contestant with fewer is
	// removed at vote 10, freeing its voters to vote again.
	b := int64(0)
	vote := func(phone, cand int64) {
		b++
		if err := eng.IngestSync(StreamVotesIn, &stream.Batch{ID: b, Rows: []types.Row{
			{types.NewInt(phone), types.NewInt(cand), types.NewInt(b)},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 7; i++ {
		vote(100+i, 1)
	}
	for i := int64(0); i < 3; i++ {
		vote(200+i, 2)
	}
	eng.Drain()
	// Contestants 3 and 4 (0 votes) tie as lowest; one was removed.
	res, _ := eng.AdHoc(0, "SELECT COUNT(*) FROM contestants WHERE active = true")
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("active = %v", res.Rows[0][0])
	}
	// Push the valid-vote count to 30: the third removal takes
	// contestant 2 (3 votes vs contestant 1's pile), freeing phone
	// 200 to revote.
	for i := int64(0); i < 20; i++ {
		vote(300+i, 1)
	}
	eng.Drain()
	res, _ = eng.AdHoc(0, "SELECT active FROM contestants WHERE id = 2")
	if res.Rows[0][0].Bool() {
		t.Fatal("contestant 2 should have been removed by now")
	}
	vote(200, 1) // revote with a previously used phone
	eng.Drain()
	res, _ = eng.AdHoc(0, "SELECT contestant_id FROM votes WHERE phone = 200")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Errorf("revote = %v", res.Rows)
	}
	if err := Validate(adhocQuery(eng)); err != nil {
		t.Error(err)
	}
}

func newHStore(t *testing.T, cfg Config) *pe.Engine {
	t.Helper()
	eng, err := pe.NewEngine(pe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	seed := func(stmt string) error {
		_, err := eng.AdHoc(0, stmt)
		return err
	}
	if err := SetupHStoreSchema(eng, cfg, seed); err != nil {
		t.Fatal(err)
	}
	for _, sp := range HStoreProcs(cfg) {
		if err := eng.RegisterProc(sp); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

func TestHStoreClientMatchesSStore(t *testing.T) {
	cfg := testConfig()
	sEng := newSStore(t, cfg)
	hEng := newHStore(t, cfg)
	call := func(sp string, params ...types.Value) (*pe.Result, error) {
		return hEng.Call(sp, params)
	}
	// The S-Store side serves the trending board from the window's
	// per-contestant counts; the H-Store side re-groups its manual
	// window. The boards must agree after every vote, across
	// eliminations (every 25 valid votes here).
	trend := "SELECT rank, contestant_id, recent FROM leaderboard_trend ORDER BY recent DESC, contestant_id"
	gen1 := NewGenerator(7, cfg)
	gen2 := NewGenerator(7, cfg) // same seed → same votes
	for i := int64(1); i <= 80; i++ {
		v1, v2 := gen1.Next(), gen2.Next()
		if err := sEng.IngestSync(StreamVotesIn, &stream.Batch{ID: i, Rows: []types.Row{v1}}); err != nil {
			t.Fatal(err)
		}
		if _, err := HStoreClient(call, cfg, v2); err != nil {
			t.Fatal(err)
		}
		if err := sEng.Drain(); err != nil {
			t.Fatal(err)
		}
		sRes, err := sEng.AdHoc(0, trend)
		if err != nil {
			t.Fatal(err)
		}
		hRes, err := hEng.AdHoc(0, trend)
		if err != nil {
			t.Fatal(err)
		}
		if len(sRes.Rows) != len(hRes.Rows) {
			t.Fatalf("vote %d: trend sizes differ: s-store %v, h-store %v", i, sRes.Rows, hRes.Rows)
		}
		for j := range sRes.Rows {
			if !sRes.Rows[j].Equal(hRes.Rows[j]) {
				t.Fatalf("vote %d: trend row %d: s-store %v, h-store %v", i, j, sRes.Rows[j], hRes.Rows[j])
			}
		}
	}
	res, err := sEng.AdHoc(0, "SELECT COUNT(*) FROM contestants WHERE active = false")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() == 0 {
		t.Fatal("no elimination happened; the comparison did not cross one")
	}
	// Both deployments computed identical vote totals.
	q := "SELECT id, total, active FROM contestants ORDER BY id"
	sRes, _ := sEng.AdHoc(0, q)
	hRes, _ := hEng.AdHoc(0, q)
	for i := range sRes.Rows {
		if !sRes.Rows[i].Equal(hRes.Rows[i]) {
			t.Errorf("contestant %d: s-store %v, h-store %v", i+1, sRes.Rows[i], hRes.Rows[i])
		}
	}
}

func TestSparkLeaderboardValidation(t *testing.T) {
	cfg := testConfig()
	s := NewSparkLeaderboard(cfg, 2, 10, true)
	// Batch with an internal duplicate and a repeat across batches.
	n, err := s.ProcessBatch([]types.Row{
		{types.NewInt(1), types.NewInt(1), types.NewInt(1)},
		{types.NewInt(1), types.NewInt(2), types.NewInt(2)}, // dup in batch
		{types.NewInt(2), types.NewInt(1), types.NewInt(3)},
	})
	if err != nil || n != 2 {
		t.Fatalf("valid = %d, %v", n, err)
	}
	n, err = s.ProcessBatch([]types.Row{
		{types.NewInt(2), types.NewInt(3), types.NewInt(4)}, // dup across batches
		{types.NewInt(3), types.NewInt(1), types.NewInt(5)},
	})
	if err != nil || n != 1 {
		t.Fatalf("valid = %d, %v", n, err)
	}
	if s.VotesRecorded() != 3 {
		t.Errorf("recorded = %d", s.VotesRecorded())
	}
	totals := s.Totals()
	if totals[0].Contestant != 1 || totals[0].Count != 3 {
		t.Errorf("totals = %v", totals)
	}
	trend := s.Trending()
	if len(trend) == 0 || trend[0].Contestant != 1 {
		t.Errorf("trending = %v", trend)
	}
}

func TestSparkWindowSlides(t *testing.T) {
	cfg := testConfig()
	s := NewSparkLeaderboard(cfg, 1, 2, false) // window = last 2 batches
	phone := int64(0)
	batchFor := func(cand int64) []types.Row {
		phone++
		return []types.Row{{types.NewInt(phone), types.NewInt(cand), types.NewInt(phone)}}
	}
	s.ProcessBatch(batchFor(1))
	s.ProcessBatch(batchFor(2))
	s.ProcessBatch(batchFor(2))
	// Batch 1 (candidate 1) has fallen out of the window.
	trend := s.Trending()
	if len(trend) != 1 || trend[0].Contestant != 2 || trend[0].Count != 2 {
		t.Errorf("trending = %v", trend)
	}
}

func TestTridentLeaderboard(t *testing.T) {
	cfg := testConfig()
	tr := NewTridentLeaderboard(cfg, 0, true)
	err := tr.ProcessBatch([]types.Row{
		{types.NewInt(1), types.NewInt(1), types.NewInt(1)},
		{types.NewInt(2), types.NewInt(1), types.NewInt(2)},
		{types.NewInt(1), types.NewInt(2), types.NewInt(3)}, // dup phone
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Total(1); got != 2 {
		t.Errorf("total(1) = %d", got)
	}
	if got := tr.Total(2); got != 0 {
		t.Errorf("total(2) = %d (dup should be rejected)", got)
	}
	trend := tr.Trending()
	if len(trend) == 0 || trend[0].Contestant != 1 || trend[0].Count != 2 {
		t.Errorf("trending = %v", trend)
	}
}

func TestGeneratorDeterminismAndSkew(t *testing.T) {
	cfg := testConfig()
	g1, g2 := NewGenerator(3, cfg), NewGenerator(3, cfg)
	counts := make(map[int64]int)
	for i := 0; i < 1000; i++ {
		v1, v2 := g1.Next(), g2.Next()
		if !v1.Equal(v2) {
			t.Fatal("generator not deterministic")
		}
		counts[v1[1].Int()]++
	}
	if counts[4] <= counts[1] {
		t.Errorf("skew missing: counts = %v", counts)
	}
	for c := range counts {
		if c < 1 || c > 4 {
			t.Errorf("contestant out of range: %d", c)
		}
	}
}
