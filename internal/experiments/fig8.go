package experiments

import (
	"sync/atomic"
	"time"

	"sstore/internal/leaderboard"
	"sstore/internal/netsim"
	"sstore/internal/pe"
	"sstore/internal/stream"
	"sstore/internal/types"
)

// Fig8 reproduces Figure 8: leaderboard maintenance, S-Store vs
// H-Store. Votes are offered at increasing rates. S-Store ingests
// asynchronously — PE triggers chain the three SPs in-engine and the
// streaming scheduler keeps the workflow ordered, so throughput tracks
// the offered rate until the engine saturates. The H-Store client must
// run the chain itself, synchronously deciding each next call from the
// previous result, so its throughput tapers as soon as the offered
// rate exceeds 1/(workflow round trips) (§4.5).
func Fig8(opts Options) (*Table, error) {
	rateInts := opts.pick([]int{500, 2000}, []int{250, 500, 1000, 2000, 4000, 8000})
	rates := make([]float64, len(rateInts))
	for i, r := range rateInts {
		rates[i] = float64(r)
	}
	window := time.Duration(opts.n(400, 1500)) * time.Millisecond
	cfg := leaderboard.Config{}
	table := newTable("offered_votes_per_s", "sstore_wf_per_s", "hstore_wf_per_s")

	for _, rate := range rates {
		ss, err := fig8SStore(cfg, rate, window)
		if err != nil {
			return nil, err
		}
		hs, err := fig8HStore(cfg, rate, window)
		if err != nil {
			return nil, err
		}
		table.addRow(int(rate), ss, hs)
	}
	return table, nil
}

func newLeaderboardSStore(cfg leaderboard.Config) (*pe.Engine, error) {
	eng, err := pe.NewEngine(pe.Options{
		ClientRTT:  netsim.DefaultClientRTT,
		EEDispatch: netsim.DefaultEEDispatch,
	})
	if err != nil {
		return nil, err
	}
	seed := func(stmt string) error {
		_, err := eng.AdHoc(0, stmt)
		return err
	}
	if err := leaderboard.SetupSchema(eng, cfg, seed); err != nil {
		eng.Close()
		return nil, err
	}
	for _, sp := range leaderboard.Procs(cfg) {
		if err := eng.RegisterProc(sp); err != nil {
			eng.Close()
			return nil, err
		}
	}
	w, err := leaderboard.Workflow()
	if err != nil {
		eng.Close()
		return nil, err
	}
	if err := eng.DeployWorkflow(w); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

func fig8SStore(cfg leaderboard.Config, rate float64, window time.Duration) (float64, error) {
	eng, err := newLeaderboardSStore(cfg)
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	gen := leaderboard.NewGenerator(11, cfg)
	var batchID atomic.Int64
	res, err := openLoop(rate, window, func(done func()) error {
		b := &stream.Batch{ID: batchID.Add(1), Rows: []types.Row{gen.Next()}}
		// The border TE's commit marks the workflow underway; the
		// downstream TEs run immediately after via PE triggers.
		ch, err := eng.IngestAsync(leaderboard.StreamVotesIn, b)
		if err != nil {
			return err
		}
		go func() {
			<-ch
			done()
		}()
		return nil
	})
	if err != nil {
		return 0, err
	}
	if err := eng.Drain(); err != nil {
		return 0, err
	}
	if err := eng.TriggerErr(); err != nil {
		return 0, err
	}
	return res.Throughput, nil
}

// fig8HStore offers votes at the target rate into a queue consumed by
// a single synchronous client — H-Store's ordering constraint means
// the chain cannot be pipelined, so the queue simply backs up beyond
// the client's capacity.
func fig8HStore(cfg leaderboard.Config, rate float64, window time.Duration) (float64, error) {
	eng, err := pe.NewEngine(pe.Options{
		ClientRTT:  netsim.DefaultClientRTT,
		EEDispatch: netsim.DefaultEEDispatch,
	})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	seed := func(stmt string) error {
		_, err := eng.AdHoc(0, stmt)
		return err
	}
	if err := leaderboard.SetupHStoreSchema(eng, cfg, seed); err != nil {
		return 0, err
	}
	for _, sp := range leaderboard.HStoreProcs(cfg) {
		if err := eng.RegisterProc(sp); err != nil {
			return 0, err
		}
	}
	call := func(sp string, params ...types.Value) (*pe.Result, error) {
		return eng.Call(sp, params)
	}
	gen := leaderboard.NewGenerator(11, cfg)
	queue := make(chan types.Row, int(rate*window.Seconds())+16)
	var processed atomic.Int64
	clientDone := make(chan error, 1)
	go func() {
		for vote := range queue {
			if _, err := leaderboard.HStoreClient(call, cfg, vote); err != nil {
				clientDone <- err
				return
			}
			processed.Add(1)
		}
		clientDone <- nil
	}()
	// Offer votes at the target rate.
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	next := start
	for time.Since(start) < window {
		if now := time.Now(); now.Before(next) {
			time.Sleep(next.Sub(now))
		}
		next = next.Add(interval)
		queue <- gen.Next()
	}
	elapsed := time.Since(start)
	close(queue)
	// Count only what completed within (approximately) the window.
	completed := processed.Load()
	if err := <-clientDone; err != nil {
		return 0, err
	}
	return float64(completed) / elapsed.Seconds(), nil
}
