package experiments

import (
	"fmt"
	"time"

	"sstore/internal/stream"
	"sstore/internal/types"
)

// Fig6 reproduces Figure 6: partition-engine triggers. A workflow of
// N+1 identical stored procedures must run in exact sequence per input
// batch. S-Store chains them with PE triggers inside the engine and
// its streaming scheduler fast-tracks the downstream TEs, so the
// client can feed batches asynchronously. H-Store has no PE triggers:
// the client must invoke each step and wait for its result before
// submitting the next, paying a round trip per transaction — its
// throughput tapers early while S-Store's stays roughly flat
// (workflows/sec, log scale in the paper).
func Fig6(opts Options) (*Table, error) {
	triggers := opts.pick([]int{1, 4}, []int{1, 2, 4, 8, 16})
	workflows := opts.n(300, 2000)
	table := newTable("pe_triggers", "sstore_wf_per_s", "hstore_wf_per_s", "speedup")

	window := time.Duration(opts.n(250, 1000)) * time.Millisecond
	for _, n := range triggers {
		spCount := n + 1
		ss, err := fig6SStore(spCount, workflows)
		if err != nil {
			return nil, err
		}
		hs, err := fig6HStore(spCount, window)
		if err != nil {
			return nil, err
		}
		table.addRow(n, ss, hs, ss/hs)
	}
	return table, nil
}

// fig6SStore feeds k batches asynchronously through the deployed
// workflow and measures end-to-end workflows per second.
func fig6SStore(spCount, k int) (float64, error) {
	eng, err := chainEngine(spCount, true, microOpts())
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	start := time.Now()
	for b := 1; b <= k; b++ {
		if err := eng.Ingest("cs1", &stream.Batch{ID: int64(b), Rows: []types.Row{intRow(int64(b))}}); err != nil {
			return 0, err
		}
	}
	if err := eng.Drain(); err != nil {
		return 0, err
	}
	if err := eng.TriggerErr(); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	// Sanity: every workflow ran to the last SP.
	last := eng.SPExecutions(fmt.Sprintf("ChainSP%d", spCount))
	if last != uint64(k) {
		return 0, fmt.Errorf("experiments: fig6: %d of %d workflows completed", last, k)
	}
	return float64(k) / elapsed.Seconds(), nil
}

// fig6HStore chains the calls from the client: each step is a
// synchronous Call over the simulated link, measured for a fixed wall
// window.
func fig6HStore(spCount int, window time.Duration) (float64, error) {
	eng, err := chainEngine(spCount, false, microOpts())
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	names := make([]string, spCount)
	for i := range names {
		names[i] = fmt.Sprintf("HChainSP%d", i+1)
	}
	b := int64(0)
	return measureRate(window, func() error {
		b++
		if _, err := eng.Call("HChainFeed", types.Row{types.NewInt(b)}); err != nil {
			return err
		}
		for _, sp := range names {
			if _, err := eng.Call(sp, nil); err != nil {
				return err
			}
		}
		return nil
	})
}
