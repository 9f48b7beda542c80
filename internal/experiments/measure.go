package experiments

// The measurement machinery the figures share: latency recording with
// percentiles, an open-loop rate-controlled driver, closed-loop rate
// probes, and aligned table printing for the paper-style result rows.

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// latencyRecorder accumulates durations and reports percentiles. It is
// safe for concurrent Record calls.
type latencyRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
}

// Record adds one sample.
func (r *latencyRecorder) Record(d time.Duration) {
	r.mu.Lock()
	r.samples = append(r.samples, d)
	r.mu.Unlock()
}

// Percentile returns the p-th percentile (0 < p <= 100), or 0 with no
// samples.
func (r *latencyRecorder) Percentile(p float64) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), r.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p/100*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// openLoopResult reports one open-loop run.
type openLoopResult struct {
	// Completed is the number of requests that finished within the
	// measurement window plus drain.
	Completed int
	// Throughput is completions per second of the measurement
	// window.
	Throughput float64
	// Latency holds per-request completion latencies.
	Latency *latencyRecorder
}

// openLoop submits requests at a fixed rate for the given duration,
// without waiting for completions (an asynchronous client, as in §4).
// submit must arrange for done() to be called when the request
// completes; openLoop waits for all issued requests to finish after
// the window closes and reports throughput over the send window.
// Returning an error from submit stops the run.
func openLoop(rate float64, window time.Duration, submit func(done func()) error) (*openLoopResult, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("experiments: rate must be positive")
	}
	res := &openLoopResult{Latency: &latencyRecorder{}}
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	var completedInWindow int64
	var mu sync.Mutex

	start := time.Now()
	next := start
	deadline := start.Add(window)
	for time.Now().Before(deadline) {
		if now := time.Now(); now.Before(next) {
			time.Sleep(next.Sub(now))
		}
		next = next.Add(interval)
		sent := time.Now()
		wg.Add(1)
		err := submit(func() {
			res.Latency.Record(time.Since(sent))
			mu.Lock()
			if time.Since(start) <= window {
				completedInWindow++
			}
			mu.Unlock()
			wg.Done()
		})
		if err != nil {
			wg.Done()
			return nil, err
		}
	}
	elapsed := time.Since(start)
	wg.Wait()
	mu.Lock()
	res.Completed = int(completedInWindow)
	mu.Unlock()
	res.Throughput = float64(res.Completed) / elapsed.Seconds()
	return res, nil
}

// measureRate runs fn repeatedly for the window and returns executions
// per second — the closed-loop throughput probe used by the
// micro-benchmarks.
func measureRate(window time.Duration, fn func() error) (float64, error) {
	start := time.Now()
	n := 0
	for time.Since(start) < window {
		if err := fn(); err != nil {
			return 0, err
		}
		n++
	}
	return float64(n) / time.Since(start).Seconds(), nil
}

// measureThroughput times n sequential submissions plus the settle
// step (typically the engine drain, so every asynchronous workflow the
// submissions started is counted) and returns operations per second
// over the whole run — the closed-workload throughput probe used by the
// partition-scaling benchmark.
func measureThroughput(n int, submit func(i int) error, settle func() error) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("experiments: n must be positive")
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := submit(i); err != nil {
			return 0, err
		}
	}
	if err := settle(); err != nil {
		return 0, err
	}
	return float64(n) / time.Since(start).Seconds(), nil
}

// Table accumulates aligned rows for printing paper-style result
// tables.
type Table struct {
	header []string
	rows   [][]string
}

// newTable creates a table with the given column headers.
func newTable(header ...string) *Table {
	return &Table{header: header}
}

// addRow appends a row; values are formatted with %v.
func (t *Table) addRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch v := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// Print writes the table, aligned, to w.
func (t *Table) Print(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.Join(parts, "  ")
	}
	fmt.Fprintln(w, line(t.header))
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	fmt.Fprintln(w, line(sep))
	for _, row := range t.rows {
		fmt.Fprintln(w, line(row))
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
