package bench

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sstore/bench/apps"
)

// small shrinks a workload's fixed work so a smoke run takes a few
// seconds: the phases' lengths come from Options.Seconds, everything
// counted in batches or rows from here.
func small(w Workload) Workload {
	w.WarmBatches /= 20
	w.Preload /= 10
	w.RecoveryBatches = 2000
	return w
}

func loadSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := LoadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// runOrSkip runs one benchmark run; a host too busy to pace the load
// (go test runs packages side by side) skips rather than fails.
func runOrSkip(t *testing.T, o Options) *Result {
	t.Helper()
	res, err := Run(o)
	if errors.Is(err, ErrPacerLate) {
		t.Skipf("host too busy for a paced phase: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSmoke runs every workload, untraced and traced, with one-second
// phases and checks what the driver relies on: each metric
// BENCHMARK.json names is emitted with its unit and a finite value,
// nothing failed, and trace.json is a forest — every span's parent is
// in the file.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark's server binary")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(Workloads))
	}
	dir := t.TempDir()
	for i, w := range Workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, spec.Workloads[i].Name, w.Name)
		}
		for _, traced := range []bool{false, true} {
			res := runOrSkip(t, Options{Workload: small(w), Seed: 7, Seconds: 2, Trace: traced, Dir: dir, Spec: spec})
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", w.Name, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s = %v", w.Name, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if traced {
				if ok := res.Metrics["ok_share"].Value; ok != 1 {
					t.Errorf("%s: ok_share = %v, want 1", w.Name, ok)
				}
				checkTrace(t, filepath.Join(dir, "trace.json"))
			}
		}
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		Workload string      `json:"workload"`
		Spans    []apps.Span `json:"spans"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	ids := make(map[int64]bool, len(trace.Spans))
	names := make(map[string]int)
	for _, sp := range trace.Spans {
		ids[sp.ID] = true
		names[sp.Name]++
		if sp.EndUs < sp.StartUs {
			t.Errorf("%s: span %d ends before it starts", trace.Workload, sp.ID)
		}
	}
	for _, sp := range trace.Spans {
		if sp.Parent != 0 && !ids[sp.Parent] {
			t.Errorf("%s: span %d (%s) has parent %d, which is not in the trace", trace.Workload, sp.ID, sp.Name, sp.Parent)
		}
	}
	for _, name := range []string{"client.ingest", "client.send", "client.read"} {
		if names[name] == 0 {
			t.Errorf("%s: no %s span", trace.Workload, name)
		}
	}
	server := 0
	for name, n := range names {
		if len(name) > 3 && name[:3] == "sp." {
			server += n
		}
	}
	if server == 0 {
		t.Errorf("%s: no stored-procedure span from benchd", trace.Workload)
	}
}

// TestOracleCatchesMiscount shifts each app's reference count by one
// before the end-of-run check: the run must come back incorrect. This
// is what a dropped or double-applied batch looks like to the oracle.
func TestOracleCatchesMiscount(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark's server binary")
	}
	spec := loadSpec(t)
	dir := t.TempDir()
	for _, name := range []string{"sensor-mem", "voter-hybrid", "history-spill"} {
		w, err := LookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		res := runOrSkip(t, Options{Workload: small(w), Seed: 7, Seconds: 1, Dir: dir, Spec: spec, CorruptOracle: true})
		if res.Correct {
			t.Errorf("%s: oracle accepted a count that is off by one", name)
		}
	}
}

// TestNoiseQuartiles pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestNoiseQuartiles(t *testing.T) {
	res := func(v float64) *Result { return &Result{Metrics: map[string]Metric{"m": {Value: v, Unit: "ms"}}} }
	var results []*Result
	for _, v := range []float64{10, 12, 11, 15, 14, 13, 19, 17, 16, 18} {
		results = append(results, res(v))
	}
	rows := Noise("w", results)
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	// statistics.quantiles(range(10, 20), n=4) == [11.75, 14.5, 17.25]
	if r := rows[0]; r.Q1 != 11.75 || r.Median != 14.5 || r.Q3 != 17.25 {
		t.Errorf("quartiles %v %v %v, want 11.75 14.5 17.25", r.Q1, r.Median, r.Q3)
	}
}
