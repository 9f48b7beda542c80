package experiments

import (
	"strings"
	"testing"
	"time"

	"sstore/internal/recovery"
)

// These tests run every experiment in Quick mode. Beyond smoke
// coverage, each asserts the qualitative *shape* the paper reports —
// who wins — without pinning fragile absolute numbers.

func quickOpts(t *testing.T) Options {
	t.Helper()
	return Options{Quick: true, Dir: t.TempDir()}
}

// render prints a table for the smoke checks. A table holds only
// formatted cells, so the shape tests below call the underlying probes
// directly when they need numbers.
func render(t *testing.T, table *Table) string {
	t.Helper()
	var sb strings.Builder
	table.Print(&sb)
	out := sb.String()
	if len(out) == 0 {
		t.Fatal("empty table")
	}
	return out
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	// Direct shape check on the underlying measurement: with 10 EE
	// trigger stages, S-Store must beat the round-trip-per-stage
	// H-Store implementation.
	ss, err := fig5Rate(10, true, 120e6)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := fig5Rate(10, false, 120e6)
	if err != nil {
		t.Fatal(err)
	}
	if ss <= hs {
		t.Errorf("EE triggers should win at 10 stages: s-store %.0f vs h-store %.0f tps", ss, hs)
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	ss, err := fig6SStore(5, 200)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := fig6HStore(5, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ss <= 2*hs {
		t.Errorf("PE triggers should win big at 4 triggers: s-store %.0f vs h-store %.0f wf/s", ss, hs)
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	ss, err := fig7Native(100, 10, 120e6)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := fig7Manual(100, 10, 120e6)
	if err != nil {
		t.Fatal(err)
	}
	if ss <= hs {
		t.Errorf("native windows should win: s-store %.0f vs h-store %.0f tps", ss, hs)
	}
}

func TestFig9aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	dir := t.TempDir()
	strongTPS, strongRecs, err := fig9Run(dir, recovery.ModeStrong, 5, 60)
	if err != nil {
		t.Fatal(err)
	}
	weakTPS, weakRecs, err := fig9Run(dir, recovery.ModeWeak, 5, 60)
	if err != nil {
		t.Fatal(err)
	}
	if weakRecs*5 != strongRecs {
		t.Errorf("log volume: strong %d, weak %d records (want 5x)", strongRecs, weakRecs)
	}
	if weakTPS <= strongTPS {
		t.Errorf("weak logging should be faster: %.0f vs %.0f wf/s", weakTPS, strongTPS)
	}
}

func TestFig9bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	dir := t.TempDir()
	strongMS, err := fig9Recover(dir, recovery.ModeStrong, 5, 40)
	if err != nil {
		t.Fatal(err)
	}
	weakMS, err := fig9Recover(dir, recovery.ModeWeak, 5, 40)
	if err != nil {
		t.Fatal(err)
	}
	if weakMS >= strongMS {
		t.Errorf("weak recovery should be faster with 4 triggers: strong %.0fms vs weak %.0fms", strongMS, weakMS)
	}
}

func TestAllFiguresQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	opts := quickOpts(t)
	for name, fn := range map[string]func(Options) (*Table, error){
		"fig5":     Fig5,
		"fig6":     Fig6,
		"fig7":     Fig7,
		"fig9a":    Fig9a,
		"fig9b":    Fig9b,
		"fig8":     Fig8,
		"fig10":    Fig10,
		"fig11":    Fig11,
		"ablation": Ablations,
		"scale":    Scale,
		"window":   Window,
		"skew":     Skew,
		"cluster":  Cluster,
	} {
		t.Run(name, func(t *testing.T) {
			table, err := fn(opts)
			if err != nil {
				t.Fatal(err)
			}
			out := render(t, table)
			if !strings.Contains(out, "-") {
				t.Errorf("table lacks separator:\n%s", out)
			}
		})
	}
}

func TestScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	// The point of interior routing: with 4 partitions and a
	// PartitionBy that spreads interior batches, whole-workflow
	// throughput must beat the single-partition run of the identical
	// workload. The probe is boundary-wait dominated, so the speedup
	// holds even on a single-CPU host.
	opts := quickOpts(t)
	one, err := scaleRoutedProbe(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := scaleRoutedProbe(opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if four <= one {
		t.Errorf("4 partitions should out-run 1: %.0f vs %.0f workflows/sec", four, one)
	}
}

func TestScaleLoggedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	// The point of sharding the command log: with durability on
	// (strong mode, group commit) each partition flushes its own log
	// file, so the logged workflow keeps scaling with partitions —
	// a shared log would flatline every commit on one fsync queue.
	// The 4-partition run typically lands near 3x the 1-partition
	// run; the assertion keeps head-room for loaded CI hosts.
	opts := quickOpts(t)
	one, err := scaleRoutedLoggedProbe(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := scaleRoutedLoggedProbe(opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	// CI runs this under -race on shared hosts, where the detector's
	// slowdown and noisy-neighbor fsync latency compress the margin;
	// assert only that sharded logging scales at all. The logged row
	// of `sstore-bench -exp scale` shows the full speedup.
	t.Logf("logged scale: 1p=%.0f wf/s, 4p=%.0f wf/s (%.2fx)", one, four, four/one)
	if four <= one {
		t.Errorf("logged 4-partition run should out-run 1: %.0f vs %.0f workflows/sec", four, one)
	}
}

func TestSkewShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	// The point of intra-partition parallelism: fully-skewed routing
	// (zipf s=8 puts ~99.6% of calls on partition 0) with disjoint
	// writes must run well ahead of the serial loop on 4 workers,
	// while a fully-conflicting workload — every adjacent pair shares
	// a table — must degrade to serial order at near-zero cost. Both
	// probes are boundary-wait dominated, so the shape holds on a
	// single-CPU host. Timing noise gets a bounded retry.
	routes := skewRoutes(8, 300)
	for attempt := 1; ; attempt++ {
		serial, _, _, _, err := skewProbe(false, 0, routes)
		if err != nil {
			t.Fatal(err)
		}
		par, _, _, parTasks, err := skewProbe(false, 4, routes)
		if err != nil {
			t.Fatal(err)
		}
		conSerial, _, _, _, err := skewProbe(true, 0, routes)
		if err != nil {
			t.Fatal(err)
		}
		conPar, _, _, _, err := skewProbe(true, 4, routes)
		if err != nil {
			t.Fatal(err)
		}
		if parTasks == 0 {
			t.Fatalf("disjoint workload formed no waves")
		}
		if par >= 2*serial && conPar >= 0.9*conSerial {
			t.Logf("disjoint %.0f → %.0f calls/s (%.1fx); conflicting %.0f → %.0f (%.2fx)",
				serial, par, par/serial, conSerial, conPar, conPar/conSerial)
			return
		}
		if attempt == 3 {
			t.Fatalf("skew shape off: disjoint %.0f → %.0f (want ≥2x), conflicting %.0f → %.0f (want ≥0.9x)",
				serial, par, conSerial, conPar)
		}
	}
}
