package experiments

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestLatencyRecorderPercentiles(t *testing.T) {
	r := &latencyRecorder{}
	if r.Percentile(99) != 0 {
		t.Error("empty recorder should report zero")
	}
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i) * time.Millisecond)
	}
	if len(r.samples) != 100 {
		t.Errorf("count = %d", len(r.samples))
	}
	if got := r.Percentile(50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := r.Percentile(99); got != 99*time.Millisecond {
		t.Errorf("p99 = %v", got)
	}
	if got := r.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("p100 = %v", got)
	}
}

func TestLatencyRecorderConcurrent(t *testing.T) {
	r := &latencyRecorder{}
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 1000; i++ {
				r.Record(time.Millisecond)
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if len(r.samples) != 4000 {
		t.Errorf("count = %d", len(r.samples))
	}
}

func TestOpenLoopCompletesAll(t *testing.T) {
	var inflight atomic.Int64
	res, err := openLoop(2000, 100*time.Millisecond, func(done func()) error {
		inflight.Add(1)
		go func() {
			time.Sleep(time.Millisecond)
			inflight.Add(-1)
			done()
		}()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if inflight.Load() != 0 {
		t.Error("openLoop returned before all requests completed")
	}
	// ~200 expected at 2000/s over 100ms; allow generous slack for
	// scheduler jitter.
	if res.Completed < 100 || res.Completed > 260 {
		t.Errorf("completed = %d, want ≈200", res.Completed)
	}
	if res.Throughput <= 0 {
		t.Errorf("throughput = %v", res.Throughput)
	}
	if len(res.Latency.samples) == 0 {
		t.Error("latencies not recorded")
	}
	if _, err := openLoop(0, time.Millisecond, func(func()) error { return nil }); err == nil {
		t.Error("zero rate should be rejected")
	}
}

func TestMeasureRate(t *testing.T) {
	n := 0
	rate, err := measureRate(50*time.Millisecond, func() error {
		n++
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rate < 300 || rate > 1100 {
		t.Errorf("rate = %v, want ≈1000 for 1ms ops", rate)
	}
	if n == 0 {
		t.Error("fn never ran")
	}
}

func TestTablePrint(t *testing.T) {
	tb := newTable("name", "value")
	tb.addRow("short", 1)
	tb.addRow("a-much-longer-name", 2.5)
	var sb strings.Builder
	tb.Print(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[3], "2.5") {
		t.Errorf("float row = %q", lines[3])
	}
	// Columns aligned: every line same display width for first column.
	if len(lines[1]) < len("a-much-longer-name") {
		t.Errorf("separator too short: %q", lines[1])
	}
}
