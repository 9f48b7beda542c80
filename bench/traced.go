package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sstore/bench/apps"
	"sstore/client"
)

// traced is the traced run: the per-layer metrics and trace.json. The
// served part is shorter than the untraced run's and split so tracing's
// own cost shows: warm-up → saturation untraced → saturation traced →
// paced traced. The layer replays and the in-process engine run
// follow, all inside this process. End-to-end metrics never come from
// here.
func (r *run) traced() error {
	r.values["host.nproc"] = float64(runtime.NumCPU())
	r.values["host.spin_ms"] = spinMs()
	tmpfs, err := onTmpfs(r.dir)
	if err != nil {
		return err
	}
	r.values["host.state_on_tmpfs"] = 0
	if tmpfs {
		r.values["host.state_on_tmpfs"] = 1
	}

	if err := r.recoveryLayers(); err != nil {
		return fmt.Errorf("recovery layers: %w", err)
	}
	r.logf("recovery %.3f s of which empty start %.3f s; checkpoint %.3f s", r.values["recovery.recovery_s"], r.values["recovery.empty_start_s"], r.values["checkpoint.duration_s"])

	ackP50Us, err := r.tracedServed()
	if err != nil {
		return err
	}

	for _, step := range []struct {
		name string
		fn   func() error
	}{
		{"wire", r.wireReplay}, {"ee", r.eeReplay}, {"storage", r.storageReplay},
		{"wal", r.walReplay}, {"bufferpool", r.poolReplay},
		{"pe", func() error { return r.peInproc(time.Duration(r.o.Seconds) * time.Second / 10) }},
	} {
		if err := step.fn(); err != nil {
			return fmt.Errorf("%s replay: %w", step.name, err)
		}
		r.logf("%s replay done", step.name)
	}
	r.values["server.front_door_us"] = ackP50Us - r.values["pe.inproc_ack_p50_us"]
	r.values["host.spin_after_ms"] = spinMs()
	r.values["ok_share"] = 0
	if r.firstErr == nil && r.attempted > 0 {
		r.values["ok_share"] = float64(r.attempted-r.failed) / float64(r.attempted)
	}
	return nil
}

// counters is everything read before and after the traced paced phase.
type counters struct {
	stat   apps.Stat
	proc   procCounters
	engine client.Stats
	selfNs time.Duration
	logB   int64
}

func (r *run) readCounters(srv *server, s *session) (counters, error) {
	var c counters
	var err error
	if c.stat, err = srv.stat(); err != nil {
		return c, err
	}
	if c.proc, err = readProcCounters(srv.pid()); err != nil {
		return c, err
	}
	if c.engine, err = s.rd.Stats(); err != nil {
		return c, err
	}
	c.selfNs = apps.ProcessCPU()
	if r.o.Workload.Log != "none" {
		c.logB, err = dirBytes(r.servedDir)
	}
	return c, err
}

// tracedServed runs the served phases of the traced run and derives
// the client.*, server.*, ee.sp_*, wal.*_per_batch and trace.* metrics.
// It returns the traced paced phase's ack p50, which the front-door
// metric is the served side of.
func (r *run) tracedServed() (ackP50Us float64, err error) {
	w := r.o.Workload
	total := time.Duration(r.o.Seconds) * time.Second
	satDur, pacedDur := total*3/20, total/4
	spansPath := filepath.Join(r.dir, "server-spans.json")
	srv, s, _, err := r.setup(spansPath)
	if err != nil {
		return 0, err
	}
	defer srv.kill()
	defer s.close()
	s.tr = &tracer{}
	stopReader := s.startReader(w.ReadRate, r.o.Seed)
	fail := func(err error) (float64, error) {
		stopReader()
		return 0, err
	}
	if _, err := s.saturate(func(sent int, _ time.Duration) bool { return sent >= w.WarmBatches && s.f.steady() }); err != nil {
		return fail(err)
	}
	untraced, err := s.saturate(func(_ int, el time.Duration) bool { return el >= satDur })
	if err != nil {
		return fail(err)
	}
	if err := srv.command("trace on"); err != nil {
		return fail(err)
	}
	s.tr.on.Store(true)
	sat, err := s.saturate(func(_ int, el time.Duration) bool { return el >= satDur })
	if err != nil {
		return fail(err)
	}
	before, err := r.readCounters(srv, s)
	if err != nil {
		return fail(err)
	}
	release, err := splitCPUs(srv.pid())
	if err != nil {
		return fail(fmt.Errorf("splitting the CPUs: %w", err))
	}
	paced, err := s.paced(w.PacedRate, pacedDur)
	release()
	if err != nil {
		return fail(err)
	}
	after, err := r.readCounters(srv, s)
	if err != nil {
		return fail(err)
	}
	ph := &served{sat: sat, paced: paced, reads: stopReader()}
	ph.summarize(nil, min(time.Second, pacedDur/4))
	if err := ph.pacerGuard(w.PacedRate); err != nil {
		return 0, err
	}

	batches := float64(len(paced.sched))
	per := func(delta float64) float64 { return delta / batches }
	cpuUs := per(float64(after.stat.CPUNs-before.stat.CPUNs) / 1e3)
	spUs := per(float64(after.stat.SPNs-before.stat.SPNs) / 1e3)
	v := r.values
	v["client.paced_ack_p99_ms"] = quantile(paced.ackUs, 0.99) / 1e3
	v["client.read_p99_ms"] = quantile(ph.pacedReadsUs, 0.99) / 1e3
	v["client.sat_ack_p50_ms"] = median(sat.ackUs) / 1e3
	v["client.late_p50_ms"] = ph.lateP50Us / 1e3
	v["client.late_p99_ms"] = quantile(paced.lateUs, 0.99) / 1e3
	v["client.send_us"] = median(paced.sendUs)
	v["client.cpu_us_per_batch"] = per(float64((after.selfNs - before.selfNs).Microseconds()))
	v["client.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	v["server.gomaxprocs"] = float64(after.stat.GOMAXPROCS)
	v["server.traced_cpu_us_per_batch"] = cpuUs
	v["server.syscalls_per_batch"] = per(float64(after.proc.syscalls - before.proc.syscalls))
	v["server.ctxsw_per_batch"] = per(float64(after.proc.ctxsw - before.proc.ctxsw))
	v["server.read_bytes_per_batch"] = per(float64(after.proc.readBytes - before.proc.readBytes))
	v["server.write_bytes_per_batch"] = per(float64(after.proc.writeBytes - before.proc.writeBytes))
	v["server.mallocs_per_batch"] = per(float64(after.stat.Mallocs - before.stat.Mallocs))
	v["ee.sp_body_us_per_batch"] = spUs
	v["ee.sp_share"] = ratio(spUs, cpuUs)
	syncs := float64(after.engine.LogSyncs - before.engine.LogSyncs)
	v["wal.bytes_per_batch"] = per(float64(after.logB - before.logB))
	v["wal.appends_per_batch"] = per(float64(after.engine.LogAppends - before.engine.LogAppends))
	v["wal.syncs_per_batch"] = per(syncs)
	v["wal.batches_per_sync"] = ratio(batches, syncs)
	v["trace.overhead_share"] = ratio(satRate(untraced.ackAt)-satRate(sat.ackAt), satRate(untraced.ackAt))
	r.logf("traced: saturation %.0f → %.0f batches/s with tracing on; paced ack p50 %.3f ms p99 %.3f ms; SP bodies %.1f of %.1f µs CPU/batch",
		satRate(untraced.ackAt), satRate(sat.ackAt), ph.ackP50Us/1e3, v["client.paced_ack_p99_ms"], spUs, cpuUs)

	// No crash here (the untraced run does that): benchd writes its
	// spans when asked to quit.
	if err := r.finish(srv, s, false); err != nil {
		return 0, err
	}
	if err := srv.quit(); err != nil {
		return 0, err
	}
	data, err := os.ReadFile(spansPath)
	if err != nil {
		return 0, err
	}
	var serverSpans []apps.Span
	if err := json.Unmarshal(data, &serverSpans); err != nil {
		return 0, err
	}
	return ph.ackP50Us, r.writeTrace(append(s.tr.spans, serverSpans...))
}

// writeTrace writes trace.json: every span, roots before children, and
// only spans whose parent is present (a server span of a batch whose
// ack fell outside the traced phases has none and is dropped).
func (r *run) writeTrace(spans []apps.Span) error {
	present := make(map[int64]bool, len(spans))
	for _, sp := range spans {
		present[sp.ID] = true
	}
	kept := spans[:0]
	for _, sp := range spans {
		if sp.Parent == 0 || present[sp.Parent] {
			kept = append(kept, sp)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].StartUs != kept[j].StartUs {
			return kept[i].StartUs < kept[j].StartUs
		}
		return kept[i].ID < kept[j].ID
	})
	return WriteJSON(filepath.Join(r.o.Dir, "trace.json"), struct {
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Sampled  int         `json:"sampled_one_batch_in"`
		Spans    []apps.Span `json:"spans"`
	}{r.o.Workload.Name, r.o.Seed, apps.SampleEvery, kept})
}
