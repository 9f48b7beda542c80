// Package bench is the repository's benchmark harness: it builds the
// benchmark's own server binary (bench/cmd/benchd), drives it over
// loopback TCP through the public client package from this one
// load-generator process, checks every answer against a seeded
// reference model, and reports the metrics BENCHMARK.json names.
// bench/README.md has the workloads, the metrics, the predictions and
// the noise protocol.
package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Options selects one run.
type Options struct {
	Workload Workload
	Seed     int64
	// Seconds is the measured time: 5/8 saturation, 3/8 paced.
	Seconds int
	// Trace selects the traced run (per-layer metrics, trace.json)
	// instead of the untraced one (end-to-end metrics).
	Trace bool
	// Dir holds everything the run writes: the benchd binary, the
	// state directories (removed at the end) and trace.json.
	Dir  string
	Spec *Spec
	// CorruptOracle shifts the reference model's expected count by one
	// before the end-of-run check, so a test can show the oracle fails
	// the run when a batch is dropped or applied twice.
	CorruptOracle bool
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// run is one run in progress.
type run struct {
	o      Options
	bin    string
	dir    string
	values map[string]float64

	attempted, failed int64
	firstErr          error

	servedDir string // state directory of the server set-up kept
	began     time.Time
}

// Run executes one run and returns its result. A result with Correct
// false comes with a nil error: the run completed and found the
// program wrong. An error means the run itself could not complete.
func Run(o Options) (*Result, error) {
	if o.Log == nil {
		o.Log = io.Discard
	}
	bin, err := BuildServer(o.Dir)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.Dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{o: o, bin: bin, dir: dir, values: make(map[string]float64), began: time.Now()}
	if o.Workload.Log != "none" {
		if tmpfs, err := onTmpfs(dir); err == nil && tmpfs {
			fmt.Fprintf(os.Stderr, "bench: WARNING: %s is on tmpfs: fsync is free there, so %s measures no logging\n", dir, o.Workload.Name)
		}
	}
	if o.Trace {
		err = r.traced()
	} else {
		err = r.untraced()
	}
	if err != nil {
		return nil, err
	}
	metrics, err := o.Spec.build(o.Trace, r.values)
	if err != nil {
		return nil, err
	}
	if r.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.Workload.Name, r.firstErr)
	}
	return &Result{
		Correct:   r.firstErr == nil && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}, nil
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.o.Log, "  %-14s %5.1fs "+format+"\n", append([]any{r.o.Workload.Name, time.Since(r.began).Seconds()}, args...)...)
}

// wrong records that the program (or the host) failed a check; the run
// goes on so its other numbers are still reported.
func (r *run) wrong(err error) {
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// absorb folds a finished session's operation counts into the run's.
func (r *run) absorb(s *session) {
	r.attempted += s.attempted.Load()
	r.failed += s.failed.Load()
	if s.firstErr != nil {
		r.wrong(s.firstErr)
	}
}

func (r *run) serverOpts(dir, log string) serverOpts {
	return serverOpts{app: r.o.Workload.App, dir: dir, log: log, budget: r.o.Workload.ArchiveBudget}
}

// phases splits the measured seconds between the paced and the
// saturation phase, and says how much of the paced phase's head is
// dropped while queues settle.
func (r *run) phases() (paced, sat, drop time.Duration) {
	total := time.Duration(r.o.Seconds) * time.Second
	sat = total * 5 / 8
	paced = total - sat
	return paced, sat, min(time.Second, paced/4)
}

// --- recovery ---

// writeRecoveryLog feeds the first n batches of the seeded input to a
// benchd logging with SyncNone and closes it cleanly, leaving a command
// log whose length depends on the seed alone. It returns the feed, whose
// model now says what a recovered server must answer.
func (r *run) writeRecoveryLog(dir string, n int) (feed, error) {
	srv, err := startServer(r.bin, r.serverOpts(dir, "nosync"))
	if err != nil {
		return nil, err
	}
	s, err := dialSession(srv.addr, newFeed(r.o.Workload.App, r.o.Seed))
	if err != nil {
		srv.kill()
		return nil, err
	}
	_, err = s.saturate(func(sent int, _ time.Duration) bool { return sent >= n })
	if err == nil {
		err = s.ing.Drain()
	}
	s.close()
	r.absorb(s)
	if err != nil {
		srv.kill()
		return nil, fmt.Errorf("writing recovery log: %w", err)
	}
	return s.f, srv.quit()
}

// recoverOnce starts benchd on an existing log and times exec → first
// verified read. With check set it also runs the full oracle.
func (r *run) recoverOnce(dir, log string, f feed, check bool) (time.Duration, error) {
	srv, err := startServer(r.bin, r.serverOpts(dir, log))
	if err != nil {
		return 0, err
	}
	defer srv.kill()
	s, err := dialSession(srv.addr, f)
	if err != nil {
		return 0, err
	}
	defer s.close()
	r.attempted++
	if err := f.read(s.rd, true); err != nil {
		r.failed++
		r.wrong(fmt.Errorf("first read after recovery: %w", err))
	}
	took := time.Since(srv.start)
	if check {
		if err := f.verify(s.rd); err != nil {
			r.wrong(fmt.Errorf("state after recovery: %w", err))
		}
	}
	return took, nil
}

// measureRecovery writes the fixed log and recovers from it reps times.
func (r *run) measureRecovery(reps int) (secs []float64, logDir string, err error) {
	logDir = filepath.Join(r.dir, "recovery")
	f, err := r.writeRecoveryLog(logDir, r.o.Workload.RecoveryBatches)
	if err != nil {
		return nil, "", err
	}
	for i := 0; i < reps; i++ {
		took, err := r.recoverOnce(logDir, "nosync", f, i == 0)
		if err != nil {
			return nil, "", err
		}
		secs = append(secs, took.Seconds())
	}
	return secs, logDir, nil
}

// --- set-up ---

// setup starts benchd on a fresh state directory and preloads it:
// exec (binary already built) to last preload ack. It repeats — a
// 20 ms set-up is mostly process start-up noise — until a second has
// gone by, five to nine times, and keeps the last server for the run.
func (r *run) setup(spans string) (*server, *session, []float64, error) {
	var secs []float64
	var spent time.Duration
	for i := 0; ; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("served-%d", i))
		so := r.serverOpts(dir, r.o.Workload.Log)
		so.spans = spans
		srv, err := startServer(r.bin, so)
		if err != nil {
			return nil, nil, nil, err
		}
		s, err := dialSession(srv.addr, newFeed(r.o.Workload.App, r.o.Seed))
		if err == nil {
			err = s.preload(r.o.Workload.Preload)
		}
		if err != nil {
			srv.kill()
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(srv.start)
		secs = append(secs, took.Seconds())
		spent += took
		if n := len(secs); n >= 9 || (n >= 5 && spent >= time.Second) || r.o.Trace {
			r.servedDir = dir
			return srv, s, secs, nil
		}
		s.close()
		srv.kill()
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, nil, err
		}
	}
}

// --- the untraced run: end-to-end metrics ---

func (r *run) untraced() error {
	srv, s, setups, err := r.setup("")
	if err != nil {
		return err
	}
	defer srv.kill()
	defer s.close()
	r.values["setup_s"] = median(setups)
	r.logf("set-up: %.3f s (median of %d)", median(setups), len(setups))

	ph, err := r.servedPhases(srv, s)
	if err != nil {
		return err
	}
	r.values["ingest_batches_per_s"] = satRate(ph.sat.ackAt)
	r.values["paced_ack_p50_ms"] = ph.ackP50Us / 1e3
	r.values["read_p50_ms"] = ph.readP50Us / 1e3
	r.values["server_cpu_us_per_batch"] = ph.cpuUsPerBatch
	r.values["server_rss_mb"] = ph.rssMB
	return r.finish(srv, s, true)
}

// served is what the warm-up, saturation and paced phases measured.
type served struct {
	sat           satResult
	paced         pacedResult
	reads         []readSample
	ackP50Us      float64
	readP50Us     float64
	lateP50Us     float64
	cpuUsPerBatch float64
	rssMB         float64
	pacedReadsUs  []float64 // reads due inside the kept part of the paced phase
}

// cpuSample is benchd's CPU time at an instant of the paced phase.
type cpuSample struct {
	at  time.Time
	cpu int64
}

// servedPhases runs warm-up → paced → saturation with the reader going
// throughout. The warm-up is a fixed number of batches and the paced
// phase a fixed rate, so the server has done the same work on every
// commit when its peak RSS is read between the paced and the saturation
// phase; after the saturation phase its state depends on how fast the
// commit is.
func (r *run) servedPhases(srv *server, s *session) (*served, error) {
	paced, sat, drop := r.phases()
	stopReader := s.startReader(r.o.Workload.ReadRate, r.o.Seed)

	warm := r.o.Workload.WarmBatches
	_, err := s.saturate(func(sent int, _ time.Duration) bool { return sent >= warm && s.f.steady() })
	if err != nil {
		stopReader()
		return nil, err
	}

	release, err := splitCPUs(srv.pid())
	if err != nil {
		stopReader()
		return nil, fmt.Errorf("splitting the CPUs: %w", err)
	}
	stopSampler := startCPUSampler(srv, min(time.Second, paced/6))
	ph := &served{}
	ph.paced, err = s.paced(r.o.Workload.PacedRate, paced)
	cpu := stopSampler()
	release()
	if err != nil {
		stopReader()
		return nil, err
	}
	if ph.rssMB, err = peakRSSMB(srv.pid()); err != nil {
		stopReader()
		return nil, err
	}
	ph.sat, err = s.saturate(func(_ int, el time.Duration) bool { return el >= sat })
	ph.reads = stopReader()
	if err != nil {
		return nil, err
	}
	ph.summarize(cpu, drop)
	r.logf("paced at %d/s: ack p50 %.3f ms, read p50 %.3f ms, pacer late p50 %.3f ms, server CPU %.1f µs/batch, peak RSS %.1f MB",
		r.o.Workload.PacedRate, ph.ackP50Us/1e3, ph.readP50Us/1e3, ph.lateP50Us/1e3, ph.cpuUsPerBatch, ph.rssMB)
	r.logf("saturation: %.0f batches/s (median of %d equal-count chunks), %d acked", satRate(ph.sat.ackAt), satChunks, len(ph.sat.ackAt))
	return ph, ph.pacerGuard(r.o.Workload.PacedRate)
}

// ErrPacerLate is the host guard: the generator could not keep the
// paced phase's schedule, so the phase measured the generator.
var ErrPacerLate = errors.New("host guard: the pacer could not keep its schedule")

// pacerGuard fails the run when the sender started its sends, at the
// median, more than half a send interval (or a millisecond) after they
// were due: the host had no CPU for the generator, and every paced
// number would be the pacer's. The threshold is not relative to the
// ack latency — a server that answers faster must not trip it.
func (ph *served) pacerGuard(rate int) error {
	limitUs := min(1e6/float64(rate)/2, 1000)
	if ph.lateP50Us > limitUs {
		return fmt.Errorf("%w: sends started %.0f µs late at the median, limit %.0f µs at %d/s", ErrPacerLate, ph.lateP50Us, limitUs, rate)
	}
	return nil
}

// startReader runs the reader in the background; the returned function
// stops it and returns its samples.
func (s *session) startReader(rate int, seed int64) (stop func() []readSample) {
	quit := make(chan struct{})
	out := make(chan []readSample, 1)
	go func() { out <- s.reader(rate, seed, quit) }()
	return func() []readSample {
		close(quit)
		return <-out
	}
}

// startCPUSampler records benchd's CPU time every interval, and once
// more when stopped. Nothing else may use benchd's control pipe until
// the returned function has been called.
func startCPUSampler(srv *server, every time.Duration) (stop func() []cpuSample) {
	quit := make(chan struct{})
	done := make(chan []cpuSample, 1)
	go func() {
		var out []cpuSample
		sample := func() {
			if st, err := srv.stat(); err == nil {
				out = append(out, cpuSample{at: time.Now(), cpu: st.CPUNs})
			}
		}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			sample()
			select {
			case <-tick.C:
			case <-quit:
				sample()
				done <- out
				return
			}
		}
	}()
	return func() []cpuSample {
		close(quit)
		return <-done
	}
}

// summarize reduces the paced phase's samples, dropping its head.
func (ph *served) summarize(cpu []cpuSample, drop time.Duration) {
	from := ph.paced.start.Add(drop)
	var ack, late []float64
	var ackAt []time.Time
	for i, sched := range ph.paced.sched {
		if sched < drop {
			continue
		}
		ack = append(ack, ph.paced.ackUs[i])
		late = append(late, ph.paced.lateUs[i])
		ackAt = append(ackAt, ph.paced.start.Add(sched+time.Duration(ph.paced.ackUs[i]*1e3)))
	}
	ph.ackP50Us, ph.lateP50Us = median(ack), median(late)
	end := ph.paced.start.Add(ph.paced.sched[len(ph.paced.sched)-1])
	for _, rd := range ph.reads {
		if !rd.due.Before(from) && !rd.due.After(end) {
			ph.pacedReadsUs = append(ph.pacedReadsUs, rd.us)
		}
	}
	ph.readP50Us = median(ph.pacedReadsUs)
	// CPU per batch: per one-second window, benchd's CPU time over the
	// batches acknowledged in it; the median window.
	sort.Slice(ackAt, func(i, j int) bool { return ackAt[i].Before(ackAt[j]) })
	var perBatch []float64
	for i := 1; i < len(cpu); i++ {
		if cpu[i-1].at.Before(from) {
			continue
		}
		lo := sort.Search(len(ackAt), func(k int) bool { return ackAt[k].After(cpu[i-1].at) })
		hi := sort.Search(len(ackAt), func(k int) bool { return ackAt[k].After(cpu[i].at) })
		if hi > lo {
			perBatch = append(perBatch, float64(cpu[i].cpu-cpu[i-1].cpu)/1e3/float64(hi-lo))
		}
	}
	ph.cpuUsPerBatch = median(perBatch)
}

// finish drains the server, runs the end-of-run oracle, and — with
// crash set, on the logging workload — kills the server, restarts it
// from its log and demands every acknowledged batch exactly once.
func (r *run) finish(srv *server, s *session, crash bool) error {
	if err := s.ing.Drain(); err != nil {
		return err
	}
	if r.o.CorruptOracle {
		s.f.corrupt()
	}
	if err := s.f.verify(s.rd); err != nil {
		r.wrong(fmt.Errorf("oracle: %w", err))
	}
	r.absorb(s)
	if !crash || r.o.Workload.Log == "none" {
		return nil
	}
	srv.kill()
	took, err := r.recoverOnce(r.servedDir, r.o.Workload.Log, s.f, true)
	if err != nil {
		return err
	}
	r.logf("SIGKILL → restart → every acknowledged batch exactly once: checked in %.3f s", took.Seconds())
	return nil
}

// HostInfo is the host metadata kept beside a reference result.
type HostInfo struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	Kernel    string `json:"kernel"`
}

// ReadHostInfo describes the host the benchmark is running on.
func ReadHostInfo() HostInfo {
	h := HostInfo{NProc: runtime.NumCPU(), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// Report is a set of results with the host they were measured on: the
// form reference results are committed in under bench/baseline.
type Report struct {
	Host    HostInfo    `json:"host"`
	Seconds int         `json:"seconds"`
	Traced  bool        `json:"traced"`
	Runs    []ReportRun `json:"runs"`
}

// ReportRun is one run of a Report.
type ReportRun struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Result   *Result `json:"result"`
}

// WriteJSON writes v to path, indented.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
