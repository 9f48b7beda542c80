package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sstore"
	"sstore/bench/apps"
	"sstore/client"
)

const (
	// inflight is the closed loop's window: batches pipelined on the
	// one ingest connection before the next send waits for an ack.
	inflight = 64
	// probeEvery: every batch whose ID is a multiple of it is sent a
	// second time, and the server must reject the replay as a duplicate.
	probeEvery = 100
	// preloadBatch is the rows per preload batch.
	preloadBatch = 500
)

// session is the load generator's state against one served benchd: one
// ingest connection (the exactly-once ledger is a high-water mark per
// (stream, partition), so a second ingest connection would have its
// batches rejected as duplicates) and one read connection.
type session struct {
	f       feed
	ing, rd *client.Client
	nextID  int64 // batch IDs, strictly increasing

	attempted, failed atomic.Int64
	errMu             sync.Mutex
	firstErr          error

	// allAcked is set while nothing is in flight, so reads may demand
	// the model's exact answer.
	allAcked atomic.Bool

	tr *tracer // nil unless this is the traced run; set before any load starts
}

func dialSession(addr string, f feed) (*session, error) {
	ing, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	rd, err := client.Dial(addr)
	if err != nil {
		ing.Close()
		return nil, err
	}
	s := &session{f: f, ing: ing, rd: rd}
	s.allAcked.Store(true)
	return s, nil
}

func (s *session) close() {
	s.ing.Close()
	s.rd.Close()
}

// fail counts one failed operation and keeps the first cause.
func (s *session) fail(err error) {
	s.failed.Add(1)
	s.errMu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.errMu.Unlock()
}

// sent is one submitted ingest awaiting its outcome.
type sent struct {
	ack   <-chan error
	id    int64
	at    time.Time     // closed loop: send instant; paced: scheduled instant
	late  time.Duration // paced: how far behind schedule the send started
	probe bool          // a replayed ID: the outcome must be a duplicate rejection
}

// submit sends the next batch (or, for probe, the same ID and rows
// again).
func (s *session) submit(id int64, row sstore.Row, probe bool) (sent, error) {
	s.attempted.Add(1)
	start := time.Now()
	ack, err := s.ing.IngestAsync(s.f.stream(), &sstore.Batch{ID: id, Rows: []sstore.Row{row}})
	if err != nil {
		return sent{}, fmt.Errorf("ingest connection: %w", err)
	}
	if !probe {
		s.tr.sendDone(id, start, time.Now())
	}
	return sent{ack: ack, id: id, at: start, probe: probe}, nil
}

// settle waits for one outcome, checks it, and returns when it arrived.
func (s *session) settle(p sent) time.Time {
	err := <-p.ack
	now := time.Now()
	switch {
	case p.probe:
		if err == nil {
			s.fail(fmt.Errorf("replay of batch %d was accepted, not rejected as duplicate", p.id))
		} else if !strings.Contains(err.Error(), "duplicate") {
			s.fail(fmt.Errorf("replay of batch %d: %w", p.id, err))
		}
	case err != nil:
		s.fail(fmt.Errorf("batch %d: %w", p.id, err))
		s.f.acked()
	default:
		s.f.acked()
		s.tr.acked(p.id, p.at, now)
	}
	return now
}

// preload loads rows through the front door in preloadBatch-row
// batches and waits for the last ack.
func (s *session) preload(rows int) error {
	all := s.f.preload(rows)
	var acks []<-chan error
	for len(all) > 0 {
		n := min(preloadBatch, len(all))
		s.nextID++
		ack, err := s.ing.IngestAsync(s.f.stream(), &sstore.Batch{ID: s.nextID, Rows: all[:n]})
		if err != nil {
			return err
		}
		acks = append(acks, ack)
		all = all[n:]
	}
	for _, ack := range acks {
		if err := <-ack; err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// satResult is what one closed-loop phase measured.
type satResult struct {
	ackAt []time.Duration // when each batch was acknowledged, from the phase's start
	ackUs []float64       // send → ack, every 8th batch
}

// saturate runs the closed loop — inflight batches pipelined, the next
// sent as soon as the oldest is acknowledged — until done says so, then
// collects the outstanding acks.
func (s *session) saturate(done func(sent int, elapsed time.Duration) bool) (satResult, error) {
	var res satResult
	var ring [inflight]sent
	head, n := 0, 0
	start := time.Now()
	reap := func() {
		p := ring[head]
		head, n = (head+1)%inflight, n-1
		now := s.settle(p)
		if p.probe {
			return
		}
		res.ackAt = append(res.ackAt, now.Sub(start))
		if len(res.ackAt)%8 == 0 {
			res.ackUs = append(res.ackUs, float64(now.Sub(p.at).Nanoseconds())/1e3)
		}
	}
	s.allAcked.Store(false)
	var row sstore.Row
	replay := false
	for sentCount := 0; replay || !done(sentCount, time.Since(start)); {
		if n == inflight {
			reap()
		}
		if !replay {
			s.nextID++
			row = s.f.next()
			sentCount++
		}
		p, err := s.submit(s.nextID, row, replay)
		if err != nil {
			return res, err
		}
		ring[(head+n)%inflight] = p
		n++
		replay = !replay && s.nextID%probeEvery == 0
	}
	for n > 0 {
		reap()
	}
	s.allAcked.Store(true)
	return res, nil
}

// pacedResult is what one open-loop phase measured. Offsets are from
// the phase's first scheduled send.
type pacedResult struct {
	sched  []time.Duration // scheduled send instant of each batch
	ackUs  []float64       // scheduled send → ack
	lateUs []float64       // scheduled send → send actually started
	sendUs []float64       // duration of the IngestAsync call
	start  time.Time
}

// paced runs the open loop: batches are due at a fixed rate on an
// absolute schedule, the sender sleeps until each is due (it never
// spins: on two CPUs a spinning pacer takes the server's core), and
// latency counts from the due instant, so a stall is charged to every
// batch it delays.
func (s *session) paced(rate int, dur time.Duration) (pacedResult, error) {
	total := int(dur.Seconds() * float64(rate))
	interval := time.Second / time.Duration(rate)
	res := pacedResult{start: time.Now()}
	// Sized to the number of sends (batches plus replay probes), so the
	// sender never blocks on the settling side.
	queue := make(chan sent, total+total/probeEvery+2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range queue {
			now := s.settle(p)
			if p.probe {
				continue
			}
			res.sched = append(res.sched, p.at.Sub(res.start))
			res.ackUs = append(res.ackUs, float64(now.Sub(p.at).Nanoseconds())/1e3)
			res.lateUs = append(res.lateUs, float64(p.late.Nanoseconds())/1e3)
		}
	}()
	s.allAcked.Store(false)
	var err error
	for i := 0; i < total && err == nil; i++ {
		due := res.start.Add(time.Duration(i) * interval)
		sleepUntil(due)
		s.nextID++
		row := s.f.next()
		var p sent
		if p, err = s.submit(s.nextID, row, false); err != nil {
			break
		}
		res.sendUs = append(res.sendUs, float64(time.Since(p.at).Nanoseconds())/1e3)
		p.late, p.at = p.at.Sub(due), due
		queue <- p
		if s.nextID%probeEvery == 0 {
			if p, err = s.submit(s.nextID, row, true); err == nil {
				queue <- p
			}
		}
	}
	close(queue)
	<-done
	s.allAcked.Store(true)
	return res, err
}

// readSample is one read op: when it was due, how long after that its
// verified answer arrived.
type readSample struct {
	due time.Time
	us  float64
}

// reader issues the workload's read op on the read connection until
// stop is closed, timing each from its due instant. Reads are due at
// seeded exponential intervals averaging 1/rate (Poisson arrivals): on
// a fixed grid the reads keep one phase against the ingest schedule for
// the whole run — always just behind a batch in the partition's queue,
// or never — and which phase is an accident of start-up, so identical
// runs disagreed by 30 %. Reads are synchronous; one that outlasts its
// gap (they do in the saturation phase, queued behind the closed loop's
// batches) makes the next one due at once rather than building a
// backlog. The paced phase, where reads are measured, keeps them well
// inside the gap.
func (s *session) reader(rate int, seed int64, stop <-chan struct{}) []readSample {
	var out []readSample
	rng := rand.New(rand.NewSource(seed))
	mean := float64(time.Second) / float64(rate)
	due := time.Now()
	for i := 0; ; i++ {
		due = due.Add(time.Duration(rng.ExpFloat64() * mean))
		if now := time.Now(); now.After(due) {
			due = now
		}
		sleepUntil(due)
		select {
		case <-stop:
			return out
		default:
		}
		s.attempted.Add(1)
		exact := s.allAcked.Load()
		begin := time.Now()
		err := s.f.read(s.rd, exact)
		end := time.Now()
		// allAcked may have dropped while the read was in flight; an
		// exact check is fair only if it held throughout.
		if err != nil && exact && !s.allAcked.Load() {
			err = nil
		}
		if err != nil {
			s.fail(fmt.Errorf("read: %w", err))
		}
		s.tr.read(int64(i), begin, end)
		out = append(out, readSample{due: due, us: float64(end.Sub(due).Nanoseconds()) / 1e3})
	}
}

// sleepUntil blocks until t. It calls nanosleep directly: the Go
// runtime parks sleeping goroutines in epoll_wait, whose timeout is in
// whole milliseconds, so time.Sleep overshoots a sub-millisecond wait
// by up to a millisecond — more than the latencies being measured.
// nanosleep overshoots by the kernel's ~50 µs timer slack.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the remainder
	}
}

// tracer keeps the generator's spans of the traced run in memory. A
// nil tracer (the untraced run) and one not yet switched on record
// nothing.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []apps.Span
}

func (t *tracer) add(sp apps.Span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// sendDone records the IngestAsync call of a sampled batch, a child of
// the batch's root span.
func (t *tracer) sendDone(id int64, start, end time.Time) {
	if t.recording() && apps.Sampled(id) {
		t.add(apps.Span{ID: apps.RootID(id) + 1, Parent: apps.RootID(id), Name: "client.send",
			Batch: id, StartUs: start.UnixMicro(), EndUs: end.UnixMicro()})
	}
}

// acked records a sampled batch's root span: send (or due instant) to
// commit ack.
func (t *tracer) acked(id int64, start, end time.Time) {
	if t.recording() && apps.Sampled(id) {
		t.add(apps.Span{ID: apps.RootID(id), Name: "client.ingest",
			Batch: id, StartUs: start.UnixMicro(), EndUs: end.UnixMicro()})
	}
}

// read records one read op; reads are roots with IDs apart from any
// batch's.
func (t *tracer) read(seq int64, start, end time.Time) {
	if !t.recording() {
		return
	}
	t.add(apps.Span{ID: -(seq + 1), Name: "client.read", StartUs: start.UnixMicro(), EndUs: end.UnixMicro()})
}
