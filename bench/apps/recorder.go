package apps

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sstore/internal/pe"
)

// Span is one timed interval of the trace. Generator and server spans
// share one ID scheme so they nest without the two processes talking:
// the generator's span for batch b has ID RootID(b) and the server's
// span for the k-th procedure of the workflow has ID RootID(b)+2+k
// with Parent RootID(b). Times are wall-clock microseconds; both
// processes run on one host.
type Span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Batch   int64  `json:"batch"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
}

// SampleEvery is the share of batches whose spans are kept: a
// saturation phase admits tens of thousands of batches a second, and a
// span per procedure body for all of them would turn the trace file
// into the workload. Totals (Recorder.Totals) still cover every call.
const SampleEvery = 16

// Sampled reports whether batch id carries spans.
func Sampled(batchID int64) bool { return batchID > 0 && batchID%SampleEvery == 0 }

// RootID is the generator's span ID for a batch; IDs RootID+1 …
// RootID+7 belong to that batch's children.
func RootID(batchID int64) int64 { return batchID * 8 }

// Recorder accumulates stored-procedure body time. It is switched on
// only for the traced run: while off, wrapped bodies cost one atomic
// load.
type Recorder struct {
	on    atomic.Bool
	ns    atomic.Int64
	calls atomic.Int64

	mu    sync.Mutex
	spans []Span
}

// Enable switches recording on or off.
func (r *Recorder) Enable(on bool) { r.on.Store(on) }

// Totals returns the summed body time and the number of bodies timed
// since the recorder was created.
func (r *Recorder) Totals() (ns, calls int64) { return r.ns.Load(), r.calls.Load() }

// Spans returns the sampled spans recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// wrap returns sp with its body timed; k is the procedure's position
// in the app (its span-ID offset). A nil recorder returns sp as is.
func (r *Recorder) wrap(sp *pe.StoredProc, k int) *pe.StoredProc {
	if r == nil {
		return sp
	}
	body, name := sp.Func, "sp."+sp.Name
	wrapped := *sp
	wrapped.Func = func(ctx *pe.ProcCtx) error {
		if !r.on.Load() {
			return body(ctx)
		}
		start := time.Now()
		err := body(ctx)
		end := time.Now()
		r.ns.Add(int64(end.Sub(start)))
		r.calls.Add(1)
		if b := ctx.BatchID(); Sampled(b) {
			r.mu.Lock()
			r.spans = append(r.spans, Span{
				ID: RootID(b) + 2 + int64(k), Parent: RootID(b), Name: name, Batch: b,
				StartUs: start.UnixMicro(), EndUs: end.UnixMicro(),
			})
			r.mu.Unlock()
		}
		return err
	}
	return &wrapped
}

// Stat is benchd's reply to the harness's stat command: what the wire
// protocol's Stats op does not carry.
type Stat struct {
	CPUNs      int64  `json:"cpu_ns"`
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	SPNs       int64  `json:"sp_ns"`
	SPCalls    int64  `json:"sp_calls"`
}

// ProcessCPU is the calling process's user+system CPU time. getrusage
// sums it from the scheduler's nanosecond accounting; /proc/<pid>/stat
// would round the same number to 10 ms ticks, coarser than a paced
// phase's whole CPU use on the logging workload.
func ProcessCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
