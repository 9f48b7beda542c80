package client

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"sstore"
	"sstore/internal/wire"
)

// overloadedServer is a minimal wire-speaking endpoint that rejects
// every ingest with StatusOverloaded and the given retry-after hint,
// counting attempts — the shape of a border pinned at MaxQueueDepth.
func overloadedServer(t *testing.T, hint time.Duration) (addr string, attempts *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	attempts = &atomic.Int64{}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				// Protocol handshake: both sides lead with magic+version.
				if _, err := c.Write(wire.AppendHello(nil)); err != nil {
					return
				}
				br := bufio.NewReader(c)
				if err := wire.ReadHello(br); err != nil {
					return
				}
				for {
					payload, err := wire.ReadFrameBuf(br, nil)
					if err != nil {
						return
					}
					req, err := wire.DecodeRequest(payload)
					if err != nil {
						return
					}
					attempts.Add(1)
					frame := wire.AppendResponse(nil, &wire.Response{
						ID: req.ID, Op: req.Op, Status: wire.StatusOverloaded,
						Partition:        0,
						Depth:            1,
						RetryAfterMicros: uint64(hint.Microseconds()),
					})
					if _, err := c.Write(frame); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String(), attempts
}

// TestIngestRetryBudget: the bounded retry option stops after
// MaxAttempts, returning an error that still matches ErrOverloaded.
func TestIngestRetryBudget(t *testing.T) {
	addr, attempts := overloadedServer(t, 100*time.Microsecond)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := &sstore.Batch{ID: 1, Rows: []sstore.Row{{sstore.Int(1)}}}
	err = c.IngestRetryOpts("s", b, RetryOptions{MaxAttempts: 3})
	if err == nil {
		t.Fatal("want error after exhausted budget")
	}
	if !errors.Is(err, sstore.ErrOverloaded) {
		t.Errorf("budget error should still match ErrOverloaded: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
}

// TestIngestRetryDeadline: a deadline in the near past stops the loop
// after the first rejection instead of sleeping.
func TestIngestRetryDeadline(t *testing.T) {
	addr, attempts := overloadedServer(t, time.Hour) // hint would sleep ~forever
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := &sstore.Batch{ID: 1, Rows: []sstore.Row{{sstore.Int(1)}}}
	start := time.Now()
	err = c.IngestRetryOpts("s", b, RetryOptions{Deadline: time.Now().Add(50 * time.Millisecond)})
	if err == nil {
		t.Fatal("want deadline error")
	}
	if !errors.Is(err, sstore.ErrOverloaded) {
		t.Errorf("deadline error should match ErrOverloaded: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline loop slept %v despite a 50ms deadline and 1h hint", elapsed)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("server saw %d attempts, want 1", got)
	}
}

// TestJitterWaitSpreads: the backoff is jittered ±50% around the hint
// — never the exact synchronized hint for a whole cohort — and stays
// within (hint/2, hint*3/2).
func TestJitterWaitSpreads(t *testing.T) {
	const hint = 10 * time.Millisecond
	lo, hi := hint/2, hint*3/2
	seen := map[time.Duration]bool{}
	for i := 0; i < 200; i++ {
		w := jitterWait(hint)
		if w < lo || w >= hi {
			t.Fatalf("jitterWait(%v) = %v outside [%v, %v)", hint, w, lo, hi)
		}
		seen[w] = true
	}
	if len(seen) < 50 {
		t.Errorf("jitter produced only %d distinct waits in 200 draws — cohort would stampede", len(seen))
	}
	if jitterWait(0) != 0 {
		t.Error("zero hint should not sleep")
	}
}

// ackServer is an in-process endpoint that acknowledges every request
// as an ingest commit, reusing its buffers so that it allocates nothing
// per request: every malloc a round trip counts is the client's.
func ackServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := c.Write(wire.AppendHello(nil)); err != nil {
			return
		}
		br := bufio.NewReader(c)
		if err := wire.ReadHello(br); err != nil {
			return
		}
		var scratch, out []byte
		for {
			payload, err := wire.ReadFrameBuf(br, scratch)
			scratch = payload
			if err != nil {
				return
			}
			id, _ := binary.Uvarint(payload)
			out = wire.AppendResponse(out[:0], &wire.Response{ID: id, Op: wire.OpIngest, Status: wire.StatusOK})
			if _, err := c.Write(out); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestIngestAsyncRoundTripMallocs bounds the client's mallocs per
// pipelined ingest round trip on a warm connection: the ack channel,
// its completion and the decoded response, with no goroutine or frame
// allocated per request.
func TestIngestAsyncRoundTripMallocs(t *testing.T) {
	c, err := Dial(ackServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := &sstore.Batch{ID: 1, Rows: []sstore.Row{{sstore.Int(1)}}}
	roundTrip := func() {
		ack, err := c.IngestAsync("s", b)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-ack; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		roundTrip()
	}
	n := testing.AllocsPerRun(5000, roundTrip)
	t.Logf("%.1f mallocs per IngestAsync round trip", n)
	if n > 6 {
		t.Errorf("IngestAsync round trip costs %.1f mallocs, want <= 6", n)
	}
}
