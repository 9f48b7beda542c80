package main

import (
	"fmt"
	"sync"
	"time"

	"sstore"
	"sstore/client"
)

// runClientBench drives a running sstore-server (-app pipeline) over
// TCP: conns connections, one sensor per connection so each
// connection's batches land on their own partition's ledger,
// batches atomic batches each with up to window in flight. After every
// border commit is acknowledged it quiesces the server (Drain) and
// verifies exactly-once results through Report: each sensor must have
// aggregated exactly batches readings — a lost batch or a re-applied
// duplicate both fail the run.
func runClientBench(addr string, conns, batches, window, sensorBase int) error {
	if conns < 1 || batches < 1 || window < 1 {
		return fmt.Errorf("client mode needs -conns, -batches, -window >= 1")
	}
	fmt.Printf("driving %s: %d conns x %d batches, window %d\n", addr, conns, batches, window)
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(sensor int) {
			defer wg.Done()
			if err := driveConn(addr, sensor, batches, window); err != nil {
				errs <- fmt.Errorf("sensor %d: %w", sensor, err)
			}
		}(sensorBase + i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	elapsed := time.Since(start)
	total := conns * batches
	fmt.Printf("ingested %d batches in %.2fs (%.0f batches/sec)\n",
		total, elapsed.Seconds(), float64(total)/elapsed.Seconds())

	// Verification pass: quiesce, then read back what the workflow
	// aggregated.
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	for i := 0; i < conns; i++ {
		sensor := sensorBase + i
		res, err := c.Call("Report", sstore.Int(int64(sensor)))
		if err != nil {
			return fmt.Errorf("Report(%d): %w", sensor, err)
		}
		if len(res.Rows) != 1 {
			return fmt.Errorf("Report(%d): %d rows, want 1", sensor, len(res.Rows))
		}
		if n := res.Rows[0][2].Int(); n != int64(batches) {
			return fmt.Errorf("sensor %d: %d readings aggregated, want %d (exactly-once violated)", sensor, n, batches)
		}
	}
	st, err := c.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("verified: %d sensors x %d readings aggregated exactly once\n", conns, batches)
	fmt.Printf("server stats: executed=%d aborted=%d overloaded=%d\n",
		st.Executed, st.Aborted, st.Overloaded)
	return nil
}

// driveConn ingests one connection's feed. With window 1 each batch is
// sent synchronously and overload rejections are retried after the
// server's hint; with a larger window, up to window batches are in
// flight and an overload rejection is a hard error (a pipelined retry
// could be rejected as a duplicate once later batches were admitted —
// run window 1 against -max-queue servers).
func driveConn(addr string, sensor, batches, window int) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if window == 1 {
		for id := int64(1); id <= int64(batches); id++ {
			if err := c.IngestRetry("raw_readings", mkBatch(sensor, id)); err != nil {
				return fmt.Errorf("batch %d: %w", id, err)
			}
		}
		return nil
	}
	inflight := make([]<-chan error, 0, window)
	pendingID := make([]int64, 0, window)
	reap := func(keep int) error {
		for len(inflight) > keep {
			if err := <-inflight[0]; err != nil {
				return fmt.Errorf("batch %d: %w", pendingID[0], err)
			}
			inflight = inflight[1:]
			pendingID = pendingID[1:]
		}
		return nil
	}
	for id := int64(1); id <= int64(batches); id++ {
		ack, err := c.IngestAsync("raw_readings", mkBatch(sensor, id))
		if err != nil {
			return fmt.Errorf("batch %d: %w", id, err)
		}
		inflight = append(inflight, ack)
		pendingID = append(pendingID, id)
		if err := reap(window - 1); err != nil {
			return err
		}
	}
	return reap(0)
}

func mkBatch(sensor int, id int64) *sstore.Batch {
	return &sstore.Batch{
		ID:   id,
		Rows: []sstore.Row{{sstore.Int(int64(sensor)), sstore.Int(id % 1000)}},
	}
}
