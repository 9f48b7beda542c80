// Package contend gives tests process-local CPU contention: goroutines
// that spin while a test body runs, so a test that only passes when
// its goroutines happen to be scheduled promptly fails in tier-1 rather
// than on a loaded host. It touches nothing outside the test process.
package contend

import (
	"sync"
	"sync/atomic"
)

// Spin starts n goroutines that burn CPU until the returned stop
// function is called; stop waits for all of them to exit. Tests call
// it with a small n (GOMAXPROCS + 1 keeps every P busy) and defer stop.
//
//lint:allow unused -- test support: wal tests
func Spin(n int) (stop func()) {
	var quit atomic.Bool
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			x := uint64(i) + 1
			for !quit.Load() {
				// A little arithmetic per check, so the loop is work the
				// scheduler must preempt rather than a pure load spin.
				for j := 0; j < 1000; j++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
			}
			sink.Add(x)
		}()
	}
	return func() {
		quit.Store(true)
		wg.Wait()
	}
}

// sink keeps the spinners' arithmetic from being optimized away.
var sink atomic.Uint64
