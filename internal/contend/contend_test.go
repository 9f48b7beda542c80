package contend

import (
	"runtime"
	"testing"
	"time"
)

// TestSpinStops: the spinners run until stop, and stop returns once
// every one of them has exited (each adds its state to sink on exit).
func TestSpinStops(t *testing.T) {
	before, g := sink.Load(), runtime.NumGoroutine()
	stop := Spin(3)
	if n := runtime.NumGoroutine(); n < g+3 {
		t.Fatalf("%d goroutines while spinning, want at least %d", n, g+3)
	}
	done := make(chan struct{})
	go func() {
		stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stop did not return")
	}
	if sink.Load() == before {
		t.Fatal("stop returned before the spinners exited")
	}
}
