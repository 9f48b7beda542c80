//go:build race

package pe

// raceDetector reports a -race build, whose instrumentation slows the
// partition several-fold but leaves fsync latency alone, so fewer
// commits fit in each group-commit sync.
const raceDetector = true
