package bench

import (
	"math"
	"sort"
	"time"
)

// quantile returns the p-quantile (0 ≤ p ≤ 1) of vals by linear
// interpolation between order statistics; NaN for no values. It sorts
// a copy.
func quantile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	k := p * float64(len(s)-1)
	lo := int(k)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(k-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// ratio is a/b, or 0 when b is 0 (a count that did not move).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// satChunks is how many pieces a saturation phase is cut into.
const satChunks = 150

// satRate turns a saturation phase's ack instants into batches/s: the
// phase is cut into satChunks runs of equally many acks, each run's
// rate is its count over the time it took, and the median run is the
// answer. On this host total/elapsed swings with every stall of the VM;
// the median run does not count the stalls (measured: 15 % against 7 %
// run to run). Equal counts rather than equal times keep the value
// continuous on a workload that acknowledges 17 batches in 100 ms.
func satRate(ackAt []time.Duration) float64 {
	size := max(1, len(ackAt)/satChunks)
	var rates []float64
	for lo := 0; lo+size < len(ackAt); lo += size {
		if took := ackAt[lo+size] - ackAt[lo]; took > 0 {
			rates = append(rates, float64(size)/took.Seconds())
		}
	}
	return median(rates)
}
