package main

import (
	"sort"

	"github.com/neuro-c/neuroc/internal/obs"
)

// median of xs (the mean of the two middle values for an even count);
// 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileUS is the exact nearest-rank q-quantile of nanosecond
// samples, in µs.
func percentileUS(samples []int64, q float64) float64 {
	s := make([]uint64, len(samples))
	for i, v := range samples {
		s[i] = uint64(v)
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(obs.Percentile(s, q)) / 1e3
}

// boardPercentileUS is the q-quantile of the per-inference host times
// of each farm board, averaged over the boards, in µs. Pooling the
// boards' samples instead puts the median at the seam between two boards
// that the shared host runs at different speeds, where it jumps with the
// share of items each board happened to take.
func boardPercentileUS(byBoard [][]int64, q float64) float64 {
	var sum float64
	n := 0
	for _, d := range byBoard {
		if len(d) > 0 {
			sum += percentileUS(d, q)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// passLatency collects per-inference host times by board and keeps the
// percentiles of every pass. A run reports the median over its passes,
// so a burst of host interference during one pass does not move it.
type passLatency struct {
	byBoard       [][]int64
	p50, p90, p99 []float64
	// fewest is the smallest number of samples one board had in a pass.
	fewest int
}

func newPassLatency(boards int) *passLatency {
	return &passLatency{byBoard: make([][]int64, boards), fewest: -1}
}

func (l *passLatency) add(board int, ns int64) { l.byBoard[board] = append(l.byBoard[board], ns) }

// endPass closes the current pass.
func (l *passLatency) endPass() {
	l.p50 = append(l.p50, boardPercentileUS(l.byBoard, 0.50))
	l.p90 = append(l.p90, boardPercentileUS(l.byBoard, 0.90))
	l.p99 = append(l.p99, boardPercentileUS(l.byBoard, 0.99))
	for i, d := range l.byBoard {
		if l.fewest < 0 || len(d) < l.fewest {
			l.fewest = len(d)
		}
		l.byBoard[i] = d[:0]
	}
}

// tailQuantile is the highest of p50, p90, p99 and p99.9 that has at
// least ten of n samples beyond it, so a reported tail rests on more
// than a few outliers; 0 when not even the median has.
func tailQuantile(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if float64(n)*(1-q) >= 10-1e-9 {
			best = q
		}
	}
	return best
}

// failedRatio is failed operations over attempted ones. A run that
// attempted nothing verified nothing, so it counts as wholly failed
// rather than as a clean zero.
func failedRatio(failed, attempted int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// ratePer is count over seconds, 0 when no time elapsed.
func ratePer(count, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return count / seconds
}
