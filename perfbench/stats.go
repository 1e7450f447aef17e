package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// samples collects per-operation latencies from many goroutines.
type samples struct {
	mu sync.Mutex
	ms []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ms = append(s.ms, float64(d)/float64(time.Millisecond))
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.ms...)
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks, or NaN for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// supports reports whether a run of n samples leaves at least ten
// beyond the q-quantile, the floor below which a tail percentile is
// noise rather than a measurement.
func supports(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
