// Package quant implements the error-controlled quantization encoder of the
// SZ-1.4 paper (Section IV-A, Fig. 2) and its adaptive interval scheme
// (Section IV-B).
//
// Given a first-phase predicted value p, the real value x is assigned to
// one of 2^m−1 uniform intervals of width 2·eb centred on the second-phase
// predicted values p + 2·eb·i, i ∈ [−(2^(m−1)−1), 2^(m−1)−1]. A value in
// interval i reconstructs as p + 2·eb·i, so the compression error is always
// strictly controlled by eb. Values outside every interval are
// "unpredictable" and receive the reserved code 0.
//
// Unlike the vector quantization of NUMARCK/SSEM, intervals here are
// uniform and fixed-width — that is precisely what makes the error bound
// hold pointwise (see the paper's uniformity / error-control discussion).
package quant

import (
	"fmt"
	"math"
)

// MinBits and MaxBits bound the quantization code width m.
// m=2 gives 3 intervals; m=16 gives 65535 intervals (the largest setting
// used in the paper's Fig. 4).
const (
	MinBits = 2
	MaxBits = 16
)

// UnpredictableCode is the reserved quantization code for values that fall
// outside every interval.
const UnpredictableCode = 0

// Quantizer maps (real, predicted) pairs to quantization codes and back.
type Quantizer struct {
	eb     float64 // absolute error bound
	m      int     // code width in bits
	radius int     // 2^(m-1) - 1: max |interval offset|
	center int     // 2^(m-1): code of offset 0
}

// New returns a Quantizer with 2^m − 1 intervals and absolute bound eb.
func New(eb float64, m int) (*Quantizer, error) {
	if !(eb > 0) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("quant: error bound %v must be positive and finite", eb)
	}
	if m < MinBits || m > MaxBits {
		return nil, fmt.Errorf("quant: interval bits m=%d out of range [%d,%d]", m, MinBits, MaxBits)
	}
	c := 1 << (m - 1)
	return &Quantizer{eb: eb, m: m, radius: c - 1, center: c}, nil
}

// ErrorBound returns the absolute error bound.
func (q *Quantizer) ErrorBound() float64 { return q.eb }

// Bits returns the code width m.
func (q *Quantizer) Bits() int { return q.m }

// NumIntervals returns the interval count 2^m − 1.
func (q *Quantizer) NumIntervals() int { return 2*q.radius + 1 }

// NumCodes returns the alphabet size 2^m (intervals + unpredictable code).
func (q *Quantizer) NumCodes() int { return 1 << q.m }

// CenterCode returns the code assigned to a perfect prediction (offset 0).
func (q *Quantizer) CenterCode() int { return q.center }

// Quantize returns the code for real value x against prediction pred, and
// the reconstructed (decompressed) value. ok reports whether x was
// predictable; when ok is false the code is UnpredictableCode and recon is
// undefined (the caller must store x via binary-representation analysis).
//
// The interval index rounds (x − pred)/2eb half away from zero, through
// Round; core's fused kernels spell out the same operations in the same
// order, so both produce the same codes.
func (q *Quantizer) Quantize(x, pred float64) (code int, recon float64, ok bool) {
	diff := x - pred
	if math.IsNaN(diff) || math.IsInf(diff, 0) {
		return UnpredictableCode, 0, false
	}
	// Index of the interval whose centre p + 2·eb·i is nearest to x.
	fi := diff / (2 * q.eb)
	if fi > float64(q.radius)+0.5 || fi < -(float64(q.radius)+0.5) {
		return UnpredictableCode, 0, false
	}
	i := int(Round(fi))
	if i > q.radius || i < -q.radius {
		return UnpredictableCode, 0, false
	}
	recon = pred + 2*q.eb*float64(i)
	// Guard against floating-point rounding at interval edges: the
	// reconstruction must honour the bound exactly, not just in theory.
	if math.Abs(x-recon) > q.eb {
		return UnpredictableCode, 0, false
	}
	return q.center + i, recon, true
}

// Round returns x rounded to the nearest integer, halves away from zero:
// math.Round bit for bit on every float64, NaN, ±Inf, ±0, ties and
// |x| ≥ 2^52 included. On amd64, math.Round is integer bit manipulation
// that branches on the exponent of x, while math.RoundToEven is an
// intrinsic (one ROUNDSD where the CPU has SSE4.1), and Round inlines.
// The two roundings differ only on a tie whose even neighbour lies toward
// zero.
// x − RoundToEven(x) is exact (the rounded value is 0 or within a factor
// of two of x), so a tie shows as a difference of exactly ±0.5, and
// x ± 0.5 is then the exact integer away from zero.
func Round(x float64) float64 {
	r := math.RoundToEven(x)
	if math.Abs(x-r) == 0.5 {
		r = x + math.Copysign(0.5, x)
	}
	return r
}

// Reconstruct maps a predictable code back to its value given the same
// prediction the encoder used.
func (q *Quantizer) Reconstruct(code int, pred float64) (float64, error) {
	if code == UnpredictableCode {
		return 0, fmt.Errorf("quant: code 0 is the unpredictable escape, not a value code")
	}
	if code < 1 || code >= q.NumCodes() {
		return 0, fmt.Errorf("quant: code %d out of range [1,%d)", code, q.NumCodes())
	}
	return pred + 2*q.eb*float64(code-q.center), nil
}

// --- adaptive interval scheme (Section IV-B) ---------------------------------

// DefaultHitRateThreshold is θ from the paper: when the prediction hitting
// rate falls below it, the compressor suggests more intervals.
const DefaultHitRateThreshold = 0.9

// Advice is the outcome of the adaptive interval analysis.
type Advice int

const (
	// Keep means the current interval count achieves a hitting rate in the
	// sweet spot: above threshold, and the next smaller m would drop below.
	Keep Advice = iota
	// Increase means the hitting rate is below threshold; the user should
	// raise m (paper Algorithm 1 lines 23–25).
	Increase
	// Decrease means a smaller m would still meet the threshold, so codes
	// are being wasted (paper: "reduce until a further reduction results
	// in a rate smaller than θ").
	Decrease
)

func (a Advice) String() string {
	switch a {
	case Keep:
		return "keep"
	case Increase:
		return "increase"
	case Decrease:
		return "decrease"
	}
	return fmt.Sprintf("Advice(%d)", int(a))
}

// Adapt inspects a histogram of quantization codes produced with width m
// and recommends whether to change m. hist must have length 2^m; hist[0]
// counts unpredictable points.
func Adapt(hist []uint64, m int, threshold float64) (Advice, float64, error) {
	if len(hist) != 1<<m {
		return Keep, 0, fmt.Errorf("quant: histogram size %d != 2^%d", len(hist), m)
	}
	if threshold <= 0 || threshold >= 1 {
		return Keep, 0, fmt.Errorf("quant: threshold %v out of (0,1)", threshold)
	}
	var total, hit uint64
	for c, f := range hist {
		total += f
		if c != UnpredictableCode {
			hit += f
		}
	}
	if total == 0 {
		return Keep, 0, fmt.Errorf("quant: empty histogram")
	}
	rate := float64(hit) / float64(total)
	if rate < threshold {
		if m >= MaxBits {
			return Keep, rate, nil
		}
		return Increase, rate, nil
	}
	if m <= MinBits {
		return Keep, rate, nil
	}
	// Would halving the interval count (m-1) still meet the threshold?
	// Codes within the smaller radius survive; the rest become misses.
	smallRadius := 1<<(m-2) - 1
	center := 1 << (m - 1)
	var smallHit uint64
	for c, f := range hist {
		if c == UnpredictableCode {
			continue
		}
		if off := c - center; off >= -smallRadius && off <= smallRadius {
			smallHit += f
		}
	}
	if float64(smallHit)/float64(total) >= threshold {
		return Decrease, rate, nil
	}
	return Keep, rate, nil
}

// HitRate returns the fraction of predictable codes in a histogram.
func HitRate(hist []uint64) float64 {
	var total, hit uint64
	for c, f := range hist {
		total += f
		if c != UnpredictableCode {
			hit += f
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}
