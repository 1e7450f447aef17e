// Package binrep implements the binary-representation analysis that SZ
// (both 1.1 and 1.4) applies to "unpredictable" data points.
//
// A data point whose real value falls outside every quantization interval
// cannot be represented by a quantization code; SZ instead stores the IEEE
// floating-point value itself, truncated to exactly the precision the error
// bound requires (paper Section IV, line 14 of Algorithm 1, citing [9]).
//
// For a normal value v with unbiased exponent E, keeping the top k mantissa
// bits gives a truncation error < 2^(E-k). Choosing k = E - floor(log2 eb)
// therefore guarantees the absolute error bound eb, and re-centering the
// dropped tail at its midpoint halves the worst case. Values no larger than
// eb collapse to an explicit zero marker, and non-finite values or
// pathological bounds fall back to the raw 64-bit representation.
//
// Wire format per value (MSB-first bits):
//
//	'0'                 truncated: sign(1) exponent(11) k(6) mantissa(k)
//	'10'                zero: reconstructed as 0.0 (valid since |v| ≤ eb)
//	'11'                raw: full 64-bit IEEE value (lossless escape)
package binrep

import (
	"math"

	"repro/internal/bitstream"
)

const (
	tagTrunc = iota
	tagZero
	tagRaw
)

// Encoder writes error-bounded truncated floats to a bitstream.
type Encoder struct {
	W *bitstream.Writer
	// ebExp caches floor(log2(eb)) for the current bound.
	ebExp int
	eb    float64
}

// NewEncoder returns an Encoder that guarantees |decode(v) − v| ≤ eb for
// every encoded value. A non-positive or non-finite eb forces the lossless
// raw escape for all values.
func NewEncoder(w *bitstream.Writer, eb float64) *Encoder {
	e := &Encoder{W: w, eb: eb}
	if eb > 0 && !math.IsInf(eb, 0) {
		e.ebExp = math.Ilogb(eb)
	}
	return e
}

// Encode appends one value and returns the exact value the Decoder will
// reconstruct for it — the compressor feeds that back into its prediction
// array so compressor and decompressor stay bit-for-bit in sync.
func (e *Encoder) Encode(v float64) float64 {
	switch tag, k := e.classify(v); tag {
	case tagRaw:
		e.W.WriteBits(0b11, 2)
		e.W.WriteBits(math.Float64bits(v), 64)
		return v
	case tagZero:
		e.W.WriteBits(0b10, 2)
		return 0
	default:
		bits := math.Float64bits(v)
		e.W.WriteBits(0, 1) // tagTrunc
		e.W.WriteBits(bits>>63, 1)
		e.W.WriteBits(bits>>52, 11)
		e.W.WriteBits(uint64(k), 6)
		if k > 0 {
			e.W.WriteBits((bits&mantMask)>>(52-k), k)
		}
		return truncate(bits, k)
	}
}

// Value returns what Encode(v) returns without writing anything, so a
// compressor can reconstruct an unpredictable point during its scan and
// write the bits afterwards. The Encoder's Writer may be nil.
func (e *Encoder) Value(v float64) float64 {
	switch tag, k := e.classify(v); tag {
	case tagRaw:
		return v
	case tagZero:
		return 0
	default:
		return truncate(math.Float64bits(v), k)
	}
}

// BitsFor returns the number of bits Encode will use for v, without
// writing. Useful for cost models.
func (e *Encoder) BitsFor(v float64) int {
	switch tag, k := e.classify(v); tag {
	case tagRaw:
		return 2 + 64
	case tagZero:
		return 2
	default:
		return 1 + 1 + 11 + 6 + int(k)
	}
}

const mantMask = uint64(1)<<52 - 1

// classify picks v's wire form and, for tagTrunc, the number k of
// mantissa bits kept.
func (e *Encoder) classify(v float64) (tag int, k uint) {
	if e.eb <= 0 || math.IsInf(e.eb, 0) || math.IsNaN(e.eb) ||
		math.IsNaN(v) || math.IsInf(v, 0) {
		return tagRaw, 0
	}
	if math.Abs(v) <= e.eb {
		return tagZero, 0
	}
	exp := int((math.Float64bits(v) >> 52) & 0x7FF)
	if exp == 0 {
		// Subnormal with |v| > eb: eb is below the subnormal threshold, so
		// truncation bookkeeping gets awkward; the raw escape is rare and safe.
		return tagRaw, 0
	}
	return tagTrunc, uint(min(max(exp-1023-e.ebExp, 0), 52))
}

// truncate keeps the top k mantissa bits of the value with IEEE bits
// and re-centers the dropped tail at its midpoint, as Decoder.Decode's
// truncated-value path does.
func truncate(bits uint64, k uint) float64 {
	mant := (bits & mantMask) >> (52 - k) << (52 - k)
	if k < 52 {
		mant |= uint64(1) << (52 - k - 1)
	}
	return math.Float64frombits(bits&^mantMask | mant)
}

// Decoder reads values written by Encoder.
type Decoder struct {
	R *bitstream.Reader
}

// NewDecoder returns a Decoder over r.
func NewDecoder(r *bitstream.Reader) *Decoder { return &Decoder{R: r} }

// Decode reads one value.
func (d *Decoder) Decode() (float64, error) {
	t, err := d.R.ReadBits(1)
	if err != nil {
		return 0, err
	}
	if t == 0 { // truncated
		sign, err := d.R.ReadBits(1)
		if err != nil {
			return 0, err
		}
		exp, err := d.R.ReadBits(11)
		if err != nil {
			return 0, err
		}
		k, err := d.R.ReadBits(6)
		if err != nil {
			return 0, err
		}
		if k > 52 {
			k = 52
		}
		var mant uint64
		if k > 0 {
			top, err := d.R.ReadBits(uint(k))
			if err != nil {
				return 0, err
			}
			mant = top << (52 - uint(k))
		}
		if k < 52 {
			// Midpoint of the dropped tail: halves the worst-case error.
			mant |= uint64(1) << (52 - uint(k) - 1)
		}
		bits := sign<<63 | exp<<52 | mant
		return math.Float64frombits(bits), nil
	}
	t2, err := d.R.ReadBits(1)
	if err != nil {
		return 0, err
	}
	if t2 == 0 { // zero
		return 0, nil
	}
	raw, err := d.R.ReadBits(64)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(raw), nil
}
