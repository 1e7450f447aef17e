// Package core implements the SZ-1.4 error-bounded lossy compressor of
// Tao, Di, Chen and Cappello (IPDPS 2017): multilayer multidimensional
// prediction (Section III), adaptive error-controlled quantization with
// variable-length encoding (Section IV / AEQVE), and binary-representation
// analysis for unpredictable points.
//
// The pipeline per data point, in scan order (lowest dimension fastest):
//
//  1. predict the value from preceding *reconstructed* values with the
//     n-layer predictor — using reconstructed (not original) values is what
//     makes the user error bound hold (paper Section III-B);
//  2. quantize the prediction residual into one of 2^m−1 uniform intervals
//     of width 2·eb, falling back to the unpredictable escape code 0;
//  3. Huffman-encode the quantization codes (alphabet 2^m, m may exceed 8)
//     and store escapes via error-bounded IEEE truncation.
//
// The guarantee |xᵢ − x̃ᵢ| ≤ eb holds for every point, every mode.
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/grid"
	"repro/internal/huffman"
	"repro/internal/quant"
)

// maxStreams caps Params.Streams at the entropy layer's limit.
const maxStreams = huffman.MaxStreams

// Format constants.
const (
	// Magic identifies an SZ-Go stream.
	Magic = "SZGO"
	// Version is the serial stream format version: one Huffman bit
	// stream, codebook and outliers bit-packed back to back.
	Version = 1
	// VersionMulti is the multi-stream format version: the header gains
	// a sub-stream count and a flags byte, and the payload is framed in
	// byte-aligned sections (optional codebook, sub-stream length table,
	// N independent Huffman sub-streams, outliers) so the decoder can
	// run N interleaved decode states. Streams with Streams == 1 and an
	// internal codebook are emitted as Version 1, byte-identical to
	// previous releases.
	VersionMulti = 2
)

// Header flag bits (VersionMulti streams only).
const (
	// flagSharedCodebook marks a payload that omits the codebook: the
	// stream decodes only with an externally supplied codebook (the
	// blocked v3 container's shared per-container codebook section).
	flagSharedCodebook = 1 << 0
)

// DefaultLayers is the paper's default prediction layer count (n = 1, the
// Lorenzo special case; Section III-B: "The default value in our compressor
// is n = 1").
const DefaultLayers = 1

// DefaultIntervalBits is the default quantization code width m (255
// intervals, the paper's reference configuration in Fig. 3).
const DefaultIntervalBits = 8

// BoundMode selects how the effective absolute error bound is derived.
type BoundMode uint8

const (
	// BoundAbs uses AbsBound directly.
	BoundAbs BoundMode = iota + 1
	// BoundRel multiplies RelBound by the data value range (value-range-based
	// relative error, the paper's primary mode).
	BoundRel
	// BoundAbsAndRel enforces both (effective bound = min of the two),
	// matching the paper's "one bound or both" formulation.
	BoundAbsAndRel
)

func (m BoundMode) String() string {
	switch m {
	case BoundAbs:
		return "abs"
	case BoundRel:
		return "rel"
	case BoundAbsAndRel:
		return "abs+rel"
	}
	return fmt.Sprintf("BoundMode(%d)", uint8(m))
}

// Params configures compression.
type Params struct {
	// Mode selects absolute, value-range-relative, or combined bounding.
	Mode BoundMode
	// AbsBound is the absolute error bound eb_abs (Mode Abs or AbsAndRel).
	AbsBound float64
	// RelBound is the value-range-based relative bound eb_rel (Mode Rel or
	// AbsAndRel).
	RelBound float64
	// Layers is the predictor layer count n in [1, 8]; 0 means DefaultLayers.
	Layers int
	// IntervalBits is the quantization code width m in [2, 16]; 2^m−1
	// intervals. 0 means DefaultIntervalBits.
	IntervalBits int
	// HitRateThreshold is θ for the adaptive advice; 0 means
	// quant.DefaultHitRateThreshold.
	HitRateThreshold float64
	// OutputType records the precision of the source data; reconstructions
	// are snapped to it so the bound holds in the source type. 0 means
	// grid.Float64.
	OutputType grid.DType
	// Streams is the number of interleaved Huffman sub-streams per
	// stream (1..huffman.MaxStreams; 0 means 1). One stream keeps the
	// serial Version-1 layout byte-identical to previous releases; more
	// streams switch to the VersionMulti layout, whose decoder overlaps
	// the sub-streams' decode chains for instruction-level parallelism.
	Streams int
	// Stages, when non-nil, receives named sub-stage timings from inside
	// the pipeline (currently "huffbuild" per codebook build). It must be
	// safe for concurrent use: blocked containers compress slabs from
	// many workers, each reporting through the same hook.
	Stages func(name string, d time.Duration)
}

// withDefaults returns a copy with zero fields replaced by defaults.
func (p Params) withDefaults() Params {
	if p.Layers == 0 {
		p.Layers = DefaultLayers
	}
	if p.IntervalBits == 0 {
		p.IntervalBits = DefaultIntervalBits
	}
	if p.HitRateThreshold == 0 {
		p.HitRateThreshold = quant.DefaultHitRateThreshold
	}
	if p.OutputType == 0 {
		p.OutputType = grid.Float64
	}
	if p.Mode == 0 {
		p.Mode = BoundRel
	}
	if p.Streams == 0 {
		p.Streams = 1
	}
	return p
}

// Validate checks parameter consistency (after defaulting).
func (p Params) Validate() error {
	q := p.withDefaults()
	switch q.Mode {
	case BoundAbs:
		if !(q.AbsBound > 0) || math.IsInf(q.AbsBound, 0) {
			return fmt.Errorf("core: AbsBound %v must be positive and finite", q.AbsBound)
		}
	case BoundRel:
		if !(q.RelBound > 0) || q.RelBound >= 1 {
			return fmt.Errorf("core: RelBound %v must be in (0,1)", q.RelBound)
		}
	case BoundAbsAndRel:
		if !(q.AbsBound > 0) || math.IsInf(q.AbsBound, 0) {
			return fmt.Errorf("core: AbsBound %v must be positive and finite", q.AbsBound)
		}
		if !(q.RelBound > 0) || q.RelBound >= 1 {
			return fmt.Errorf("core: RelBound %v must be in (0,1)", q.RelBound)
		}
	default:
		return fmt.Errorf("core: unknown bound mode %v", q.Mode)
	}
	if q.Layers < 1 || q.Layers > 8 {
		return fmt.Errorf("core: Layers %d out of range [1,8]", q.Layers)
	}
	if q.IntervalBits < quant.MinBits || q.IntervalBits > quant.MaxBits {
		return fmt.Errorf("core: IntervalBits %d out of range [%d,%d]",
			q.IntervalBits, quant.MinBits, quant.MaxBits)
	}
	if q.HitRateThreshold <= 0 || q.HitRateThreshold >= 1 {
		return fmt.Errorf("core: HitRateThreshold %v out of (0,1)", q.HitRateThreshold)
	}
	if q.OutputType != grid.Float32 && q.OutputType != grid.Float64 {
		return fmt.Errorf("core: unsupported OutputType %v", q.OutputType)
	}
	if q.Streams < 1 || q.Streams > maxStreams {
		return fmt.Errorf("core: Streams %d out of range [1,%d]", q.Streams, maxStreams)
	}
	return nil
}

// ErrInfiniteRange refuses a value-range-relative bound (BoundRel) over
// a data set whose value range is infinite: it holds ±Inf, or its
// extremes lie too far apart for a float64. No fraction of that range
// bounds the error at any finite point.
var ErrInfiniteRange = errors.New("core: relative bound over an infinite value range")

// EffectiveBound resolves the absolute bound for a data set with the given
// value range (consulted only in the relative modes). Constant data
// (range 0) in relative mode degrades to the smallest positive bound,
// which keeps the quantizer well-defined while the bound stays trivially
// satisfied; an infinite range in BoundRel is ErrInfiniteRange. It is
// the one place a bound mode becomes an absolute bound: the blocked
// container and the absolute-only codecs resolve through it.
func (p Params) EffectiveBound(valueRange float64) (float64, error) {
	var eb float64
	switch p.Mode {
	case BoundAbs:
		eb = p.AbsBound
	case BoundRel:
		if math.IsInf(valueRange, 0) {
			return 0, ErrInfiniteRange
		}
		eb = p.RelBound * valueRange
	case BoundAbsAndRel:
		eb = math.Min(p.AbsBound, p.RelBound*valueRange)
	}
	if eb <= 0 || math.IsNaN(eb) {
		eb = math.SmallestNonzeroFloat64
	}
	return eb, nil
}

// Header describes a compressed stream.
type Header struct {
	Version      uint8
	DType        grid.DType // precision of the source data
	Dims         []int
	AbsBound     float64 // effective absolute bound used
	Layers       int
	IntervalBits int
	NumOutliers  int
	PayloadBits  uint64
	// Streams is the interleaved Huffman sub-stream count (1 for
	// Version-1 streams).
	Streams int
	// SharedCodebook marks a VersionMulti payload that omits its
	// codebook; decoding requires the container-level codebook.
	SharedCodebook bool
}

// N returns the element count.
func (h *Header) N() int {
	n := 1
	for _, d := range h.Dims {
		n *= d
	}
	return n
}

// Stats reports what happened during a compression.
type Stats struct {
	// N is the element count.
	N int
	// Predictable is the number of points representable by a quantization
	// code (paper: N_PH).
	Predictable int
	// HitRate is Predictable/N (paper: R_PH).
	HitRate float64
	// EffAbsBound is the absolute bound actually enforced.
	EffAbsBound float64
	// CompressedBytes is the size of the produced stream.
	CompressedBytes int
	// OriginalBytes is N × sizeof(OutputType).
	OriginalBytes int
	// CompressionFactor is OriginalBytes/CompressedBytes.
	CompressionFactor float64
	// BitRate is CompressedBytes×8/N.
	BitRate float64
	// Histogram counts quantization codes (length 2^m, index 0 = escapes).
	Histogram []uint64
	// Advice is the adaptive-interval recommendation (Section IV-B).
	Advice quant.Advice
	// Stream composition, in bits: the Huffman codebook, the
	// variable-length-coded quantization codes, and the binary-
	// representation outlier data. Their sum plus the fixed header and
	// CRC is the stream size.
	TableBits   uint64
	CodeBits    uint64
	OutlierBits uint64
	// FixedWidthCodeBits is what the code stream would cost without
	// variable-length encoding (m bits per value) — the AEQVE ablation:
	// CodeBits / FixedWidthCodeBits is the VLE gain.
	FixedWidthCodeBits uint64
}

// ErrCorrupt is returned by Decompress for malformed streams.
var ErrCorrupt = errors.New("core: corrupt stream")

// snap rounds a reconstruction to the output precision. Compressor and
// decompressor must apply the identical snap so their reconstruction arrays
// stay bit-for-bit equal (prediction determinism).
func snap(v float64, t grid.DType) float64 {
	if t == grid.Float32 {
		return float64(float32(v))
	}
	return v
}
