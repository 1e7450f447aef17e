// Package sz is a pure-Go implementation of the SZ-1.4 error-bounded lossy
// compressor for multidimensional scientific floating-point data, from
//
//	Tao, Di, Chen, Cappello: "Significantly Improving Lossy Compression for
//	Scientific Data Sets Based on Multidimensional Prediction and
//	Error-Controlled Quantization", IPDPS 2017.
//
// The compressor predicts every value from its already-reconstructed
// neighbours with an n-layer multidimensional predictor, quantizes the
// residual into 2^m−1 uniform intervals of width twice the error bound,
// Huffman-codes the quantization codes, and stores the rare unpredictable
// values via error-bounded IEEE truncation. The reconstruction error of
// every point is guaranteed within the user's bound.
//
// Basic use:
//
//	a, _ := sz.FromFloat32s(values, 1800, 3600)
//	stream, stats, err := sz.Compress(a, sz.Params{
//		Mode:     sz.BoundRel,
//		RelBound: 1e-4,
//	})
//	...
//	restored, header, err := sz.Decompress(stream)
//
// The internal packages additionally provide the baseline compressors the
// paper evaluates against (GZIP, FPZIP, ZFP, SZ-1.1, ISABELA), the metric
// suite, synthetic data generators, and the experiment harness that
// regenerates every table and figure of the paper (see cmd/szexp).
package sz

import (
	"io"

	"repro/internal/blocked"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/pwrel"
)

// Re-exported core types. Array is the row-major multidimensional
// container; Params/Stats/Header configure and describe compression runs.
type (
	// Array is a dense row-major d-dimensional float64 array.
	Array = grid.Array
	// DType identifies the source element precision.
	DType = grid.DType
	// Params configures compression (bound mode, layers, intervals).
	Params = core.Params
	// Stats reports what a compression run did.
	Stats = core.Stats
	// Header describes a compressed stream.
	Header = core.Header
	// BoundMode selects absolute/relative/combined error bounding.
	BoundMode = core.BoundMode
	// HitRates carries the Table II prediction-hitting-rate pair.
	HitRates = core.HitRates
	// Summary aggregates the paper's quality metrics for a data pair.
	Summary = metrics.Summary
)

// Bound modes.
const (
	// BoundAbs bounds the pointwise absolute error by Params.AbsBound.
	BoundAbs = core.BoundAbs
	// BoundRel bounds the pointwise error by Params.RelBound × value range.
	BoundRel = core.BoundRel
	// BoundAbsAndRel enforces the tighter of the two bounds.
	BoundAbsAndRel = core.BoundAbsAndRel
)

// Element types.
const (
	// Float32 marks single-precision source data.
	Float32 = grid.Float32
	// Float64 marks double-precision source data.
	Float64 = grid.Float64
)

// Defaults.
const (
	// DefaultLayers is the default predictor layer count (n = 1, Lorenzo).
	DefaultLayers = core.DefaultLayers
	// DefaultIntervalBits is the default quantization width (m = 8,
	// 255 intervals).
	DefaultIntervalBits = core.DefaultIntervalBits
)

// NewArray allocates a zero-filled array with the given dimensions
// (slowest-varying first, at most 4).
func NewArray(dims ...int) *Array { return grid.New(dims...) }

// FromData wraps an existing row-major float64 slice without copying.
func FromData(data []float64, dims ...int) (*Array, error) {
	return grid.FromData(data, dims...)
}

// FromFloat32s widens a float32 slice into a new Array. Pair it with
// Params.OutputType = Float32 so reconstructions stay single-precision.
func FromFloat32s(data []float32, dims ...int) (*Array, error) {
	return grid.FromFloat32s(data, dims...)
}

// Compress applies the SZ-1.4 pipeline to a and returns the compressed
// stream and run statistics. Every reconstructed value is guaranteed
// within the effective error bound (Stats.EffAbsBound).
func Compress(a *Array, p Params) ([]byte, *Stats, error) {
	return core.Compress(a, p)
}

// Decompress reconstructs the array from a stream produced by Compress.
func Decompress(stream []byte) (*Array, *Header, error) {
	return core.Decompress(stream)
}

// Inspect parses a stream header without decompressing the payload.
func Inspect(stream []byte) (*Header, error) {
	return core.Inspect(stream)
}

// ProbeHitRates measures the prediction hitting rate on original versus
// reconstructed values for the given parameters (the paper's Table II
// analysis, used to choose the best layer count for a data set).
func ProbeHitRates(a *Array, p Params) (HitRates, error) {
	return core.ProbeHitRates(a, p)
}

// Evaluate computes the paper's quality metrics (max error, RMSE, NRMSE,
// PSNR, Pearson correlation) between an original and its reconstruction.
func Evaluate(original, reconstructed *Array) (Summary, error) {
	if err := grid.SameShape(original, reconstructed); err != nil {
		return Summary{}, err
	}
	return metrics.Compare(original.Data, reconstructed.Data)
}

// Blocked-container API: the array is split into slabs along the slowest
// dimension, each compressed independently — parallel compression and
// decompression plus random access to individual slabs (the paper's
// Section VI in-situ pattern). See internal/blocked for format details.
type (
	// BlockedParams configures blocked compression.
	BlockedParams = blocked.Params
	// BlockedStats aggregates per-slab outcomes.
	BlockedStats = blocked.Stats
	// BlockedIndex describes a blocked container.
	BlockedIndex = blocked.Index
)

// CompressBlocked encodes a as a blocked container with per-slab streams.
func CompressBlocked(a *Array, p BlockedParams) ([]byte, *BlockedStats, error) {
	return blocked.Compress(a, p)
}

// DecompressBlocked reconstructs the full array from a blocked container;
// p.Workers bounds parallelism (0 = NumCPU).
func DecompressBlocked(stream []byte, p BlockedParams) (*Array, error) {
	return blocked.Decompress(stream, p)
}

// DecompressSlab decompresses only slab i of a blocked container.
func DecompressSlab(stream []byte, i int) (*Array, error) {
	return blocked.DecompressSlab(stream, i)
}

// InspectBlocked parses a blocked container's index without decompressing.
func InspectBlocked(stream []byte) (*BlockedIndex, error) {
	return blocked.Inspect(stream)
}

// Pointwise-relative mode (the PW_REL bound later SZ releases ship as an
// extension of this paper's compressor): every point satisfies
// |x − x̃| ≤ ε·|x|, with zeros and non-finite values exact. Implemented as
// a log-domain transform over the core pipeline; see internal/pwrel.
type (
	// PointwiseParams configures pointwise-relative compression.
	PointwiseParams = pwrel.Params
	// PointwiseStats reports pointwise-relative outcomes.
	PointwiseStats = pwrel.Stats
)

// CompressPointwiseRel encodes a with a per-point relative bound.
func CompressPointwiseRel(a *Array, p PointwiseParams) ([]byte, *PointwiseStats, error) {
	return pwrel.Compress(a, p)
}

// DecompressPointwiseRel inverts CompressPointwiseRel, returning the array
// and the bound ε recorded in the stream.
func DecompressPointwiseRel(stream []byte) (*Array, float64, error) {
	return pwrel.Decompress(stream)
}

// Streaming codec API: every compressor in the repository — sz14
// single-stream, the blocked container, pwrel, and the five baselines —
// is registered under a name in internal/codec and can speak
// io.Reader/io.Writer over raw little-endian sample bytes. The blocked
// container streams with memory bounded by O(slab); buffer-bound codecs
// fall back to an internal buffer but emit bytes identical to their
// one-shot form. See cmd/sz for the file-to-file CLI.
//
// The same registry is also served over the network: cmd/szd runs it as
// a daemon with streaming endpoints and admission control, and
// internal/client mirrors NewWriter/NewReader against a daemon (the CLI
// exposes this as `sz -remote`). Remote streams are byte-identical to
// local ones.
type (
	// CodecParams configures a registry codec (bounds, layout, knobs).
	CodecParams = codec.Params
	// BlockedWriter streams a blocked container out as rows arrive,
	// encoding slabs on worker goroutines and writing them in order.
	BlockedWriter = blocked.Writer
	// BlockedReader decompresses a blocked container, decoding slabs
	// ahead on worker goroutines and serving them in order.
	BlockedReader = blocked.Reader
)

// Codecs lists the registered codec names.
func Codecs() []string { return codec.Names() }

// NewWriter returns a streaming single-stream SZ-1.4 compressor: raw
// little-endian p.DType samples written to it come out of w as exactly
// the stream Compress would produce for the same data and parameters
// (the stream is complete after Close). p.Dims is required.
func NewWriter(w io.Writer, p CodecParams) (io.WriteCloser, error) {
	return NewCodecWriter("sz14", w, p)
}

// NewReader returns a streaming single-stream SZ-1.4 decompressor
// producing raw little-endian sample bytes in the stream's element type.
func NewReader(r io.Reader) (io.ReadCloser, error) {
	return NewCodecReader("sz14", r, CodecParams{})
}

// NewCodecWriter opens a streaming compressor for any registered codec.
func NewCodecWriter(name string, w io.Writer, p CodecParams) (io.WriteCloser, error) {
	c, err := codec.Lookup(name)
	if err != nil {
		return nil, err
	}
	return c.NewWriter(w, p)
}

// NewCodecReader opens a streaming decompressor for any registered
// codec. Params are only consulted by codecs whose streams are not
// self-describing (gzip needs DType; Dims only for one-shot decode) and
// by blocked, whose slab decodes in flight are p.Workers (0 = NumCPU).
func NewCodecReader(name string, r io.Reader, p CodecParams) (io.ReadCloser, error) {
	c, err := codec.Lookup(name)
	if err != nil {
		return nil, err
	}
	return c.NewReader(r, p)
}

// NewBlockedWriter streams a blocked container to w for an array with
// the given dimensions; see blocked.NewWriter for the contract (the
// bound must be absolute — resolve relative bounds first). Up to
// p.Workers slab encodes (0 = NumCPU) run on their own goroutines, and
// the calls to Write and Close write the finished slabs to w in slab
// order: w sees slab k once slab k+Workers has been handed in, or at
// Close. Nothing is left running once Close returns.
func NewBlockedWriter(w io.Writer, dims []int, p BlockedParams) (*BlockedWriter, error) {
	return blocked.NewWriter(w, dims, p)
}

// NewBlockedReader streams a blocked container from r, decoding up to
// NumCPU slabs ahead on their own goroutines and serving them in order,
// with peak memory O(workers x slab), not O(stream). On a live source
// slab k is served once slab k+NumCPU has arrived, or the last slab;
// NewCodecReader("blocked", r, CodecParams{Workers: n}) picks another
// window. Close the reader to wait for its decodes and recycle their
// buffers.
func NewBlockedReader(r io.Reader) (*BlockedReader, error) {
	return blocked.NewReader(r, blocked.Params{})
}
