package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"repro/internal/binrep"
	"repro/internal/bitstream"
	"repro/internal/grid"
	"repro/internal/huffman"
	"repro/internal/predictor"
	"repro/internal/quant"
	"repro/internal/scratch"
)

// Compress applies the SZ-1.4 pipeline (Algorithm 1 of the paper) to a and
// returns the compressed stream plus per-run statistics.
//
// The per-point predict+quantize scan runs through a fused kernel
// specialized for the array geometry when one exists (see kernels.go);
// kernels are byte-for-byte equivalent to the generic scan. All working
// memory (code array, reconstruction, histogram, Huffman arenas,
// bitstream buffers) is drawn from and returned to the scratch pools, so
// steady-state compression allocates only the returned stream and Stats.
func Compress(a *grid.Array, p Params) ([]byte, *Stats, error) {
	return compress(nil, a, p, true)
}

// CompressAppend is Compress appending the stream to dst (which may be a
// recycled buffer); the returned slice reuses dst's storage when it fits.
func CompressAppend(dst []byte, a *grid.Array, p Params) ([]byte, *Stats, error) {
	return compress(dst, a, p, true)
}

// CompressSamples is CompressAppend over the row-major samples of an
// array with the given dims, held as float32 or float64: the kernels run
// on data as it is (see kernels.go), with no widened copy. Float32
// samples need p.OutputType grid.Float32, and then write the same bytes
// as their float64 widening does. data is only read.
func CompressSamples[F grid.Sample](dst []byte, data []F, dims []int, p Params) ([]byte, *Stats, error) {
	return compressSamples(dst, data, dims, p, true)
}

// compress is the implementation behind Compress; kernels=false forces the
// generic reference scan (used by the equivalence tests and benchmarks).
func compress(dst []byte, a *grid.Array, p Params, kernels bool) ([]byte, *Stats, error) {
	return compressSamples(dst, a.Data, a.Dims, p, kernels)
}

func compressSamples[F grid.Sample](dst []byte, data []F, dims []int, p Params, kernels bool) ([]byte, *Stats, error) {
	s, err := analyze(data, dims, p, kernels)
	if err != nil {
		return nil, nil, err
	}
	defer s.Release()
	return s.EncodeAppend(dst, nil)
}

// Scan holds the products of the predict+quantize pass, split from
// entropy encoding so a container can run two-pass encodes: analyze
// every slab, build one shared codebook from the union histogram, then
// encode each slab against it. Working slices come from the scratch
// pools — call Release when done.
type Scan struct {
	p           Params // defaulted + validated
	dims        []int
	eb          float64
	n           int
	numOutliers int
	codes       []uint16
	hist        []uint64
	outW        *bitstream.Writer
}

// Analyze runs the prediction+quantization scan of a and returns its
// products (quantization codes, code histogram, outlier side stream)
// without entropy-encoding them. Follow with EncodeAppend, then Release.
func Analyze(a *grid.Array, p Params) (*Scan, error) {
	return analyze(a.Data, a.Dims, p, true)
}

func analyze[F grid.Sample](data []F, dims []int, p Params, kernels bool) (*Scan, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if sampleType[F]() == grid.Float32 && p.OutputType != grid.Float32 {
		return nil, fmt.Errorf("core: float32 samples need OutputType %v, not %v", grid.Float32, p.OutputType)
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	if len(dims) < 1 || len(dims) > grid.MaxDims || n != len(data) {
		return nil, fmt.Errorf("core: %d samples do not fill dims %v", len(data), dims)
	}
	var valueRange float64
	if p.Mode != BoundAbs {
		// Only the relative modes consult the value range.
		_, _, valueRange = grid.RangeOf(data)
	}
	eb, err := p.EffectiveBound(valueRange)
	if err != nil {
		return nil, err
	}
	q, err := quant.New(eb, p.IntervalBits)
	if err != nil {
		return nil, err
	}
	pred, err := predictor.New(dims, p.Layers)
	if err != nil {
		return nil, err
	}

	codes := scratch.Uint16s(n)   // every entry assigned by the scan
	recon := scratch.Floats[F](n) // every entry assigned by the scan
	hist := scratch.Uint64sZeroed(q.NumCodes())
	// marks flags each 64-code block holding an escape, so writeOutliers
	// visits only those; the scan's escape path sets it.
	var markArr escapeMarks
	marks, pooled := markArr.get(n)
	defer scratch.PutUint64s(pooled)
	scan := &compressState[F]{
		qparams: newQParams(q, p.OutputType),
		data:    data,
		recon:   recon,
		codes:   codes,
		hist:    hist,
		enc:     binrep.NewEncoder(nil, eb),
		marks:   marks,
	}
	scan.scan(dims, p.Layers, pred, kernels)
	// The reconstruction is dead once the scan finishes (only the codes
	// and outliers reach the stream), so it recycles before the outlier
	// bits are written rather than living as long as the Scan — two-pass
	// encodes hold one Scan per slab concurrently.
	scratch.PutFloats(recon)
	scan.recon = nil

	// Outlier values are serialized after the Huffman-coded symbols, so
	// they collect in a side stream, sized for the escapes the scan
	// counted at 33 bits each (a float32 source's raw pattern) and at
	// least for a few percent of the points escaping. Longer outliers
	// grow the buffer, which recycles under its grown size class.
	numOutliers := int(hist[quant.UnpredictableCode])
	outW := bitstream.NewWriterBytes(scratch.Bytes(max(n, numOutliers*33)/8 + 64))
	scan.writeOutliers(outW)
	return &Scan{
		p:           p,
		dims:        dims,
		eb:          eb,
		n:           n,
		numOutliers: numOutliers,
		codes:       codes,
		hist:        hist,
		outW:        outW,
	}, nil
}

// Hist exposes the quantization-code histogram (length 2^m, index 0 =
// escapes) for union-codebook construction. The slice is owned by the
// Scan; do not retain it past Release.
func (s *Scan) Hist() []uint64 { return s.hist }

// Release hands the Scan's working memory back to the scratch pools.
// The Scan must not be used afterwards.
func (s *Scan) Release() {
	scratch.PutUint16s(s.codes)
	scratch.PutUint64s(s.hist)
	scratch.PutBytes(s.outW.Bytes())
	*s = Scan{}
}

// EncodeAppend entropy-encodes the scan's products and appends the
// complete stream to dst. With shared == nil the codebook is built from
// the scan's own histogram and serialized into the stream; a non-nil
// shared codebook (covering at least this scan's symbols — e.g. built
// from a union histogram) is used instead and omitted from the payload,
// which then decodes only via DecompressIntoShared.
//
// Streams == 1 with an internal codebook emits the serial Version-1
// layout, byte-identical to previous releases. More streams, or a
// shared codebook, switch to the VersionMulti layout: after the
// (optional) codebook the payload is byte-aligned and carries a uvarint
// sub-stream length table, the N independent Huffman sub-streams, and
// the outlier stream, each section byte-aligned.
func (s *Scan) EncodeAppend(dst []byte, shared *huffman.Codebook) ([]byte, *Stats, error) {
	cb := shared
	if cb == nil {
		// Variable-length encoding of the quantization codes (Section IV-A).
		var t0 time.Time
		if s.p.Stages != nil {
			t0 = time.Now()
		}
		own, err := huffman.New(s.hist)
		if err != nil {
			return nil, nil, fmt.Errorf("core: building codebook: %w", err)
		}
		if s.p.Stages != nil {
			s.p.Stages("huffbuild", time.Since(t0))
		}
		defer own.Release()
		cb = own
	}
	n := s.n
	k := s.p.Streams
	version := uint8(Version)
	if k > 1 || shared != nil {
		version = VersionMulti
	}
	// One byte per element covers the codes at compression factors down
	// to 4x for float32 (8x for float64) without growing, on top of the
	// outlier section; the scratch class rounding gives the buffer
	// further headroom.
	payload := bitstream.NewWriterBytes(scratch.Bytes(n + len(s.outW.Bytes()) + 64))
	defer func() { scratch.PutBytes(payload.Bytes()) }()

	var tableBits, codeBits uint64
	if version == Version {
		cb.Serialize(payload)
		tableBits = payload.Len()
		if err := cb.Encode(payload, s.codes); err != nil {
			return nil, nil, fmt.Errorf("core: encoding codes: %w", err)
		}
		codeBits = payload.Len() - tableBits
		payload.AppendStream(s.outW.Bytes(), s.outW.Len())
	} else {
		if shared == nil {
			cb.Serialize(payload)
			tableBits = payload.Len()
			payload.Align()
		}
		var subArr [maxStreams]*bitstream.Writer
		subWs := subArr[:k]
		for j := range subWs {
			subWs[j] = bitstream.NewWriterBytes(scratch.Bytes(n/k + 64))
		}
		defer func() {
			for _, w := range subWs {
				scratch.PutBytes(w.Bytes())
			}
		}()
		if err := cb.EncodeN(subWs, s.codes); err != nil {
			return nil, nil, fmt.Errorf("core: encoding codes: %w", err)
		}
		var subBytes [maxStreams][]byte
		lenBuf := scratch.Bytes(10 * k)[:0]
		defer func() { scratch.PutBytes(lenBuf) }()
		for j, w := range subWs {
			subBytes[j] = w.Bytes()
			codeBits += w.Len()
			lenBuf = binary.AppendUvarint(lenBuf, uint64(len(subBytes[j])))
		}
		payload.WriteBytes(lenBuf)
		for j := range subWs {
			payload.WriteBytes(subBytes[j])
		}
		// The outlier section starts byte-aligned; its padded byte form
		// copies directly (the decoder stops by outlier count, so the
		// pad bits inside PayloadBits are harmless).
		payload.WriteBytes(s.outW.Bytes())
	}

	h := &Header{
		Version:        version,
		DType:          s.p.OutputType,
		Dims:           s.dims,
		AbsBound:       s.eb,
		Layers:         s.p.Layers,
		IntervalBits:   s.p.IntervalBits,
		NumOutliers:    s.numOutliers,
		PayloadBits:    payload.Len(),
		Streams:        k,
		SharedCodebook: shared != nil,
	}
	stream := appendHeader(dst, h)
	stream = append(stream, payload.Bytes()...)
	crc := crc32.ChecksumIEEE(stream[len(dst):])
	stream = binary.LittleEndian.AppendUint32(stream, crc)

	st := &Stats{
		N:               n,
		Predictable:     n - s.numOutliers,
		HitRate:         float64(n-s.numOutliers) / float64(n),
		EffAbsBound:     s.eb,
		CompressedBytes: len(stream) - len(dst),
		OriginalBytes:   n * s.p.OutputType.Size(),
		Histogram:       append([]uint64(nil), s.hist...),

		TableBits:          tableBits,
		CodeBits:           codeBits,
		OutlierBits:        s.outW.Len(),
		FixedWidthCodeBits: uint64(n) * uint64(s.p.IntervalBits),
	}
	st.CompressionFactor = float64(st.OriginalBytes) / float64(st.CompressedBytes)
	st.BitRate = float64(st.CompressedBytes) * 8 / float64(n)
	if advice, _, err := quant.Adapt(s.hist, s.p.IntervalBits, s.p.HitRateThreshold); err == nil {
		st.Advice = advice
	}
	return stream, st, nil
}

// encodeOutlier writes an unpredictable value to enc's Writer, and
// outlierValue returns the value the decompressor reconstructs from those
// bits.
//
// float64 sources use error-bounded IEEE truncation (binrep). float32
// sources store the raw 32-bit pattern — lossless for genuinely
// single-precision inputs — with a 64-bit escape for float64 inputs
// mislabelled as float32 whose narrowing would exceed the bound.
func encodeOutlier(enc *binrep.Encoder, x, eb float64, t grid.DType) {
	switch {
	case t != grid.Float32:
		enc.Encode(x)
	case narrows(x, eb):
		// One 33-bit write: the 0 escape flag followed by the raw pattern
		// (identical bits to writing them separately).
		enc.W.WriteBits(uint64(math.Float32bits(float32(x))), 33)
	default:
		enc.W.WriteBits(1, 1)
		enc.W.WriteBits(math.Float64bits(x), 64)
	}
}

func outlierValue(enc *binrep.Encoder, x, eb float64, t grid.DType) float64 {
	switch {
	case t != grid.Float32:
		return enc.Value(x)
	case narrows(x, eb):
		return float64(float32(x))
	default:
		return x
	}
}

// narrows reports whether a float32 source stores x as its raw 32-bit
// pattern: narrowing keeps x within eb, or x is NaN.
func narrows(x, eb float64) bool {
	return math.Abs(float64(float32(x))-x) <= eb || math.IsNaN(x)
}

// decodeOutlier mirrors encodeOutlier.
func decodeOutlier(dec *binrep.Decoder, r *bitstream.Reader, t grid.DType) (float64, error) {
	if t != grid.Float32 {
		return dec.Decode()
	}
	esc, err := r.ReadBits(1)
	if err != nil {
		return 0, err
	}
	if esc == 0 {
		bits, err := r.ReadBits(32)
		if err != nil {
			return 0, err
		}
		return float64(math.Float32frombits(uint32(bits))), nil
	}
	bits, err := r.ReadBits(64)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(bits), nil
}

// advanceCoord increments a row-major coordinate odometer (last dimension
// fastest).
func advanceCoord(coord, dims []int) {
	for j := len(coord) - 1; j >= 0; j-- {
		coord[j]++
		if coord[j] < dims[j] {
			return
		}
		coord[j] = 0
	}
}

// appendHeader serializes h.
func appendHeader(b []byte, h *Header) []byte {
	b = append(b, Magic...)
	b = append(b, h.Version, byte(h.DType), byte(len(h.Dims)))
	for _, d := range h.Dims {
		b = binary.AppendUvarint(b, uint64(d))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(h.AbsBound))
	b = append(b, byte(h.Layers), byte(h.IntervalBits))
	if h.Version == VersionMulti {
		var flags byte
		if h.SharedCodebook {
			flags |= flagSharedCodebook
		}
		b = append(b, byte(h.Streams), flags)
	}
	b = binary.AppendUvarint(b, uint64(h.NumOutliers))
	b = binary.AppendUvarint(b, h.PayloadBits)
	return b
}
