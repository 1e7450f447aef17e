package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/binrep"
	"repro/internal/bitstream"
	"repro/internal/grid"
	"repro/internal/huffman"
	"repro/internal/predictor"
	"repro/internal/quant"
	"repro/internal/scratch"
)

// Inspect parses and validates the header of a compressed stream without
// decompressing the data.
func Inspect(stream []byte) (*Header, error) {
	h, _, err := parseHeader(stream)
	return h, err
}

// Decompress reconstructs the array from a stream produced by Compress.
// Every reconstructed value satisfies |x − x̃| ≤ Header.AbsBound.
//
// Like Compress, the reconstruction scan runs through a fused
// geometry-specialized kernel when one exists (see kernels.go). Working
// memory (code array, codebook tables) is recycled through the scratch
// pools; only the reconstruction itself is newly allocated.
func Decompress(stream []byte) (*grid.Array, *Header, error) {
	return decompress(stream, true, nil, nil)
}

// DecompressInto is Decompress reconstructing into data when it is large
// enough for the stream's element count (the returned Array then aliases
// data's prefix); an undersized or nil data falls back to a fresh
// allocation. Every element of the used prefix is overwritten, so a
// recycled buffer needs no clearing.
func DecompressInto(stream []byte, data []float64) (*grid.Array, *Header, error) {
	return decompress(stream, true, data, nil)
}

// DecompressIntoShared is DecompressInto for streams whose codebook was
// omitted in favor of a container-level shared codebook (blocked v3):
// cb must be the deserialized shared codebook. The codebook is only
// read, so concurrent slab decodes may share one. Streams that carry
// their own codebook ignore cb.
func DecompressIntoShared(stream []byte, data []float64, cb *huffman.Codebook) (*grid.Array, *Header, error) {
	return decompress(stream, true, data, cb)
}

// DecompressSamples is DecompressIntoShared reconstructing into samples
// held as float32 or float64: into dst when it holds at least the
// stream's element count (the result is then dst's prefix), else into a
// fresh slice. A float32 dst runs the scan on it directly when the stream
// is float32 and every outlier is float32-exact, and holds exactly the
// narrowing of what DecompressIntoShared reconstructs either way: a
// float64 stream, or a 64-bit escape that narrowing would change (a
// float64 field labelled float32), is reconstructed in float64 and then
// narrowed.
func DecompressSamples[F grid.Sample](stream []byte, dst []F, cb *huffman.Codebook) ([]F, *Header, error) {
	return decompressSamples(stream, true, dst, cb)
}

// ErrNeedsCodebook is returned when a shared-codebook stream is decoded
// without the container-level codebook it depends on.
var ErrNeedsCodebook = errors.New("core: stream requires its container's shared codebook (use DecompressIntoShared)")

// errInexact is readOutliers' report that an outlier does not fit the
// reconstruction's sample type.
var errInexact = errors.New("core: outlier not exact in the sample type")

// decompress is the implementation behind Decompress; kernels=false forces
// the generic reference scan.
func decompress(stream []byte, kernels bool, data []float64, ext *huffman.Codebook) (*grid.Array, *Header, error) {
	out, h, err := decompressSamples(stream, kernels, data, ext)
	if err != nil {
		return nil, nil, err
	}
	return &grid.Array{Dims: append([]int(nil), h.Dims...), Data: out}, h, nil
}

func decompressSamples[F grid.Sample](stream []byte, kernels bool, dst []F, ext *huffman.Codebook) ([]F, *Header, error) {
	h, off, err := parseHeader(stream)
	if err != nil {
		return nil, nil, err
	}
	payloadBytes := int((h.PayloadBits + 7) / 8)
	if len(stream) != off+payloadBytes+4 {
		return nil, nil, fmt.Errorf("%w: length %d, want %d", ErrCorrupt, len(stream), off+payloadBytes+4)
	}
	wantCRC := binary.LittleEndian.Uint32(stream[len(stream)-4:])
	if crc32.ChecksumIEEE(stream[:len(stream)-4]) != wantCRC {
		return nil, nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	payload := stream[off : off+payloadBytes]

	q, err := quant.New(h.AbsBound, h.IntervalBits)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	pred, err := predictor.New(h.Dims, h.Layers)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	r := bitstream.NewReaderBits(payload, h.PayloadBits)
	var cb *huffman.Codebook
	if h.SharedCodebook {
		if ext == nil {
			return nil, nil, ErrNeedsCodebook
		}
		cb = ext
	} else {
		own, err := huffman.Deserialize(r)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: codebook: %v", ErrCorrupt, err)
		}
		defer own.Release()
		cb = own
		if h.Version == VersionMulti {
			r.Align()
		}
	}
	// Every encoder emits an alphabet of exactly 2^m, but a corrupt stream
	// can smuggle in a larger one; the generic Reconstruct rejects codes
	// past 2^m, so the kernels must too. The decoder can only produce
	// symbols the codebook assigns codes to, so bounding the alphabet here
	// bounds every decoded code — O(alphabet) instead of O(n) — and keeps
	// the per-point loops branch-free.
	if m := cb.MaxSymbol(); m >= q.NumCodes() {
		return nil, nil, fmt.Errorf("%w: code %d out of range [0,%d)", ErrCorrupt, m, q.NumCodes())
	}
	n := h.N()
	codes := scratch.Uint16s(n) // the decode assigns every entry
	defer scratch.PutUint16s(codes)
	// marks flags each 64-code block holding an escape, so readOutliers
	// visits only those; the decode sets it.
	var markArr escapeMarks
	marks, pooled := markArr.get(n)
	defer scratch.PutUint64s(pooled)
	if h.Version == VersionMulti {
		// Byte-aligned sections: a uvarint sub-stream length table, then
		// the sub-streams themselves. Each gets an independent cursor so
		// the fused decoder can interleave them.
		k := h.Streams
		var lens [maxStreams]int
		for j := 0; j < k; j++ {
			v, err := readAlignedUvarint(r)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: sub-stream length table: %v", ErrCorrupt, err)
			}
			if v > uint64(payloadBytes) {
				return nil, nil, fmt.Errorf("%w: sub-stream %d length %d exceeds payload", ErrCorrupt, j, v)
			}
			lens[j] = int(v)
		}
		var subArr [maxStreams]*bitstream.Reader
		subs := subArr[:k]
		start := int(r.Pos() >> 3)
		for j := 0; j < k; j++ {
			if start+lens[j] > payloadBytes {
				return nil, nil, fmt.Errorf("%w: sub-stream %d overflows payload", ErrCorrupt, j)
			}
			subs[j] = bitstream.NewReaderAt(payload, start, lens[j])
			start += lens[j]
		}
		if err := cb.DecodeNInto(subs, codes, marks); err != nil {
			return nil, nil, fmt.Errorf("%w: codes: %v", ErrCorrupt, err)
		}
		// The outlier section begins at the next byte boundary after the
		// last sub-stream; move the main cursor there for the scan.
		r.SetPos(uint64(start) * 8)
	} else if err := cb.DecodeInto(r, codes, marks); err != nil {
		return nil, nil, fmt.Errorf("%w: codes: %v", ErrCorrupt, err)
	}

	if len(dst) >= n {
		// The scan assigns every element of the prefix, so the caller's
		// buffer contents do not matter.
		dst = dst[:n]
	} else {
		dst = make([]F, n)
	}
	qp := newQParams(q, h.DType)
	outliers := r.Pos()
	// A float32 dst holds the reconstruction only of a float32 stream
	// whose outliers narrowing keeps (readOutliers says errInexact of any
	// other); otherwise the scan runs in float64 and dst gets its
	// narrowing.
	err = errInexact
	if h.DType == grid.Float32 || sampleType[F]() == grid.Float64 {
		err = readOutliers(r, codes, marks, dst, h.DType, h.NumOutliers)
	}
	if err == errInexact {
		r.SetPos(outliers)
		wide := scratch.Floats[float64](n)
		defer scratch.PutFloats(wide)
		if err := readOutliers(r, codes, marks, wide, h.DType, h.NumOutliers); err != nil {
			return nil, nil, err
		}
		scan := &decompressState[float64]{qparams: qp, recon: wide, codes: codes}
		scan.scan(h.Dims, h.Layers, pred, kernels)
		for i, v := range wide {
			dst[i] = F(v)
		}
		return dst, h, nil
	}
	if err != nil {
		return nil, nil, err
	}
	scan := &decompressState[F]{qparams: qp, recon: dst, codes: codes}
	scan.scan(h.Dims, h.Layers, pred, kernels)
	return dst, h, nil
}

// readOutliers decodes every escape's value from r, in code order, into
// recon ahead of the reconstruction scan, which leaves escapes alone. It
// visits only the 64-code blocks the Huffman decode marked as holding an
// escape (huffman.MarkBlock), and stops at the first outlier that fails
// to decode, or with errInexact at the first that F cannot hold exactly
// (only a 64-bit escape, in a float32 recon).
func readOutliers[F grid.Sample](r *bitstream.Reader, codes []uint16, marks []uint64, recon []F, t grid.DType, want int) error {
	dec := binrep.NewDecoder(r)
	got := 0
	err := forEachMarkedBlock(marks, len(codes), func(lo, hi int) error {
		for idx := lo; idx < hi; idx++ {
			if codes[idx] != quant.UnpredictableCode {
				continue
			}
			v, err := decodeOutlier(dec, r, t)
			if err != nil {
				return fmt.Errorf("%w: outlier %d: %v", ErrCorrupt, got, err)
			}
			f := F(v)
			if math.Float64bits(float64(f)) != math.Float64bits(v) {
				return errInexact
			}
			recon[idx] = f
			got++
		}
		return nil
	})
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%w: outlier count %d, header says %d", ErrCorrupt, got, want)
	}
	return nil
}

// readAlignedUvarint reads a standard uvarint from a byte-aligned
// bitstream reader (the VersionMulti sub-stream length table).
func readAlignedUvarint(r *bitstream.Reader) (uint64, error) {
	var v uint64
	var shift uint
	for {
		b, err := r.ReadBits(8)
		if err != nil {
			return 0, err
		}
		v |= (b & 0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
		if shift > 63 {
			return 0, fmt.Errorf("uvarint overflows 64 bits")
		}
	}
}

// parseHeader reads the header and returns it plus the payload offset.
func parseHeader(stream []byte) (*Header, int, error) {
	if len(stream) < len(Magic)+3 {
		return nil, 0, fmt.Errorf("%w: too short", ErrCorrupt)
	}
	if string(stream[:len(Magic)]) != Magic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	off := len(Magic)
	h := &Header{Version: stream[off], Streams: 1}
	if h.Version != Version && h.Version != VersionMulti {
		return nil, 0, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, h.Version)
	}
	h.DType = grid.DType(stream[off+1])
	if h.DType != grid.Float32 && h.DType != grid.Float64 {
		return nil, 0, fmt.Errorf("%w: bad dtype %d", ErrCorrupt, h.DType)
	}
	ndims := int(stream[off+2])
	if ndims < 1 || ndims > grid.MaxDims {
		return nil, 0, fmt.Errorf("%w: bad ndims %d", ErrCorrupt, ndims)
	}
	off += 3
	h.Dims = make([]int, ndims)
	total := 1
	for i := 0; i < ndims; i++ {
		v, k := binary.Uvarint(stream[off:])
		if k <= 0 || v == 0 || v > 1<<40 {
			return nil, 0, fmt.Errorf("%w: bad dim", ErrCorrupt)
		}
		h.Dims[i] = int(v)
		if total > math.MaxInt/h.Dims[i] {
			return nil, 0, fmt.Errorf("%w: dims overflow", ErrCorrupt)
		}
		total *= h.Dims[i]
		off += k
	}
	if len(stream) < off+10 {
		return nil, 0, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	h.AbsBound = math.Float64frombits(binary.LittleEndian.Uint64(stream[off:]))
	off += 8
	if !(h.AbsBound > 0) || math.IsInf(h.AbsBound, 0) {
		return nil, 0, fmt.Errorf("%w: bad error bound %v", ErrCorrupt, h.AbsBound)
	}
	h.Layers = int(stream[off])
	h.IntervalBits = int(stream[off+1])
	off += 2
	if h.Layers < 1 || h.Layers > predictor.MaxLayers {
		return nil, 0, fmt.Errorf("%w: bad layers %d", ErrCorrupt, h.Layers)
	}
	if h.IntervalBits < quant.MinBits || h.IntervalBits > quant.MaxBits {
		return nil, 0, fmt.Errorf("%w: bad interval bits %d", ErrCorrupt, h.IntervalBits)
	}
	if h.Version == VersionMulti {
		if len(stream) < off+2 {
			return nil, 0, fmt.Errorf("%w: truncated header", ErrCorrupt)
		}
		h.Streams = int(stream[off])
		flags := stream[off+1]
		off += 2
		if h.Streams < 1 || h.Streams > maxStreams {
			return nil, 0, fmt.Errorf("%w: bad stream count %d", ErrCorrupt, h.Streams)
		}
		if flags&^byte(flagSharedCodebook) != 0 {
			return nil, 0, fmt.Errorf("%w: unknown flags %#x", ErrCorrupt, flags)
		}
		h.SharedCodebook = flags&flagSharedCodebook != 0
	}
	v, k := binary.Uvarint(stream[off:])
	if k <= 0 || v > uint64(total) {
		return nil, 0, fmt.Errorf("%w: bad outlier count", ErrCorrupt)
	}
	h.NumOutliers = int(v)
	off += k
	v, k = binary.Uvarint(stream[off:])
	if k <= 0 {
		return nil, 0, fmt.Errorf("%w: bad payload length", ErrCorrupt)
	}
	h.PayloadBits = v
	off += k
	return h, off, nil
}
