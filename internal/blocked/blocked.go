// Package blocked provides a chunked container around the SZ-1.4 core:
// the array is split into slabs along its slowest dimension and each slab
// is compressed independently.
//
// This is the paper's Section VI in-situ usage pattern made concrete: the
// slabs compress and decompress in parallel with no inter-worker
// communication, and any slab can be decompressed alone (random access)
// without touching the rest of the stream — the property large-scale
// post-analysis needs when only a sub-domain is of interest.
//
// The cost is that prediction cannot cross slab boundaries, so the
// compression factor is slightly below single-stream compression; the
// error bound is unaffected. With a relative bound, the global value range
// is resolved once so every slab enforces the same absolute bound the
// single-stream compressor would.
//
// # Container format (v2, magic "SZB2")
//
//	magic   "SZB2"                       4 bytes
//	ndims   byte                         1..4
//	dims    uvarint x ndims              slowest-varying first
//	slab    uvarint                      rows per slab
//	body    nSlabs core streams          concatenated in slab order,
//	                                     nSlabs = ceil(dims[0]/slab)
//	footer  uvarint nSlabs               consistency check
//	        uvarint len(slab[i]) x n     per-slab stream lengths
//	        uint32le footerLen           bytes of the two varint runs above
//	        uint32le crc32(IEEE)         over everything before this field
//
// The slab index lives in a footer, not the header, so the container can
// be written as a stream: slabs are emitted as they are compressed and
// the index is appended last. Random access seeks to the end, reads
// footerLen + CRC (the trailing 8 bytes), and recovers every slab offset;
// sequential access needs no footer at all because each core stream is
// self-delimiting (its header states its payload length). Version 1
// ("SZBK", header-resident index, no streaming) is no longer written or
// read.
package blocked

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bitstream"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/huffman"
)

const (
	magicPrefix = "SZB" // all container versions share this prefix
	magicV1     = "SZBK"
	magicV2     = "SZB2"
	magicV3     = "SZB3"
)

// ErrCorrupt is returned for malformed containers.
var ErrCorrupt = errors.New("blocked: corrupt container")

// ErrUnsupportedVersion is returned for containers that are
// recognizably SZ-blocked ("SZB?" magic) but of a version this build
// cannot decode — the legacy v1 layout, or a version newer than the
// build. Distinct from ErrCorrupt so callers can surface an actionable
// "upgrade or re-encode" message instead of "bad magic".
var ErrUnsupportedVersion = errors.New("blocked: unsupported container version")

// ErrSlabRange is returned by the random-access decoders for a slab
// range outside the container's extent — distinguishable from ErrCorrupt
// so servers can answer 416 rather than 400.
var ErrSlabRange = errors.New("slab range beyond container")

// Params configures blocked compression and decompression.
type Params struct {
	// Core configures the per-slab compressor. A relative bound is
	// resolved against the whole array's range before slabbing.
	// Core.Streams > 1 selects interleaved multi-stream slabs, which
	// require the v3 container.
	Core core.Params
	// SlabRows is the slab thickness along the slowest dimension;
	// 0 picks a thickness targeting ~NumCPU slabs (at least 4 rows).
	SlabRows int
	// Workers bounds compression/decompression parallelism: at most
	// Workers slab encodes or decodes run at once, each on a goroutine
	// of its own; 0 means runtime.NumCPU(). The streaming Writer and
	// Reader keep that many slabs in their window, so a live
	// destination or consumer trails the data by Workers slabs.
	Workers int
	// Container selects the container format version: 0 = auto (v3
	// when Core.Streams > 1 or SharedCodebook is set, else v2 —
	// byte-identical to previous releases), or an explicit 2 or 3.
	Container int
	// SharedCodebook emits one per-container Huffman codebook built
	// from the union histogram of every slab, instead of one codebook
	// per slab — shrinking small-slab overhead at the cost of a second
	// encode pass. One-shot Compress only; the streaming Writer sees
	// each slab once and returns ErrSharedCodebookStreaming.
	SharedCodebook bool
}

// containerVersion resolves the effective container version for p.
func (p Params) containerVersion() (int, error) {
	streams := p.Core.Streams
	if streams == 0 {
		streams = 1
	}
	switch p.Container {
	case 0:
		if streams > 1 || p.SharedCodebook {
			return 3, nil
		}
		return 2, nil
	case 2:
		if streams > 1 || p.SharedCodebook {
			return 0, fmt.Errorf("blocked: multi-stream slabs and shared codebooks require the v3 container (Container=3 or 0)")
		}
		return 2, nil
	case 3:
		return 3, nil
	default:
		return 0, fmt.Errorf("blocked: unknown container version %d", p.Container)
	}
}

// Stats aggregates per-slab outcomes.
type Stats struct {
	N                 int
	Slabs             int
	Predictable       int
	HitRate           float64
	EffAbsBound       float64
	CompressedBytes   int
	OriginalBytes     int
	CompressionFactor float64
	BitRate           float64
}

// Index describes a container without decompressing it.
type Index struct {
	Dims     []int
	SlabRows int
	// HeaderLen is the byte offset where the body (the first slab
	// stream) starts — past the fixed header and, for v3, the shared
	// codebook section.
	HeaderLen int
	// Offsets[i] is the byte offset of slab i's stream within the body;
	// Offsets[len] is the body length.
	Offsets []int
	// Version is the container format version (2 or 3).
	Version int
	// Streams is the interleaved Huffman sub-stream count per slab
	// (1 for v2).
	Streams int
	// CodebookLen is the byte length of the shared codebook section
	// sitting immediately before the body (0 = per-slab codebooks).
	CodebookLen int
}

// SharedCodebook reports whether the container carries one shared
// per-container codebook instead of per-slab codebooks.
func (ix *Index) SharedCodebook() bool { return ix.CodebookLen > 0 }

// NumSlabs returns the slab count.
func (ix *Index) NumSlabs() int { return len(ix.Offsets) - 1 }

// SlabBounds returns the [lo, hi) row range of slab i.
func (ix *Index) SlabBounds(i int) (lo, hi int) {
	lo = i * ix.SlabRows
	hi = lo + ix.SlabRows
	if hi > ix.Dims[0] {
		hi = ix.Dims[0]
	}
	return lo, hi
}

// Compress encodes a as a blocked container. It is a convenience wrapper
// over the streaming Writer: slabs are fed as zero-copy views and the
// container is assembled in memory, so the produced bytes are identical
// to what the streaming path emits for the same parameters.
func Compress(a *grid.Array, p Params) ([]byte, *Stats, error) {
	if err := p.Core.Validate(); err != nil {
		return nil, nil, err
	}
	// Resolve a relative bound against the global range so every slab
	// enforces the same absolute bound.
	if p.Core.Mode != core.BoundAbs {
		_, _, rng := a.Range()
		eb, err := p.Core.EffectiveBound(rng)
		if err != nil {
			return nil, nil, err
		}
		p.Core.AbsBound = eb
		p.Core.Mode = core.BoundAbs
		p.Core.RelBound = 0
	}
	if p.SharedCodebook {
		// A shared codebook needs the union histogram before any slab
		// can be encoded — a two-pass job the streaming Writer cannot
		// do. Handled here instead.
		return compressShared(a, p)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, a.Dims, p)
	if err != nil {
		return nil, nil, err
	}
	rows := a.Dims[0]
	for lo := 0; lo < rows; lo += w.slabRows {
		hi := lo + w.slabRows
		if hi > rows {
			hi = rows
		}
		slab, err := a.Slab(lo, hi)
		if err == nil {
			err = w.writeSlab(slab)
		}
		if err != nil {
			w.Close()
			return nil, nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), w.Stats(), nil
}

// compressShared is the two-pass v3 encode behind Compress when
// SharedCodebook is set: analyze every slab in parallel, build one
// codebook from the union histogram (which by construction covers every
// slab's symbols), then encode every slab against it in parallel. The
// per-slab streams omit their codebooks; the container carries the one
// shared copy between header and body.
func compressShared(a *grid.Array, p Params) ([]byte, *Stats, error) {
	if _, err := p.containerVersion(); err != nil {
		return nil, nil, err
	}
	rows := a.Dims[0]
	slabRows := slabRowsFor(rows, p.SlabRows)
	nSlabs := (rows + slabRows - 1) / slabRows
	workers := p.Workers
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	if workers > nSlabs {
		workers = nSlabs
	}
	streams := p.Core.Streams
	if streams == 0 {
		streams = 1
	}

	scans := make([]*core.Scan, nSlabs)
	errs := make([]error, nSlabs)
	defer func() {
		for _, s := range scans {
			if s != nil {
				s.Release()
			}
		}
	}()
	parallelSlabs(workers, nSlabs, func(i int) {
		lo := i * slabRows
		hi := lo + slabRows
		if hi > rows {
			hi = rows
		}
		slab, err := a.Slab(lo, hi)
		if err != nil {
			errs[i] = err
			return
		}
		scans[i], errs[i] = core.Analyze(slab, p.Core)
	})
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("blocked: slab %d: %w", i, err)
		}
	}

	union := make([]uint64, len(scans[0].Hist()))
	for _, s := range scans {
		for c, f := range s.Hist() {
			union[c] += f
		}
	}
	cb, err := huffman.New(union)
	if err != nil {
		return nil, nil, fmt.Errorf("blocked: shared codebook: %w", err)
	}
	defer cb.Release()

	slabStreams := make([][]byte, nSlabs)
	slabStats := make([]*core.Stats, nSlabs)
	parallelSlabs(workers, nSlabs, func(i int) {
		slabStreams[i], slabStats[i], errs[i] = scans[i].EncodeAppend(nil, cb)
	})
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("blocked: slab %d: %w", i, err)
		}
	}

	cbw := bitstream.NewWriter(4096)
	cb.Serialize(cbw)
	cbBytes := cbw.Bytes()

	out := make([]byte, 0, containerSize(len(cbBytes), slabStreams))
	out = appendHeader(out, ContainerInfo{
		Version: 3, Dims: a.Dims, SlabRows: slabRows, Streams: streams, CodebookLen: len(cbBytes)})
	out = append(out, cbBytes...)
	lengths := make([]int, nSlabs)
	for i, s := range slabStreams {
		out = append(out, s...)
		lengths[i] = len(s)
	}
	out = appendFooter(out, lengths)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	return out, aggregate(a.Dims, p.Core.AbsBound, len(out), slabStats), nil
}

// containerSize estimates the assembled container length for
// preallocation.
func containerSize(cbLen int, slabStreams [][]byte) int {
	n := MaxHeaderLen + cbLen + 8 + 10
	for _, s := range slabStreams {
		n += len(s) + 5
	}
	return n
}

// parallelSlabs runs fn(i) for i in [0, n) across the given worker count.
func parallelSlabs(workers, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Inspect parses and verifies the container index from the footer,
// including the whole-container CRC.
func Inspect(stream []byte) (*Index, error) {
	return inspect(stream, true)
}

// InspectNoVerify parses the container index without the O(container)
// CRC pass. For bytes whose integrity is already established out of
// band — a content-addressed store entry that was digest-verified at
// write time — the CRC walk is the dominant cost of a random-access
// read, and skipping it is what makes a store-hit slab serve O(slab).
// The structural footer checks (offsets, lengths, geometry) still run.
func InspectNoVerify(stream []byte) (*Index, error) {
	return inspect(stream, false)
}

func inspect(stream []byte, verify bool) (*Index, error) {
	if len(stream) < len(magicV2)+3+9 {
		if _, err := parseMagic(stream); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: too short", ErrCorrupt)
	}
	ci, err := ParseContainerHeader(stream)
	if err != nil {
		return nil, err
	}
	if verify && crc32.ChecksumIEEE(stream[:len(stream)-4]) != binary.LittleEndian.Uint32(stream[len(stream)-4:]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	if ci.BodyStart() > len(stream)-8 {
		return nil, fmt.Errorf("%w: codebook section overflows container", ErrCorrupt)
	}
	ix := &Index{
		Dims:        ci.Dims,
		SlabRows:    ci.SlabRows,
		HeaderLen:   ci.BodyStart(),
		Version:     ci.Version,
		Streams:     ci.Streams,
		CodebookLen: ci.CodebookLen,
	}
	off := ix.HeaderLen

	footerLen := int(binary.LittleEndian.Uint32(stream[len(stream)-8:]))
	footStart := len(stream) - 8 - footerLen
	if footerLen < 1 || footStart < off {
		return nil, fmt.Errorf("%w: bad footer length", ErrCorrupt)
	}
	foot := stream[footStart : len(stream)-8]
	ns, k := binary.Uvarint(foot)
	wantSlabs := (ix.Dims[0] + ix.SlabRows - 1) / ix.SlabRows
	if k <= 0 || ns != uint64(wantSlabs) {
		return nil, fmt.Errorf("%w: bad slab count", ErrCorrupt)
	}
	foff := k
	ix.Offsets = make([]int, ns+1)
	pos := 0
	for i := 0; i < int(ns); i++ {
		l, k := binary.Uvarint(foot[foff:])
		if k <= 0 {
			return nil, fmt.Errorf("%w: bad slab length", ErrCorrupt)
		}
		foff += k
		ix.Offsets[i] = pos
		pos += int(l)
	}
	ix.Offsets[ns] = pos
	if foff != footerLen {
		return nil, fmt.Errorf("%w: footer length mismatch", ErrCorrupt)
	}
	if off+pos != footStart {
		return nil, fmt.Errorf("%w: body length mismatch", ErrCorrupt)
	}
	return ix, nil
}

// SlabExtent returns the byte range [start, end) within the container
// that holds the concatenated core streams of slabs lo..hi inclusive.
// Each core stream is self-delimiting, so the extent is decodable on its
// own given the container's geometry — unless the container uses a
// shared codebook (ix.SharedCodebook()), in which case the extent's
// streams reference a section outside the extent. This is the zero-copy
// serving primitive: a slab read becomes a byte-slice of an mmap'd
// container, no entropy decode at all.
func (ix *Index) SlabExtent(lo, hi int) (start, end int, err error) {
	if lo < 0 || hi >= ix.NumSlabs() || lo > hi {
		return 0, 0, fmt.Errorf("blocked: %w: %d-%d of [0,%d)", ErrSlabRange, lo, hi, ix.NumSlabs())
	}
	return ix.HeaderLen + ix.Offsets[lo], ix.HeaderLen + ix.Offsets[hi+1], nil
}

// body returns the container body bytes given its index.
func body(stream []byte, ix *Index) []byte {
	bodyLen := ix.Offsets[len(ix.Offsets)-1]
	footerLen := int(binary.LittleEndian.Uint32(stream[len(stream)-8:]))
	end := len(stream) - 8 - footerLen
	return stream[end-bodyLen : end]
}

// sharedCodebook deserializes the container's shared codebook section
// (nil for containers whose slabs carry their own codebooks). The
// codebook is immutable once built, so concurrent slab decodes share
// one instance; the caller releases it after the last decode.
func sharedCodebook(stream []byte, ix *Index) (*huffman.Codebook, error) {
	if ix.CodebookLen == 0 {
		return nil, nil
	}
	sec := stream[ix.HeaderLen-ix.CodebookLen : ix.HeaderLen]
	cb, err := huffman.Deserialize(bitstream.NewReader(sec))
	if err != nil {
		return nil, fmt.Errorf("%w: shared codebook: %v", ErrCorrupt, err)
	}
	return cb, nil
}

// Decompress reconstructs the full array, decoding slabs in parallel
// with p.Workers goroutines (0 = NumCPU). Only p.Workers is consulted;
// compression parameters live in the stream.
func Decompress(stream []byte, p Params) (*grid.Array, error) {
	ix, err := Inspect(stream)
	if err != nil {
		return nil, err
	}
	out, _, err := decodeRange(stream, ix, 0, ix.NumSlabs()-1, p.Workers)
	return out, err
}

// DecompressSlab decompresses only slab i (random access).
func DecompressSlab(stream []byte, i int) (*grid.Array, error) {
	slab, _, err := DecompressSlabRange(stream, i, i)
	return slab, err
}

// DecompressSlabRange decompresses slabs lo..hi (inclusive) into one
// contiguous array covering their row span, decoding the slabs in
// parallel. It also returns the container's element type so callers can
// serialize the reconstruction in the container's own width — this is
// the random-access primitive behind szd's /v1/slab/{spec} endpoint.
func DecompressSlabRange(stream []byte, lo, hi int) (*grid.Array, grid.DType, error) {
	ix, err := Inspect(stream)
	if err != nil {
		return nil, 0, err
	}
	return DecompressSlabRangeIndexed(stream, ix, lo, hi)
}

// DecompressSlabRangeIndexed is DecompressSlabRange against an index the
// caller already parsed — via Inspect, or InspectNoVerify for bytes
// whose integrity is vouched for elsewhere (a digest-verified store
// entry). It never re-walks the container.
func DecompressSlabRangeIndexed(stream []byte, ix *Index, lo, hi int) (*grid.Array, grid.DType, error) {
	return decodeRange(stream, ix, lo, hi, 0)
}

// decodeRange is the one parallel slab decoder: it decodes slabs lo..hi
// (inclusive) into one contiguous array covering their row span across
// workers goroutines (< 1 = NumCPU) and returns the container's element
// type. Each slab decodes straight into the output rows it covers: the
// slabs tile out.Data disjointly, so the workers never overlap and the
// decode-then-copy round trip disappears.
func decodeRange(stream []byte, ix *Index, lo, hi, workers int) (*grid.Array, grid.DType, error) {
	if lo < 0 || hi >= ix.NumSlabs() || lo > hi {
		return nil, 0, fmt.Errorf("blocked: %w: %d-%d of [0,%d)", ErrSlabRange, lo, hi, ix.NumSlabs())
	}
	rowLo, _ := ix.SlabBounds(lo)
	_, rowHi := ix.SlabBounds(hi)
	dims := append([]int(nil), ix.Dims...)
	dims[0] = rowHi - rowLo
	out := grid.New(dims...)
	b := body(stream, ix)
	cb, err := sharedCodebook(stream, ix)
	if err != nil {
		return nil, 0, err
	}
	if cb != nil {
		defer cb.Release()
	}
	n := hi - lo + 1
	errs := make([]error, n)
	dtypes := make([]grid.DType, n)
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	parallelSlabs(workers, n, func(k int) {
		slo, shi := ix.SlabBounds(lo + k)
		dst, err := out.Slab(slo-rowLo, shi-rowLo)
		if err != nil {
			errs[k] = err
			return
		}
		dtypes[k], errs[k] = decodeSlabInto(b, ix, lo+k, dst.Data, cb)
	})
	for k, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("blocked: slab %d: %w", lo+k, err)
		}
	}
	for k := 1; k < n; k++ {
		if dtypes[k] != dtypes[0] {
			return nil, 0, fmt.Errorf("%w: slab %d element type %v, container uses %v",
				ErrCorrupt, lo+k, dtypes[k], dtypes[0])
		}
	}
	return out, dtypes[0], nil
}

// decodeSlabInto decompresses slab i directly into dst (the output
// rows the slab covers). When the stream's geometry does not fit dst the
// core falls back to a private allocation, so a corrupt slab can at
// worst scribble on rows its caller is about to discard with the error.
func decodeSlabInto(b []byte, ix *Index, i int, dst []float64, cb *huffman.Codebook) (grid.DType, error) {
	lo, hi := ix.Offsets[i], ix.Offsets[i+1]
	if lo > hi || hi > len(b) {
		return 0, fmt.Errorf("%w: slab %d bounds", ErrCorrupt, i)
	}
	slab, h, err := core.DecompressIntoShared(b[lo:hi], dst, cb)
	if err != nil {
		return 0, err
	}
	wantLo, wantHi := ix.SlabBounds(i)
	if err := checkSlabDims(slab.Dims, i, wantHi-wantLo, ix.Dims); err != nil {
		return 0, err
	}
	return h.DType, nil
}

// checkSlabDims verifies that slab i's dims (from its stream header)
// match the container's geometry: rows rows along the slowest
// dimension, then every trailing dimension of dims exactly.
func checkSlabDims(got []int, i, rows int, dims []int) error {
	if got[0] != rows {
		return fmt.Errorf("%w: slab %d has %d rows, want %d", ErrCorrupt, i, got[0], rows)
	}
	if len(got) != len(dims) {
		return fmt.Errorf("%w: slab %d dims %v do not match container %v", ErrCorrupt, i, got, dims)
	}
	for d := 1; d < len(dims); d++ {
		if got[d] != dims[d] {
			return fmt.Errorf("%w: slab %d dims %v do not match container %v", ErrCorrupt, i, got, dims)
		}
	}
	return nil
}
