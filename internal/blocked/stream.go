package blocked

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"runtime"

	"repro/internal/bitstream"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/huffman"
	"repro/internal/scratch"
)

// ErrNeedsAbsBound is returned by NewWriter for relative bound modes: a
// streaming writer sees the data once and cannot resolve a value-range
// relative bound against the global range. Resolve the bound first (or
// use Compress, which does it for you).
var ErrNeedsAbsBound = errors.New(
	"blocked: streaming writer requires an absolute bound (core.BoundAbs)")

// ErrSharedCodebookStreaming is returned by NewWriter when
// Params.SharedCodebook is set: the shared codebook is built from the
// union histogram of every slab, which a one-pass streaming writer
// cannot know. Use the one-shot Compress, which runs two passes.
var ErrSharedCodebookStreaming = errors.New(
	"blocked: shared codebook requires the two-pass one-shot Compress, not the streaming writer")

// maxSlabStream bounds a slab's compressed size so a corrupt or hostile
// length field cannot make the streaming reader allocate unbounded
// memory: worst-case escape coding costs under 2x the raw bytes plus the
// Huffman table, far below this cap.
func maxSlabStream(rawSlabBytes int) int {
	return 4*rawSlabBytes + 1<<20
}

// Writer is a streaming blocked-container writer. Raw little-endian
// values of the configured output type arrive row-major through Write
// into a slab buffer; every SlabRows rows the caller's goroutine hands
// the filled buffer to an encode on a goroutine of its own, keeping at
// most Workers encodes in flight, and writes the finished slab streams
// to the destination in slab order. The encode runs the kernels on the
// buffer's samples in place, as float32 for a float32 container, and
// recycles it; the next Write draws a fresh one. A slab in flight holds
// its raw samples, a reconstruction of the same width, 2-byte
// quantization codes and its output stream. When the window is full,
// handing in slab k+Workers first waits for slab k and writes it out, so
// a live destination sees slab k once slab k+Workers has been handed in,
// or at Close. Memory is bounded by O(workers x slab), never by the
// stream length. A failed encode surfaces, in slab order, from the Write
// or Close that reaches it. Close writes the remaining slabs and appends
// the seekable footer (see the package format note); once it returns, no
// encode is left running. An abandoned writer's encodes finish on their
// own.
type Writer struct {
	dst  io.Writer
	crc  hash.Hash32
	dims []int
	cp   core.Params

	slabRows int
	nSlabs   int
	rowBytes int
	elemSize int

	buf []byte // raw-byte accumulator for the current slab

	// The encode window is slabs [emitted, next); slab i's encode lives
	// in ring[i%len(ring)], so len(ring) bounds the encodes in flight.
	ring    []slabEncode
	next    int // slabs handed in so far
	emitted int // slabs taken off the window (written out or drained)

	lengths   []int
	slabStats []*core.Stats
	written   int64
	err       error // first failure; the window is empty once it is set

	closed bool
	stats  *Stats
}

// slabEncode is one slab's trip through the encode window: the caller's
// goroutine fills in raw or slab, an encode goroutine fills out, stats
// or err and signals done once. A slot is reused only after its slab has
// been taken off the window.
type slabEncode struct {
	// raw is the scratch-pooled buffer of the slab's raw samples (the
	// Write path), which the encode recycles; otherwise slab is a
	// zero-copy view handed in by writeSlab, never recycled.
	raw   []byte
	slab  *grid.Array
	rows  int
	out   []byte // scratch-pooled compressed slab stream
	stats *core.Stats
	err   error
	done  chan struct{}
}

// NewWriter writes the container header to w and returns a streaming
// writer for an array with the given dimensions (slowest-varying
// first). p.Core.Mode must be core.BoundAbs (ErrNeedsAbsBound
// otherwise); p.SlabRows defaults as in Compress. At most p.Workers
// slab encodes (0 = NumCPU) run at once, so a window costs memory in
// proportion to p.Workers, and w sees slab k once slab k+p.Workers has
// been handed in (see Writer). The caller must deliver exactly
// product(dims) values as raw little-endian p.Core.OutputType bytes and
// then Close.
func NewWriter(w io.Writer, dims []int, p Params) (*Writer, error) {
	if len(dims) < 1 || len(dims) > grid.MaxDims {
		return nil, fmt.Errorf("blocked: %d dims out of range [1,%d]", len(dims), grid.MaxDims)
	}
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("blocked: bad dimension %d", d)
		}
	}
	if err := p.Core.Validate(); err != nil {
		return nil, err
	}
	if p.Core.Mode != core.BoundAbs {
		return nil, ErrNeedsAbsBound
	}
	if p.SharedCodebook {
		return nil, ErrSharedCodebookStreaming
	}
	version, err := p.containerVersion()
	if err != nil {
		return nil, err
	}
	streams := p.Core.Streams
	if streams == 0 {
		streams = 1
	}
	dtype := p.Core.OutputType
	if dtype == 0 {
		dtype = grid.Float64
	}
	rows := dims[0]
	slabRows := slabRowsFor(rows, p.SlabRows)
	nSlabs := (rows + slabRows - 1) / slabRows
	workers := p.Workers
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	if workers > nSlabs {
		workers = nSlabs
	}
	rowElems := 1
	for _, d := range dims[1:] {
		rowElems *= d
	}

	w2 := &Writer{
		dst:      w,
		crc:      crc32.NewIEEE(),
		dims:     append([]int(nil), dims...),
		cp:       p.Core,
		slabRows: slabRows,
		nSlabs:   nSlabs,
		rowBytes: rowElems * dtype.Size(),
		elemSize: dtype.Size(),
		ring:     make([]slabEncode, workers),
	}
	for i := range w2.ring {
		w2.ring[i].done = make(chan struct{}, 1)
	}
	// The one-pass writer always emits per-slab codebooks, so a v3
	// header carries an empty shared-codebook section.
	head := appendHeader(make([]byte, 0, MaxHeaderLen), ContainerInfo{
		Version: version, Dims: dims, SlabRows: slabRows, Streams: streams})
	if err := w2.writeHashed(head); err != nil {
		return nil, err
	}
	return w2, nil
}

// SlabRowsFor reports the slab thickness a container with the given row
// count would use for a requested thickness (0 = auto). It exposes the
// writer's sizing heuristic so capacity planners (the szd admission
// controller) can estimate per-request streaming memory.
func SlabRowsFor(rows, requested int) int { return slabRowsFor(rows, requested) }

// MaxHeaderLen bounds the fixed container header: magic (4), ndims (1),
// up to grid.MaxDims + 1 uvarints of at most 10 bytes each, plus the v3
// streams byte (1) and codebook-length uvarint (10). A v3 shared
// codebook section follows the fixed header and is NOT included — its
// length is reported by ContainerInfo.CodebookLen.
const MaxHeaderLen = 4 + 1 + (grid.MaxDims+1)*10 + 1 + 10

// ContainerInfo is the decoded fixed container header.
type ContainerInfo struct {
	// Version is the container format version (2 or 3).
	Version int
	// Dims are the full-array dimensions, slowest-varying first.
	Dims []int
	// SlabRows is the slab thickness along the slowest dimension.
	SlabRows int
	// Streams is the interleaved Huffman sub-stream count the slabs use
	// (1 for v2 containers).
	Streams int
	// CodebookLen is the byte length of the v3 shared codebook section
	// (0 = every slab carries its own codebook).
	CodebookLen int
	// HeaderLen is the fixed header's byte length. The shared codebook
	// section (CodebookLen bytes, v3 only) follows it; the body (the
	// first slab stream) starts at BodyStart.
	HeaderLen int
}

// BodyStart returns the byte offset of the first slab stream.
func (ci *ContainerInfo) BodyStart() int { return ci.HeaderLen + ci.CodebookLen }

// parseMagic classifies the leading 4 bytes: container version 2 or 3 on
// success, ErrUnsupportedVersion for recognizably-SZB containers this
// build cannot read (v1, or versions newer than it knows), ErrCorrupt
// otherwise.
func parseMagic(b []byte) (int, error) {
	if len(b) < 4 || string(b[:3]) != magicPrefix {
		return 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	switch b[3] {
	case '2':
		return 2, nil
	case '3':
		return 3, nil
	case magicV1[3]:
		return 0, fmt.Errorf("%w: v1 container (no footer); re-encode with a current sz build", ErrUnsupportedVersion)
	default:
		return 0, fmt.Errorf("%w: container %q is newer than this build supports; upgrade sz to read it", ErrUnsupportedVersion, string(b[:4]))
	}
}

// ParseContainerHeader parses the fixed container header from the
// leading bytes of a stream without consuming it. It is the one
// container-header parser: NewReader decodes through it, and admission
// controllers (szd) can cost a decompression from a peeked
// MaxHeaderLen-byte prefix alone.
func ParseContainerHeader(b []byte) (*ContainerInfo, error) {
	version, err := parseMagic(b)
	if err != nil {
		return nil, err
	}
	if len(b) < 5 {
		return nil, fmt.Errorf("%w: too short", ErrCorrupt)
	}
	nd := int(b[4])
	if nd < 1 || nd > grid.MaxDims {
		return nil, fmt.Errorf("%w: bad ndims", ErrCorrupt)
	}
	off := 5
	ci := &ContainerInfo{Version: version, Dims: make([]int, nd), Streams: 1}
	for i := range ci.Dims {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 || v == 0 || v > 1<<40 {
			return nil, fmt.Errorf("%w: bad dim", ErrCorrupt)
		}
		ci.Dims[i] = int(v)
		off += n
	}
	v, n := binary.Uvarint(b[off:])
	if n <= 0 || v == 0 || v > uint64(ci.Dims[0]) {
		return nil, fmt.Errorf("%w: bad slab rows", ErrCorrupt)
	}
	ci.SlabRows = int(v)
	off += n
	if version >= 3 {
		if len(b) < off+1 {
			return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
		}
		ci.Streams = int(b[off])
		off++
		if ci.Streams < 1 || ci.Streams > huffman.MaxStreams {
			return nil, fmt.Errorf("%w: bad stream count %d", ErrCorrupt, ci.Streams)
		}
		v, n := binary.Uvarint(b[off:])
		if n <= 0 || v > maxCodebookSection {
			return nil, fmt.Errorf("%w: bad codebook length", ErrCorrupt)
		}
		ci.CodebookLen = int(v)
		off += n
	}
	ci.HeaderLen = off
	return ci, nil
}

// appendHeader appends the fixed container header that
// ParseContainerHeader reads back (ci.HeaderLen is not consulted); for
// v3, a shared codebook section of ci.CodebookLen bytes must follow it.
func appendHeader(b []byte, ci ContainerInfo) []byte {
	if ci.Version >= 3 {
		b = append(b, magicV3...)
	} else {
		b = append(b, magicV2...)
	}
	b = append(b, byte(len(ci.Dims)))
	for _, d := range ci.Dims {
		b = binary.AppendUvarint(b, uint64(d))
	}
	b = binary.AppendUvarint(b, uint64(ci.SlabRows))
	if ci.Version >= 3 {
		b = append(b, byte(ci.Streams))
		b = binary.AppendUvarint(b, uint64(ci.CodebookLen))
	}
	return b
}

// maxCodebookSection bounds the shared codebook section so a hostile
// length field cannot force an unbounded read: a full 2^16-symbol
// codebook serializes in well under 64 KiB.
const maxCodebookSection = 1 << 20

// slabRowsFor resolves the slab thickness (0 targets ~NumCPU slabs, at
// least 4 rows, capped at the row count).
func slabRowsFor(rows, requested int) int {
	slabRows := requested
	if slabRows <= 0 {
		slabRows = (rows + runtime.NumCPU() - 1) / runtime.NumCPU()
		if slabRows < 4 {
			slabRows = 4
		}
	}
	if slabRows > rows {
		slabRows = rows
	}
	return slabRows
}

// writeHashed writes to the destination while folding the bytes into the
// running container CRC.
func (w *Writer) writeHashed(b []byte) error {
	if _, err := w.dst.Write(b); err != nil {
		return err
	}
	w.crc.Write(b)
	w.written += int64(len(b))
	return nil
}

// curSlabRows returns the row count of the slab currently being filled.
func (w *Writer) curSlabRows() int {
	return min(w.slabRows, w.dims[0]-w.next*w.slabRows)
}

// Write accepts the next raw little-endian bytes of the row-major array.
func (w *Writer) Write(b []byte) (int, error) {
	if w.closed {
		return 0, errors.New("blocked: write after Close")
	}
	if w.err != nil {
		return 0, w.err
	}
	n := len(b)
	for len(b) > 0 {
		if w.next >= w.nSlabs {
			return n - len(b), w.fail(fmt.Errorf("blocked: more than %d rows of data written", w.dims[0]))
		}
		target := w.curSlabRows() * w.rowBytes
		if cap(w.buf) == 0 {
			// Lazily drawn so the writeSlab (zero-copy) path never pays
			// for an accumulator it does not use.
			w.buf = scratch.Bytes(target)[:0]
		}
		take := target - len(w.buf)
		if take > len(b) {
			take = len(b)
		}
		w.buf = append(w.buf, b[:take]...)
		b = b[take:]
		if len(w.buf) == target {
			if err := w.dispatchBuf(); err != nil {
				return n - len(b), err
			}
		}
	}
	return n, nil
}

// dispatchBuf hands the filled slab buffer to the encode window, whose
// encode reads the samples from it and recycles it; the next Write draws
// a fresh one.
func (w *Writer) dispatchBuf() error {
	raw := w.buf
	w.buf = nil
	return w.dispatch(raw, nil)
}

// writeSlab feeds a whole slab directly into the encode window, bypassing
// the raw-byte path; Compress uses it with zero-copy slab views. Do not
// mix with partial Write calls.
func (w *Writer) writeSlab(slab *grid.Array) error {
	if w.closed {
		return errors.New("blocked: write after Close")
	}
	if w.err != nil {
		return w.err
	}
	if len(w.buf) != 0 {
		return errors.New("blocked: writeSlab after partial Write")
	}
	if w.next >= w.nSlabs {
		return fmt.Errorf("blocked: more than %d rows of data written", w.dims[0])
	}
	if slab.Dims[0] != w.curSlabRows() {
		return fmt.Errorf("blocked: slab has %d rows, want %d", slab.Dims[0], w.curSlabRows())
	}
	return w.dispatch(nil, slab)
}

// dispatch starts the encode of the current slab, given as a raw buffer
// or as an array view, in the window, first writing out the oldest slab
// when the window is full.
func (w *Writer) dispatch(raw []byte, slab *grid.Array) error {
	if w.next-w.emitted == len(w.ring) {
		if err := w.emit(); err != nil {
			scratch.PutBytes(raw)
			return err
		}
	}
	e := &w.ring[w.next%len(w.ring)]
	e.raw, e.slab, e.rows = raw, slab, w.curSlabRows()
	go w.encode(e)
	w.next++
	return nil
}

// encode runs on its own goroutine: it compresses the slab into e.out,
// recycles a raw buffer and signals e.done. It reads only Writer fields
// NewWriter set.
func (w *Writer) encode(e *slabEncode) {
	// Seed the output buffer at half the raw slab size — ample for
	// typical compression factors, and append-growth (recycled too)
	// covers incompressible slabs.
	out := scratch.Bytes(w.slabRows * w.rowBytes / 2)[:0]
	switch {
	case e.raw == nil:
		e.out, e.stats, e.err = core.CompressAppend(out, e.slab, w.cp)
	case w.elemSize == 4:
		e.out, e.stats, e.err = compressRaw[float32](out, e.raw, w.slabDims(e.rows), w.cp)
	default:
		e.out, e.stats, e.err = compressRaw[float64](out, e.raw, w.slabDims(e.rows), w.cp)
	}
	scratch.PutBytes(e.raw)
	e.raw, e.slab = nil, nil
	e.done <- struct{}{}
}

// slabDims returns the dims of a slab of the given row count.
func (w *Writer) slabDims(rows int) []int {
	dims := append([]int(nil), w.dims...)
	dims[0] = rows
	return dims
}

// rawViews lets the writer and reader run the kernels on a slab's raw
// bytes in place; tests turn it off to drive the copying path that a
// big-endian host or an unaligned buffer takes.
var rawViews = true

// view returns raw's little-endian samples as a []F sharing its storage
// (scratch.View), or false when the caller must convert them.
func view[F grid.Sample](raw []byte) ([]F, bool) {
	if !rawViews {
		return nil, false
	}
	return scratch.View[F](raw)
}

// compressRaw compresses a slab given as raw little-endian samples,
// viewed in place as []F, or else converted into a pooled copy.
func compressRaw[F grid.Sample](dst, raw []byte, dims []int, p core.Params) ([]byte, *core.Stats, error) {
	data, ok := view[F](raw)
	if !ok {
		cells := 1
		for _, d := range dims {
			cells *= d
		}
		data = scratch.Floats[F](cells)
		defer scratch.PutFloats(data)
		switch d := any(data).(type) {
		case []float32:
			for i := range d {
				d[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
			}
		case []float64:
			for i := range d {
				d[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
			}
		}
	}
	return core.CompressSamples(dst, data, dims, p)
}

// emit waits for the oldest slab in the window and writes its stream to
// the destination. On failure it fails the writer.
func (w *Writer) emit() error {
	e := &w.ring[w.emitted%len(w.ring)]
	<-e.done
	w.emitted++
	out, err := e.out, e.err
	e.out = nil
	if err == nil {
		err = w.writeHashed(out)
	}
	scratch.PutBytes(out)
	if err != nil {
		return w.fail(err)
	}
	w.lengths = append(w.lengths, len(out))
	w.slabStats = append(w.slabStats, e.stats)
	return nil
}

// fail records the writer's first error and drains the window, waiting
// for every encode still in it and recycling its output, so a failed
// writer has nothing left running. It returns the recorded error.
func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	for ; w.emitted < w.next; w.emitted++ {
		e := &w.ring[w.emitted%len(w.ring)]
		<-e.done
		scratch.PutBytes(e.out)
		e.out = nil
	}
	return w.err
}

// Close writes out the slabs still in the window, then the footer, and
// finalizes Stats. It fails if the data delivered does not amount to
// exactly product(dims) values, and returns the same error when called
// again.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	for w.err == nil && w.emitted < w.next {
		w.emit() // a failure is recorded in w.err and drains the window
	}
	switch {
	case w.err != nil:
	case len(w.buf) != 0:
		w.err = fmt.Errorf("blocked: %d trailing bytes do not complete a slab", len(w.buf))
	case w.next != w.nSlabs:
		w.err = fmt.Errorf("blocked: got %d of %d rows", w.next*w.slabRows, w.dims[0])
	}
	scratch.PutBytes(w.buf)
	w.buf = nil
	if w.err != nil {
		return w.err
	}
	err := w.writeHashed(appendFooter(nil, w.lengths))
	if err == nil {
		err = w.writeHashed(binary.LittleEndian.AppendUint32(nil, w.crc.Sum32()))
	}
	if err != nil {
		w.err = err
		return err
	}
	w.stats = aggregate(w.dims, w.cp.AbsBound, int(w.written), w.slabStats)
	return nil
}

// appendFooter appends the footer of a body holding slab streams of the
// given lengths: the slab count, the lengths, and the byte length of
// those varints. The container CRC, over everything before it, follows.
func appendFooter(b []byte, lengths []int) []byte {
	start := len(b)
	b = binary.AppendUvarint(b, uint64(len(lengths)))
	for _, l := range lengths {
		b = binary.AppendUvarint(b, uint64(l))
	}
	return binary.LittleEndian.AppendUint32(b, uint32(len(b)-start))
}

// aggregate sums the per-slab statistics of a container of the given
// dims and compressed size.
func aggregate(dims []int, eb float64, compressed int, slabStats []*core.Stats) *Stats {
	agg := &Stats{N: 1, Slabs: len(slabStats), EffAbsBound: eb, CompressedBytes: compressed}
	for _, d := range dims {
		agg.N *= d
	}
	for _, st := range slabStats {
		agg.Predictable += st.Predictable
		agg.OriginalBytes += st.OriginalBytes
	}
	agg.HitRate = float64(agg.Predictable) / float64(agg.N)
	agg.CompressionFactor = float64(agg.OriginalBytes) / float64(agg.CompressedBytes)
	agg.BitRate = float64(agg.CompressedBytes) * 8 / float64(agg.N)
	return agg
}

// Stats returns the aggregated compression statistics; it is nil until
// Close has returned successfully.
func (w *Writer) Stats() *Stats { return w.stats }

// Reader decompresses a blocked container from a plain io.Reader. The
// caller's goroutine reads the compressed slabs in order (each core
// stream is self-delimiting) and starts a decode goroutine for each,
// keeping at most Workers decodes in flight; Read serves their
// reconstructions in slab order as raw little-endian bytes of the
// container's element type. A decode reconstructs its slab straight into
// the slab's raw output buffer, viewed as the container's element type.
// Peak memory is O(workers x slab), not O(stream): the decode window
// plus the slab being served. Each window slot keeps its output buffer
// from slab to slab, swapping it for the one just served, so the window
// holds Workers+1 of them however many Ps its decodes run on; the pools
// see them again once the reader ends. Read keeps
// the window full, so on a live source (a pipe fed as a simulation
// runs) slab k is served only once slab k+workers, or the last slab if
// that comes sooner, has arrived. A failure reading or decoding slab k
// surfaces only after slabs 0..k-1 have been served. The footer lengths
// and container CRC are verified when the last slab has been consumed.
type Reader struct {
	br  *bufio.Reader
	crc hash.Hash32

	dims     []int
	slabRows int
	rowElems int
	nSlabs   int
	dtype    grid.DType
	version  int
	streams  int
	cb       *huffman.Codebook // shared codebook (v3; nil = per-slab)

	// The decode window is slabs [served, next); slab i's decode lives
	// in ring[i%len(ring)], so len(ring) bounds the decodes in flight.
	ring    []slabDecode
	next    int   // slabs read from the source so far
	served  int   // slabs taken off the window by Read
	readErr error // failure reading slab next; surfaces once the window drains

	cur     []byte // raw bytes of the slab being served, a slot's buffer until then
	curOff  int
	lengths []int
	hashed  int // bytes consumed and folded into the CRC so far
	err     error
	closed  bool
}

// slabDecode is one slab's trip through the decode window: the caller's
// goroutine fills in, a decode goroutine fills out or err and signals
// done once. A slot is reused only after Read has taken its slab, and an
// err ends the reader, so a failed slot is never reused.
type slabDecode struct {
	in   []byte // scratch-pooled compressed slab; the decoder recycles it
	out  []byte // the slot's raw output buffer, scratch-pooled
	err  error
	done chan struct{}
}

// NewReader parses the container header from r and prepares streaming
// decompression with p.Workers slab decodes in flight (0 = NumCPU); only
// p.Workers is consulted. Each decode holds its compressed slab, 2 bytes
// of quantization codes per slab cell and the slab's raw output, which
// the reconstruction is written into: about 6 bytes per float32 cell
// beside the compressed stream (10 per float64 cell). So a window costs
// memory in proportion to p.Workers, and on a live source the consumer
// trails the producer by p.Workers slabs (see Reader). The element type
// is read from the first slab's header without consuming it, so DType is
// valid immediately.
func NewReader(r io.Reader, p Params) (*Reader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok || br.Size() < core.MaxHeaderLen {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	rd := &Reader{br: br, crc: crc32.NewIEEE()}

	hdr, _ := br.Peek(MaxHeaderLen) // short reads surface as parse errors
	ci, err := ParseContainerHeader(hdr)
	if err != nil {
		return nil, err
	}
	if err := rd.readFull(make([]byte, ci.HeaderLen)); err != nil {
		return nil, fmt.Errorf("%w: header: %w", ErrCorrupt, err)
	}
	rd.dims = ci.Dims
	rd.slabRows = ci.SlabRows
	rd.rowElems = 1
	for _, d := range rd.dims[1:] {
		rd.rowElems *= d
	}
	rd.version = ci.Version
	rd.streams = ci.Streams
	rd.nSlabs = (rd.dims[0] + rd.slabRows - 1) / rd.slabRows
	if ci.CodebookLen > 0 {
		sec := make([]byte, ci.CodebookLen)
		if err := rd.readFull(sec); err != nil {
			return nil, fmt.Errorf("%w: shared codebook: %w", ErrCorrupt, err)
		}
		cb, err := huffman.Deserialize(bitstream.NewReader(sec))
		if err != nil {
			return nil, fmt.Errorf("%w: shared codebook: %v", ErrCorrupt, err)
		}
		rd.cb = cb
	}

	// Learn the element type from the first slab header (peek only).
	pk, _ := br.Peek(core.MaxHeaderLen)
	h, _, err := core.ParseHeaderPrefix(pk)
	if err != nil {
		return nil, fmt.Errorf("%w: first slab: %w", ErrCorrupt, err)
	}
	rd.dtype = h.DType

	workers := p.Workers
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	if workers > rd.nSlabs {
		workers = rd.nSlabs
	}
	rd.ring = make([]slabDecode, workers)
	for i := range rd.ring {
		rd.ring[i].done = make(chan struct{}, 1)
	}
	return rd, nil
}

// Dims returns the full-array dimensions recorded in the container.
func (r *Reader) Dims() []int { return append([]int(nil), r.dims...) }

// DType returns the element type the raw output bytes use.
func (r *Reader) DType() grid.DType { return r.dtype }

// NumSlabs returns the container's slab count.
func (r *Reader) NumSlabs() int { return r.nSlabs }

// SlabRows returns the slab thickness along the slowest dimension.
func (r *Reader) SlabRows() int { return r.slabRows }

// Version returns the container format version (2 or 3).
func (r *Reader) Version() int { return r.version }

// Streams returns the interleaved Huffman sub-stream count per slab.
func (r *Reader) Streams() int { return r.streams }

// SharedCodebook reports whether the container carries one shared
// per-container codebook.
func (r *Reader) SharedCodebook() bool { return r.cb != nil }

func (r *Reader) readFull(b []byte) error {
	if _, err := io.ReadFull(r.br, b); err != nil {
		return err
	}
	r.crc.Write(b)
	r.hashed += len(b)
	return nil
}

func (r *Reader) readUvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		c, err := r.br.ReadByte()
		if err != nil {
			return 0, err
		}
		r.crc.Write([]byte{c})
		r.hashed++
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				return 0, errors.New("uvarint overflow")
			}
			return x | uint64(c)<<s, nil
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, errors.New("uvarint overflow")
}

// Read serves the next raw bytes of the reconstruction, in slab order.
func (r *Reader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	for r.curOff == len(r.cur) {
		if err := r.nextSlab(); err != nil {
			r.err = err
			r.drain()
			return 0, err
		}
	}
	n := copy(p, r.cur[r.curOff:])
	r.curOff += n
	return n, nil
}

// nextSlab makes the oldest slab in the window current, topping the
// window up around the wait, and hands the slab just served to its slot
// as the buffer of the slot's next decode. At the end of the body it
// returns the deferred read failure, or verifies the footer and returns
// io.EOF.
func (r *Reader) nextSlab() error {
	r.fill()
	if r.served == r.next {
		if r.readErr != nil {
			return r.readErr
		}
		if err := r.readFooter(); err != nil {
			return err
		}
		return io.EOF
	}
	d := &r.ring[r.served%len(r.ring)]
	<-d.done
	r.served++
	if d.err != nil {
		return d.err
	}
	r.cur, d.out, r.curOff = d.out, r.cur, 0
	r.fill()
	return nil
}

// fill reads compressed slabs until the window is full or the body ends,
// starting one decode goroutine per slab. A read failure stops the
// window growing; nextSlab returns it once the slabs before it are
// served.
func (r *Reader) fill() {
	for r.readErr == nil && r.next < r.nSlabs && r.next-r.served < len(r.ring) {
		in, err := r.readSlab(r.next)
		if err != nil {
			r.readErr = err
			return
		}
		d := &r.ring[r.next%len(r.ring)]
		d.in = in
		go r.decode(d, r.next)
		r.next++
	}
}

// readSlab reads slab i's compressed stream into a scratch buffer,
// folding it into the container CRC and recording its length for the
// footer check.
func (r *Reader) readSlab(i int) ([]byte, error) {
	pk, _ := r.br.Peek(core.MaxHeaderLen)
	h, total, err := core.ParseHeaderPrefix(pk)
	if err != nil {
		return nil, fmt.Errorf("%w: slab %d: %w", ErrCorrupt, i, err)
	}
	// The decoded slab takes its element type and dims from this header,
	// so checking them here bounds what the decode goroutine allocates.
	rows := r.slabLen(i)
	if h.DType != r.dtype {
		return nil, fmt.Errorf("%w: slab %d element type %v, container uses %v", ErrCorrupt, i, h.DType, r.dtype)
	}
	if err := checkSlabDims(h.Dims, i, rows, r.dims); err != nil {
		return nil, err
	}
	if total > maxSlabStream(rows*r.rowElems*r.dtype.Size()) {
		return nil, fmt.Errorf("%w: slab %d claims %d bytes", ErrCorrupt, i, total)
	}
	in := scratch.Bytes(total)
	if err := r.readFull(in); err != nil {
		scratch.PutBytes(in)
		return nil, fmt.Errorf("%w: slab %d: %w", ErrCorrupt, i, err)
	}
	r.lengths = append(r.lengths, total)
	return in, nil
}

// slabLen returns the row count of slab i.
func (r *Reader) slabLen(i int) int {
	return min(r.slabRows, r.dims[0]-i*r.slabRows)
}

// decode runs on its own goroutine: it decompresses slab i from d.in
// (whose header readSlab checked) into d.out, drawing the slot's buffer
// on its first slab, and signals d.done. It reads only Reader fields
// NewReader set, and Close releases the shared codebook only after every
// decode has signalled.
func (r *Reader) decode(d *slabDecode, i int) {
	esz, cells := r.dtype.Size(), r.slabLen(i)*r.rowElems
	if d.out == nil {
		d.out = scratch.Bytes(r.slabRows * r.rowElems * esz)
	}
	d.out = d.out[:cells*esz]
	var err error
	if r.dtype == grid.Float32 {
		err = decompressRaw[float32](d.out, d.in, cells, r.cb)
	} else {
		err = decompressRaw[float64](d.out, d.in, cells, r.cb)
	}
	scratch.PutBytes(d.in)
	d.in = nil
	if err != nil {
		d.err = fmt.Errorf("blocked: slab %d: %w", i, err)
	}
	d.done <- struct{}{}
}

// decompressRaw reconstructs a slab stream into out as raw little-endian
// samples: in place through a view, or else through a pooled []F whose
// bytes it then writes out (byte-identical to grid.Array.WriteRaw of the
// stream's float64 reconstruction: core.DecompressSamples narrows as
// WriteRaw does). readSlab checked that the stream's dims fill out
// exactly, so the reconstruction lands in the view.
func decompressRaw[F grid.Sample](out, in []byte, cells int, cb *huffman.Codebook) error {
	dst, ok := view[F](out)
	if !ok {
		dst = scratch.Floats[F](cells)
		defer scratch.PutFloats(dst)
	}
	if _, _, err := core.DecompressSamples(in, dst, cb); err != nil {
		return err
	}
	if !ok {
		switch d := any(dst).(type) {
		case []float32:
			for k, v := range d {
				binary.LittleEndian.PutUint32(out[k*4:], math.Float32bits(v))
			}
		case []float64:
			for k, v := range d {
				binary.LittleEndian.PutUint64(out[k*8:], math.Float64bits(v))
			}
		}
	}
	return nil
}

// drain waits for every decode still in the window, then recycles the
// window's buffers, so no decode goroutine outlives it. The reader
// serves nothing after it.
func (r *Reader) drain() {
	for ; r.served < r.next; r.served++ {
		<-r.ring[r.served%len(r.ring)].done
	}
	for i := range r.ring {
		scratch.PutBytes(r.ring[i].out)
		r.ring[i].out = nil
	}
	scratch.PutBytes(r.cur)
	r.cur, r.curOff = nil, 0
}

// Close waits for the decodes in flight, then returns the reader's
// pooled buffers to the scratch pools. It never fails and does not
// close the underlying reader; a closed reader serves no further data.
// Closing is optional: an unclosed reader's decodes finish on their own
// and its buffers are ordinary garbage.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.drain()
	if r.cb != nil {
		r.cb.Release()
		r.cb = nil
	}
	if r.err == nil {
		r.err = errors.New("blocked: reader closed")
	}
	return nil
}

// readFooter parses and verifies the footer against everything the
// reader has seen, then checks the container CRC and clean EOF.
func (r *Reader) readFooter() error {
	start := r.hashed
	ns, err := r.readUvarint()
	if err != nil || ns != uint64(r.nSlabs) {
		return fmt.Errorf("%w: footer slab count", ErrCorrupt)
	}
	for i := 0; i < r.nSlabs; i++ {
		l, err := r.readUvarint()
		if err != nil || int(l) != r.lengths[i] {
			return fmt.Errorf("%w: footer length of slab %d", ErrCorrupt, i)
		}
	}
	varintBytes := r.hashed - start
	var lenBuf [4]byte
	if err := r.readFull(lenBuf[:]); err != nil {
		return fmt.Errorf("%w: footer: %w", ErrCorrupt, err)
	}
	if int(binary.LittleEndian.Uint32(lenBuf[:])) != varintBytes {
		return fmt.Errorf("%w: footer length mismatch", ErrCorrupt)
	}
	want := r.crc.Sum32()
	var crcBuf [4]byte
	if _, err := io.ReadFull(r.br, crcBuf[:]); err != nil {
		return fmt.Errorf("%w: CRC: %w", ErrCorrupt, err)
	}
	if binary.LittleEndian.Uint32(crcBuf[:]) != want {
		return fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	if _, err := r.br.ReadByte(); err != io.EOF {
		return fmt.Errorf("%w: trailing data after container", ErrCorrupt)
	}
	return nil
}
