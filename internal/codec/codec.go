// Package codec unifies every compressor in this repository — the SZ-1.4
// core, the blocked container, the pointwise-relative mode, and the five
// baselines the paper evaluates against — behind one interface and a
// name-indexed registry.
//
// Two calling conventions are supported by every codec:
//
//   - one-shot: Encode/Decode on in-memory arrays, the historical API;
//   - streaming: NewWriter/NewReader speak io.Writer/io.Reader over raw
//     little-endian sample bytes, so a field can flow file-to-file (or
//     pipe-to-pipe) through any registered codec.
//
// Codecs whose formats cannot be produced incrementally fall back to an
// internal buffer behind the streaming interface — the bytes they emit
// are identical to the one-shot path. The blocked container and gzip
// stream with memory bounded by O(slab) / O(window).
package codec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
)

// Params carries every knob a registered codec can consume. Codecs read
// the fields they understand and ignore the rest; zero values mean
// defaults. Dims and DType describe the raw sample layout and are
// mandatory for streaming writes (and for decoding formats that are not
// self-describing, like gzip).
type Params struct {
	// Mode selects absolute/relative/combined error bounding
	// (core.BoundAbs & co). 0 resolves from the bounds that are set:
	// BoundAbs for AbsBound alone, BoundAbsAndRel when both are set,
	// BoundRel otherwise.
	Mode core.BoundMode
	// AbsBound is the absolute error bound.
	AbsBound float64
	// RelBound is the value-range-relative bound — except for the
	// "pwrel" codec, where it is the pointwise-relative epsilon.
	RelBound float64
	// Layers is the SZ predictor layer count (0 = default).
	Layers int
	// IntervalBits is the SZ quantization code width (0 = default).
	IntervalBits int
	// HitRateThreshold is the SZ adaptive-advice threshold θ
	// (0 = default).
	HitRateThreshold float64
	// DType is the raw sample element type (0 = grid.Float64).
	DType grid.DType
	// Dims are the array dimensions, slowest-varying first.
	Dims []int
	// SlabRows is the blocked-container slab thickness (0 = auto).
	SlabRows int
	// Workers bounds blocked-container parallelism: the slab encodes or
	// decodes in flight at once (0 = NumCPU).
	Workers int
	// Rate, when positive, selects ZFP's fixed-rate mode (bits/value)
	// instead of fixed-accuracy.
	Rate float64
	// Streams is the interleaved Huffman sub-stream count per slab
	// (0 = codec default of 1; >1 decodes with N independent bitstream
	// cursors for instruction-level parallelism).
	Streams int
	// Container pins the blocked container version: 0 = auto (v3 when
	// multi-stream or shared-codebook features are in play, else v2),
	// 2, or 3.
	Container int
	// SharedCodebook asks the blocked container for one per-container
	// Huffman codebook shared by every slab (v3, one-shot only).
	SharedCodebook bool
	// Stages, when non-nil, receives named sub-stage timings from deep in
	// the pipeline (see core.Params.Stages); it rides along into every
	// codec that lowers to core parameters.
	Stages func(name string, d time.Duration)
}

// FromCore lifts core compressor parameters into codec form.
func FromCore(cp core.Params) Params {
	return Params{
		Mode:             cp.Mode,
		AbsBound:         cp.AbsBound,
		RelBound:         cp.RelBound,
		Layers:           cp.Layers,
		IntervalBits:     cp.IntervalBits,
		HitRateThreshold: cp.HitRateThreshold,
		DType:            cp.OutputType,
	}
}

// mode resolves the bound mode, defaulting from which bounds are set.
func (p Params) mode() core.BoundMode {
	if p.Mode != 0 {
		return p.Mode
	}
	switch {
	case p.AbsBound > 0 && p.RelBound > 0:
		return core.BoundAbsAndRel
	case p.AbsBound > 0:
		return core.BoundAbs
	}
	return core.BoundRel
}

// Core lowers the parameters to core compressor form.
func (p Params) Core() core.Params {
	return core.Params{
		Mode:             p.mode(),
		AbsBound:         p.AbsBound,
		RelBound:         p.RelBound,
		Layers:           p.Layers,
		IntervalBits:     p.IntervalBits,
		HitRateThreshold: p.HitRateThreshold,
		OutputType:       p.dtype(),
		Streams:          p.Streams,
		Stages:           p.Stages,
	}
}

func (p Params) dtype() grid.DType {
	if p.DType == 0 {
		return grid.Float64
	}
	return p.DType
}

// absBound resolves the effective absolute bound for codecs that only
// understand absolute bounds (sz11, isabela, zfp fixed-accuracy),
// mirroring how the paper's evaluation derives per-set bounds.
func (p Params) absBound(a *grid.Array) (float64, error) {
	cp := p.Core()
	var rng float64
	if cp.Mode != core.BoundAbs {
		_, _, rng = a.Range()
	}
	return cp.EffectiveBound(rng)
}

// Codec is one registered compressor.
type Codec interface {
	// Name is the registry key (e.g. "sz14", "blocked", "gzip").
	Name() string
	// Encode compresses a into a stream.
	Encode(a *grid.Array, p Params) ([]byte, error)
	// Decode reconstructs an array from a stream produced by Encode.
	// Codecs whose streams are not self-describing take Dims/DType
	// from p.
	Decode(stream []byte, p Params) (*grid.Array, error)
	// NewWriter returns a WriteCloser that consumes raw little-endian
	// p.DType samples in row-major order and emits the compressed
	// stream to w; the stream is complete after Close. p.Dims is
	// required.
	NewWriter(w io.Writer, p Params) (io.WriteCloser, error)
	// NewReader returns a ReadCloser producing the reconstruction as
	// raw little-endian sample bytes.
	NewReader(r io.Reader, p Params) (io.ReadCloser, error)
}

type entry struct {
	codec   Codec
	magic   []byte
	aliases []string
}

var (
	regMu    sync.RWMutex
	registry = map[string]entry{}
	aliasMap = map[string]string{}
)

// Register adds a codec under its name plus any aliases; magic, when
// non-empty, is the stream prefix Detect matches on. Duplicate names
// panic: registration happens in package init and a clash is a bug.
func Register(c Codec, magic []byte, aliases ...string) {
	regMu.Lock()
	defer regMu.Unlock()
	name := strings.ToLower(c.Name())
	if _, dup := registry[name]; dup {
		panic("codec: duplicate registration of " + name)
	}
	registry[name] = entry{codec: c, magic: magic, aliases: aliases}
	for _, a := range aliases {
		aliasMap[strings.ToLower(a)] = name
	}
}

// Lookup resolves a codec by name or alias (case-insensitive).
func Lookup(name string) (Codec, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	key := strings.ToLower(name)
	if canon, ok := aliasMap[key]; ok {
		key = canon
	}
	e, ok := registry[key]
	if !ok {
		return nil, fmt.Errorf("codec: unknown codec %q (have %s)", name, strings.Join(namesLocked(), ", "))
	}
	return e.codec, nil
}

// Names lists the registered codec names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ErrUnknownFormat is returned by Detect when no registered codec claims
// the stream prefix.
var ErrUnknownFormat = errors.New("codec: unrecognized stream format")

// Detect identifies the codec that produced a stream from its leading
// bytes (4 are enough for every registered format). Version dispatch
// within a family is the codec's own job: the blocked codec claims the
// whole "SZB" prefix and reports retired (v1) or too-new container
// versions itself, with an actionable error instead of "bad magic".
func Detect(prefix []byte) (Codec, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	for _, e := range registry {
		if len(e.magic) > 0 && len(prefix) >= len(e.magic) && bytes.Equal(prefix[:len(e.magic)], e.magic) {
			return e.codec, nil
		}
	}
	return nil, ErrUnknownFormat
}

// Encode one-shot compresses a with the named codec.
func Encode(name string, a *grid.Array, p Params) ([]byte, error) {
	c, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return c.Encode(a, p)
}

// Decode one-shot decompresses a stream with the named codec.
func Decode(name string, stream []byte, p Params) (*grid.Array, error) {
	c, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return c.Decode(stream, p)
}

// funcCodec adapts one-shot Encode/Decode functions into a full Codec:
// the streaming faces buffer raw samples (writer) or the compressed
// stream (reader) and delegate, so streamed bytes match one-shot bytes
// exactly. decode returns the element type raw output should use when
// the stream records it; 0 falls back to p.DType.
type funcCodec struct {
	name   string
	encode func(a *grid.Array, p Params) ([]byte, error)
	decode func(stream []byte, p Params) (*grid.Array, grid.DType, error)
}

func (c *funcCodec) Name() string { return c.name }

func (c *funcCodec) Encode(a *grid.Array, p Params) ([]byte, error) {
	return c.encode(a, p)
}

func (c *funcCodec) Decode(stream []byte, p Params) (*grid.Array, error) {
	a, _, err := c.decode(stream, p)
	return a, err
}

func (c *funcCodec) NewWriter(w io.Writer, p Params) (io.WriteCloser, error) {
	if len(p.Dims) == 0 {
		return nil, fmt.Errorf("codec %s: streaming write requires Params.Dims", c.name)
	}
	return &bufWriter{dst: w, p: p, enc: c.encode, name: c.name}, nil
}

func (c *funcCodec) NewReader(r io.Reader, p Params) (io.ReadCloser, error) {
	stream, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	a, dt, err := c.decode(stream, p)
	if err != nil {
		return nil, err
	}
	if dt == 0 {
		dt = p.dtype()
	}
	var raw bytes.Buffer
	raw.Grow(a.Len() * dt.Size())
	if err := a.WriteRaw(&raw, dt); err != nil {
		return nil, err
	}
	return io.NopCloser(&raw), nil
}

// bufWriter accumulates raw sample bytes and runs the one-shot encoder
// at Close.
type bufWriter struct {
	dst    io.Writer
	p      Params
	enc    func(a *grid.Array, p Params) ([]byte, error)
	name   string
	buf    bytes.Buffer
	closed bool
}

func (bw *bufWriter) Write(b []byte) (int, error) {
	if bw.closed {
		return 0, fmt.Errorf("codec %s: write after Close", bw.name)
	}
	return bw.buf.Write(b)
}

func (bw *bufWriter) Close() error {
	if bw.closed {
		return nil
	}
	bw.closed = true
	dt := bw.p.dtype()
	n := 1
	for _, d := range bw.p.Dims {
		n *= d
	}
	if bw.buf.Len() != n*dt.Size() {
		return fmt.Errorf("codec %s: got %d raw bytes, want %d (%v x %v)",
			bw.name, bw.buf.Len(), n*dt.Size(), bw.p.Dims, dt)
	}
	a, err := grid.ReadRaw(&bw.buf, dt, bw.p.Dims...)
	if err != nil {
		return err
	}
	stream, err := bw.enc(a, bw.p)
	if err != nil {
		return err
	}
	_, err = bw.dst.Write(stream)
	return err
}
