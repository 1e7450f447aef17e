package codec

// Registration of every compressor in the repository. The adapters stay
// thin: parameter lowering plus, where a package has a native streaming
// form (blocked, gzip), wiring it through instead of the buffered
// fallback.

import (
	"compress/gzip"
	"fmt"
	"io"

	"repro/internal/blocked"
	"repro/internal/core"
	"repro/internal/fpzip"
	"repro/internal/grid"
	"repro/internal/gzipc"
	"repro/internal/isabela"
	"repro/internal/pwrel"
	"repro/internal/sz11"
	"repro/internal/zfp"
)

func init() {
	Register(&funcCodec{
		name: "sz14",
		encode: func(a *grid.Array, p Params) ([]byte, error) {
			stream, _, err := core.Compress(a, p.Core())
			return stream, err
		},
		decode: func(stream []byte, _ Params) (*grid.Array, grid.DType, error) {
			a, h, err := core.Decompress(stream)
			if err != nil {
				return nil, 0, err
			}
			return a, h.DType, nil
		},
	}, []byte(core.Magic), "sz", "sz-1.4")

	// The whole "SZB" family routes here; the container layer itself
	// distinguishes v2, v3, the retired v1, and versions from the future.
	Register(&blockedCodec{}, []byte("SZB"), "szbk")

	Register(&funcCodec{
		name: "pwrel",
		encode: func(a *grid.Array, p Params) ([]byte, error) {
			stream, _, err := pwrel.Compress(a, pwrel.Params{
				RelBound:     p.RelBound,
				Layers:       p.Layers,
				IntervalBits: p.IntervalBits,
			})
			return stream, err
		},
		decode: func(stream []byte, _ Params) (*grid.Array, grid.DType, error) {
			a, _, err := pwrel.Decompress(stream)
			return a, 0, err
		},
	}, []byte("SZPW"), "pw", "pointwise")

	Register(&funcCodec{
		name: "sz11",
		encode: func(a *grid.Array, p Params) ([]byte, error) {
			eb, err := p.absBound(a)
			if err != nil {
				return nil, err
			}
			stream, _, err := sz11.Compress(a, sz11.Params{AbsBound: eb, OutputType: p.dtype()})
			return stream, err
		},
		decode: func(stream []byte, _ Params) (*grid.Array, grid.DType, error) {
			a, err := sz11.Decompress(stream)
			if err != nil {
				return nil, 0, err
			}
			// The recorded element type sits at stream[4] in this
			// format (validated by Decompress above).
			return a, grid.DType(stream[4]), nil
		},
	}, []byte("SZ11"), "sz-1.1")

	Register(&funcCodec{
		name: "zfp",
		encode: func(a *grid.Array, p Params) ([]byte, error) {
			zp := zfp.Params{DType: p.dtype()}
			if p.Rate > 0 {
				zp.Mode = zfp.FixedRate
				zp.Rate = p.Rate
			} else {
				var err error
				zp.Mode = zfp.FixedAccuracy
				if zp.Tolerance, err = p.absBound(a); err != nil {
					return nil, err
				}
			}
			stream, _, err := zfp.Compress(a, zp)
			return stream, err
		},
		decode: func(stream []byte, _ Params) (*grid.Array, grid.DType, error) {
			a, err := zfp.Decompress(stream)
			if err != nil {
				return nil, 0, err
			}
			// The recorded element type sits at stream[4] in this
			// format (validated by Decompress above).
			return a, grid.DType(stream[4]), nil
		},
	}, []byte("ZFPG"), "zfp-0.5")

	Register(&funcCodec{
		name: "isabela",
		encode: func(a *grid.Array, p Params) ([]byte, error) {
			eb, err := p.absBound(a)
			if err != nil {
				return nil, err
			}
			stream, _, err := isabela.Compress(a, isabela.Params{AbsBound: eb, OutputType: p.dtype()})
			return stream, err
		},
		decode: func(stream []byte, _ Params) (*grid.Array, grid.DType, error) {
			a, err := isabela.Decompress(stream)
			if err != nil {
				return nil, 0, err
			}
			// The recorded element type sits at stream[4] in this
			// format (validated by Decompress above).
			return a, grid.DType(stream[4]), nil
		},
	}, []byte("ISBG"), "isabela-0.2.1")

	Register(&funcCodec{
		name: "fpzip",
		encode: func(a *grid.Array, p Params) ([]byte, error) {
			return fpzip.Compress(a, p.dtype())
		},
		decode: func(stream []byte, _ Params) (*grid.Array, grid.DType, error) {
			return fpzip.Decompress(stream)
		},
	}, []byte("FPZG"))

	Register(&gzipCodec{}, []byte{0x1f, 0x8b})
}

// streamer is the optional interface a codec implements when its
// NewWriter/NewReader stream with memory independent of the payload
// (O(slab)/O(window)) instead of buffering. Admission controllers
// (szd) query it through StreamingWriter/StreamingReader, so the
// classification lives on the codec whose behavior it describes.
type streamer interface {
	streamingWriter(p Params) bool
	streamingReader() bool
}

// StreamingWriter reports whether the named codec's NewWriter streams
// with bounded memory for these params, as opposed to buffering the
// whole input. Unknown codecs report false (buffered: the conservative
// admission assumption).
func StreamingWriter(name string, p Params) bool {
	c, err := Lookup(name)
	if err != nil {
		return false
	}
	if s, ok := c.(streamer); ok {
		return s.streamingWriter(p)
	}
	return false
}

// StreamingReader reports whether the named codec's NewReader streams
// with bounded memory (vs buffering stream and reconstruction).
func StreamingReader(name string) bool {
	c, err := Lookup(name)
	if err != nil {
		return false
	}
	if s, ok := c.(streamer); ok {
		return s.streamingReader()
	}
	return false
}

// blockedCodec wires the container's native streaming forms through the
// registry. With an absolute bound the writer streams with O(slab)
// memory; relative bounds need the global value range, so the writer
// falls back to buffering and the one-shot path (which resolves the
// range first).
type blockedCodec struct{}

func (blockedCodec) Name() string { return "blocked" }

func (p Params) blocked() blocked.Params {
	return blocked.Params{
		Core:           p.Core(),
		SlabRows:       p.SlabRows,
		Workers:        p.Workers,
		Container:      p.Container,
		SharedCodebook: p.SharedCodebook,
	}
}

func (c *blockedCodec) Encode(a *grid.Array, p Params) ([]byte, error) {
	stream, _, err := blocked.Compress(a, p.blocked())
	return stream, err
}

func (c *blockedCodec) Decode(stream []byte, p Params) (*grid.Array, error) {
	return blocked.Decompress(stream, blocked.Params{Workers: p.Workers})
}

// A relative bound needs the global value range before slabbing, and a
// shared codebook needs every slab's histogram before any slab can be
// encoded, so only the absolute-bound self-contained writer can stream.
func (blockedCodec) streamingWriter(p Params) bool {
	return p.mode() == core.BoundAbs && !p.SharedCodebook
}
func (blockedCodec) streamingReader() bool { return true }

func (c *blockedCodec) NewWriter(w io.Writer, p Params) (io.WriteCloser, error) {
	if len(p.Dims) == 0 {
		return nil, fmt.Errorf("codec blocked: streaming write requires Params.Dims")
	}
	if c.streamingWriter(p) {
		return blocked.NewWriter(w, p.Dims, p.blocked())
	}
	return &bufWriter{dst: w, p: p, enc: c.Encode, name: "blocked"}, nil
}

func (c *blockedCodec) NewReader(r io.Reader, p Params) (io.ReadCloser, error) {
	return blocked.NewReader(r, p.blocked())
}

// gzipCodec is the GZIP baseline: DEFLATE over the raw little-endian
// sample bytes. Both streaming faces are genuinely incremental
// (compress/gzip), with memory bounded by the DEFLATE window.
type gzipCodec struct{}

func (gzipCodec) Name() string { return "gzip" }

func (gzipCodec) streamingWriter(Params) bool { return true }
func (gzipCodec) streamingReader() bool       { return true }

func (gzipCodec) Encode(a *grid.Array, p Params) ([]byte, error) {
	return gzipc.Compress(a, p.dtype())
}

func (gzipCodec) Decode(stream []byte, p Params) (*grid.Array, error) {
	if len(p.Dims) == 0 {
		return nil, fmt.Errorf("codec gzip: decoding requires Params.Dims (gzip streams carry no shape)")
	}
	return gzipc.Decompress(stream, p.dtype(), p.Dims...)
}

func (gzipCodec) NewWriter(w io.Writer, _ Params) (io.WriteCloser, error) {
	return gzip.NewWriter(w), nil
}

func (gzipCodec) NewReader(r io.Reader, _ Params) (io.ReadCloser, error) {
	return gzip.NewReader(r)
}
