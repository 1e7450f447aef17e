package blocked

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grid"
)

// Hurricane-shaped 3D float32 field (the paper's 100x500x500 layout,
// scaled to keep single-core benchmark runs in seconds).
func benchField(b *testing.B) (*grid.Array, Params, []byte) {
	b.Helper()
	a := datagen.Hurricane(50, 250, 250, 7)
	p := Params{
		Core:     core.Params{Mode: core.BoundAbs, AbsBound: 1e-3, OutputType: grid.Float32},
		SlabRows: 10,
	}
	var raw bytes.Buffer
	if err := a.WriteRaw(&raw, grid.Float32); err != nil {
		b.Fatal(err)
	}
	return a, p, raw.Bytes()
}

// BenchmarkBlockedOneShot is the in-memory Compress path (slab views,
// no raw-byte parsing).
func BenchmarkBlockedOneShot(b *testing.B) {
	a, p, raw := benchField(b)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Compress(a, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockedStreamWrite pushes raw little-endian bytes through the
// streaming Writer — the in-situ pipe scenario, including byte parsing.
func BenchmarkBlockedStreamWrite(b *testing.B) {
	_, p, raw := benchField(b)
	benchStreamWrite(b, p, raw)
}

// BenchmarkBlockedStreamWriteV3 is the same write into a v3 container
// with four interleaved sub-streams per slab, the layout `sz c` and szd
// write by default.
func BenchmarkBlockedStreamWriteV3(b *testing.B) {
	_, p, raw := benchField(b)
	p.Core.Streams = 4
	benchStreamWrite(b, p, raw)
}

func benchStreamWrite(b *testing.B, p Params, raw []byte) {
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := NewWriter(io.Discard, []int{50, 250, 250}, p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(w, bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockedOneShotDecompress decodes the whole container into an
// in-memory array (parallel slab decode).
func BenchmarkBlockedOneShotDecompress(b *testing.B) {
	a, p, raw := benchField(b)
	stream, _, err := Compress(a, p)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(stream, Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockedOneShotDecompressV3 is the same decode over a v3
// container with four interleaved sub-streams per slab — the ILP path.
// Run both with GOMAXPROCS=1 for the honest single-core v2-vs-v3 A/B.
func BenchmarkBlockedOneShotDecompressV3(b *testing.B) {
	a, p, raw := benchField(b)
	p.Core.Streams = 4
	stream, _, err := Compress(a, p)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(stream, Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockedOneShotV3 compresses with four sub-streams per slab
// (the encode side of the ILP layout).
func BenchmarkBlockedOneShotV3(b *testing.B) {
	a, p, raw := benchField(b)
	p.Core.Streams = 4
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Compress(a, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockedStreamRead drains the streaming Reader — NumCPU slab
// decodes in flight, O(workers x slab) memory, raw bytes out.
func BenchmarkBlockedStreamRead(b *testing.B) {
	a, p, raw := benchField(b)
	benchStreamRead(b, a, p, raw)
}

// BenchmarkBlockedStreamReadV3 drains the streaming Reader over a v3
// container with four interleaved sub-streams per slab, the layout
// `sz c` writes by default.
func BenchmarkBlockedStreamReadV3(b *testing.B) {
	a, p, raw := benchField(b)
	p.Core.Streams = 4
	benchStreamRead(b, a, p, raw)
}

func benchStreamRead(b *testing.B, a *grid.Array, p Params, raw []byte) {
	stream, _, err := Compress(a, p)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(stream), Params{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
}
