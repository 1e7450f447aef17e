package blocked

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
)

// FuzzBlockedDecompress feeds arbitrary bytes to both container decode
// paths (mirroring internal/core's FuzzDecompress): neither the
// in-memory parallel decoder nor the streaming reader, at 1 or 3
// workers, may panic, and when the one-shot decoder accepts a container
// the streaming reader must agree with it bit-for-bit. Seeds
// include valid containers, truncations, and flipped footers so
// mutation explores the index machinery.
func FuzzBlockedDecompress(f *testing.F) {
	a := grid.New(20, 9)
	for i := range a.Data {
		a.Data[i] = math.Sin(float64(i) * 0.17)
	}
	for _, p := range []Params{
		{Core: core.Params{Mode: core.BoundAbs, AbsBound: 1e-3}, SlabRows: 4},
		{Core: core.Params{Mode: core.BoundAbs, AbsBound: 1e-2, OutputType: grid.Float32}, SlabRows: 7},
		{Core: core.Params{Mode: core.BoundAbs, AbsBound: 1e-5, Layers: 2, IntervalBits: 4}, SlabRows: 20},
		// v3 corpora: interleaved sub-streams and a shared codebook.
		{Core: core.Params{Mode: core.BoundAbs, AbsBound: 1e-3, Streams: 4}, SlabRows: 5},
		{Core: core.Params{Mode: core.BoundAbs, AbsBound: 1e-2, Streams: 2, OutputType: grid.Float32}, SlabRows: 6, SharedCodebook: true},
		// A float32 container with 64-bit escapes: a's samples are not
		// float32, and narrowing them moves them past the bound, so the
		// streaming reader reconstructs its slabs in float64.
		{Core: core.Params{Mode: core.BoundAbs, AbsBound: 1e-12, OutputType: grid.Float32}, SlabRows: 6},
	} {
		stream, _, err := Compress(a, p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(stream)
		f.Add(stream[:len(stream)-6]) // footer truncation
		f.Add(stream[:len(stream)/2]) // body truncation
		flipped := append([]byte(nil), stream...)
		flipped[len(flipped)-10] ^= 0x40 // footer bit flip
		f.Add(flipped)
	}
	f.Add([]byte(magicV2))
	f.Add([]byte(magicV3))
	f.Add([]byte(magicV1))
	f.Add([]byte("SZB4")) // future version: must error, not panic
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		out, derr := Decompress(data, Params{Workers: 1})
		if derr == nil {
			if out == nil {
				t.Fatal("nil array without error")
			}
			ix, err := Inspect(data)
			if err != nil {
				t.Fatalf("Decompress accepted what Inspect rejects: %v", err)
			}
			n := 1
			for _, d := range ix.Dims {
				n *= d
			}
			if out.Len() != n {
				t.Fatalf("decoded %d values, index says %d", out.Len(), n)
			}
		}

		// The streaming side runs serially and with a decode window. A
		// failure at slab k surfaces only after slabs 0..k-1 are served,
		// so both serve the same bytes and end with the same error.
		var serial []byte
		var serialErr error
		for _, workers := range []int{1, 3} {
			r, err := NewReader(bytes.NewReader(data), Params{Workers: workers})
			if err != nil {
				if derr == nil {
					t.Fatalf("workers %d: one-shot accepted but streaming rejected header: %v", workers, err)
				}
				return
			}
			got, serr := io.ReadAll(r)
			r.Close()
			if workers == 1 {
				serial, serialErr = got, serr
			} else if !bytes.Equal(got, serial) || fmt.Sprint(serr) != fmt.Sprint(serialErr) {
				t.Fatalf("workers %d served %d bytes then %v; workers 1 served %d bytes then %v",
					workers, len(got), serr, len(serial), serialErr)
			}
			if derr == nil {
				if serr != nil {
					t.Fatalf("workers %d: one-shot accepted but streaming failed: %v", workers, serr)
				}
				var want bytes.Buffer
				if err := out.WriteRaw(&want, r.DType()); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("workers %d: streaming and one-shot reconstructions differ", workers)
				}
			}
		}
	})
}
