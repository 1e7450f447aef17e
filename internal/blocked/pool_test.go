package blocked

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grid"
)

// TestPooledCompressConcurrentByteIdentical runs many concurrent
// compressions over the shared scratch pools and asserts every
// container is byte-identical to a reference produced up front — the
// acceptance check that recycled buffers never leak state between
// operations. Most valuable under -race (CI runs the suite with it),
// where any cross-goroutine buffer sharing also trips the detector.
func TestPooledCompressConcurrentByteIdentical(t *testing.T) {
	fields := []*grid.Array{
		datagen.Hurricane(12, 40, 40, 1),
		datagen.Hurricane(16, 32, 32, 2),
		datagen.Hurricane(8, 24, 56, 3),
	}
	params := []Params{
		{Core: core.Params{Mode: core.BoundAbs, AbsBound: 1e-3, OutputType: grid.Float32}, SlabRows: 4, Workers: 2},
		{Core: core.Params{Mode: core.BoundAbs, AbsBound: 1e-4, OutputType: grid.Float64}, SlabRows: 5, Workers: 3},
		{Core: core.Params{Mode: core.BoundAbs, AbsBound: 1e-2, OutputType: grid.Float32, Layers: 2}, SlabRows: 3, Workers: 2},
	}

	type ref struct {
		stream []byte
		raw    []byte
	}
	refs := make([]ref, len(fields))
	for i, a := range fields {
		stream, _, err := Compress(a, params[i])
		if err != nil {
			t.Fatal(err)
		}
		var raw bytes.Buffer
		if err := a.WriteRaw(&raw, params[i].Core.OutputType); err != nil {
			t.Fatal(err)
		}
		refs[i] = ref{stream: stream, raw: raw.Bytes()}
	}

	const goroutines = 6
	const iters = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(fields)

				// One-shot compress must reproduce the reference bytes.
				stream, _, err := Compress(fields[i], params[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(stream, refs[i].stream) {
					t.Errorf("goroutine %d iter %d: pooled compress diverged", g, it)
					return
				}

				// Streaming writer over the raw-byte path too: it pools
				// the slab parse buffers as well.
				var out bytes.Buffer
				w, err := NewWriter(&out, fields[i].Dims, params[i])
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := w.Write(refs[i].raw); err != nil {
					t.Error(err)
					return
				}
				if err := w.Close(); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(out.Bytes(), refs[i].stream) {
					t.Errorf("goroutine %d iter %d: pooled streaming write diverged", g, it)
					return
				}

				// Parallel decompress decodes into pooled destinations.
				back, err := Decompress(stream, Params{Workers: 2})
				if err != nil {
					t.Error(err)
					return
				}
				if !back.Equal(mustRoundTrip(t, fields[i], params[i])) {
					t.Errorf("goroutine %d iter %d: pooled decompress diverged", g, it)
					return
				}

				// Streaming reader: pooled compressed-slab, recon and
				// serialization buffers, byte-compared raw output.
				r, err := NewReader(bytes.NewReader(stream), Params{})
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(r)
				if err != nil {
					t.Error(err)
					return
				}
				r.Close()
				var want bytes.Buffer
				if err := back.WriteRaw(&want, params[i].Core.OutputType); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Errorf("goroutine %d iter %d: pooled streaming read diverged", g, it)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// roundTripCache holds the expected reconstruction per field so the
// concurrent loop compares against a stable reference.
var (
	rtOnce  sync.Once
	rtMu    sync.Mutex
	rtCache map[*grid.Array]*grid.Array
)

func mustRoundTrip(t *testing.T, a *grid.Array, p Params) *grid.Array {
	t.Helper()
	rtOnce.Do(func() { rtCache = map[*grid.Array]*grid.Array{} })
	rtMu.Lock()
	defer rtMu.Unlock()
	if out, ok := rtCache[a]; ok {
		return out
	}
	stream, _, err := Compress(a, p)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decompress(stream, Params{})
	if err != nil {
		t.Fatal(err)
	}
	rtCache[a] = out
	return out
}

// TestReaderCloseRecyclesSafely: Close returns the reader's buffers to
// the pools; a second Close must be a no-op and a post-Close Read must
// fail cleanly rather than serve a recycled buffer.
func TestReaderCloseRecyclesSafely(t *testing.T) {
	a := datagen.Hurricane(8, 16, 16, 9)
	p := Params{Core: core.Params{Mode: core.BoundAbs, AbsBound: 1e-3, OutputType: grid.Float32}, SlabRows: 4}
	stream, _, err := Compress(a, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		r, err := NewReader(bytes.NewReader(stream), Params{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1024)
		if _, err := r.Read(buf); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(buf); err == nil {
			t.Fatalf("workers %d: Read after Close must fail", workers)
		}
	}
}
