package blocked

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grid"
)

// TestContainerV3RoundTrip: every v3 stream count must reconstruct the
// exact samples the v2 serial layout does — the interleaving changes
// the entropy-stage bytes, never the decoded values.
func TestContainerV3RoundTrip(t *testing.T) {
	a := datagen.Hurricane(18, 20, 22, 6)
	base := Params{
		Core:     core.Params{Mode: core.BoundAbs, AbsBound: 1e-3, OutputType: grid.Float32},
		SlabRows: 5,
		Workers:  3,
	}
	v2, _, err := Compress(a, base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decompress(v2, Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("streams=%d", k), func(t *testing.T) {
			p := base
			p.Core.Streams = k
			p.Container = 3
			stream, _, err := Compress(a, p)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := Inspect(stream)
			if err != nil {
				t.Fatal(err)
			}
			if ix.Version != 3 || ix.Streams != k || ix.SharedCodebook() {
				t.Fatalf("index = v%d streams=%d shared=%v, want v3 streams=%d self-contained",
					ix.Version, ix.Streams, ix.SharedCodebook(), k)
			}
			out, err := Decompress(stream, Params{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rawBytes(t, out, grid.Float64), rawBytes(t, want, grid.Float64)) {
				t.Fatal("v3 reconstruction differs from v2")
			}
		})
	}
	// The auto container rule: plain params stay v2, multi-stream params
	// promote to v3 without being asked.
	auto := base
	auto.Core.Streams = 4
	stream, _, err := Compress(a, auto)
	if err != nil {
		t.Fatal(err)
	}
	if ix, err := Inspect(stream); err != nil || ix.Version != 3 {
		t.Fatalf("auto container with streams=4: v%d, %v; want v3", ix.Version, err)
	}
	// Pinning v2 while asking for multiple streams is a contradiction,
	// not a silent downgrade.
	bad := base
	bad.Core.Streams = 4
	bad.Container = 2
	if _, _, err := Compress(a, bad); err == nil {
		t.Fatal("container v2 with streams=4 accepted")
	}
}

// TestSharedCodebookContainer: a v3 container with one per-container
// codebook must agree with the self-contained encoding sample-for-sample
// across the one-shot, streaming, and slab-range decode paths.
func TestSharedCodebookContainer(t *testing.T) {
	a := datagen.ATM(30, 40, 7)
	base := Params{
		Core:     core.Params{Mode: core.BoundAbs, AbsBound: 1e-3},
		SlabRows: 6,
		Workers:  3,
	}
	want, _, err := Compress(a, base)
	if err != nil {
		t.Fatal(err)
	}
	wantOut, err := Decompress(want, Params{})
	if err != nil {
		t.Fatal(err)
	}

	p := base
	p.Core.Streams = 2
	p.SharedCodebook = true
	stream, st, err := Compress(a, p)
	if err != nil {
		t.Fatal(err)
	}
	if st.N != a.Len() {
		t.Fatalf("stats N = %d, want %d", st.N, a.Len())
	}
	ix, err := Inspect(stream)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Version != 3 || !ix.SharedCodebook() || ix.CodebookLen == 0 {
		t.Fatalf("index = v%d shared=%v cb=%dB, want v3 with a shared codebook",
			ix.Version, ix.SharedCodebook(), ix.CodebookLen)
	}

	out, err := Decompress(stream, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawBytes(t, out, grid.Float64), rawBytes(t, wantOut, grid.Float64)) {
		t.Fatal("shared-codebook reconstruction differs from self-contained")
	}

	r, err := NewReader(bytes.NewReader(stream), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != 3 || !r.SharedCodebook() {
		t.Fatalf("reader reports v%d shared=%v", r.Version(), r.SharedCodebook())
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rawBytes(t, wantOut, grid.Float64)) {
		t.Fatal("streaming shared-codebook reconstruction differs")
	}

	rng, _, err := DecompressSlabRange(stream, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantRng, _, err := DecompressSlabRange(want, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawBytes(t, rng, grid.Float64), rawBytes(t, wantRng, grid.Float64)) {
		t.Fatal("shared-codebook slab range differs from self-contained")
	}

	// The shared codebook is a two-pass feature; the incremental writer
	// must refuse it rather than silently buffer the world.
	if _, err := NewWriter(io.Discard, a.Dims, p); !errors.Is(err, ErrSharedCodebookStreaming) {
		t.Fatalf("streaming writer with shared codebook: %v, want ErrSharedCodebookStreaming", err)
	}
}

// TestStreamingWriterV3MatchesOneShot: the v3 incremental writer must
// emit byte-identical containers to the one-shot path, like v2 does.
func TestStreamingWriterV3MatchesOneShot(t *testing.T) {
	a := datagen.Hurricane(22, 19, 15, 2)
	p := Params{
		Core:     core.Params{Mode: core.BoundAbs, AbsBound: 1e-3, OutputType: grid.Float32, Streams: 4},
		SlabRows: 6,
		Workers:  3,
	}
	want, _, err := Compress(a, p)
	if err != nil {
		t.Fatal(err)
	}
	raw := rawBytes(t, a, grid.Float32)
	var got bytes.Buffer
	w, err := NewWriter(&got, a.Dims, p)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(raw); off += 997 {
		end := off + 997
		if end > len(raw) {
			end = len(raw)
		}
		if _, err := w.Write(raw[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("streamed v3 container (%d bytes) differs from one-shot (%d bytes)",
			got.Len(), len(want))
	}
}

// TestUnsupportedVersionErrors: the "SZB" family error taxonomy. A v1
// or future-version magic is a version problem with a migration hint;
// only genuinely foreign bytes are ErrCorrupt.
func TestUnsupportedVersionErrors(t *testing.T) {
	pad := bytes.Repeat([]byte{0}, 64)
	for _, tc := range []struct {
		name    string
		prefix  string
		wantErr error
	}{
		{"v1", magicV1, ErrUnsupportedVersion},
		{"future", "SZB4", ErrUnsupportedVersion},
		{"foreign", "NOPE", ErrCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream := append([]byte(tc.prefix), pad...)
			if _, err := Decompress(stream, Params{}); !errors.Is(err, tc.wantErr) {
				t.Errorf("Decompress: %v, want %v", err, tc.wantErr)
			}
			if _, err := Inspect(stream); !errors.Is(err, tc.wantErr) {
				t.Errorf("Inspect: %v, want %v", err, tc.wantErr)
			}
			if _, err := NewReader(bytes.NewReader(stream), Params{}); !errors.Is(err, tc.wantErr) {
				t.Errorf("NewReader: %v, want %v", err, tc.wantErr)
			}
			// Truncated to just the magic: version errors still win over
			// "too short", so old builds reading new containers stay
			// actionable.
			if _, err := Inspect([]byte(tc.prefix)); !errors.Is(err, tc.wantErr) {
				t.Errorf("Inspect(magic only): %v, want %v", err, tc.wantErr)
			}
		})
	}
}
