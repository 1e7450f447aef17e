package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/blocked"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/server"
	"repro/internal/store"
)

func newStoreDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(server.Config{Store: st}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// compressRemote compresses raw through the client and returns the
// container and the digest the writer captured.
func compressRemote(t *testing.T, cl *Client, raw []byte, p codec.Params) ([]byte, string) {
	t.Helper()
	var out bytes.Buffer
	zw, err := cl.NewWriter(context.Background(), &out, "blocked", p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	d, ok := zw.(Digester)
	if !ok {
		t.Fatal("remote writer does not implement Digester")
	}
	if d.Digest() == "" {
		t.Fatal("remote writer captured no digest from a store-backed daemon")
	}
	return out.Bytes(), d.Digest()
}

// TestWriterDigestAndDigestReads: the digest captured at compress time
// must reference the container for bodyless decompress and slab reads.
func TestWriterDigestAndDigestReads(t *testing.T) {
	ts := newStoreDaemon(t)
	cl, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	raw := makeRaw(t, grid.Float32, 16, 8, 8)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 8, 8}, SlabRows: 4}
	stream, digest := compressRemote(t, cl, raw, p)
	ctx := context.Background()

	// Full reconstruction by digest must equal the body-path decode.
	rc, err := cl.NewReader(ctx, bytes.NewReader(stream), int64(len(stream)), "", codec.Params{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	rc, err = cl.DecompressAt(ctx, digest, "", codec.Params{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("DecompressAt differs from body-path decompress")
	}

	// Slab read by digest matches the local slab decode.
	arr, dt, err := blocked.DecompressSlabRange(stream, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wantSlab bytes.Buffer
	if err := arr.WriteRaw(&wantSlab, dt); err != nil {
		t.Fatal(err)
	}
	rc, err = cl.ReadSlabAt(ctx, digest, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	gotSlab, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSlab, wantSlab.Bytes()) {
		t.Fatal("ReadSlabAt differs from local slab decode")
	}
}

// TestReadSlabAtRevalidates: a repeat ReadSlabAt must send
// If-None-Match and be satisfied by a 304 — the daemon sends no body
// the second time.
func TestReadSlabAtRevalidates(t *testing.T) {
	ts := newStoreDaemon(t)

	// Count daemon responses that carried a slab body.
	var bodies, notModified atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := http.NewRequest(r.Method, ts.URL+r.URL.String(), r.Body)
		req.Header = r.Header
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		n, _ := io.Copy(w, resp.Body)
		if resp.StatusCode == http.StatusNotModified {
			notModified.Add(1)
		} else if n > 0 {
			bodies.Add(1)
		}
	}))
	t.Cleanup(proxy.Close)

	// Seed via a direct client (the counting proxy does not forward the
	// compress ETag trailer); read back through the proxy.
	direct, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	raw := makeRaw(t, grid.Float32, 16, 8, 8)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 8, 8}, SlabRows: 4}
	_, digest := compressRemote(t, direct, raw, p)

	cl, err := New(proxy.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	read := func() []byte {
		t.Helper()
		rc, err := cl.ReadSlabAt(ctx, digest, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := read()
	second := read()
	if !bytes.Equal(first, second) {
		t.Fatal("revalidated read differs from first read")
	}
	if got := notModified.Load(); got != 1 {
		t.Errorf("daemon sent %d 304s, want 1 (repeat read must revalidate)", got)
	}
}

// TestReadSlabExtentLocalDecode: the compressed extent decoded locally
// must match the daemon's raw slab decode.
func TestReadSlabExtentLocalDecode(t *testing.T) {
	ts := newStoreDaemon(t)
	cl, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	raw := makeRaw(t, grid.Float32, 16, 8, 8)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 8, 8}, SlabRows: 4}
	stream, digest := compressRemote(t, cl, raw, p)
	ctx := context.Background()

	for _, rng := range [][2]int{{0, 0}, {1, 2}, {0, 3}} {
		ext, err := cl.ReadSlabExtent(ctx, digest, rng[0], rng[1])
		if err != nil {
			t.Fatalf("range %v: %v", rng, err)
		}
		if ext.Raw {
			t.Fatalf("range %v: daemon fell back to raw for a plain container", rng)
		}
		got, err := ext.Decode()
		if err != nil {
			t.Fatalf("range %v: %v", rng, err)
		}
		arr, dt, err := blocked.DecompressSlabRange(stream, rng[0], rng[1])
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := arr.WriteRaw(&want, dt); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("range %v: local extent decode differs from slab decode", rng)
		}
	}
}

// TestCodecsInfoPreferredStreams: the client must surface the daemon's
// advertised stream count.
func TestCodecsInfoPreferredStreams(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{PreferredStreams: 6}).Handler())
	t.Cleanup(ts.Close)
	cl, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cl.CodecsInfo(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.PreferredStreams != 6 {
		t.Fatalf("PreferredStreams = %d, want 6", info.PreferredStreams)
	}
	if len(info.Codecs) == 0 {
		t.Fatal("codec list empty")
	}
}

// TestSlabExtentRejectsMixedSlabs: an extent whose slab streams disagree
// in element type or in their dims after the slowest is corrupt, not a
// concatenation of unrelated samples; a ragged slowest dimension is
// fine.
func TestSlabExtentRejectsMixedSlabs(t *testing.T) {
	stream := func(dt grid.DType, dims ...int) []byte {
		t.Helper()
		a := grid.New(dims...)
		for i := range a.Data {
			a.Data[i] = float64(i) * 0.25
		}
		b, _, err := core.Compress(a, core.Params{Mode: core.BoundAbs, AbsBound: 1e-3, OutputType: dt})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	extent := func(streams ...[]byte) *SlabExtent {
		e := &SlabExtent{}
		for _, s := range streams {
			e.Data = append(e.Data, s...)
			e.Lengths = append(e.Lengths, len(s))
		}
		return e
	}
	f32 := stream(grid.Float32, 2, 4, 4)
	for _, tc := range []struct {
		name string
		next []byte
	}{
		{"dtype and dims", stream(grid.Float64, 2, 5, 3)},
		{"dtype", stream(grid.Float64, 2, 4, 4)},
		{"dims", stream(grid.Float32, 2, 5, 3)},
		{"rank", stream(grid.Float32, 2, 16)},
	} {
		if out, err := extent(f32, tc.next).Decode(); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("%s: Decode = %d bytes, %v; want core.ErrCorrupt", tc.name, len(out), err)
		}
	}
	out, err := extent(f32, stream(grid.Float32, 3, 4, 4)).Decode()
	if err != nil || len(out) != (2+3)*4*4*4 {
		t.Fatalf("consistent extent: Decode = %d bytes, %v; want %d bytes", len(out), err, (2+3)*4*4*4)
	}
}
