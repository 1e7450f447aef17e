package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/server"
)

func makeRaw(t *testing.T, dt grid.DType, dims ...int) []byte {
	t.Helper()
	a := grid.New(dims...)
	for i := range a.Data {
		v := math.Sin(float64(i) * 0.02)
		if dt == grid.Float32 {
			v = float64(float32(v))
		}
		a.Data[i] = v
	}
	var raw bytes.Buffer
	if err := a.WriteRaw(&raw, dt); err != nil {
		t.Fatal(err)
	}
	return raw.Bytes()
}

func localStream(t *testing.T, name string, raw []byte, p codec.Params) []byte {
	t.Helper()
	c, err := codec.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	zw, err := c.NewWriter(&out, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func newDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestRemoteMirrorsLocal is the client half of the acceptance e2e: the
// remote writer's output is byte-identical to the local streaming
// writer, and the remote reader reproduces the local reconstruction,
// for sz14, blocked, and gzip — in both the buffered-replayable and the
// chunked-streaming client modes.
func TestRemoteMirrorsLocal(t *testing.T) {
	ts := newDaemon(t)
	raw := makeRaw(t, grid.Float32, 16, 20, 12)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 20, 12}}

	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"buffered", nil},
		// A 1 KiB limit forces the chunked-streaming path for this
		// 15 KiB payload.
		{"streaming", []Option{WithBufferLimit(1 << 10)}},
	} {
		for _, name := range []string{"sz14", "blocked", "gzip"} {
			t.Run(mode.name+"/"+name, func(t *testing.T) {
				cl, err := New(ts.URL, mode.opts...)
				if err != nil {
					t.Fatal(err)
				}
				want := localStream(t, name, raw, p)

				var got bytes.Buffer
				zw, err := cl.NewWriter(context.Background(), &got, name, p)
				if err != nil {
					t.Fatal(err)
				}
				// Write in small chunks to exercise mid-write mode flips.
				for off := 0; off < len(raw); off += 4096 {
					end := off + 4096
					if end > len(raw) {
						end = len(raw)
					}
					if _, err := zw.Write(raw[off:end]); err != nil {
						t.Fatal(err)
					}
				}
				if err := zw.Close(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("remote stream differs from local (%d vs %d bytes)", got.Len(), len(want))
				}

				c, _ := codec.Lookup(name)
				lr, err := c.NewReader(bytes.NewReader(want), p)
				if err != nil {
					t.Fatal(err)
				}
				wantRaw, err := io.ReadAll(lr)
				if err != nil {
					t.Fatal(err)
				}

				force := ""
				if name == "gzip" {
					force = "gzip"
				}
				zr, err := cl.NewReader(context.Background(), bytes.NewReader(want), int64(len(want)), force, p)
				if err != nil {
					t.Fatal(err)
				}
				gotRaw, err := io.ReadAll(zr)
				if err != nil {
					t.Fatal(err)
				}
				zr.Close()
				if !bytes.Equal(gotRaw, wantRaw) {
					t.Fatalf("remote reconstruction differs from local (%d vs %d bytes)", len(gotRaw), len(wantRaw))
				}
			})
		}
	}
}

// TestRemoteV3MirrorsLocal pins the wire mapping of the SZB3 knobs: a
// remote blocked compress with interleaved sub-streams (and a shared
// codebook) must emit the byte-identical v3 container the local writer
// does, and the remote decode of it must match the local reconstruction.
func TestRemoteV3MirrorsLocal(t *testing.T) {
	ts := newDaemon(t)
	raw := makeRaw(t, grid.Float32, 16, 20, 12)
	for _, tc := range []struct {
		name string
		p    codec.Params
	}{
		{"streams4", codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 20, 12}, SlabRows: 5, Streams: 4}},
		{"sharedcb", codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 20, 12}, SlabRows: 5, Streams: 2, SharedCodebook: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := New(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			want := localStream(t, "blocked", raw, tc.p)
			if string(want[:4]) != "SZB3" {
				t.Fatalf("local stream magic %q, want SZB3", want[:4])
			}
			var got bytes.Buffer
			zw, err := cl.NewWriter(context.Background(), &got, "blocked", tc.p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := zw.Write(raw); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("remote v3 stream differs from local (%d vs %d bytes)", got.Len(), len(want))
			}
			c, _ := codec.Lookup("blocked")
			lr, err := c.NewReader(bytes.NewReader(want), codec.Params{})
			if err != nil {
				t.Fatal(err)
			}
			wantRaw, err := io.ReadAll(lr)
			if err != nil {
				t.Fatal(err)
			}
			zr, err := cl.NewReader(context.Background(), bytes.NewReader(want), int64(len(want)), "", codec.Params{})
			if err != nil {
				t.Fatal(err)
			}
			gotRaw, err := io.ReadAll(zr)
			if err != nil {
				t.Fatal(err)
			}
			zr.Close()
			if !bytes.Equal(gotRaw, wantRaw) {
				t.Fatalf("remote v3 reconstruction differs from local (%d vs %d bytes)", len(gotRaw), len(wantRaw))
			}
		})
	}
}

// TestRetryOn429 sheds the first two attempts and verifies the client
// backs off and lands the third.
func TestRetryOn429(t *testing.T) {
	real := server.New(server.Config{}).Handler()
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"synthetic shed"}`, http.StatusTooManyRequests)
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer ts.Close()

	cl, err := New(ts.URL, WithRetryPolicy(RetryPolicy{MaxAttempts: 4, Backoff: 5 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	raw := makeRaw(t, grid.Float32, 8, 10)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{8, 10}}
	want := localStream(t, "sz14", raw, p)

	var got bytes.Buffer
	zw, err := cl.NewWriter(context.Background(), &got, "sz14", p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatalf("Close after shed: %v", err)
	}
	if n := attempts.Load(); n != 3 {
		t.Errorf("attempts = %d, want 3", n)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("retried stream differs from local reference")
	}
}

func TestRetryExhausted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"always shed"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()

	cl, err := New(ts.URL, WithRetryPolicy(RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	zw, err := cl.NewWriter(context.Background(), io.Discard, "sz14",
		codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(make([]byte, 64))
	err = zw.Close()
	var se *api.Error
	if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want api.Error 429", err)
	}
	if !se.Temporary() {
		t.Error("429 should be Temporary")
	}
}

func TestCodecsAndHealth(t *testing.T) {
	ts := newDaemon(t)
	cl, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	names, err := cl.Codecs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, codec.Names()) {
		t.Errorf("remote codecs %v != local %v", names, codec.Names())
	}
	if err := cl.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestInspect(t *testing.T) {
	ts := newDaemon(t)
	cl, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	raw := makeRaw(t, grid.Float32, 16, 20, 12)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 20, 12}}
	stream := localStream(t, "blocked", raw, p)

	want, err := codec.InspectStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Inspect(context.Background(), bytes.NewReader(stream), int64(len(stream)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("remote inspect %+v != local %+v", *got, *want)
	}
}

func TestBadAddress(t *testing.T) {
	if _, err := New(""); err == nil {
		t.Error("empty address accepted")
	}
	cl, err := New("localhost:1") // nothing listens here
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Health(context.Background()); err == nil {
		t.Error("Health against a dead port succeeded")
	}
}

// TestAbortDoesNotSend: aborting a buffered writer after an upstream
// failure must drop the partial payload instead of posting it (with
// retries) to the daemon.
func TestAbortDoesNotSend(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	cl, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	zw, err := cl.NewWriter(context.Background(), io.Discard, "sz14",
		codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	aw, ok := zw.(interface{ Abort() error })
	if !ok {
		t.Fatal("remote writer does not expose Abort")
	}
	if err := aw.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil { // Close after Abort is a no-op
		t.Fatal(err)
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("aborted writer still sent %d request(s)", n)
	}
}

// TestTenantOptionsAndLimits: WithTenant/WithPriority ride every
// request as wire headers, and Limits decodes the daemon's live QoS
// document — including the tenant account the keyed traffic created.
func TestTenantOptionsAndLimits(t *testing.T) {
	ts := newDaemon(t)
	cl, err := New(ts.URL, WithTenant("acme.ci-1"), WithPriority(api.Batch))
	if err != nil {
		t.Fatal(err)
	}

	raw := makeRaw(t, grid.Float32, 8, 10)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{8, 10}}
	zw, err := cl.NewWriter(context.Background(), io.Discard, "sz14", p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	lim, err := cl.Limits(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if lim.BudgetBytes <= 0 || lim.Workers <= 0 {
		t.Fatalf("limits = %+v, want positive budget and workers", lim)
	}
	acct, ok := lim.Tenants["acme"]
	if !ok {
		t.Fatalf("tenant acme missing from limits after keyed compress: %+v", lim.Tenants)
	}
	if acct.Admitted < 1 {
		t.Errorf("tenant acme admitted = %d, want >= 1", acct.Admitted)
	}
}

// TestRetryAfterHintHonored: a 429 carrying retry_after_ms must not be
// retried before the hinted delay — unless IgnoreRetryAfter opts out.
func TestRetryAfterHintHonored(t *testing.T) {
	var calls atomic.Int64
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			api.WriteError(w, &api.Error{
				Status: http.StatusTooManyRequests, Code: api.CodeOverloaded,
				Message: "shed", RetryAfterMS: 300,
			})
			return
		}
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusOK)
	}))
	defer shed.Close()

	cl, err := New(shed.URL, WithRetryPolicy(RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	get := func(cl *Client) error {
		resp, err := cl.do(context.Background(), func() (*http.Request, error) {
			return http.NewRequest(http.MethodGet, shed.URL+api.PathCodecs, nil)
		})
		if err == nil {
			resp.Body.Close()
		}
		return err
	}
	start := time.Now()
	if err := get(cl); err != nil {
		t.Fatal(err)
	}
	if wait := time.Since(start); wait < 300*time.Millisecond {
		t.Errorf("retried after %v, server hinted 300ms", wait)
	}

	calls.Store(0)
	cl, err = New(shed.URL, WithRetryPolicy(RetryPolicy{
		MaxAttempts: 3, Backoff: time.Millisecond, IgnoreRetryAfter: true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if err := get(cl); err != nil {
		t.Fatal(err)
	}
	if wait := time.Since(start); wait > 250*time.Millisecond {
		t.Errorf("IgnoreRetryAfter still waited %v", wait)
	}
}

// firstByteServer is a daemon stand-in for one request: its handler
// signals reached as soon as the request arrives, then records the
// request's declared lengths and drains its body.
type firstByteServer struct {
	ts      *httptest.Server
	reached chan struct{}

	mu     sync.Mutex
	length int64
	hint   string
	got    int64
}

func newFirstByteServer(t *testing.T) *firstByteServer {
	t.Helper()
	fs := &firstByteServer{reached: make(chan struct{})}
	fs.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(fs.reached)
		n, _ := io.Copy(io.Discard, r.Body)
		fs.mu.Lock()
		fs.length, fs.hint, fs.got = r.ContentLength, r.Header.Get(api.HeaderContentLength), n
		fs.mu.Unlock()
		io.WriteString(w, "ok")
	}))
	t.Cleanup(fs.ts.Close)
	return fs
}

// TestDeclaredStreamFromFirstByte: a body whose declared size is over
// the buffer limit reaches the daemon's handler after its first 64 KiB,
// where a replayable prefix would hold it back until 4 MiB. The writer
// declares the dims' raw size as its Content-Length, and a body request
// its given size, with no X-Sz-Content-Length hint beside it.
func TestDeclaredStreamFromFirstByte(t *testing.T) {
	const size = 8 << 20 // over the default 4 MiB limit
	t.Run("writer", func(t *testing.T) {
		fs := newFirstByteServer(t)
		cl, err := New(fs.ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		zw, err := cl.NewWriter(context.Background(), io.Discard, "sz14",
			codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{2, 1024, 1024}})
		if err != nil {
			t.Fatal(err)
		}
		fs.send(t, zw, size, zw.Close)
		fs.check(t, size, "", size)
	})
	t.Run("body", func(t *testing.T) {
		fs := newFirstByteServer(t)
		cl, err := New(fs.ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		pr, pw := io.Pipe()
		done := make(chan error, 1)
		go func() {
			zr, err := cl.NewReader(context.Background(), pr, size, "", codec.Params{})
			if err == nil {
				_, err = io.Copy(io.Discard, zr)
				zr.Close()
			}
			done <- err
		}()
		fs.send(t, pw, size, func() error { pw.Close(); return <-done })
		fs.check(t, size, "", size)
	})
}

// send writes size bytes to w in 64 KiB chunks, requiring the handler to
// be reached after the first, then calls finish.
func (fs *firstByteServer) send(t *testing.T, w io.Writer, size int, finish func() error) {
	t.Helper()
	const first = 64 << 10
	chunk := bytes.Repeat([]byte{1}, first)
	wrote := make(chan error, 1)
	go func() {
		_, err := w.Write(chunk)
		wrote <- err
	}()
	select {
	case <-fs.reached:
	case <-time.After(5 * time.Second):
		t.Fatal("the handler was not reached after the first 64 KiB of a declared 8 MiB body")
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	for sent := first; sent < size; sent += first {
		if _, err := w.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := finish(); err != nil {
		t.Fatal(err)
	}
}

// check compares what the handler saw with the declared Content-Length,
// the X-Sz-Content-Length hint and the body size wanted.
func (fs *firstByteServer) check(t *testing.T, length int64, hint string, size int64) {
	t.Helper()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.length != length || fs.hint != hint || fs.got != size {
		t.Fatalf("handler saw Content-Length %d, hint %q and %d bytes; want %d, %q and %d",
			fs.length, fs.hint, fs.got, length, hint, size)
	}
}
