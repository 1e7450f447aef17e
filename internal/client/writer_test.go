package client

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/server"
)

// TestWriterUnknownSizeOverLimitChunked: a gzip writer without dims has
// no size to declare, so a body past the buffer limit reaches the
// daemon chunked, with every byte.
func TestWriterUnknownSizeOverLimitChunked(t *testing.T) {
	var (
		mu       sync.Mutex
		length   int64
		encoding []string
		got      []byte
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		length, encoding, got = r.ContentLength, r.TransferEncoding, b
		mu.Unlock()
		io.WriteString(w, "ok")
	}))
	defer ts.Close()
	cl, err := New(ts.URL, WithBufferLimit(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	zw, err := cl.NewWriter(context.Background(), io.Discard, "gzip", codec.Params{})
	if err != nil {
		t.Fatal(err)
	}
	body := makeRaw(t, grid.Float32, 16, 64)
	for off := 0; off < len(body); off += 1000 {
		if _, err := zw.Write(body[off:min(off+1000, len(body))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if length != -1 || len(encoding) != 1 || encoding[0] != "chunked" || !bytes.Equal(got, body) {
		t.Fatalf("daemon saw Content-Length %d, Transfer-Encoding %v and %d bytes; want -1, chunked and the %d written",
			length, encoding, len(got), len(body))
	}
}

// TestWriterUnknownSizeRetried: a gzip writer without dims whose body
// stays within the buffer limit is replayable, so a shed is retried.
func TestWriterUnknownSizeRetried(t *testing.T) {
	real := server.New(server.Config{}).Handler()
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			http.Error(w, `{"error":"synthetic shed"}`, http.StatusTooManyRequests)
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer ts.Close()
	cl, err := New(ts.URL, WithRetryPolicy(RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond, IgnoreRetryAfter: true}))
	if err != nil {
		t.Fatal(err)
	}
	raw := makeRaw(t, grid.Float32, 16, 64)
	var got bytes.Buffer
	zw, err := cl.NewWriter(context.Background(), &got, "gzip", codec.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatalf("Close after a shed: %v", err)
	}
	if n := attempts.Load(); n != 2 {
		t.Errorf("attempts = %d, want 2", n)
	}
	if want := localStream(t, "gzip", raw, codec.Params{}); !bytes.Equal(got.Bytes(), want) {
		t.Fatal("retried gzip stream differs from the local one")
	}
}

// TestTimingFiresOnce: WithTiming reports a compress once, and a
// streamed decompress once when drained, however often it is closed
// after. A decompress closed before its end never got its trailer, so
// it has no breakdown to report: the callback does not fire for it.
func TestTimingFiresOnce(t *testing.T) {
	ts := newDaemon(t)
	var mu sync.Mutex
	calls := map[string]int{}
	cl, err := New(ts.URL, WithTiming(func(endpoint string, entries []obs.TimingEntry) {
		mu.Lock()
		defer mu.Unlock()
		if len(entries) == 0 {
			t.Errorf("%s: timing callback with no entries", endpoint)
		}
		calls[endpoint]++
	}))
	if err != nil {
		t.Fatal(err)
	}
	count := func(endpoint string) int {
		mu.Lock()
		defer mu.Unlock()
		n := calls[endpoint]
		calls[endpoint] = 0
		return n
	}
	raw := makeRaw(t, grid.Float32, 64, 64, 16)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{64, 64, 16}}
	var stream bytes.Buffer
	zw, err := cl.NewWriter(context.Background(), &stream, "blocked", p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if n := count("compress"); n != 1 {
		t.Errorf("compress reported %d times, want 1", n)
	}

	open := func() io.ReadCloser {
		zr, err := cl.NewReader(context.Background(), bytes.NewReader(stream.Bytes()), int64(stream.Len()), "", p)
		if err != nil {
			t.Fatal(err)
		}
		return zr
	}
	zr := open()
	if back, err := io.ReadAll(zr); err != nil || len(back) != len(raw) {
		t.Fatalf("decompress read %d bytes, %v; want %d", len(back), err, len(raw))
	}
	zr.Close()
	zr.Close()
	if n := count("decompress"); n != 1 {
		t.Errorf("drained decompress reported %d times, want 1", n)
	}

	zr = open()
	if _, err := io.ReadFull(zr, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	zr.Close()
	zr.Close()
	if n := count("decompress"); n != 0 {
		t.Errorf("decompress closed early reported %d times, want 0", n)
	}
}
