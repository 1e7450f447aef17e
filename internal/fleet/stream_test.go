package fleet

// Streams: bodies over the buffer limit take the same candidates and
// attempt loop as every other request, with exactly one candidate. A
// declared length over the limit streams from its first byte; a chunked
// body is read up to the limit first.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/codec"
	"repro/internal/grid"
)

// streamBackend is a szd stand-in for one proxied request: it signals
// once it has read the first firstBytes of the body, and records the
// length and transfer encoding the router declared for it.
type streamBackend struct {
	ts    *httptest.Server
	first chan struct{} // closed once firstBytes have been read

	mu       sync.Mutex
	length   int64
	encoding []string
	got      int64
}

const firstBytes = 64 << 10

func newStreamBackend(t *testing.T) *streamBackend {
	t.Helper()
	sb := &streamBackend{first: make(chan struct{})}
	sb.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == api.PathLimits {
			fmt.Fprintln(w, "{}")
			return
		}
		n, _ := io.ReadFull(r.Body, make([]byte, firstBytes))
		if n == firstBytes {
			close(sb.first)
		}
		rest, _ := io.Copy(io.Discard, r.Body)
		sb.mu.Lock()
		sb.length, sb.encoding, sb.got = r.ContentLength, r.TransferEncoding, int64(n)+rest
		sb.mu.Unlock()
		io.WriteString(w, "ok")
	}))
	t.Cleanup(sb.ts.Close)
	return sb
}

func (sb *streamBackend) addr() string { return strings.TrimPrefix(sb.ts.URL, "http://") }

// TestRouterDeclaredStreamFromFirstByte: a body whose declared
// Content-Length is over the buffer limit reaches the backend as the
// client sends it — its first 64 KiB arrive while the client still
// holds the rest — and with the same Content-Length, not chunked.
func TestRouterDeclaredStreamFromFirstByte(t *testing.T) {
	sb := newStreamBackend(t)
	_, ts := newRouter(t, Config{Backends: []string{sb.addr()}}) // 4 MiB limit
	const size = 8 << 20

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+api.PathCompress+"?codec=gzip", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = size
	type result struct {
		resp *http.Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		done <- result{resp, err}
	}()
	chunk := bytes.Repeat([]byte("s"), firstBytes)
	if _, err := pw.Write(chunk); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sb.first:
	case <-time.After(5 * time.Second):
		pw.CloseWithError(fmt.Errorf("test timed out"))
		t.Fatal("the backend did not get the first 64 KiB of a declared 8 MiB stream while the client held the rest")
	}
	for sent := firstBytes; sent < size; sent += firstBytes {
		if _, err := pw.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	pw.Close()
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if body := readAllClose(t, res.resp); res.resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.resp.StatusCode, body)
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.length != size || len(sb.encoding) != 0 || sb.got != size {
		t.Fatalf("backend saw Content-Length %d, Transfer-Encoding %v and %d bytes; want %d, none and %d",
			sb.length, sb.encoding, sb.got, size, size)
	}
}

// TestRouterChunkedStreamOverLimit: a chunked body over the limit is
// read up to the limit to learn its kind, then streams on chunked, with
// every byte reaching the one backend.
func TestRouterChunkedStreamOverLimit(t *testing.T) {
	sb := newStreamBackend(t)
	_, ts := newRouter(t, Config{Backends: []string{sb.addr()}, BufferLimit: 1024})
	const size = 4 * firstBytes

	// A plain io.Reader hides the length, so the client sends it chunked.
	body := struct{ io.Reader }{bytes.NewReader(bytes.Repeat([]byte("c"), size))}
	resp, err := http.Post(ts.URL+api.PathCompress+"?codec=gzip", "application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAllClose(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.length != -1 || len(sb.encoding) != 1 || sb.encoding[0] != "chunked" || sb.got != size {
		t.Fatalf("backend saw Content-Length %d, Transfer-Encoding %v and %d bytes; want -1, chunked and %d",
			sb.length, sb.encoding, sb.got, size)
	}
}

// TestRouterStreamedContainerPutReplicates: a container PUT too large to
// buffer lands on its digest's ring owner, and the write-path fan-out
// copies it to the digest's second ring target, as it does for a
// buffered PUT.
func TestRouterStreamedContainerPutReplicates(t *testing.T) {
	const limit = 1024
	backends := []string{newSzdWithStore(t), newSzdWithStore(t), newSzdWithStore(t)}
	rt, ts := newRouter(t, Config{Backends: backends, Replication: 2, BufferLimit: limit})

	raw := makeRaw(t, grid.Float32, 16, 20, 12)
	stream := localStream(t, "blocked", raw, codec.Params{AbsBound: 1e-4, DType: grid.Float32, Dims: []int{16, 20, 12}})
	if len(stream) <= limit {
		t.Fatalf("container is %d bytes, want over the %d-byte buffer limit", len(stream), limit)
	}
	digest := streamDigest(stream)
	req, err := http.NewRequest(http.MethodPut, ts.URL+api.PathContainerPrefix+digest, bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if body := readAllClose(t, resp); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("streamed PUT: status %d: %s", resp.StatusCode, body)
	}
	targets := rt.ringSequence(digest, 2)
	if b := resp.Header.Get(api.HeaderBackend); b != targets[0] {
		t.Fatalf("streamed PUT landed on %s, want the digest's owner %s", b, targets[0])
	}
	deadline := time.Now().Add(5 * time.Second)
	for !hasContainer(targets[0], digest) || !hasContainer(targets[1], digest) {
		if time.Now().After(deadline) {
			t.Fatalf("streamed PUT not held by both ring targets %v", targets)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if n := metricSum(t, ts.URL, "szrouter_replication_writes_total"); n == 0 {
		t.Fatal("replication write not counted")
	}
}

// TestRouterStreamsIgnoreInflightBytes: a backend's inflight_bytes is
// as old as its last poll, so streams must not all pile onto whichever
// backend reported less: they spread by the rotating key.
func TestRouterStreamsIgnoreInflightBytes(t *testing.T) {
	busy := newTenantBackend(t, &api.Limits{InflightBytes: 1 << 30})
	idle := newTenantBackend(t, &api.Limits{})
	_, ts := newRouter(t, Config{Backends: []string{busy.addr(), idle.addr()}, BufferLimit: 1024})

	body := bytes.Repeat([]byte("x"), 4096)
	for i := 0; i < 32; i++ {
		resp := post(t, ts.URL+api.PathCompress+"?codec=gzip", body)
		if got := readAllClose(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("stream %d: status %d: %s", i, resp.StatusCode, got)
		}
	}
	if b, i := len(busy.proxied()), len(idle.proxied()); b == 0 || i == 0 {
		t.Fatalf("32 streams reached the busier backend %d times and the idler %d times, want both", b, i)
	}
}

// TestRouterStreamSkipsWarmingBackend: a stream gets one attempt, so it
// never goes to a backend that has not yet answered a poll while another
// backend answers: that backend is out of the ring and trails the
// candidates, and no stream fails over from it.
func TestRouterStreamSkipsWarmingBackend(t *testing.T) {
	booting := closedAddr(t)
	healthy := newTenantBackend(t, &api.Limits{})
	rt, ts := newRouter(t, Config{Backends: []string{booting, healthy.addr()}, BufferLimit: 1024})
	if ringHas(rt, booting) {
		t.Fatal("a backend that never answered a poll is in the ring")
	}

	body := bytes.Repeat([]byte("x"), 4096)
	for i := 0; i < 16; i++ {
		resp := post(t, ts.URL+api.PathCompress+"?codec=gzip", body)
		got := readAllClose(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream %d: status %d: %s", i, resp.StatusCode, got)
		}
		if b := resp.Header.Get(api.HeaderBackend); b != healthy.addr() {
			t.Fatalf("stream %d went to %s, want the healthy %s", i, b, healthy.addr())
		}
	}
	if n := metricSum(t, ts.URL, "szrouter_failovers_total"); n != 0 {
		t.Fatalf("%v failovers counted, want 0: no stream tried the booting backend", n)
	}
}

// TestRouterStreamUnreachableBackend: a stream whose one candidate
// refuses the connection gets the same 502 no_backend envelope a
// replayable request gets, and the router's server survives the unread
// rest of the client body (net/http logs a recovered panic when a
// full-duplex handler returns leaving it unread).
func TestRouterStreamUnreachableBackend(t *testing.T) {
	rt, err := New(Config{Backends: []string{closedAddr(t)}, BufferLimit: 1024, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	rt.poller.PollOnce(context.Background())
	var errLog syncBuffer
	ts := httptest.NewUnstartedServer(rt.Handler())
	ts.Config.ErrorLog = log.New(&errLog, "", 0)
	ts.Start()
	for _, size := range []int{16, 4096, 4096, 4096, 4096, 4096, 4096, 4096} {
		resp := post(t, ts.URL+api.PathCompress+"?codec=gzip", bytes.Repeat([]byte("x"), size))
		e := api.ReadError(resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway || e.Code != api.CodeNoBackend {
			t.Fatalf("%d-byte body to a dead fleet: status %d, error %+v, want 502 %s", size, resp.StatusCode, e, api.CodeNoBackend)
		}
	}
	ts.Close()
	if msg := errLog.String(); msg != "" {
		t.Fatalf("router server logged:\n%s", msg)
	}
}

// closedAddr returns a loopback address that refuses connections.
func closedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	return ln.Addr().String()
}

// syncBuffer is a bytes.Buffer safe for a server's error log.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
