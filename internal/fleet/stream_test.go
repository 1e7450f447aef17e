package fleet

// Streams: bodies over the buffer limit take the same candidates and
// attempt loop as every other request, with exactly one candidate.

import (
	"bytes"
	"context"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/codec"
	"repro/internal/grid"
)

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
