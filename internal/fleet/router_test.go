package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/server"
)

// newSzd starts a real szd daemon and returns its host:port address.
func newSzd(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

// newRouter builds a router over backends with manual polling (huge
// interval, one synchronous poll) and serves it.
func newRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.PollInterval == 0 {
		cfg.PollInterval = time.Hour
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.poller.PollOnce(context.Background())
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

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

func post(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAllClose(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// payloadOwnedBy searches for a payload whose stream identity hashes to
// the given ring owner, so failover tests can aim traffic at a specific
// backend deterministically.
func payloadOwnedBy(t *testing.T, rt *Router, owner string) []byte {
	t.Helper()
	for i := 0; i < 10000; i++ {
		p := []byte(fmt.Sprintf("targeted-payload-%d", i))
		digest := sha256.Sum256(p)
		if rt.ringOwner(hex.EncodeToString(digest[:])) == owner {
			return p
		}
	}
	t.Fatalf("no payload found owned by %s", owner)
	return nil
}

// TestRouterRoundTripMatchesLocal routes compress and decompress through
// a two-backend fleet and requires byte-identical results to the local
// streaming codec.
func TestRouterRoundTripMatchesLocal(t *testing.T) {
	backends := []string{newSzd(t), newSzd(t)}
	_, ts := newRouter(t, Config{Backends: backends})

	raw := makeRaw(t, grid.Float32, 16, 20, 12)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 20, 12}}
	want := localStream(t, "blocked", raw, p)

	resp := post(t, ts.URL+"/v1/compress?codec=blocked&abs=1e-3&dtype=f32&dims=16,20,12", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status %d: %s", resp.StatusCode, readAllClose(t, resp))
	}
	if b := resp.Header.Get(api.HeaderBackend); b != backends[0] && b != backends[1] {
		t.Errorf("backend tag = %q, not a configured backend", b)
	}
	stream := readAllClose(t, resp)
	if !bytes.Equal(stream, want) {
		t.Fatalf("routed stream differs from local: %d vs %d bytes", len(stream), len(want))
	}

	dresp := post(t, ts.URL+"/v1/decompress", stream)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("decompress status %d: %s", dresp.StatusCode, readAllClose(t, dresp))
	}
	c, _ := codec.Lookup("blocked")
	zr, err := c.NewReader(bytes.NewReader(want), p)
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if gotRaw := readAllClose(t, dresp); !bytes.Equal(gotRaw, wantRaw) {
		t.Fatal("routed reconstruction differs from local")
	}
}

// TestRouterAffinity: identical inputs must land on the same backend.
func TestRouterAffinity(t *testing.T) {
	backends := []string{newSzd(t), newSzd(t), newSzd(t)}
	_, ts := newRouter(t, Config{Backends: backends})
	payload := []byte("the same bytes every time")
	var first string
	for i := 0; i < 5; i++ {
		resp := post(t, ts.URL+"/v1/compress?codec=gzip", payload)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		b := resp.Header.Get(api.HeaderBackend)
		readAllClose(t, resp)
		if first == "" {
			first = b
		} else if b != first {
			t.Fatalf("request %d routed to %s, first went to %s", i, b, first)
		}
	}
}

// shedBackend reports healthy but answers every work request with 429
// and a distinctive Retry-After — a daemon whose admission budget is
// pinned full.
func shedBackend(t *testing.T, retryAfter string) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case api.PathLimits:
			fmt.Fprintln(w, "{}")
		default:
			w.Header().Set("Retry-After", retryAfter)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":"budget exhausted"}`)
		}
	}))
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

// TestRouterFailoverOn429 aims a request at a shedding owner and
// expects the ring's next node to serve it.
func TestRouterFailoverOn429(t *testing.T) {
	shed := shedBackend(t, "7")
	healthy := newSzd(t)
	rt, ts := newRouter(t, Config{Backends: []string{shed, healthy}})

	payload := payloadOwnedBy(t, rt, shed)
	resp := post(t, ts.URL+"/v1/compress?codec=gzip", payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via failover", resp.StatusCode)
	}
	if b := resp.Header.Get(api.HeaderBackend); b != healthy {
		t.Errorf("served by %q, want the healthy backend %q", b, healthy)
	}
	readAllClose(t, resp)

	metrics := string(readAllClose(t, post(t, ts.URL+"/metrics", nil)))
	if !strings.Contains(metrics, fmt.Sprintf("szrouter_failovers_total{backend=%q} 1", shed)) {
		t.Errorf("failover not counted:\n%s", metrics)
	}
	if !strings.Contains(metrics, fmt.Sprintf("szrouter_forwards_total{backend=%q,endpoint=\"compress\"}", healthy)) {
		t.Errorf("forward to healthy backend not counted:\n%s", metrics)
	}
}

// TestRouterRelaysRetryAfterUnchanged: when the whole fleet sheds, the
// client must see the backend's own 429 — Retry-After header intact,
// not rewritten by the router.
func TestRouterRelaysRetryAfterUnchanged(t *testing.T) {
	backends := []string{shedBackend(t, "7"), shedBackend(t, "7")}
	_, ts := newRouter(t, Config{Backends: backends})

	resp := post(t, ts.URL+"/v1/compress?codec=gzip", []byte("data"))
	body := readAllClose(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want the backend's own %q", ra, "7")
	}
	if !strings.Contains(string(body), "budget exhausted") {
		t.Errorf("backend error body not relayed: %q", body)
	}
}

// TestRouterConnectFailover: a request owned by an unreachable backend
// fails over, and the observation marks the backend dead immediately.
func TestRouterConnectFailover(t *testing.T) {
	// The owner answers the first poll, so it is in the ring, then dies:
	// connections are refused from here on.
	dead, srv := newKillableSzd(t)
	healthy := newSzd(t)
	rt, ts := newRouter(t, Config{Backends: []string{dead, healthy}})
	srv.Close()

	payload := payloadOwnedBy(t, rt, dead)
	resp := post(t, ts.URL+"/v1/compress?codec=gzip", payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via failover", resp.StatusCode)
	}
	if b := resp.Header.Get(api.HeaderBackend); b != healthy {
		t.Errorf("served by %q, want %q", b, healthy)
	}
	readAllClose(t, resp)
	if st := rt.poller.Health(dead).State; st != StateDead {
		t.Errorf("dead backend state = %v, want dead after observed failure", st)
	}
}

// TestRouterStreamingPath pushes a body past the buffer limit so it
// takes the single-attempt streaming route.
func TestRouterStreamingPath(t *testing.T) {
	backends := []string{newSzd(t), newSzd(t)}
	_, ts := newRouter(t, Config{Backends: backends, BufferLimit: 1024})

	raw := makeRaw(t, grid.Float32, 16, 20, 12) // ~15 KiB >> 1 KiB limit
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 20, 12}}
	want := localStream(t, "sz14", raw, p)

	resp := post(t, ts.URL+"/v1/compress?codec=sz14&abs=1e-3&dtype=f32&dims=16,20,12", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAllClose(t, resp))
	}
	if got := readAllClose(t, resp); !bytes.Equal(got, want) {
		t.Fatal("streamed routed output differs from local")
	}
}

// TestRouterSlabProxied verifies the slab range endpoints work through
// the router: the remote slab decode must equal the local one.
func TestRouterSlabProxied(t *testing.T) {
	_, ts := newRouter(t, Config{Backends: []string{newSzd(t), newSzd(t)}})

	raw := makeRaw(t, grid.Float32, 16, 8, 8)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 8, 8}, SlabRows: 4}
	stream := localStream(t, "blocked", raw, p)

	var si codec.SlabIndex
	resp := post(t, ts.URL+"/v1/slabs", stream)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slabs status %d: %s", resp.StatusCode, readAllClose(t, resp))
	}
	if err := json.NewDecoder(resp.Body).Decode(&si); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if si.Slabs != 4 || si.SlabRows != 4 {
		t.Fatalf("slab index = %d slabs x %d rows, want 4 x 4", si.Slabs, si.SlabRows)
	}

	resp = post(t, ts.URL+"/v1/slab/1", stream)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slab status %d: %s", resp.StatusCode, readAllClose(t, resp))
	}
	got := readAllClose(t, resp)
	// One slab of a 16x8x8 f32 field is 4*8*8*4 bytes.
	if len(got) != 4*8*8*4 {
		t.Fatalf("slab decode returned %d bytes, want %d", len(got), 4*8*8*4)
	}
}

// TestRouterBodylessFailover: /v1/codecs works even when the first
// backend in rotation is unreachable.
func TestRouterBodylessFailover(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	_, ts := newRouter(t, Config{Backends: []string{dead, newSzd(t)}})

	for i := 0; i < 4; i++ { // cover every rotation offset
		resp, err := http.Get(ts.URL + "/v1/codecs")
		if err != nil {
			t.Fatal(err)
		}
		body := readAllClose(t, resp)
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "blocked") {
			t.Fatalf("codecs status %d body %q", resp.StatusCode, body)
		}
	}
}

func TestRouterHealthz(t *testing.T) {
	_, ts := newRouter(t, Config{Backends: []string{newSzd(t)}})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d with a healthy backend", resp.StatusCode)
	}
	readAllClose(t, resp)

	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	dead := ln.Addr().String()
	ln.Close()
	rt2, ts2 := newRouter(t, Config{Backends: []string{dead}})
	rt2.poller.PollOnce(context.Background())
	resp, err = http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d with no reachable backends, want 503", resp.StatusCode)
	}
	readAllClose(t, resp)
}

func TestRouterNoBackends(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("router built with no backends")
	}
	if _, err := New(Config{Backends: []string{"a:1", "a:1"}}); err == nil {
		t.Fatal("router built with duplicate backends")
	}
}
