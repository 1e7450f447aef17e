package fleet

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/api"
)

func entry(status int, body string) *cacheEntry {
	return &cacheEntry{status: status, header: http.Header{}, body: []byte(body), backend: "b"}
}

func TestRespCacheLRUEviction(t *testing.T) {
	// Budget fits two entries (each size = len(body)+256).
	c := newRespCache(2 * (256 + 100))
	body := strings.Repeat("x", 100)
	c.put("a", entry(200, body))
	c.put("b", entry(200, body))
	if c.get("a") == nil { // promotes a over b
		t.Fatal("a missing")
	}
	c.put("c", entry(200, body)) // evicts b (LRU tail)
	if c.get("b") != nil {
		t.Fatal("b should have been evicted")
	}
	if c.get("a") == nil || c.get("c") == nil {
		t.Fatal("a and c should survive")
	}
	_, entries, hits, misses, evictions := c.stats()
	if entries != 2 || evictions != 1 {
		t.Fatalf("entries %d evictions %d", entries, evictions)
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("hits %d misses %d", hits, misses)
	}
}

func TestRespCacheRejectsOversized(t *testing.T) {
	c := newRespCache(512)
	c.put("big", entry(200, strings.Repeat("x", 600)))
	if c.get("big") != nil {
		t.Fatal("oversized entry must not be cached")
	}
}

// countingBackend is a stub szd that counts requests per path and
// returns a deterministic body derived from the request.
func countingBackend(t *testing.T, hits *atomic.Int64, block chan struct{}) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == api.PathLimits {
			io.WriteString(w, "{}\n") // health-poller traffic is not a forward
			return
		}
		hits.Add(1)
		if block != nil {
			<-block
		}
		body, _ := io.ReadAll(r.Body)
		w.Header().Set(api.HeaderCodec, "blocked")
		fmt.Fprintf(w, "decoded:%d:%s", len(body), r.URL.RawQuery)
	}))
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

// TestRouterCacheServesRepeatWithoutBackend: the second identical
// decompress request must be answered from the router cache with zero
// additional backend forwards.
func TestRouterCacheServesRepeatWithoutBackend(t *testing.T) {
	var hits atomic.Int64
	b := countingBackend(t, &hits, nil)
	_, ts := newRouter(t, Config{Backends: []string{b}})

	post := func() (*http.Response, string) {
		resp, err := http.Post(ts.URL+"/v1/decompress", "application/octet-stream", strings.NewReader("container-bytes"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}

	r1, b1 := post()
	if r1.StatusCode != 200 || hits.Load() != 1 {
		t.Fatalf("first: status %d, backend hits %d", r1.StatusCode, hits.Load())
	}
	if got := r1.Header.Get(api.HeaderCache); got != "" {
		t.Fatalf("first response should not be cache-tagged, got %q", got)
	}
	r2, b2 := post()
	if hits.Load() != 1 {
		t.Fatalf("repeat hit the backend: %d forwards", hits.Load())
	}
	if r2.Header.Get(api.HeaderCache) != "hit" {
		t.Fatalf("cache tag = %q, want hit", r2.Header.Get(api.HeaderCache))
	}
	if b1 != b2 {
		t.Fatalf("cached body differs: %q vs %q", b1, b2)
	}
	if r2.Header.Get(api.HeaderCodec) != "blocked" {
		t.Fatal("cached response must replay backend headers")
	}
	if r2.Header.Get(api.HeaderBackend) != b {
		t.Fatalf("backend tag = %q, want %q", r2.Header.Get(api.HeaderBackend), b)
	}
}

// TestRouterCacheKeyedByParams: same body, different query parameters
// (e.g. a different slab spec) must not share a cache entry.
func TestRouterCacheKeyedByParams(t *testing.T) {
	var hits atomic.Int64
	b := countingBackend(t, &hits, nil)
	_, ts := newRouter(t, Config{Backends: []string{b}})

	for i, path := range []string{"/v1/slab/0", "/v1/slab/1", "/v1/decompress?codec=blocked", "/v1/decompress"} {
		resp, err := http.Post(ts.URL+path, "application/octet-stream", strings.NewReader("same-body"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if want := int64(i + 1); hits.Load() != want {
			t.Fatalf("request %d: %d backend forwards, want %d", i, hits.Load(), want)
		}
	}
	// Each repeated verbatim now hits the cache.
	for _, path := range []string{"/v1/slab/0", "/v1/slab/1", "/v1/decompress?codec=blocked", "/v1/decompress"} {
		resp, err := http.Post(ts.URL+path, "application/octet-stream", strings.NewReader("same-body"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.Header.Get(api.HeaderCache) != "hit" {
			t.Fatalf("%s: expected a cache hit", path)
		}
	}
	if hits.Load() != 4 {
		t.Fatalf("repeats forwarded: %d", hits.Load())
	}
}

// TestRouterCompressNotCached: the compress endpoint must never be
// answered from the cache.
func TestRouterCompressNotCached(t *testing.T) {
	var hits atomic.Int64
	b := countingBackend(t, &hits, nil)
	_, ts := newRouter(t, Config{Backends: []string{b}})
	for i := 1; i <= 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/compress?codec=gzip", "application/octet-stream", strings.NewReader("raw"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if hits.Load() != int64(i) {
			t.Fatalf("compress %d: %d forwards", i, hits.Load())
		}
	}
}

// TestRouterOversizedResponseNotCached: responses beyond the entry cap
// (a quarter of the cache budget) stream through uncached, and repeats
// forward again.
func TestRouterOversizedResponseNotCached(t *testing.T) {
	var hits atomic.Int64
	ts0 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == api.PathLimits {
			io.WriteString(w, "{}\n")
			return
		}
		hits.Add(1)
		io.ReadAll(r.Body)
		w.Write(make([]byte, 4096))
	}))
	t.Cleanup(ts0.Close)
	b := strings.TrimPrefix(ts0.URL, "http://")
	_, ts := newRouter(t, Config{Backends: []string{b}, CacheBytes: 4096})

	for i := 1; i <= 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/decompress", "application/octet-stream", strings.NewReader("c"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if len(body) != 4096 {
			t.Fatalf("request %d: body %d bytes", i, len(body))
		}
		if resp.Header.Get(api.HeaderCache) != "" {
			t.Fatalf("oversized response must not be cache-tagged")
		}
		if hits.Load() != int64(i) {
			t.Fatalf("request %d: %d forwards", i, hits.Load())
		}
	}
}

// TestRouterRejectsNegativeCacheBytes: the response cache cannot be
// switched off; a negative budget is a configuration error.
func TestRouterRejectsNegativeCacheBytes(t *testing.T) {
	if _, err := New(Config{Backends: []string{"127.0.0.1:1"}, CacheBytes: -1}); err == nil {
		t.Fatal("New accepted a negative CacheBytes")
	}
}
