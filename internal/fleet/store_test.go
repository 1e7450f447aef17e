package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/server"
	"repro/internal/store"
)

func streamDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// newSzdWithStore starts a daemon with a content-addressed store and
// returns its host:port address.
func newSzdWithStore(t *testing.T) string {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(server.Config{Store: st}).Handler())
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

// TestRouterRelaysEtagTrailer: the digest a backend settles on after
// streaming a compress response must survive the proxy hop as a
// trailer.
func TestRouterRelaysEtagTrailer(t *testing.T) {
	_, ts := newRouter(t, Config{Backends: []string{newSzdWithStore(t), newSzdWithStore(t)}})
	raw := makeRaw(t, grid.Float32, 16, 8, 8)
	resp := post(t, ts.URL+"/v1/compress?codec=blocked&abs=1e-3&dtype=f32&dims=16,8,8", raw)
	stream := readAllClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status %d", resp.StatusCode)
	}
	etag := resp.Trailer.Get("Etag")
	if etag == "" {
		t.Fatal("routed compress response lost the ETag trailer")
	}
	digest := strings.Trim(etag, `"`)
	if !store.ValidDigest(digest) {
		t.Fatalf("relayed ETag %q is not a digest etag", etag)
	}
	_ = stream
}

// routedContainer compresses raw through the router and returns
// (container bytes, digest).
func routedContainer(t *testing.T, base string, raw []byte, query string) ([]byte, string) {
	t.Helper()
	resp := post(t, base+"/v1/compress?"+query, raw)
	stream := readAllClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status %d: %s", resp.StatusCode, stream)
	}
	digest := strings.Trim(resp.Trailer.Get("Etag"), `"`)
	if !store.ValidDigest(digest) {
		t.Fatalf("no digest trailer on routed compress (got %q)", resp.Trailer.Get("Etag"))
	}
	return stream, digest
}

// TestRouterDigestReadsAndCache: after one routed compress, a bodyless
// digest slab read must work through the router (peer-filling across
// the ring if the compress landed off-owner), the repeat must come from
// the router cache, and the hit must be counted in
// szrouter_cache_hit_bytes_total.
func TestRouterDigestReadsAndCache(t *testing.T) {
	backends := []string{newSzdWithStore(t), newSzdWithStore(t)}
	_, ts := newRouter(t, Config{Backends: backends})

	raw := makeRaw(t, grid.Float32, 16, 8, 8)
	stream, digest := routedContainer(t, ts.URL, raw, "codec=blocked&abs=1e-3&dtype=f32&dims=16,8,8&slab=4")

	// Reference decode via the body path.
	resp := post(t, ts.URL+"/v1/slab/1", stream)
	want := readAllClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("body slab status %d: %s", resp.StatusCode, want)
	}

	url := ts.URL + "/v1/slab/1?digest=" + digest
	r1, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	got := readAllClose(t, r1)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("digest slab status %d: %s", r1.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("digest-referenced slab through router differs from body path")
	}

	r2, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	got2 := readAllClose(t, r2)
	if r2.Header.Get(api.HeaderCache) != "hit" {
		t.Fatalf("repeat digest read not served from cache (X-Sz-Cache=%q)", r2.Header.Get(api.HeaderCache))
	}
	if !bytes.Equal(got2, want) {
		t.Fatal("cached response differs")
	}

	metrics := string(readAllClose(t, post(t, ts.URL+"/metrics", nil)))
	if !strings.Contains(metrics, fmt.Sprintf("szrouter_cache_hit_bytes_total %d", len(want))) {
		t.Errorf("cache hit bytes not counted (want %d):\n%s", len(want), metrics)
	}
}

// TestRouterCache304: a conditional repeat against a cached entry must
// answer 304 from tier 1 — no backend round trip, no body.
func TestRouterCache304(t *testing.T) {
	backends := []string{newSzdWithStore(t), newSzdWithStore(t)}
	_, ts := newRouter(t, Config{Backends: backends})

	raw := makeRaw(t, grid.Float32, 16, 8, 8)
	_, digest := routedContainer(t, ts.URL, raw, "codec=blocked&abs=1e-3&dtype=f32&dims=16,8,8&slab=4")

	url := ts.URL + "/v1/slab/0?digest=" + digest
	r1, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	readAllClose(t, r1)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first read status %d", r1.StatusCode)
	}
	etag := r1.Header.Get("Etag")
	if etag == "" {
		t.Fatal("first read carried no ETag")
	}

	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", etag)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readAllClose(t, r2)
	if r2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional repeat status %d, want 304", r2.StatusCode)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body))
	}
	if r2.Header.Get(api.HeaderCache) != "hit" {
		t.Fatalf("304 not served from cache (X-Sz-Cache=%q)", r2.Header.Get(api.HeaderCache))
	}
}

// TestRouterPeerFill plants a container on the non-owning backend only,
// then asks the router for a digest read: the router must copy the
// container to the ring owner through /v1/container and serve from
// there.
func TestRouterPeerFill(t *testing.T) {
	backends := []string{newSzdWithStore(t), newSzdWithStore(t)}
	rt, ts := newRouter(t, Config{Backends: backends})

	raw := makeRaw(t, grid.Float32, 16, 8, 8)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 8, 8}, SlabRows: 4}
	stream := localStream(t, "blocked", raw, p)
	digest := streamDigest(stream)

	owner := rt.ringOwner(digest)
	other := backends[0]
	if other == owner {
		other = backends[1]
	}

	// Seed only the non-owner, directly (not through the router).
	req, _ := http.NewRequest(http.MethodPut, "http://"+other+"/v1/container/"+digest, bytes.NewReader(stream))
	presp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusNoContent {
		t.Fatalf("seed put status %d", presp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/v1/slab/1?digest=" + digest)
	if err != nil {
		t.Fatal(err)
	}
	body := readAllClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("digest read status %d: %s", resp.StatusCode, body)
	}
	if b := resp.Header.Get(api.HeaderBackend); b != owner {
		t.Errorf("served by %q, want ring owner %q after fill", b, owner)
	}

	// The owner must now hold the container on disk.
	oresp, err := http.Get("http://" + owner + "/v1/container/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	got := readAllClose(t, oresp)
	if oresp.StatusCode != http.StatusOK || !bytes.Equal(got, stream) {
		t.Fatalf("owner store not filled: status %d, %d bytes", oresp.StatusCode, len(got))
	}

	metrics := string(readAllClose(t, post(t, ts.URL+"/metrics", nil)))
	if !strings.Contains(metrics, fmt.Sprintf("szrouter_peer_fills_total{backend=%q} 1", owner)) {
		t.Errorf("peer fill not counted:\n%s", metrics)
	}
}

// TestRouterContainerProxy: GET /v1/container through the router fails
// over to whichever backend holds the bytes.
func TestRouterContainerProxy(t *testing.T) {
	backends := []string{newSzdWithStore(t), newSzdWithStore(t)}
	_, ts := newRouter(t, Config{Backends: backends})

	raw := makeRaw(t, grid.Float32, 16, 8, 8)
	stream, digest := routedContainer(t, ts.URL, raw, "codec=blocked&abs=1e-3&dtype=f32&dims=16,8,8")

	resp, err := http.Get(ts.URL + "/v1/container/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	got := readAllClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("container get status %d", resp.StatusCode)
	}
	if !bytes.Equal(got, stream) {
		t.Fatal("routed container bytes differ from compress output")
	}
}
