package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/store"
)

// newStoreDaemon builds a daemon with a content-addressed store.
func newStoreDaemon(t *testing.T, budget int64) (*Server, string, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir(), budget)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestDaemon(t, Config{Store: st})
	_ = s
	return s, ts.URL, st
}

// compressRemote round-trips raw through /v1/compress and returns the
// container and the digest from the ETag trailer.
func compressRemote(t *testing.T, base string, raw []byte, query string) ([]byte, string) {
	t.Helper()
	resp := post(t, base+"/v1/compress?"+query, raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status %d: %s", resp.StatusCode, readAllClose(t, resp))
	}
	stream := readAllClose(t, resp)
	etag := resp.Trailer.Get("Etag")
	if etag == "" {
		t.Fatal("compress response has no ETag trailer")
	}
	digest := strings.Trim(etag, `"`)
	if !store.ValidDigest(digest) {
		t.Fatalf("ETag trailer %q is not a digest etag", etag)
	}
	return stream, digest
}

// TestCompressPersistsWithETagTrailer: a compress response must carry
// the container's digest as an ETag trailer, the digest must match the
// response bytes, and the container must land in the store.
func TestCompressPersistsWithETagTrailer(t *testing.T) {
	_, base, st := newStoreDaemon(t, 0)
	raw, _ := makeRaw(t, grid.Float32, 16, 20, 12)
	stream, digest := compressRemote(t, base, raw, "codec=blocked&abs=1e-3&dtype=f32&dims=16,20,12")

	if want := bodyDigest(stream); digest != want {
		t.Fatalf("trailer digest %s, body hashes to %s", digest, want)
	}
	ent, err := st.Get(digest)
	if err != nil {
		t.Fatalf("container not in store: %v", err)
	}
	defer ent.Release()
	if !bytes.Equal(ent.Bytes(), stream) {
		t.Fatal("stored bytes differ from response bytes")
	}
}

// TestDigestReferencedSlabRead: after one compress, a bodyless
// GET /v1/slab/{i}?digest= must serve the same samples the body path
// serves, flag the store hit, and carry the container ETag.
func TestDigestReferencedSlabRead(t *testing.T) {
	_, base, _ := newStoreDaemon(t, 0)
	raw, _ := makeRaw(t, grid.Float32, 16, 20, 12)
	stream, digest := compressRemote(t, base, raw, "codec=blocked&abs=1e-3&dtype=f32&dims=16,20,12&slab=4")

	// Reference decode through the body path.
	resp := post(t, base+"/v1/slab/1", stream)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("body slab status %d: %s", resp.StatusCode, readAllClose(t, resp))
	}
	want := readAllClose(t, resp)

	resp, err := http.Get(base + "/v1/slab/1?digest=" + digest)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("digest slab status %d: %s", resp.StatusCode, readAllClose(t, resp))
	}
	if got := resp.Header.Get(api.HeaderStore); got != "hit" {
		t.Errorf("store tag = %q, want hit", got)
	}
	if got := resp.Header.Get("Etag"); got != etagFor(digest) {
		t.Errorf("Etag = %q, want %q", got, etagFor(digest))
	}
	got := readAllClose(t, resp)
	if !bytes.Equal(got, want) {
		t.Fatalf("digest-referenced slab differs from body path: %d vs %d bytes", len(got), len(want))
	}

	// The header fallback must work too.
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/slab/1", nil)
	req.Header.Set(api.HeaderDigest, digest)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAllClose(t, resp); !bytes.Equal(got, want) {
		t.Fatal("digest-header fallback differs")
	}
}

// TestCompressedSlabExtent: Accept: application/x-sz-slab must yield
// the exact compressed extent (a byte slice of the container), which a
// client can decode locally to the same samples.
func TestCompressedSlabExtent(t *testing.T) {
	_, base, _ := newStoreDaemon(t, 0)
	raw, _ := makeRaw(t, grid.Float32, 16, 20, 12)
	stream, digest := compressRemote(t, base, raw, "codec=blocked&abs=1e-3&dtype=f32&dims=16,20,12&slab=4")

	si, err := codec.SlabIndexOf(stream)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"0", "2", "1-2", "0-3"} {
		lo, hi, _ := codec.ParseSlabSpec(spec)
		req, _ := http.NewRequest(http.MethodGet, base+"/v1/slab/"+spec+"?digest="+digest, nil)
		req.Header.Set("Accept", SlabContentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("spec %s: status %d: %s", spec, resp.StatusCode, readAllClose(t, resp))
		}
		if ct := resp.Header.Get("Content-Type"); ct != SlabContentType {
			t.Fatalf("spec %s: content type %q", spec, ct)
		}
		got := readAllClose(t, resp)

		// The extent must be the container's own bytes for that range.
		start := si.HeaderLen
		for i := 0; i < lo; i++ {
			start += si.SlabLengths[i]
		}
		end := start
		for i := lo; i <= hi; i++ {
			end += si.SlabLengths[i]
		}
		if !bytes.Equal(got, stream[start:end]) {
			t.Fatalf("spec %s: extent differs from container slice", spec)
		}

		// X-Sz-Slab-Lengths must let the client split the extent.
		var lens []int
		for _, f := range strings.Split(resp.Header.Get(api.HeaderSlabLengths), ",") {
			n, err := strconv.Atoi(f)
			if err != nil {
				t.Fatalf("spec %s: bad X-Sz-Slab-Lengths: %v", spec, err)
			}
			lens = append(lens, n)
		}
		sum := 0
		for _, n := range lens {
			sum += n
		}
		if len(lens) != hi-lo+1 || sum != len(got) {
			t.Fatalf("spec %s: lengths %v do not cover %d extent bytes", spec, lens, len(got))
		}

		// Each stream decodes independently to the body-path samples.
		off := 0
		for k, n := range lens {
			arr, h, err := core.Decompress(got[off : off+n])
			if err != nil {
				t.Fatalf("spec %s slab %d: local decode: %v", spec, lo+k, err)
			}
			if h.DType != grid.Float32 {
				t.Fatalf("dtype %v", h.DType)
			}
			off += n
			_ = arr
		}
	}
}

// TestIfNoneMatch304: a conditional read with the container's ETag must
// answer 304 with no body on every endpoint — including after the
// entry is evicted (the digest alone proves the match).
func TestIfNoneMatch304(t *testing.T) {
	_, base, st := newStoreDaemon(t, 0)
	raw, _ := makeRaw(t, grid.Float32, 16, 20, 12)
	stream, digest := compressRemote(t, base, raw, "codec=blocked&abs=1e-3&dtype=f32&dims=16,20,12")
	etag := etagFor(digest)

	check := func(name, method, url string, body []byte) {
		t.Helper()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, _ := http.NewRequest(method, url, rd)
		req.Header.Set("If-None-Match", etag)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b := readAllClose(t, resp)
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("%s: status %d, want 304 (%s)", name, resp.StatusCode, b)
		}
		if len(b) != 0 {
			t.Fatalf("%s: 304 carried %d body bytes", name, len(b))
		}
		if got := resp.Header.Get("Etag"); got != etag {
			t.Fatalf("%s: 304 Etag %q, want %q", name, got, etag)
		}
	}

	check("slab-digest", http.MethodGet, base+"/v1/slab/1?digest="+digest, nil)
	check("slabs-digest", http.MethodGet, base+"/v1/slabs?digest="+digest, nil)
	check("decompress-digest", http.MethodGet, base+"/v1/decompress?digest="+digest, nil)
	check("slab-body", http.MethodPost, base+"/v1/slab/1", stream)
	check("slabs-body", http.MethodPost, base+"/v1/slabs", stream)
	check("container", http.MethodGet, base+"/v1/container/"+digest, nil)

	// Evict everything: the 304s must keep working — identical digest
	// means identical bytes whether or not the store still holds them.
	if _, err := st.Put(bytes.Repeat([]byte("evict"), 10)); err != nil {
		t.Fatal(err)
	}
	check("slab-digest-evicted", http.MethodGet, base+"/v1/slab/1?digest="+digest, nil)
}

// TestDigestMissIs404 with X-Sz-Store: miss so routers can trigger
// peer fill.
func TestDigestMissIs404(t *testing.T) {
	_, base, _ := newStoreDaemon(t, 0)
	missing := bodyDigest([]byte("never stored"))
	resp, err := http.Get(base + "/v1/slab/0?digest=" + missing)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	if got := resp.Header.Get(api.HeaderStore); got != "miss" {
		t.Fatalf("store tag = %q, want miss", got)
	}

	// Malformed digests are 400, not 404.
	resp, err = http.Get(base + "/v1/slab/0?digest=nothex")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed digest: status %d, want 400", resp.StatusCode)
	}
}

// TestBodyPathFillsStore: a slab read that carries the container body
// must persist it, so the next reader can go bodyless.
func TestBodyPathFillsStore(t *testing.T) {
	_, base, st := newStoreDaemon(t, 0)
	raw, _ := makeRaw(t, grid.Float32, 16, 20, 12)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 20, 12}, SlabRows: 4}
	stream := localStream(t, "blocked", raw, p)
	digest := bodyDigest(stream)

	resp := post(t, base+"/v1/slab/0", stream)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAllClose(t, resp))
	}
	if got := resp.Header.Get("Etag"); got != etagFor(digest) {
		t.Errorf("body-path Etag = %q, want %q", got, etagFor(digest))
	}
	readAllClose(t, resp)
	if !st.Contains(digest) {
		t.Fatal("body path did not fill the store")
	}

	// And now the bodyless read works.
	resp2, err := http.Get(base + "/v1/slab/0?digest=" + digest)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("bodyless read after fill: status %d", resp2.StatusCode)
	}
	readAllClose(t, resp2)
}

// TestContainerGetPut: the peer-fill endpoint round-trips container
// bytes and verifies the digest on PUT.
func TestContainerGetPut(t *testing.T) {
	_, base, _ := newStoreDaemon(t, 0)
	raw, _ := makeRaw(t, grid.Float32, 16, 20, 12)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 20, 12}}
	stream := localStream(t, "blocked", raw, p)
	digest := bodyDigest(stream)

	put := func(d string, body []byte) int {
		req, _ := http.NewRequest(http.MethodPut, base+"/v1/container/"+d, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put(digest, stream); code != http.StatusNoContent {
		t.Fatalf("put status %d", code)
	}
	// Corrupt upload under a clean name must be rejected, not stored.
	if code := put(bodyDigest([]byte("other")), stream); code != http.StatusBadRequest {
		t.Fatalf("mismatched put status %d, want 400", code)
	}

	resp, err := http.Get(base + "/v1/container/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get status %d", resp.StatusCode)
	}
	if got := readAllClose(t, resp); !bytes.Equal(got, stream) {
		t.Fatal("container bytes differ after PUT/GET round trip")
	}

	resp, err = http.Get(base + "/v1/container/" + bodyDigest([]byte("absent")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing container: status %d, want 404", resp.StatusCode)
	}
}

// TestContainerHeadAndListing: HEAD /v1/container/{digest} is the
// replicator's existence probe (204 stored, 404 not), and GET
// /v1/containers lists the inventory for anti-entropy sweeps.
func TestContainerHeadAndListing(t *testing.T) {
	_, base, st := newStoreDaemon(t, 0)
	raw, _ := makeRaw(t, grid.Float32, 16, 20, 12)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 20, 12}}
	stream := localStream(t, "blocked", raw, p)
	digest, err := st.Put(stream)
	if err != nil {
		t.Fatal(err)
	}

	head := func(d string) *http.Response {
		req, _ := http.NewRequest(http.MethodHead, base+"/v1/container/"+d, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	resp := head(digest)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("stored HEAD status %d, want 204", resp.StatusCode)
	}
	if got := resp.Header.Get(api.HeaderStore); got != "hit" {
		t.Errorf("stored HEAD %s = %q, want hit", api.HeaderStore, got)
	}
	resp = head(bodyDigest([]byte("absent")))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent HEAD status %d, want 404", resp.StatusCode)
	}

	lresp, err := http.Get(base + "/v1/containers")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Digests []string `json:"digests"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(listing.Digests) != 1 || listing.Digests[0] != digest {
		t.Fatalf("listing %v, want [%s]", listing.Digests, digest)
	}

	// No store configured: the listing is a 404, same as any other
	// store-backed surface.
	_, ts := newTestDaemon(t, Config{})
	nresp, err := http.Get(ts.URL + "/v1/containers")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("storeless listing status %d, want 404", nresp.StatusCode)
	}
}

// TestDigestReferencedDecompress: GET /v1/decompress?digest= must equal
// the body-path reconstruction.
func TestDigestReferencedDecompress(t *testing.T) {
	_, base, _ := newStoreDaemon(t, 0)
	raw, _ := makeRaw(t, grid.Float32, 16, 20, 12)
	stream, digest := compressRemote(t, base, raw, "codec=blocked&abs=1e-3&dtype=f32&dims=16,20,12")

	resp := post(t, base+"/v1/decompress", stream)
	want := readAllClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("body decompress status %d", resp.StatusCode)
	}
	// The body-path decompress must also have announced the digest.
	if etag := resp.Trailer.Get("Etag"); etag != etagFor(digest) {
		t.Errorf("decompress trailer Etag = %q, want %q", etag, etagFor(digest))
	}

	resp2, err := http.Get(base + "/v1/decompress?digest=" + digest)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("digest decompress status %d", resp2.StatusCode)
	}
	if got := readAllClose(t, resp2); !bytes.Equal(got, want) {
		t.Fatal("digest-referenced decompress differs from body path")
	}
}

// TestCodecsAdvertisesPreferredStreams covers the SZB3 follow-on: the
// daemon tells auto-stream clients what to use.
func TestCodecsAdvertisesPreferredStreams(t *testing.T) {
	for _, cfg := range []struct {
		set  int
		want int
	}{{0, 4}, {8, 8}} {
		_, ts := newTestDaemon(t, Config{PreferredStreams: cfg.set})
		resp, err := http.Get(ts.URL + "/v1/codecs")
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Codecs           []string `json:"codecs"`
			PreferredStreams int      `json:"preferred_streams"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if body.PreferredStreams != cfg.want {
			t.Fatalf("preferred_streams = %d, want %d", body.PreferredStreams, cfg.want)
		}
		if len(body.Codecs) == 0 {
			t.Fatal("codecs list empty")
		}
	}
}

// TestStoreMetricsExposed: the tier-2 gauges and counters must appear
// once a store is configured.
func TestStoreMetricsExposed(t *testing.T) {
	_, base, _ := newStoreDaemon(t, 0)
	raw, _ := makeRaw(t, grid.Float32, 16, 20, 12)
	_, digest := compressRemote(t, base, raw, "codec=blocked&abs=1e-3&dtype=f32&dims=16,20,12")
	resp, err := http.Get(base + "/v1/slab/0?digest=" + digest)
	if err != nil {
		t.Fatal(err)
	}
	readAllClose(t, resp)

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := string(readAllClose(t, mresp))
	for _, want := range []string{
		"szd_store_entries 1",
		"szd_store_hits_total 1",
		"szd_store_evictions_total 0",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(m, "szd_store_bytes ") {
		t.Error("metrics missing szd_store_bytes")
	}
}

// TestStoreDisabledPaths: without a store, digest-referenced reads are
// 404s and compress carries no ETag trailer — the seeded behavior is
// otherwise untouched.
func TestStoreDisabledPaths(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	raw, _ := makeRaw(t, grid.Float32, 8, 10, 10)
	resp := post(t, ts.URL+"/v1/compress?codec=blocked&abs=1e-3&dtype=f32&dims=8,10,10", raw)
	stream := readAllClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status %d", resp.StatusCode)
	}
	if etag := resp.Trailer.Get("Etag"); etag != "" {
		t.Fatalf("storeless compress has ETag trailer %q", etag)
	}
	r2, err := http.Get(ts.URL + "/v1/slab/0?digest=" + bodyDigest(stream))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("digest read without store: status %d, want 404", r2.StatusCode)
	}
}

// TestBodyAndDigestReadsAgree: a container read answers the same
// whether the container travels as the request body or is named by
// digest — status, content headers, ETag (header or trailer), and then
// the same bytes on success or the same error code and message on
// failure — for a blocked v2, a shared-codebook v3 and an sz14 stream.
func TestBodyAndDigestReadsAgree(t *testing.T) {
	_, base, st := newStoreDaemon(t, 0)
	dims := []int{16, 20, 12}
	raw, _ := makeRaw(t, grid.Float32, dims...)
	containers := []struct {
		name   string
		stream []byte
	}{
		{"v2", localStream(t, "blocked", raw, codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: dims, SlabRows: 4})},
		{"v3-sharedcb", localStream(t, "blocked", raw, codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: dims, SlabRows: 4, Streams: 2, SharedCodebook: true})},
		{"sz14", localStream(t, "sz14", raw, codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: dims})},
	}
	reads := []struct{ path, accept string }{
		{"/v1/decompress", ""},
		{"/v1/slabs", ""},
		{"/v1/slab/1", ""},
		{"/v1/slab/1-2", SlabContentType},
		{"/v1/slab/9", ""},
	}
	do := func(method, url, accept string, body []byte) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest(method, url, bytes.NewReader(body))
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp, readAllClose(t, resp)
	}
	etag := func(resp *http.Response) string {
		if e := resp.Header.Get("Etag"); e != "" {
			return e
		}
		return resp.Trailer.Get("Etag")
	}
	envelope := func(b []byte) api.Error {
		var e api.Error
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatalf("error body %q: %v", b, err)
		}
		return e
	}
	for _, c := range containers {
		digest, err := st.Put(c.stream)
		if err != nil {
			t.Fatal(err)
		}
		for _, rd := range reads {
			name := c.name + " " + rd.path
			bresp, bbody := do(http.MethodPost, base+rd.path, rd.accept, c.stream)
			dresp, dbody := do(http.MethodGet, base+rd.path+"?digest="+digest, rd.accept, nil)
			if bresp.StatusCode != dresp.StatusCode {
				t.Errorf("%s: body status %d, digest status %d (%s / %s)", name, bresp.StatusCode, dresp.StatusCode, bbody, dbody)
				continue
			}
			for _, h := range []string{"Content-Type", api.HeaderCodec, api.HeaderDims, api.HeaderDtype, api.HeaderSlabs, api.HeaderSlabLengths} {
				if b, d := bresp.Header.Get(h), dresp.Header.Get(h); b != d {
					t.Errorf("%s: %s %q by body, %q by digest", name, h, b, d)
				}
			}
			if b, d := etag(bresp), etag(dresp); b != d {
				t.Errorf("%s: ETag %q by body, %q by digest", name, b, d)
			}
			if bresp.StatusCode == http.StatusOK {
				if !bytes.Equal(bbody, dbody) {
					t.Errorf("%s: body read %d bytes, digest read %d bytes differ", name, len(bbody), len(dbody))
				}
				continue
			}
			if b, d := envelope(bbody), envelope(dbody); b.Code != d.Code || b.Message != d.Message {
				t.Errorf("%s: body error %s %q, digest error %s %q", name, b.Code, b.Message, d.Code, d.Message)
			}
		}
	}
}

// TestReadEndpointsAllowGetPost: every container read endpoint answers
// a method other than GET or POST with 405 and Allow: GET, POST — also
// when ?digest= names a stored container the read would serve.
func TestReadEndpointsAllowGetPost(t *testing.T) {
	_, base, st := newStoreDaemon(t, 0)
	raw, _ := makeRaw(t, grid.Float32, 16, 20, 12)
	digest, err := st.Put(localStream(t, "blocked", raw, codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 20, 12}, SlabRows: 4}))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/decompress", "/v1/inspect", "/v1/slabs", "/v1/slab/1"} {
		for _, m := range []string{http.MethodDelete, http.MethodPut, http.MethodPatch} {
			req, _ := http.NewRequest(m, base+path+"?digest="+digest, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			readAllClose(t, resp)
			if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, POST" {
				t.Errorf("%s %s: status %d, Allow %q, want 405 with GET, POST",
					m, path, resp.StatusCode, resp.Header.Get("Allow"))
			}
		}
	}
	// A GET with no ?digest= has no container to decode.
	resp, err := http.Get(base + "/v1/decompress")
	if err != nil {
		t.Fatal(err)
	}
	readAllClose(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Errorf("bodyless GET: status %d, Allow %q, want 405 with POST", resp.StatusCode, resp.Header.Get("Allow"))
	}
}
