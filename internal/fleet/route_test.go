package fleet

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/api"
	"repro/internal/blocked"
	"repro/internal/client"
	"repro/internal/grid"
)

// TestRouterCacheKeyedByAccept: a digest slab read returns the
// compressed extent or the decoded samples depending only on Accept, so
// whichever form is read first must never answer a request for the
// other from the router cache — and each form's repeat must still hit.
func TestRouterCacheKeyedByAccept(t *testing.T) {
	for _, extentFirst := range []bool{true, false} {
		name := "raw-then-extent"
		if extentFirst {
			name = "extent-then-raw"
		}
		t.Run(name, func(t *testing.T) {
			_, ts := newRouter(t, Config{Backends: []string{newSzdWithStore(t), newSzdWithStore(t)}})
			raw := makeRaw(t, grid.Float32, 16, 8, 8)
			stream, digest := routedContainer(t, ts.URL, raw, "codec=blocked&abs=1e-3&dtype=f32&dims=16,8,8&slab=4")

			// The local references: slab 1 decoded, and its byte extent.
			arr, dt, err := blocked.DecompressSlabRange(stream, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			var wantRaw bytes.Buffer
			if err := arr.WriteRaw(&wantRaw, dt); err != nil {
				t.Fatal(err)
			}
			ix, err := blocked.Inspect(stream)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi, err := ix.SlabExtent(1, 1)
			if err != nil {
				t.Fatal(err)
			}
			wantExtent := stream[lo:hi]

			cl, err := client.New(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			readExtent := func() {
				t.Helper()
				ext, err := cl.ReadSlabExtent(context.Background(), digest, 1, 1)
				if err != nil {
					t.Fatal(err)
				}
				if ext.Raw {
					t.Fatalf("extent read came back as decoded samples (%d bytes), not %s", len(ext.Data), api.MediaTypeSlabExtent)
				}
				if !bytes.Equal(ext.Data, wantExtent) {
					t.Fatalf("extent read: %d bytes differ from the container's slab extent (%d bytes)", len(ext.Data), len(wantExtent))
				}
			}
			readRaw := func() {
				t.Helper()
				resp, err := http.Get(ts.URL + "/v1/slab/1?digest=" + digest)
				if err != nil {
					t.Fatal(err)
				}
				got := readAllClose(t, resp)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("raw read status %d: %s", resp.StatusCode, got)
				}
				if !bytes.Equal(got, wantRaw.Bytes()) {
					t.Fatalf("raw read: %d bytes differ from the local decode (%d bytes)", len(got), wantRaw.Len())
				}
			}
			order := []func(){readRaw, readExtent}
			if extentFirst {
				order = []func(){readExtent, readRaw}
			}
			for _, read := range append(order, order...) {
				read()
			}
			hits := metricSum(t, ts.URL, "szrouter_cache_hits_total")
			if hits != 2 {
				t.Fatalf("cache hits = %v, want 2 (one repeat of each form)", hits)
			}
		})
	}
}

// TestRouterCacheKeyedByMethod: szd refuses DELETE, PUT and PATCH on
// the read endpoints with 405, so a cached GET answer for the same URL
// must never answer them: each must reach a backend and come back 405
// with Allow.
func TestRouterCacheKeyedByMethod(t *testing.T) {
	_, ts := newRouter(t, Config{Backends: []string{newSzdWithStore(t), newSzdWithStore(t)}})
	raw := makeRaw(t, grid.Float32, 16, 8, 8)
	_, digest := routedContainer(t, ts.URL, raw, "codec=blocked&abs=1e-3&dtype=f32&dims=16,8,8&slab=4")
	url := ts.URL + api.PathDecompress + "?digest=" + digest
	for i := 0; i < 2; i++ {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		if body := readAllClose(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if hits := metricSum(t, ts.URL, "szrouter_cache_hits_total"); hits != 1 {
		t.Fatalf("cache hits = %v after two GETs, want 1", hits)
	}
	for _, method := range []string{http.MethodDelete, http.MethodPut, http.MethodPatch} {
		req, err := http.NewRequest(method, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := readAllClose(t, resp)
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") == "" {
			t.Errorf("%s after a cached GET: status %d, Allow %q, X-Sz-Cache %q (%d bytes), want 405 with Allow from a backend",
				method, resp.StatusCode, resp.Header.Get("Allow"), resp.Header.Get(api.HeaderCache), len(body))
		}
	}
	if hits := metricSum(t, ts.URL, "szrouter_cache_hits_total"); hits != 1 {
		t.Fatalf("cache hits = %v, want 1 (only the repeated GET)", hits)
	}
}

// TestRouterAbortsOnBrokenBackendBody: a backend that dies partway
// through a chunked response body must reach the client as a read
// error or an error status — never a clean 200 with a short body — on
// the replayable, streamed and cacheable paths alike, and nothing may
// be cached.
func TestRouterAbortsOnBrokenBackendBody(t *testing.T) {
	var forwards atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == api.PathLimits {
			io.WriteString(w, "{}\n") // health-poller traffic
			return
		}
		forwards.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Write(make([]byte, 100_000))
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // drop the connection mid-body
	}))
	t.Cleanup(stub.Close)
	rt, ts := newRouter(t, Config{
		Backends:    []string{strings.TrimPrefix(stub.URL, "http://")},
		BufferLimit: 64,
	})

	cases := []struct{ name, path, body string }{
		{"compress", api.PathCompress + "?codec=gzip", "input"},
		{"compress-streamed", api.PathCompress + "?codec=gzip", strings.Repeat("x", 1000)},
		{"decompress", api.PathDecompress, "container"},
	}
	for _, c := range cases {
		for i := 0; i < 2; i++ {
			resp, err := http.Post(ts.URL+c.path, "application/octet-stream", strings.NewReader(c.body))
			if err != nil {
				continue // a broken transfer before the headers is a correct outcome
			}
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode < 300 {
				t.Fatalf("%s: clean %d with a %d-byte body from a backend that died mid-body",
					c.name, resp.StatusCode, len(body))
			}
			if tag := resp.Header.Get(api.HeaderCache); tag != "" {
				t.Fatalf("%s: request %d answered from the cache (%s)", c.name, i, tag)
			}
		}
	}
	if _, entries, _, _, _ := rt.cache.stats(); entries != 0 {
		t.Fatalf("%d cache entries after failed transfers, want 0", entries)
	}
	if n := forwards.Load(); n != int64(2*len(cases)) {
		t.Fatalf("%d backend forwards, want %d (every request reaches the backend)", n, 2*len(cases))
	}
	metrics := string(readAllClose(t, post(t, ts.URL+"/metrics", nil)))
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "szrouter_requests_total{") && !strings.Contains(line, `status="502"`) {
			t.Errorf("failed transfer counted as %s, want status 502", line)
		}
	}
}
