package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/codec"
	"repro/internal/grid"
)

// makeRaw builds a smooth field and returns its raw little-endian bytes.
func makeRaw(t *testing.T, dt grid.DType, dims ...int) ([]byte, *grid.Array) {
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
	return raw.Bytes(), a
}

// localStream compresses raw through the registry's local streaming
// writer — the reference the daemon must match byte for byte.
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

func newTestDaemon(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
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

// TestRoundTripByteIdentical is the acceptance e2e: for sz14, blocked,
// and gzip, the daemon's /v1/compress output must be byte-identical to
// the local streaming writer, and /v1/decompress must return the exact
// raw reconstruction bytes.
func TestRoundTripByteIdentical(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	raw, _ := makeRaw(t, grid.Float32, 16, 20, 12)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 20, 12}}

	for _, name := range []string{"sz14", "blocked", "gzip"} {
		t.Run(name, func(t *testing.T) {
			want := localStream(t, name, raw, p)

			resp := post(t, ts.URL+"/v1/compress?codec="+name+"&abs=1e-3&dtype=f32&dims=16,20,12", raw)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("compress status %d: %s", resp.StatusCode, readAllClose(t, resp))
			}
			if got := resp.Header.Get(api.HeaderCodec); got != name {
				t.Errorf("codec header = %q, want %q", got, name)
			}
			stream := readAllClose(t, resp)
			if !bytes.Equal(stream, want) {
				t.Fatalf("remote stream differs from local: %d vs %d bytes", len(stream), len(want))
			}

			// Local reference reconstruction.
			c, _ := codec.Lookup(name)
			zr, err := c.NewReader(bytes.NewReader(want), p)
			if err != nil {
				t.Fatal(err)
			}
			wantRaw, err := io.ReadAll(zr)
			if err != nil {
				t.Fatal(err)
			}

			durl := ts.URL + "/v1/decompress"
			if name == "gzip" {
				durl += "?codec=gzip&dtype=f32&dims=16,20,12"
			}
			dresp := post(t, durl, stream)
			if dresp.StatusCode != http.StatusOK {
				t.Fatalf("decompress status %d: %s", dresp.StatusCode, readAllClose(t, dresp))
			}
			gotRaw := readAllClose(t, dresp)
			if !bytes.Equal(gotRaw, wantRaw) {
				t.Fatalf("remote reconstruction differs from local: %d vs %d bytes", len(gotRaw), len(wantRaw))
			}
		})
	}
}

func TestUnknownCodecListsRegistered(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	resp := post(t, ts.URL+"/v1/compress?codec=bogus&dims=4&abs=1", []byte{1, 2, 3})
	body := string(readAllClose(t, resp))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	for _, name := range []string{"sz14", "blocked", "gzip"} {
		if !strings.Contains(body, name) {
			t.Errorf("error body %q does not list codec %s", body, name)
		}
	}
}

func TestMissingDims(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	resp := post(t, ts.URL+"/v1/compress?codec=sz14&abs=1e-3", []byte{1, 2, 3, 4})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	readAllClose(t, resp)
}

func TestHeaderFallbackParams(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	raw, _ := makeRaw(t, grid.Float32, 8, 10)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{8, 10}}
	want := localStream(t, "sz14", raw, p)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/compress", bytes.NewReader(raw))
	req.Header.Set(api.HeaderCodec, "sz14")
	req.Header.Set(api.HeaderDims, "8,10")
	req.Header.Set(api.HeaderDtype, "f32")
	req.Header.Set(api.ParamHeaderPrefix+"Abs", "1e-3")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAllClose(t, resp))
	}
	if got := readAllClose(t, resp); !bytes.Equal(got, want) {
		t.Fatal("header-parameterized stream differs from local reference")
	}
}

func TestRequestTooLarge(t *testing.T) {
	_, ts := newTestDaemon(t, Config{MaxRequestBytes: 1024})
	resp := post(t, ts.URL+"/v1/compress?codec=gzip", make([]byte, 4096))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	readAllClose(t, resp)
}

// trickleBody declares `total` bytes but blocks after a prefix until
// released, pinning its admission reservation.
type trickleBody struct {
	prefix  []byte
	rest    []byte
	release chan struct{}
	sent    bool
	mu      sync.Mutex
}

func (tb *trickleBody) Read(p []byte) (int, error) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if !tb.sent {
		tb.sent = true
		return copy(p, tb.prefix), nil
	}
	<-tb.release
	if len(tb.rest) == 0 {
		return 0, io.EOF
	}
	n := copy(p, tb.rest)
	tb.rest = tb.rest[n:]
	return n, nil
}

// TestLoadShedding is the acceptance load-shedding test: with the
// in-flight byte budget saturated by concurrent streaming requests, a
// new request is rejected with 429 well within the deadline instead of
// queuing, and once the holders finish the server admits work again.
func TestLoadShedding(t *testing.T) {
	// f32 sz14 charges 11x declared (1 + 40/4, see charge.go): two
	// 1 MiB holders reserve 22 MiB of the 24 MiB budget; a third 1 MiB
	// request needs 11 MiB more -> 429.
	_, ts := newTestDaemon(t, Config{MaxInflightBytes: 24 << 20, Workers: 64})
	const n = 1 << 20 / 4 // 1 MiB of f32
	raw, _ := makeRaw(t, grid.Float32, 64, n/64)
	url := ts.URL + fmt.Sprintf("/v1/compress?codec=sz14&abs=1e-3&dtype=f32&dims=64,%d", n/64)

	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tb := &trickleBody{prefix: raw[:4096], rest: raw[4096:], release: release}
			req, _ := http.NewRequest(http.MethodPost, url, tb)
			req.ContentLength = int64(len(raw))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("holder got status %d", resp.StatusCode)
				return
			}
			errs <- nil
		}()
	}

	// Give both holders time to be admitted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body := string(readAllClose(t, resp))
		if strings.Contains(body, "szd_inflight_requests 2") {
			break
		}
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("holders never admitted; metrics:\n%s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Saturated: a new request must shed fast.
	start := time.Now()
	resp := post(t, url, raw)
	elapsed := time.Since(start)
	body := readAllClose(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if elapsed > 2*time.Second {
		t.Errorf("shed took %v, want fast rejection", elapsed)
	}

	// Drain the holders; they must complete and free the budget.
	close(release)
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	resp = post(t, url, raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain status %d, want 200", resp.StatusCode)
	}
	readAllClose(t, resp)
}

func TestWorkerPoolSheds(t *testing.T) {
	_, ts := newTestDaemon(t, Config{MaxInflightBytes: -1, Workers: 1})
	raw, _ := makeRaw(t, grid.Float32, 8, 8)
	url := ts.URL + "/v1/compress?codec=sz14&abs=1e-3&dtype=f32&dims=8,8"

	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tb := &trickleBody{prefix: raw[:16], rest: raw[16:], release: release}
		req, _ := http.NewRequest(http.MethodPost, url, tb)
		req.ContentLength = int64(len(raw))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(readAllClose(t, resp)), "szd_workers_busy 1") {
			break
		}
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("holder never took the worker token")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp := post(t, url, raw)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 when the worker pool is exhausted", resp.StatusCode)
	}
	readAllClose(t, resp)
	close(release)
	<-done
}

// syntheticReader yields n bytes of deterministic f32 samples without
// materializing them, so the test's own memory stays flat.
type syntheticReader struct {
	n   int64
	off int64
}

func (sr *syntheticReader) Read(p []byte) (int, error) {
	if sr.off >= sr.n {
		return 0, io.EOF
	}
	if int64(len(p)) > sr.n-sr.off {
		p = p[:sr.n-sr.off]
	}
	for i := range p {
		// Low-entropy bytes; the exact values are irrelevant here.
		p[i] = byte((sr.off + int64(i)) >> 6)
	}
	sr.off += int64(len(p))
	return len(p), nil
}

// TestBlockedStreamingMemoryBounded proves the blocked codec path never
// buffers a request end-to-end: a 64 MiB field flows through /v1/compress
// while the retained heap grows by far less than the full-buffer cost
// (64 MiB raw + 128 MiB float64 array).
func TestBlockedStreamingMemoryBounded(t *testing.T) {
	_, ts := newTestDaemon(t, Config{MaxInflightBytes: 96 << 20, Workers: 4})
	const rows, rowCells = 4096, 4096 // 64 MiB of f32
	rawSize := int64(rows * rowCells * 4)
	url := ts.URL + fmt.Sprintf("/v1/compress?codec=blocked&abs=1e-3&dtype=f32&dims=%d,64,64&slab=64&workers=4", rows)

	// The retained heap is what a GC finds live, so the sampler forces a
	// cycle before each reading. HeapAlloc would also count garbage not
	// yet collected, which under the race detector's slower GC swings by
	// tens of MiB between runs.
	live := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	retained := func() uint64 {
		runtime.GC()
		rtmetrics.Read(live)
		return live[0].Value.Uint64()
	}
	base := retained()

	var peak uint64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
				if r := retained(); r > peak {
					peak = r
				}
			}
		}
	}()

	req, _ := http.NewRequest(http.MethodPost, url, &syntheticReader{n: rawSize})
	req.ContentLength = rawSize
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	close(stop)
	sampler.Wait()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, copy err %v", resp.StatusCode, err)
	}
	if n == 0 {
		t.Fatal("no compressed output")
	}
	growth := int64(peak) - int64(base)
	// Full buffering would pin >= 192 MiB (raw + float64 working set);
	// slab streaming with 4 workers x 64-row slabs needs ~20 MiB. The
	// 64 MiB threshold leaves generous slack for objects allocated
	// during a sampling GC, which it counts live, while still catching
	// any per-request full-buffer regression.
	if growth > 64<<20 {
		t.Errorf("retained heap grew %d MiB during streaming compress; blocked path is buffering (want < 64 MiB)", growth>>20)
	}
	t.Logf("raw %d MiB, peak retained heap growth %d MiB, compressed %d bytes", rawSize>>20, growth>>20, n)
}

func TestDrain(t *testing.T) {
	s, ts := newTestDaemon(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d before drain", resp.StatusCode)
	}
	readAllClose(t, resp)

	s.StartDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz %d after drain, want 503", resp.StatusCode)
	}
	readAllClose(t, resp)

	raw, _ := makeRaw(t, grid.Float32, 8, 8)
	cresp := post(t, ts.URL+"/v1/compress?codec=sz14&abs=1e-3&dtype=f32&dims=8,8", raw)
	if cresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("compress during drain got %d, want 503", cresp.StatusCode)
	}
	readAllClose(t, cresp)
}

func TestInspectEndpoint(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	raw, _ := makeRaw(t, grid.Float32, 16, 20, 12)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 20, 12}}
	stream := localStream(t, "blocked", raw, p)

	want, err := codec.InspectStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	resp := post(t, ts.URL+"/v1/inspect", stream)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAllClose(t, resp))
	}
	var got codec.StreamInfo
	if err := json.Unmarshal(readAllClose(t, resp), &got); err != nil {
		t.Fatal(err)
	}
	if got.Codec != want.Codec || got.Bytes != want.Bytes || got.Slabs != want.Slabs ||
		got.SlabRows != want.SlabRows || got.DType != want.DType {
		t.Errorf("remote inspect %+v differs from local %+v", got, *want)
	}
}

func TestCodecsEndpoint(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/codecs")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Codecs []string `json:"codecs"`
	}
	if err := json.Unmarshal(readAllClose(t, resp), &body); err != nil {
		t.Fatal(err)
	}
	want := codec.Names()
	if len(body.Codecs) != len(want) {
		t.Fatalf("got %v, want %v", body.Codecs, want)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	raw, _ := makeRaw(t, grid.Float32, 8, 8)
	resp := post(t, ts.URL+"/v1/compress?codec=sz14&abs=1e-3&dtype=f32&dims=8,8", raw)
	readAllClose(t, resp)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := string(readAllClose(t, mresp))
	for _, want := range []string{
		`szd_requests_total{endpoint="compress",codec="sz14",status="200"} 1`,
		`szd_bytes_in_total{endpoint="compress"} 256`,
		"szd_inflight_requests 0",
		"szd_inflight_bytes 0",
		"szd_workers_busy 0",
		`szd_request_seconds_bucket{endpoint="compress",codec="sz14",le="+Inf"} 1`,
		`szd_request_seconds_count{endpoint="compress",codec="sz14"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestChunkedNoLengthAdmitted: a length-less chunked upload on an
// idle default-config daemon must be admitted (charged the flat
// unknown-length charge, with no buffered-codec multiplier stacked on
// top, which used to push the charge past the budget and 429 it).
func TestChunkedNoLengthAdmitted(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	raw, _ := makeRaw(t, grid.Float32, 8, 8)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{8, 8}}
	want := localStream(t, "sz14", raw, p)

	// io.MultiReader hides the length, forcing Transfer-Encoding:
	// chunked with no Content-Length.
	req, _ := http.NewRequest(http.MethodPost,
		ts.URL+"/v1/compress?codec=sz14&abs=1e-3&dtype=f32&dims=8,8",
		io.MultiReader(bytes.NewReader(raw)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunked upload status %d: %s", resp.StatusCode, readAllClose(t, resp))
	}
	if got := readAllClose(t, resp); !bytes.Equal(got, want) {
		t.Fatal("chunked-upload stream differs from local reference")
	}
}

// TestImpossibleChargeIs413: a request whose memory estimate exceeds
// the whole budget is a permanent 413, not a retryable 429.
func TestImpossibleChargeIs413(t *testing.T) {
	_, ts := newTestDaemon(t, Config{MaxInflightBytes: 1 << 20})
	// 4 MiB declared f32 sz14 -> 12 MiB charge >> 1 MiB budget.
	req, _ := http.NewRequest(http.MethodPost,
		ts.URL+"/v1/compress?codec=sz14&abs=1e-3&dtype=f32&dims=1024,1024",
		bytes.NewReader(make([]byte, 4<<20)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	readAllClose(t, resp)
}

// TestStreamingBodyNotMetered: a chunked gzip stream far larger than
// the byte budget flows through — streaming paths pin O(window) memory
// and must not be charged per body byte mid-stream — and the output
// must decompress back to the exact input. The round-trip check is
// load-bearing: without full-duplex handling, Go's HTTP/1 server
// silently discards 256 KiB of a chunked body at the first response
// flush and still answers 200 with corrupt data.
func TestStreamingBodyNotMetered(t *testing.T) {
	_, ts := newTestDaemon(t, Config{MaxInflightBytes: 4 << 20, MaxRequestBytes: -1})
	const n = 16 << 20
	req, _ := http.NewRequest(http.MethodPost,
		ts.URL+"/v1/compress?codec=gzip", &syntheticReader{n: n})
	// No ContentLength: chunked, length unknown to admission.
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out := readAllClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	zr, err := gzip.NewReader(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	back, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(&syntheticReader{n: n})
	if !bytes.Equal(back, want) {
		t.Fatalf("chunked streaming round trip corrupt: %d of %d input bytes survived", len(back), len(want))
	}
}

// TestBlockedChargeNotHintReducible: a lying (tiny) declared length
// must not shrink the blocked streaming charge below its floor — the
// cap comes from the server-computed array footprint, not the client
// hint.
func TestBlockedChargeNotHintReducible(t *testing.T) {
	s := New(Config{})
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{100, 500, 500}}
	charge, streaming := s.compressCharge("blocked", 0, p)
	if !streaming {
		t.Fatal("blocked abs-bound compress should be the streaming path")
	}
	if charge < 1<<20 {
		t.Errorf("charge %d with a zero-length hint; must stay at or above the streaming floor", charge)
	}
}

// errAfterReader yields n bytes then fails, simulating a producer that
// dies mid-upload.
type errAfterReader struct {
	n   int64
	off int64
}

func (er *errAfterReader) Read(p []byte) (int, error) {
	if er.off >= er.n {
		return 0, fmt.Errorf("synthetic producer failure")
	}
	if int64(len(p)) > er.n-er.off {
		p = p[:er.n-er.off]
	}
	er.off += int64(len(p))
	return len(p), nil
}

// TestAbortedCompressDoesNotLeakGoroutines: an upload that dies
// mid-stream must still wait out the blocked writer's in-flight slab
// encodes (each leak would pin up to Workers encode goroutines plus
// slab memory for the daemon's lifetime).
func TestAbortedCompressDoesNotLeakGoroutines(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		req, _ := http.NewRequest(http.MethodPost,
			ts.URL+"/v1/compress?codec=blocked&abs=1e-3&dtype=f32&dims=1024,64,64&slab=16",
			&errAfterReader{n: 1 << 20})
		req.ContentLength = 1024 * 64 * 64 * 4
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+3 {
		time.Sleep(50 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+5 {
		t.Errorf("goroutines %d -> %d after 5 aborted blocked uploads (writer leak)", before, got)
	}
}

// TestHostileDimsOverflowRejected: dims whose byte size overflows int64
// must be rejected 413 up front, not wrap into a tiny (or negative)
// admission charge that bypasses the budget.
func TestHostileDimsOverflowRejected(t *testing.T) {
	_, ts := newTestDaemon(t, Config{MaxInflightBytes: 100 << 20})
	resp := post(t,
		ts.URL+"/v1/compress?codec=blocked&abs=1e-3&dtype=f32&dims=3000000000,3000000000,3000000000",
		[]byte{1, 2, 3, 4})
	body := readAllClose(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", resp.StatusCode, body)
	}
}

// TestBlockedDecompressChargeFromHeader: the decompress charge must
// scale with the container's actual slab geometry (read from the
// stream header), so a single-slab container compressed client-side
// cannot sneak a whole-array decompression past a small flat charge.
func TestBlockedDecompressChargeFromHeader(t *testing.T) {
	s := New(Config{})
	raw, _ := makeRaw(t, grid.Float32, 64, 32, 32)
	oneSlab := localStream(t, "blocked", raw, codec.Params{
		AbsBound: 1e-3, DType: grid.Float32, Dims: []int{64, 32, 32}, SlabRows: 64})
	manySlabs := localStream(t, "blocked", raw, codec.Params{
		AbsBound: 1e-3, DType: grid.Float32, Dims: []int{64, 32, 32}, SlabRows: 4})

	two := codec.Params{Workers: 2}
	big, _ := s.decompressCharge("blocked", int64(len(oneSlab)), oneSlab, two)
	small, _ := s.decompressCharge("blocked", int64(len(manySlabs)), manySlabs, two)
	// 64x32x32 cells x 42 B/cell = 2.6 MiB for the single slab; three
	// 4-row slabs (two decoding, one being served) stay under the 1 MiB
	// floor.
	if want := int64(64 * 32 * 32 * 42); big != want {
		t.Errorf("single-slab charge %d, want %d (slab geometry from header)", big, want)
	}
	if small != 1<<20 {
		t.Errorf("small-slab charge %d, want the 1 MiB floor", small)
	}
	// The decode window: workers+1 of the 16 slabs are charged, never
	// more than the container holds.
	slab := int64(4 * 32 * 32 * 42)
	for _, tc := range []struct{ workers, slabs int64 }{{8, 9}, {100, 16}} {
		c, _ := s.decompressCharge("blocked", int64(len(manySlabs)), manySlabs, codec.Params{Workers: int(tc.workers)})
		if c != tc.slabs*slab {
			t.Errorf("workers %d: charge %d, want %d slabs x %d", tc.workers, c, tc.slabs, slab)
		}
	}
	// A garbage header falls back to the floor, never panics.
	if c, _ := s.decompressCharge("blocked", 10, []byte("SZB2\xff"), two); c != 1<<20 {
		t.Errorf("corrupt-header charge %d, want floor", c)
	}
}

// TestDecompressWorkersDoNotWidenCharge: szd decodes a blocked container
// one slab ahead whatever ?workers= asks, so a many-slab container whose
// window of two slabs fits the budget is served, not refused with a 413
// sized for a thousand decodes in flight.
func TestDecompressWorkersDoNotWidenCharge(t *testing.T) {
	raw, _ := makeRaw(t, grid.Float32, 64, 32, 32)
	stream := localStream(t, "blocked", raw, codec.Params{
		AbsBound: 1e-3, DType: grid.Float32, Dims: []int{64, 32, 32}, SlabRows: 4})
	// 16 slabs of 192 KiB: all of them (3 MiB) exceed the 2 MiB budget,
	// two are charged the 1 MiB floor.
	_, ts := newTestDaemon(t, Config{MaxInflightBytes: 2 << 20})
	resp := post(t, ts.URL+"/v1/decompress?workers=1000", stream)
	got := readAllClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	c, _ := codec.Lookup("blocked")
	zr, err := c.NewReader(bytes.NewReader(stream), codec.Params{})
	if err != nil {
		t.Fatal(err)
	}
	defer zr.Close()
	want, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("daemon decompress differs from the local decode")
	}
}
