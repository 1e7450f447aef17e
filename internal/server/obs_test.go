package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/obs"
)

// TestTraceAndServerTiming: a compress request must continue an inbound
// traceparent, echo a request ID, deliver its stage breakdown as a
// Server-Timing trailer once the body drains, and land in the
// /debug/traces ring with its spans.
func TestTraceAndServerTiming(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	raw, _ := makeRaw(t, grid.Float32, 16, 20, 12)

	const traceID = "0af7651916cd43dd8448eb211c80319c"
	req, err := http.NewRequest(http.MethodPost,
		ts.URL+"/v1/compress?codec=blocked&abs=1e-3&dtype=f32&dims=16,20,12",
		bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Traceparent", "00-"+traceID+"-b7ad6b7169203331-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	reqID := resp.Header.Get(api.HeaderRequestID)
	if reqID == "" {
		t.Error("no X-Sz-Request-Id header")
	}
	readAllClose(t, resp) // drain: the Server-Timing trailer settles after the last byte
	st := resp.Trailer.Get("Server-Timing")
	if st == "" {
		t.Fatalf("no Server-Timing trailer; trailer=%v", resp.Trailer)
	}
	for _, stage := range []string{"admission;dur=", "encode;dur=", "total;dur="} {
		if !strings.Contains(st, stage) {
			t.Errorf("Server-Timing missing %q: %q", stage, st)
		}
	}

	dresp, err := http.Get(ts.URL + "/debug/traces?trace_id=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Traces []obs.TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(readAllClose(t, dresp), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) != 1 {
		t.Fatalf("want 1 ring trace for %s, got %d", traceID, len(out.Traces))
	}
	rec := out.Traces[0]
	if rec.RequestID != reqID || rec.Status != http.StatusOK || rec.Endpoint != "compress" {
		t.Errorf("ring record mismatch: %+v (want request %s)", rec, reqID)
	}
	names := map[string]bool{}
	for _, sp := range rec.Spans {
		names[sp.Name] = true
	}
	if !names["admission"] || !names["encode"] {
		t.Errorf("ring spans missing stages: %+v", rec.Spans)
	}
}

// TestMetricsScrapeValid parses the entire /metrics exposition and
// validates its structure (declared families, +Inf buckets, _count
// consistency), then checks the trace-fed stage histograms and the
// scratch-pool gauges are populated.
func TestMetricsScrapeValid(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	raw, _ := makeRaw(t, grid.Float32, 16, 20, 12)
	resp := post(t, ts.URL+"/v1/compress?codec=blocked&abs=1e-3&dtype=f32&dims=16,20,12", raw)
	readAllClose(t, resp)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := string(readAllClose(t, mresp))
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("scrape invalid: %v\n%s", err, body)
	}
	exp, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"admission", "encode"} {
		v, ok := exp.Value("szd_stage_seconds_count",
			map[string]string{"endpoint": "compress", "stage": stage})
		if !ok || v < 1 {
			t.Errorf("szd_stage_seconds{stage=%q} not populated (%v, %v)", stage, v, ok)
		}
	}
	for _, fam := range []string{
		"# TYPE szd_scratch_hits gauge",
		"# TYPE szd_scratch_puts gauge",
		"# TYPE szd_goroutines gauge",
		"# TYPE szd_gc_pause_total_seconds counter",
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("scrape missing %q", fam)
		}
	}
	// The blocked path pools slab buffers, so compress traffic must show
	// up as scratch puts.
	var puts float64
	for _, s := range exp.Samples {
		if s.Name == "szd_scratch_puts" {
			puts += s.Value
		}
	}
	if puts == 0 {
		t.Error("szd_scratch_puts all zero after a blocked compress")
	}
}

// scrapeDaemon parses a daemon's whole /metrics exposition.
func scrapeDaemon(t *testing.T, base string) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(string(readAllClose(t, resp)))
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// TestUnknownCodecMintsNoSeries: a made-up codec name never becomes a
// metric label. 50 compress and 50 decompress requests with distinct
// unknown ?codec= values, and one compress naming an unknown codec in
// X-Sz-Codec, each count under codec="" with status 400, and add no
// other series.
func TestUnknownCodecMintsNoSeries(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	for i := 0; i < 50; i++ {
		for _, path := range []string{api.PathCompress, api.PathDecompress} {
			resp := post(t, fmt.Sprintf("%s%s?codec=nosuch%d&dims=4", ts.URL, path, i), []byte("data"))
			if readAllClose(t, resp); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s with codec nosuch%d: status %d, want 400", path, i, resp.StatusCode)
			}
		}
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+api.PathCompress+"?dims=4", strings.NewReader("data"))
	req.Header.Set(api.HeaderCodec, "nosuchheader")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if readAllClose(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("%s nosuchheader: status %d, want 400", api.HeaderCodec, resp.StatusCode)
	}

	exp := scrapeDaemon(t, ts.URL)
	var minted []string
	for _, s := range exp.Samples {
		if strings.HasPrefix(s.Name, "szd_request") && s.Labels["codec"] != "" {
			minted = append(minted, s.Name+" codec="+s.Labels["codec"])
		}
	}
	if len(minted) > 0 {
		t.Errorf("%d samples carry an unregistered codec label, the first %s", len(minted), minted[0])
	}
	for endpoint, n := range map[string]float64{"compress": 51, "decompress": 50} {
		if v, ok := exp.Value("szd_requests_total",
			map[string]string{"endpoint": endpoint, "codec": "", "status": "400"}); !ok || v != n {
			t.Errorf("szd_requests_total{%s,\"\",400} = %v, %v; want %v", endpoint, v, ok, n)
		}
		if v, ok := exp.Value("szd_request_seconds_count",
			map[string]string{"endpoint": endpoint, "codec": ""}); !ok || v != n {
			t.Errorf("szd_request_seconds_count{%s,\"\"} = %v, %v; want %v", endpoint, v, ok, n)
		}
	}
}

// TestTruncatedDecompressIs500: a container cut off at 70% aborts the
// decompress response mid-stream, and the trace ring and
// szd_requests_total both record the 500 the client experienced.
func TestTruncatedDecompressIs500(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	raw, _ := makeRaw(t, grid.Float32, 64, 32, 32)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{64, 32, 32}, SlabRows: 4}
	stream := localStream(t, "blocked", raw, p)
	resp := post(t, ts.URL+api.PathDecompress, stream[:len(stream)*7/10])
	reqID := resp.Header.Get(api.HeaderRequestID)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		t.Fatalf("clean %d with %d of %d bytes from a truncated container, want a broken transfer",
			resp.StatusCode, len(body), len(raw))
	}

	dresp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Traces []obs.TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(readAllClose(t, dresp), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) != 1 || out.Traces[0].RequestID != reqID || out.Traces[0].Status != http.StatusInternalServerError {
		t.Errorf("ring = %+v, want one 500 record for request %s", out.Traces, reqID)
	}
	if v, ok := scrapeDaemon(t, ts.URL).Value("szd_requests_total",
		map[string]string{"endpoint": "decompress", "codec": "blocked", "status": "500"}); !ok || v != 1 {
		t.Errorf("szd_requests_total{decompress,blocked,500} = %v, %v; want 1", v, ok)
	}
}
