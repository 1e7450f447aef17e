package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := StartTrace("compress", "", "")
	if len(tr.TraceID) != 32 || len(tr.SpanID) != 16 || len(tr.RequestID) != 16 {
		t.Fatalf("bad ID lengths: trace=%q span=%q req=%q", tr.TraceID, tr.SpanID, tr.RequestID)
	}
	if tr.Remote {
		t.Fatal("fresh trace marked remote")
	}
	hdr := tr.Traceparent()
	tid, pid, ok := ParseTraceparent(hdr)
	if !ok || tid != tr.TraceID || pid != tr.SpanID {
		t.Fatalf("round trip failed: %q -> (%q, %q, %v)", hdr, tid, pid, ok)
	}

	child := StartTrace("compress", hdr, tr.RequestID)
	if !child.Remote || child.TraceID != tr.TraceID || child.ParentID != tr.SpanID {
		t.Fatalf("continuation broken: %+v", child)
	}
	if child.RequestID != tr.RequestID {
		t.Fatalf("request ID not adopted: %q != %q", child.RequestID, tr.RequestID)
	}
	if child.SpanID == tr.SpanID {
		t.Fatal("child reused parent span ID")
	}
}

func TestParseTraceparentRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"xx",
		"00-short-0011223344556677-01",
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // version ff
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero parent
		"00-0af7651916cd43dd8448eb211c80319g-b7ad6b7169203331-01", // non-hex
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("accepted %q", h)
		}
	}
	if _, _, ok := ParseTraceparent("00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01"); !ok {
		t.Error("rejected uppercase hex")
	}
}

func TestSpanAggregation(t *testing.T) {
	tr := StartTrace("compress", "", "")
	sp := tr.StartSpan("encode")
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Observe("huffbuild", 2*time.Millisecond)
	tr.Observe("huffbuild", 3*time.Millisecond)
	tr.Finish(200)

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("want 2 aggregated spans, got %v", spans)
	}
	var huff SpanData
	for _, s := range spans {
		if s.Name == "huffbuild" {
			huff = s
		}
	}
	if huff.Count != 2 || huff.Dur != 5*time.Millisecond {
		t.Fatalf("huffbuild aggregation wrong: %+v", huff)
	}
	if tr.Status() != 200 || tr.Total() <= 0 {
		t.Fatalf("finish not sealed: status=%d total=%v", tr.Status(), tr.Total())
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	sp := tr.StartSpan("x")
	sp.End()
	tr.Observe("y", time.Second)
	tr.Finish(200)
	tr.MergeServerTiming("be-", "a;dur=1")
	if tr.ServerTiming() != "" || tr.Traceparent() != "" || tr.Spans() != nil {
		t.Fatal("nil trace leaked data")
	}
	var rec *Recorder
	rec.Done(tr)
}

func TestServerTimingRendering(t *testing.T) {
	tr := StartTrace("compress", "", "")
	tr.Observe("encode", 1500*time.Microsecond)
	tr.MergeServerTiming("be-", "store_write;dur=0.25, total;dur=2")
	tr.Finish(200)
	h := tr.ServerTiming()
	if !strings.Contains(h, "encode;dur=1.5") {
		t.Fatalf("missing encode entry: %q", h)
	}
	if !strings.Contains(h, "be-store_write;dur=0.25") || !strings.Contains(h, "be-total;dur=2") {
		t.Fatalf("downstream entries not merged with prefix: %q", h)
	}
	if !strings.Contains(h, "total;dur=") {
		t.Fatalf("missing total: %q", h)
	}

	entries := ParseServerTiming(h)
	byName := map[string]time.Duration{}
	for _, e := range entries {
		byName[e.Name] = e.Dur
	}
	if byName["encode"] != 1500*time.Microsecond || byName["be-total"] != 2*time.Millisecond {
		t.Fatalf("parse mismatch: %+v", byName)
	}

	table := FormatTimingTable(entries)
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	if len(lines) != len(entries) || !strings.Contains(lines[0], "total") {
		t.Fatalf("table should lead with total:\n%s", table)
	}
}

func TestRingAndDebugHandler(t *testing.T) {
	rg := NewRing(2)
	for i := 0; i < 3; i++ {
		tr := StartTrace("compress", "", "")
		tr.Observe("encode", time.Millisecond)
		tr.Finish(200 + i)
		rg.Add(snapshot(tr))
	}
	recs := rg.Snapshot()
	if len(recs) != 2 || recs[0].Status != 202 || recs[1].Status != 201 {
		t.Fatalf("ring eviction/order wrong: %+v", recs)
	}

	w := httptest.NewRecorder()
	rg.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces?limit=1", nil))
	var out struct {
		Traces []TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, w.Body.String())
	}
	if len(out.Traces) != 1 || len(out.Traces[0].Spans) != 1 {
		t.Fatalf("limit/spans wrong: %+v", out.Traces)
	}

	w = httptest.NewRecorder()
	rg.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces?trace_id="+recs[1].TraceID, nil))
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) != 1 || out.Traces[0].TraceID != recs[1].TraceID {
		t.Fatalf("trace_id filter wrong: %+v", out.Traces)
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	reqs := r.Counter("szd_requests_total", "Requests.", "endpoint", "codec", "status")
	reqs.Inc("compress", "blocked", "200")
	reqs.Inc("compress", "blocked", "200")
	reqs.Inc("decompress", "v1", "200")
	bytesIn := r.Gauge("szd_inflight_bytes", "Inflight bytes.")
	bytesIn.Set(1 << 30)
	lat := r.Histogram("szd_request_seconds", "Latency.", nil, "endpoint")
	lat.Observe(0.003, "compress")
	lat.Observe(7, "compress")
	lat.Observe(1e9, "compress") // beyond last bound -> +Inf bucket only
	r.GaugeFunc("szd_live", "Live gauge.", func() float64 { return 3.5 })
	RegisterRuntime(r, "szd")

	text := r.Expose()
	if err := ValidateExposition(text); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	for _, want := range []string{
		`szd_requests_total{endpoint="compress",codec="blocked",status="200"} 2`,
		"szd_inflight_bytes 1073741824", // integer rendering, CI's exact-line greps depend on it
		`szd_request_seconds_bucket{endpoint="compress",le="+Inf"} 3`,
		`szd_request_seconds_count{endpoint="compress"} 3`,
		"szd_live 3.5",
		"# TYPE szd_goroutines gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}

	exp, err := ParseExposition(text)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := exp.Value("szd_request_seconds_sum", map[string]string{"endpoint": "compress"}); !ok || v < 7 {
		t.Fatalf("sum wrong: %v %v", v, ok)
	}
}

func TestValidateCatchesBrokenHistograms(t *testing.T) {
	broken := "# TYPE h histogram\n" +
		`h_bucket{le="1"} 2` + "\n" +
		"h_sum 3\nh_count 2\n" // no +Inf
	if err := ValidateExposition(broken); err == nil {
		t.Fatal("missing +Inf bucket not caught")
	}
	inconsistent := "# TYPE h histogram\n" +
		`h_bucket{le="1"} 2` + "\n" +
		`h_bucket{le="+Inf"} 3` + "\n" +
		"h_sum 3\nh_count 2\n" // count != +Inf
	if err := ValidateExposition(inconsistent); err == nil {
		t.Fatal("_count/+Inf mismatch not caught")
	}
	undeclared := "some_metric 1\n"
	if err := ValidateExposition(undeclared); err == nil {
		t.Fatal("undeclared family not caught")
	}
}

func TestRecorderSlowLog(t *testing.T) {
	rec := NewRecorder(4, time.Nanosecond, nil)
	tr := StartTrace("compress", "", "")
	tr.Observe("encode", time.Millisecond)
	tr.Finish(200)
	rec.Done(tr) // must not panic with default logger
	if got := len(rec.Ring.Snapshot()); got != 1 {
		t.Fatalf("ring has %d records", got)
	}
}
