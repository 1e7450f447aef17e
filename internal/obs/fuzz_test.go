package obs

import (
	"strings"
	"testing"
)

// FuzzParseExposition throws arbitrary text at the exposition parser,
// which cmd/szscrape feeds live scrapes from any daemon it is pointed
// at: parsing must not panic on any input, every sample it accepts must
// carry a valid metric name, and Validate must not panic on whatever
// the parser accepted.
func FuzzParseExposition(f *testing.F) {
	r := NewRegistry()
	r.Counter("szd_requests_total", "Requests.", "endpoint", "codec", "status").Inc("slab", "blocked", "200")
	r.Histogram("szd_request_seconds", "Latency.", nil, "endpoint").Observe(0.003, "slab")
	r.GaugeFunc("szd_live", "Live gauge.", func() float64 { return 3.5 })
	f.Add(r.Expose())
	f.Add("# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 3\nh_count 2\n")
	f.Add("# TYPE c counter\nc{a=\"x\\\"y\",b=\"\"} -1\n")
	f.Add("x{le=\"NaN\"} NaN\n# TYPE x gauge")
	f.Add("x{a=\"}\" 1\n")
	f.Fuzz(func(t *testing.T, text string) {
		exp, err := ParseExposition(text)
		if err != nil {
			return
		}
		for _, s := range exp.Samples {
			if !validMetricName(s.Name) {
				t.Fatalf("accepted sample with invalid name %q", s.Name)
			}
		}
		_ = exp.Validate() // rejecting is fine; panicking is not
	})
}

// FuzzParseServerTiming throws arbitrary header values at the
// Server-Timing parser, which the router feeds every backend's value:
// parsing must not panic, and every entry it keeps must carry a name
// and a non-negative duration, whatever the dur parameter said.
func FuzzParseServerTiming(f *testing.F) {
	f.Add("encode;dur=1.5, huffbuild;dur=0.25, total;dur=2")
	f.Add("a;dur=NaN, b;dur=+Inf, c;dur=1e300, d;dur=-3, e;desc=x")
	f.Add(" ;dur=1,, x;DUR = 7 ;dur")
	f.Fuzz(func(t *testing.T, h string) {
		for _, e := range ParseServerTiming(h) {
			if e.Name == "" || e.Dur < 0 {
				t.Fatalf("ParseServerTiming(%q) kept %+v", h, e)
			}
		}
	})
}

// FuzzStartTrace throws arbitrary inbound traceparent and request-ID
// headers at StartTrace: a continued trace keeps well-formed lowercase
// IDs, the request ID is always 1-32 hex chars, and the traceparent a
// trace propagates downstream parses back to its own IDs.
func FuzzStartTrace(f *testing.F) {
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", "f3a91c2e6b")
	f.Add("00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01-extra", "")
	f.Add("ff-00000000000000000000000000000000-0000000000000000-zz", "not hex at all")
	f.Fuzz(func(t *testing.T, traceparent, requestID string) {
		tr := StartTrace("compress", traceparent, requestID)
		lowerHex := func(s string, n int) bool {
			return len(s) == n && strings.Trim(s, "0123456789abcdef") == ""
		}
		if tr.Remote && (!lowerHex(tr.TraceID, 32) || !lowerHex(tr.ParentID, 16)) {
			t.Fatalf("continued trace kept IDs %q / %q from %q", tr.TraceID, tr.ParentID, traceparent)
		}
		if n := len(tr.RequestID); n < 1 || n > 32 || !isHex(tr.RequestID) {
			t.Fatalf("request ID %q from %q", tr.RequestID, requestID)
		}
		tid, pid, ok := ParseTraceparent(tr.Traceparent())
		if !ok || tid != tr.TraceID || pid != tr.SpanID {
			t.Fatalf("Traceparent() %q does not parse back (%q, %q, %v)", tr.Traceparent(), tid, pid, ok)
		}
	})
}
