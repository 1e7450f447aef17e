package obs

import "testing"

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
