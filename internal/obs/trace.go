// Package obs is the fleet's telemetry layer: request-scoped traces
// with cheap in-process spans, W3C traceparent propagation between the
// tiers (sz client -> szrouter -> szd), Server-Timing rendering, an
// in-memory ring of recent traces served as JSON on /debug/traces,
// structured slow-request logging, a shared Prometheus-text metrics
// registry (registry.go), and the request wrapper both daemons put in
// front of their routes (http.go).
//
// Everything here is dependency-free and allocation-light: a span is
// two time.Now calls and one mutex-guarded append, so tracing stays on
// in production and the hot-path benchmarks budget it at <2%.
package obs

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// idState seeds a splitmix64 sequence from the OS entropy pool once;
// trace/span IDs only need uniqueness, not unpredictability, and a
// counter-fed hash is ~20x cheaper than a crypto/rand read per request.
var idState atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := cryptorand.Read(seed[:]); err == nil {
		idState.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		idState.Store(uint64(time.Now().UnixNano()))
	}
}

func nextID() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hexID(bits int) string {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], nextID())
	if bits > 64 {
		binary.BigEndian.PutUint64(b[8:], nextID())
	}
	return hex.EncodeToString(b[:bits/8])
}

// ParseTraceparent parses a W3C traceparent header
// ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>") and returns
// the trace and parent-span IDs. ok is false for anything malformed,
// for the version ff, and for all-zero IDs — the caller then starts a
// fresh trace instead of propagating garbage.
func ParseTraceparent(h string) (traceID, parentID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return "", "", false
	}
	if parts[0] == "ff" || !isHex(parts[0]) || !isHex(parts[1]) || !isHex(parts[2]) || !isHex(parts[3]) {
		return "", "", false
	}
	if parts[1] == strings.Repeat("0", 32) || parts[2] == strings.Repeat("0", 16) {
		return "", "", false
	}
	return strings.ToLower(parts[1]), strings.ToLower(parts[2]), true
}

// FormatTraceparent renders a traceparent header value (version 00,
// flags 01 = sampled; every request here is recorded).
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// NewTraceparent mints a root traceparent for an outbound request that
// has no server-side trace of its own (the Go client, the sz CLI). The
// daemons continue it, so every tier's /debug/traces ring shares one
// trace ID for the request.
func NewTraceparent() string {
	return FormatTraceparent(hexID(128), hexID(64))
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F') {
			return false
		}
	}
	return len(s) > 0
}

// SpanData is one recorded stage of a trace. Same-named spans aggregate:
// Dur sums and Count tells how many times the stage ran (e.g. one
// "huffbuild" entry covering every slab of a blocked container).
type SpanData struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"` // offset from the trace start
	Dur   time.Duration `json:"dur_ns"`
	Count int           `json:"count"`
}

// Trace is one request's record: identity (trace/span/request IDs),
// wall-clock start, and the stage spans bracketed along the way.
// All methods are safe on a nil *Trace (they no-op), so deep code can
// record stages unconditionally, and safe for concurrent use (blocked
// container workers record from many goroutines).
type Trace struct {
	Endpoint  string
	TraceID   string // 32 hex chars, shared across tiers via traceparent
	SpanID    string // this hop's 16-hex span ID
	ParentID  string // inbound parent span ID; "" when this hop opened the trace
	RequestID string
	Remote    bool // trace continued from an inbound traceparent

	start  time.Time
	mu     sync.Mutex
	spans  []SpanData
	byName map[string]int // span index by name (spans aggregate by name)
	remote []TimingEntry  // merged downstream timings (be-* on the router)
	total  time.Duration
	status int
	done   bool
}

// StartTrace opens the trace for one request. traceparent, when valid,
// is continued (same trace ID, its parent-id recorded); requestID, when
// non-empty, is adopted so the tiers agree on one request identity —
// otherwise a fresh 16-hex ID is minted.
func StartTrace(endpoint, traceparent, requestID string) *Trace {
	t := &Trace{
		Endpoint:  endpoint,
		SpanID:    hexID(64),
		RequestID: requestID,
		start:     time.Now(),
	}
	if tid, pid, ok := ParseTraceparent(traceparent); ok {
		t.TraceID, t.ParentID, t.Remote = tid, pid, true
	} else {
		t.TraceID = hexID(128)
	}
	if t.RequestID == "" || !isHex(t.RequestID) || len(t.RequestID) > 32 {
		t.RequestID = hexID(64)
	}
	return t
}

// Traceparent renders the header value downstream hops should receive:
// this hop's span becomes their parent.
func (t *Trace) Traceparent() string {
	if t == nil {
		return ""
	}
	return FormatTraceparent(t.TraceID, t.SpanID)
}

// Span is an open stage; End closes it. The zero/nil Span is inert.
type Span struct {
	t     *Trace
	name  string
	begin time.Time
}

// StartSpan opens a stage span. Spans may overlap and nest freely; the
// trace only records (name, start offset, duration).
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, begin: time.Now()}
}

// End closes the span, folding it into the trace.
func (sp *Span) End() {
	if sp == nil || sp.t == nil {
		return
	}
	sp.t.record(sp.name, sp.begin.Sub(sp.t.start), time.Since(sp.begin))
	sp.t = nil
}

// Observe records an externally-timed stage of duration d ending now.
// Same-named observations aggregate — this is the hook deep pipeline
// code (the Huffman codebook build, one per slab) reports through.
func (t *Trace) Observe(name string, d time.Duration) {
	if t == nil {
		return
	}
	start := time.Since(t.start) - d
	if start < 0 {
		start = 0
	}
	t.record(name, start, d)
}

func (t *Trace) record(name string, start, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byName == nil {
		t.byName = make(map[string]int, 8)
	}
	if i, ok := t.byName[name]; ok {
		t.spans[i].Dur += d
		t.spans[i].Count++
		return
	}
	t.byName[name] = len(t.spans)
	t.spans = append(t.spans, SpanData{Name: name, Start: start, Dur: d, Count: 1})
}

// MergeServerTiming folds a downstream hop's Server-Timing value into
// this trace with the given name prefix (the router merges backend
// timings under "be-"). Unparseable entries are skipped.
func (t *Trace) MergeServerTiming(prefix, header string) {
	if t == nil || header == "" {
		return
	}
	entries := ParseServerTiming(header)
	if len(entries) == 0 {
		return
	}
	t.mu.Lock()
	for _, e := range entries {
		e.Name = prefix + e.Name
		t.remote = append(t.remote, e)
	}
	t.mu.Unlock()
}

// Finish seals the trace with the response status and total duration.
// Idempotent; spans recorded after Finish are dropped from totals but
// harmless.
func (t *Trace) Finish(status int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		t.done = true
		t.status = status
		t.total = time.Since(t.start)
	}
	t.mu.Unlock()
}

// Total returns the sealed duration (0 before Finish).
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Status returns the sealed response status (0 before Finish).
func (t *Trace) Status() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// Spans snapshots the recorded spans in first-start order.
func (t *Trace) Spans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, len(t.spans))
	copy(out, t.spans)
	return out
}

// ServerTiming renders the trace as a Server-Timing header value:
// own spans in start order, then merged downstream entries, then the
// total once the trace is finished. Durations are milliseconds, as the
// header spec requires.
func (t *Trace) ServerTiming() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	for _, sp := range t.spans {
		appendTimingEntry(&b, sp.Name, sp.Dur)
	}
	for _, e := range t.remote {
		appendTimingEntry(&b, e.Name, e.Dur)
	}
	if t.done {
		appendTimingEntry(&b, "total", t.total)
	}
	return b.String()
}

func appendTimingEntry(b *strings.Builder, name string, d time.Duration) {
	if b.Len() > 0 {
		b.WriteString(", ")
	}
	b.WriteString(name)
	b.WriteString(";dur=")
	b.WriteString(formatMillis(d))
}

// formatMillis renders a duration in milliseconds with microsecond
// precision and no trailing zero noise.
func formatMillis(d time.Duration) string {
	return strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', -1, 64)
}

// TimingEntry is one parsed Server-Timing metric.
type TimingEntry struct {
	Name string        `json:"name"`
	Dur  time.Duration `json:"dur_ns"`
}

// ParseServerTiming parses a Server-Timing header value into entries,
// tolerating parameters other than dur and entries without one (Dur 0).
// A dur that is not finite, is negative or exceeds a time.Duration
// reads as no dur: the router merges every backend's value into its
// own timings.
func ParseServerTiming(h string) []TimingEntry {
	var out []TimingEntry
	for _, part := range strings.Split(h, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ";")
		name := strings.TrimSpace(fields[0])
		if name == "" {
			continue
		}
		e := TimingEntry{Name: name}
		for _, f := range fields[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(f), "=")
			if !ok || !strings.EqualFold(strings.TrimSpace(k), "dur") {
				continue
			}
			ms, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if ns := ms * float64(time.Millisecond); err == nil && ns >= 0 && ns < math.MaxInt64 {
				e.Dur = time.Duration(ns)
			}
		}
		out = append(out, e)
	}
	return out
}

// FormatTimingTable renders parsed timing entries as an aligned
// two-column text block (the `sz -timing` output), longest duration
// first for the entries after "total".
func FormatTimingTable(entries []TimingEntry) string {
	if len(entries) == 0 {
		return ""
	}
	sorted := make([]TimingEntry, len(entries))
	copy(sorted, entries)
	sort.SliceStable(sorted, func(i, j int) bool {
		if (sorted[i].Name == "total") != (sorted[j].Name == "total") {
			return sorted[i].Name == "total"
		}
		return sorted[i].Dur > sorted[j].Dur
	})
	width := 0
	for _, e := range sorted {
		if len(e.Name) > width {
			width = len(e.Name)
		}
	}
	var b strings.Builder
	for _, e := range sorted {
		fmt.Fprintf(&b, "  %-*s %10.3f ms\n", width, e.Name, float64(e.Dur)/float64(time.Millisecond))
	}
	return b.String()
}
