package main

// Tracing from outside the program. The traced run records a span at
// every layer boundary the benchmark can reach without touching the
// program: around its own calls into codec and client, in a RoundTripper
// wrapped around each HTTP transport the layers expose, and in an
// http.Handler wrapped around the router's and each backend's Handler().
// Spans of one request join by the W3C trace ID the client mints and the
// router propagates. Server-Timing entries become stage spans under the
// handler that reported them, named with the internal/obs vocabulary.
// Spans stay in memory and are written to a JSON file when the run ends;
// the per-layer self times are computed from that file.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

type span struct {
	ID     int64             `json:"id"`
	Parent int64             `json:"parent"`
	Name   string            `json:"name"`
	Trace  string            `json:"trace_id,omitempty"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Stage  bool              `json:"stage,omitempty"` // a breakdown entry inside its parent, not a boundary
	Attr   map[string]string `json:"attr,omitempty"`
}

// layer is the span name's prefix: "fleet.router" belongs to fleet. The
// root of each operation, "op", and the harness.gap spans under it are
// the harness.
func (s *span) layer() string {
	if s.Name == "op" {
		return "harness"
	}
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
	joins sync.Map // W3C trace ID -> *join

	hdrMu                 sync.Mutex
	cacheable, cacheHit   int64 // decode-side requests, and X-Sz-Cache: hit answers
	rawReads, revalidated int64 // ReadSlabAt requests and their 304s
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }
func (t *tracer) id() int64  { return t.ids.Add(1) }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// join links the hops of one traced request.
type join struct {
	mu        sync.Mutex
	clientHop int64 // the client transport span
	router    int64 // the router handler span
	hops      []hop // router -> backend transport spans
}

type hop struct {
	id    int64
	start int64
}

func (t *tracer) lookup(r *http.Request) (*join, string) {
	id, _, ok := obs.ParseTraceparent(r.Header.Get("Traceparent"))
	if !ok {
		return nil, ""
	}
	j, _ := t.joins.Load(id)
	if j == nil {
		return nil, id
	}
	return j.(*join), id
}

// op is the context an operation carries so the client transport can
// parent its span on the call that caused it.
type op struct {
	traced bool
	root   int64
	call   atomic.Int64 // the open client.call span
}

type opKey struct{}

func withOp(ctx context.Context, o *op) context.Context { return context.WithValue(ctx, opKey{}, o) }

func opOf(ctx context.Context) *op {
	o, _ := ctx.Value(opKey{}).(*op)
	return o
}

// gaps marks a traced operation's calls into the program, so the
// harness's own work between them (preparing the next chunk, buffer
// handling) is measured as harness time instead of disappearing into
// the call span around it. Every method is a no-op on a nil *gaps, the
// untraced case.
type gaps struct {
	t           *tracer
	root        int64
	first, last time.Time // the first call's start, the latest call's return
}

func (t *tracer) gaps(root int64) *gaps { return &gaps{t: t, root: root} }

// enter marks a call into the program starting now; the time since the
// previous call returned becomes a harness.gap span under the op.
func (g *gaps) enter() {
	if g == nil {
		return
	}
	now := time.Now()
	if g.first.IsZero() {
		g.first = now
	} else if now.After(g.last) {
		g.t.add(span{ID: g.t.id(), Parent: g.root, Name: "harness.gap", Start: g.t.at(g.last), End: g.t.at(now)})
	}
}

// leave marks the current call returning now.
func (g *gaps) leave() {
	if g != nil {
		g.last = time.Now()
	}
}

// gapWriter brackets every Write with enter and leave.
type gapWriter struct {
	w io.Writer
	g *gaps
}

func (gw gapWriter) Write(p []byte) (int, error) {
	gw.g.enter()
	defer gw.g.leave()
	return gw.w.Write(p)
}

// writerFor wraps w for g, or returns w itself when untraced.
func writerFor(w io.Writer, g *gaps) io.Writer {
	if g == nil {
		return w
	}
	return gapWriter{w: w, g: g}
}

// timed records one span from start to now.
func (t *tracer) timed(id, parent int64, name string, start int64, attr map[string]string) {
	t.add(span{ID: id, Parent: parent, Name: name, Start: start, End: t.now(), Attr: attr})
}

func endpointOf(path string) string {
	switch {
	case path == api.PathCompress:
		return "compress"
	case path == api.PathDecompress:
		return "decompress"
	case strings.HasPrefix(path, api.PathSlabPrefix):
		return "slab"
	case strings.HasPrefix(path, api.PathContainerPrefix):
		return "container"
	}
	return strings.TrimPrefix(path, "/")
}

// cacheableEndpoint mirrors the router's decode-side cache scope.
func cacheableEndpoint(ep string) bool { return ep == "slab" || ep == "decompress" }

// clientTransport wraps the transport handed to client.WithHTTPClient.
type clientTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (ct *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	o := opOf(req.Context())
	if o == nil || !o.traced {
		resp, err := ct.base.RoundTrip(req)
		if err == nil {
			ct.t.noteHeaders(req, resp)
		}
		return resp, err
	}
	t := ct.t
	traceID, _, _ := obs.ParseTraceparent(req.Header.Get("Traceparent"))
	id, start := t.id(), t.now()
	j := &join{clientHop: id}
	if traceID != "" {
		t.joins.Store(traceID, j)
	}
	var getConn int64
	trace := &httptrace.ClientTrace{
		GetConn: func(string) { getConn = t.now() },
		GotConn: func(httptrace.GotConnInfo) {
			t.add(span{ID: t.id(), Parent: id, Name: "wire.conn_wait", Trace: traceID, Start: getConn, End: t.now()})
		},
	}
	resp, err := ct.base.RoundTrip(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
	ep := endpointOf(req.URL.Path)
	if err != nil {
		t.timed(id, o.call.Load(), "wire.client", start, map[string]string{"endpoint": ep, "error": err.Error()})
		return nil, err
	}
	t.noteHeaders(req, resp)
	attr := map[string]string{"endpoint": ep, "status": resp.Status, "cache": resp.Header.Get(api.HeaderCache)}
	parent := o.call.Load()
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func(n int64) {
		attr["bytes"] = itoa(n)
		t.add(span{ID: id, Parent: parent, Name: "wire.client", Trace: traceID, Start: start, End: t.now(), Attr: attr})
	}}
	return resp, nil
}

// noteHeaders counts the router's cache answers the client sees, for the
// cross-check against the router's own counters.
func (t *tracer) noteHeaders(req *http.Request, resp *http.Response) {
	if !cacheableEndpoint(endpointOf(req.URL.Path)) {
		return
	}
	t.hdrMu.Lock()
	defer t.hdrMu.Unlock()
	t.cacheable++
	if resp.Header.Get(api.HeaderCache) == "hit" {
		t.cacheHit++
	}
	if endpointOf(req.URL.Path) == "slab" && req.Header.Get("Accept") != api.MediaTypeSlabExtent {
		t.rawReads++
		if resp.StatusCode == http.StatusNotModified {
			t.revalidated++
		}
	}
}

// spanBody closes a transport span when the body is drained or closed.
type spanBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// backendTransport wraps the router's fleet.Config.HTTPClient transport.
// Only requests that belong to a traced client request are recorded;
// health polls and background replication pass straight through.
type backendTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (bt *backendTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := bt.t
	j, traceID := t.lookup(req)
	if j == nil {
		return bt.base.RoundTrip(req)
	}
	id, start := t.id(), t.now()
	j.mu.Lock()
	j.hops = append(j.hops, hop{id: id, start: start})
	parent := j.router
	j.mu.Unlock()
	resp, err := bt.base.RoundTrip(req)
	ep := endpointOf(req.URL.Path)
	if err != nil {
		t.timed(id, parent, "wire.backend", start, map[string]string{"endpoint": ep, "error": err.Error()})
		return nil, err
	}
	attr := map[string]string{"endpoint": ep, "status": resp.Status}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func(n int64) {
		attr["bytes"] = itoa(n)
		t.add(span{ID: id, Parent: parent, Name: "wire.backend", Trace: traceID, Start: start, End: t.now(), Attr: attr})
	}}
	return resp, nil
}

// hopHandler wraps Router.Handler() (router = true) or a backend's
// Server.Handler() and records the handler span plus its Server-Timing
// stages.
type hopHandler struct {
	t      *tracer
	h      http.Handler
	router bool
}

func (hh *hopHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := hh.t
	j, traceID := t.lookup(r)
	if j == nil {
		hh.h.ServeHTTP(w, r)
		return
	}
	id, start := t.id(), t.now()
	name, layer := "server.handler", "server."
	j.mu.Lock()
	var parent int64
	if hh.router {
		name, layer = "fleet.router", "fleet."
		j.router = id
		parent = j.clientHop
	} else {
		// The latest router attempt that started before this handler.
		for _, h := range j.hops {
			if h.start <= start {
				parent = h.id
			}
		}
	}
	j.mu.Unlock()
	hh.h.ServeHTTP(w, r)
	end := t.now()
	hdr := w.Header()
	timing := hdr.Get("Server-Timing")
	t.add(span{ID: id, Parent: parent, Name: name, Trace: traceID, Start: start, End: end, Attr: map[string]string{
		"endpoint":      endpointOf(r.URL.Path),
		"cache":         hdr.Get(api.HeaderCache),
		"store":         hdr.Get(api.HeaderStore),
		"server_timing": timing,
	}})
	// Stage spans: the handler's own Server-Timing entries (the router's
	// merged backend entries, "be-*", belong to the backend's span).
	// Server-Timing carries durations, not offsets, so stages are laid
	// end to end from the handler start; huffbuild runs inside encode.
	at := start
	var encodeStart int64 = -1
	for _, e := range obs.ParseServerTiming(timing) {
		if e.Name == "total" || strings.HasPrefix(e.Name, "be-") {
			continue
		}
		s := at
		if e.Name == "huffbuild" && encodeStart >= 0 {
			s = encodeStart
		}
		if e.Name == "encode" {
			encodeStart = s
		}
		stEnd := s + int64(e.Dur)
		if stEnd > end {
			stEnd = end
		}
		t.add(span{ID: t.id(), Parent: id, Name: layer + e.Name, Trace: traceID, Start: s, End: stEnd, Stage: true})
		if e.Name != "huffbuild" {
			at = stEnd
		}
	}
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }

// write saves every span to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"spans": spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// breakdown is what the trace file says about where the time went.
type breakdown struct {
	spans    []span
	byID     map[int64]*span
	kids     map[int64][]*span // boundary children (not stages)
	stages   map[int64][]*span
	eff      map[int64][2]int64   // span interval clipped to its ancestors
	gaps     map[int64][][2]int64 // per span: the harness.gap intervals of its op
	layerSum map[string]float64   // self time per layer over all ops, ns
	opTotal  float64              // summed op duration, ns
}

func readBreakdown(path string) (*breakdown, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	b := &breakdown{
		spans:    doc.Spans,
		byID:     map[int64]*span{},
		kids:     map[int64][]*span{},
		stages:   map[int64][]*span{},
		eff:      map[int64][2]int64{},
		gaps:     map[int64][][2]int64{},
		layerSum: map[string]float64{},
	}
	for i := range b.spans {
		s := &b.spans[i]
		if s.ID != 0 {
			b.byID[s.ID] = s
		}
	}
	for i := range b.spans {
		s := &b.spans[i]
		if s.Parent == 0 || b.byID[s.Parent] == nil {
			continue
		}
		if s.Stage {
			b.stages[s.Parent] = append(b.stages[s.Parent], s)
		} else {
			b.kids[s.Parent] = append(b.kids[s.Parent], s)
		}
	}
	// Every op tree partitions its root's interval into layer self
	// times. The harness's own gaps between calls are charged first: no
	// other span's self time includes them, even where a concurrent span
	// (a streaming transport, say) is open across a gap. The rest is
	// charged to the deepest open span: clip each span to its ancestors,
	// then charge it its interval minus what its children and the gaps
	// cover.
	var walk func(s *span, lo, hi int64, gaps [][2]int64)
	walk = func(s *span, lo, hi int64, gaps [][2]int64) {
		if s.Start > lo {
			lo = s.Start
		}
		if s.End < hi {
			hi = s.End
		}
		if hi < lo {
			hi = lo
		}
		b.eff[s.ID] = [2]int64{lo, hi}
		b.gaps[s.ID] = gaps
		for _, k := range b.kids[s.ID] {
			walk(k, lo, hi, gaps)
		}
		b.layerSum[s.layer()] += float64(hi-lo) - b.covered(s.ID, "")
	}
	for i := range b.spans {
		s := &b.spans[i]
		if s.Name == "op" && s.Parent == 0 {
			var gaps [][2]int64
			for _, k := range b.kids[s.ID] {
				if k.Name == "harness.gap" {
					gaps = append(gaps, [2]int64{k.Start, k.End})
				}
			}
			walk(s, s.Start, s.End, gaps)
			b.opTotal += float64(s.End - s.Start)
		}
	}
	return b, nil
}

// covered is how much of span id's clipped interval its boundary
// children and its op's harness gaps cover; with skipLayer set, children
// of that layer are ignored.
func (b *breakdown) covered(id int64, skipLayer string) float64 {
	iv := b.eff[id]
	var ivs [][2]int64
	add := func(e [2]int64) {
		if e[0] < iv[0] {
			e[0] = iv[0]
		}
		if e[1] > iv[1] {
			e[1] = iv[1]
		}
		if e[1] > e[0] {
			ivs = append(ivs, e)
		}
	}
	for _, k := range b.kids[id] {
		if skipLayer != "" && k.layer() == skipLayer {
			continue
		}
		if e, ok := b.eff[k.ID]; ok {
			add(e)
		}
	}
	if b.byID[id].Name != "harness.gap" {
		for _, e := range b.gaps[id] {
			add(e)
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum, curLo, curHi int64
	curHi = -1 << 62
	for _, e := range ivs {
		if e[0] > curHi {
			if curHi > curLo {
				sum += curHi - curLo
			}
			curLo, curHi = e[0], e[1]
		} else if e[1] > curHi {
			curHi = e[1]
		}
	}
	if curHi > curLo {
		sum += curHi - curLo
	}
	return float64(sum)
}

// inOps lists the spans named name that belong to an op tree.
func (b *breakdown) inOps(name string) []*span {
	var out []*span
	for i := range b.spans {
		s := &b.spans[i]
		if _, ok := b.eff[s.ID]; ok && s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// meanSelf is the mean over spans with any of the names of their
// clipped duration minus what children of other layers cover, in ms.
func (b *breakdown) meanSelf(names ...string) float64 {
	var spans []*span
	for _, name := range names {
		spans = append(spans, b.inOps(name)...)
	}
	var sum float64
	for _, s := range spans {
		e := b.eff[s.ID]
		sum += float64(e[1]-e[0]) - b.covered(s.ID, s.layer())
	}
	return ratio(sum, float64(len(spans))) / 1e6
}

// meanDur is the mean duration in ms of spans named name in op trees,
// restricted to those whose endpoint attribute is ep when ep is set.
func (b *breakdown) meanDur(name, ep string) float64 {
	var sum float64
	n := 0
	for _, s := range b.inOps(name) {
		if ep != "" && s.Attr["endpoint"] != ep {
			continue
		}
		sum += float64(s.End - s.Start)
		n++
	}
	return ratio(sum, float64(n)) / 1e6
}

// meanStage is the mean duration in ms of a Server-Timing stage over the
// handler spans (named handler) that reported it.
func (b *breakdown) meanStage(handler, stage string) float64 {
	var sum float64
	n := 0
	for _, h := range b.inOps(handler) {
		for _, s := range b.stages[h.ID] {
			if s.Name == stage {
				sum += float64(s.End - s.Start)
				n++
			}
		}
	}
	return ratio(sum, float64(n)) / 1e6
}

// unattributed is the share of op time no named layer's self time
// covers: the harness's own work around and between the calls it makes.
// Gaps are charged before any concurrent span, so this is an upper bound
// on what the harness adds to an operation.
func (b *breakdown) unattributed() float64 {
	return ratio(b.layerSum["harness"], b.opTotal)
}
