// Package server implements szd, the compression daemon: the codec
// registry served over HTTP with streaming request/response bodies and
// admission control, so remote producers (simulation ranks, ingest
// pipelines, CLI users) share a resource-governed compression fleet
// instead of linking the library.
//
// Endpoints:
//
//	POST /v1/compress?codec=sz14&dims=...&abs=...   raw samples in, stream out
//	POST /v1/decompress[?codec=...]                 stream in (magic auto-detect), raw samples out
//	GET  /v1/codecs                                 registered codec names
//	GET|POST /v1/inspect                            stream in, container metadata out (JSON)
//	GET|POST /v1/slabs                              blocked container in, footer index out (JSON)
//	GET|POST /v1/slab/{i | lo-hi}                   blocked container in, raw samples of that slab range out
//	GET|HEAD|PUT /v1/container/{digest}             stored container bytes (peer fill, replication)
//	GET  /v1/containers                             the store's digest inventory (JSON)
//	GET  /v1/limits                                 live admission state (JSON)
//	GET  /healthz                                   200 ok / 503 draining
//	GET  /metrics                                   text exposition (szd_* series)
//	GET  /debug/traces                              recent finished traces (JSON)
//	GET  /debug/qos                                 the admission controller's full state (JSON)
//
// The container reads — decompress, slabs and slab — also take a
// ?digest= (or X-Sz-Digest) naming a stored container in place of the
// body (GET, no upload; see store.go). Any other method gets 405 with
// an Allow header.
//
// Codec parameters travel as query values (keys match the sz CLI flags)
// with X-Sz-<key> headers as a fallback. Bodies are chunked-streamed in
// both directions; the blocked codec flows through with O(slab) server
// memory. Overload is rejected fast — 429 with Retry-After when the
// in-flight byte budget or worker pool is exhausted, 503 while draining —
// rather than queued; see internal/server/governor.go.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/scratch"
	"repro/internal/store"
)

// Config sizes the daemon's resource governance.
type Config struct {
	// MaxInflightBytes is the admission byte budget: an estimate of the
	// peak memory all in-flight requests may pin, beyond which new
	// requests get 429. 0 means the 1 GiB default; negative disables
	// the budget.
	MaxInflightBytes int64
	// MaxRequestBytes caps a single request body (413 beyond it).
	// 0 means the 1 GiB default; negative disables the cap.
	MaxRequestBytes int64
	// Workers is the worker-pool size shared across requests, including
	// the blocked writer's internal parallelism. 0 sizes the pool at
	// 4 x GOMAXPROCS (streaming requests spend much of their life in
	// I/O wait, so modest CPU oversubscription keeps the cores busy).
	Workers int
	// Store, when non-nil, persists finished containers content-addressed
	// by their SHA-256 (the response ETag) and serves digest-referenced
	// reads from the mmap'd entries. The caller opens it (cmd/szd wires
	// -store-dir/-store-bytes) and owns its lifetime.
	Store *store.Store
	// PreferredStreams is the interleaved sub-stream count /v1/codecs
	// advertises for `sz c -streams auto` clients; 0 means 4, the
	// count BENCH_6 found saturating single-core decode ILP.
	PreferredStreams int
	// SlowThreshold is the total-duration floor above which a finished
	// request is logged structured (slog) with its stage breakdown;
	// <= 0 disables slow-request logging. cmd/szd wires -slow-ms.
	SlowThreshold time.Duration
	// TraceRingSize is how many finished traces /debug/traces retains
	// (0 = obs.DefaultRingSize).
	TraceRingSize int
	// TenantWeights assigns admission weights to tenant names (the
	// API-key prefix up to the first '.'). Unlisted tenants weigh 1.
	// Under contention each tenant is held to budget x w/sum(active w);
	// below the contention watermark admission is work-conserving.
	TenantWeights map[string]float64
}

const (
	defaultInflightBytes = 1 << 30
	defaultRequestBytes  = 1 << 30
	// unknownLengthCharge is the admission charge for chunked uploads
	// that declare no length at all (no Content-Length, no
	// X-Sz-Content-Length hint) when the per-request cap is disabled.
	unknownLengthCharge = 64 << 20
	// streamCopyBuffer is the io.Copy buffer for streaming bodies.
	streamCopyBuffer = 256 << 10
)

func (c Config) withDefaults() Config {
	if c.MaxInflightBytes == 0 {
		c.MaxInflightBytes = defaultInflightBytes
	}
	if c.MaxRequestBytes == 0 {
		c.MaxRequestBytes = defaultRequestBytes
	}
	if c.Workers <= 0 {
		c.Workers = 4 * runtime.GOMAXPROCS(0)
	}
	if c.PreferredStreams <= 0 {
		c.PreferredStreams = 4
	}
	return c
}

// Server is the szd daemon's HTTP surface plus its governor, QoS
// controller and metrics.
type Server struct {
	cfg Config
	gov *governor
	met *metrics
	mux *http.ServeMux

	// qosc is the adaptive admission controller; qosMu serializes
	// Tick against State reads (/debug/qos, /v1/limits, gauges).
	// adaptive is false when the byte budget is disabled — there is
	// nothing to steer.
	qosc         *qos.Controller
	qosMu        sync.Mutex
	prevSheds    int64
	adaptive     bool
	retryAfterMS atomic.Int64
}

// New builds a Server from cfg (zero value = defaults). The adaptive
// admission controller's bounds derive from MaxInflightBytes and
// Workers; it only acts when its loop runs — StartQoS (cmd/szd wires
// -qos-interval) or explicit TickQoS calls — otherwise the budget and
// worker pool stay at their configured values.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	gov := newGovernor(cfg.MaxInflightBytes, cfg.Workers, cfg.TenantWeights)
	qcfg := qos.Config{MaxWorkers: cfg.Workers, MinWorkers: cfg.Workers / 4}
	if cfg.MaxInflightBytes > 0 {
		qcfg.MaxBudget = cfg.MaxInflightBytes
		qcfg.InitialBudget = cfg.MaxInflightBytes
	}
	s := &Server{
		cfg:      cfg,
		gov:      gov,
		met:      newMetrics(gov, cfg.Store),
		mux:      http.NewServeMux(),
		qosc:     qos.New(qcfg),
		adaptive: cfg.MaxInflightBytes > 0,
	}
	s.retryAfterMS.Store(1000) // static default until the QoS loop ticks
	wrap := &obs.Wrapper{
		Rec:    obs.NewRecorder(cfg.TraceRingSize, cfg.SlowThreshold, nil),
		Stages: s.met.stages,
		Done:   s.met.record,
	}
	s.mux.HandleFunc(api.PathCompress, s.method(http.MethodPost, wrap.Wrap("compress", s.handleCompress)))
	s.mux.HandleFunc(api.PathDecompress, s.method(getPost, wrap.Wrap("decompress", s.handleDecompress)))
	s.mux.HandleFunc(api.PathCodecs, s.method(http.MethodGet, wrap.Wrap("codecs", s.handleCodecs)))
	s.mux.HandleFunc(api.PathInspect, s.method(getPost, wrap.Wrap("inspect", s.handleInspect)))
	s.mux.HandleFunc(api.PathSlabs, s.method(getPost, wrap.Wrap("slabs", s.handleSlabs)))
	s.mux.HandleFunc(api.PathSlabPrefix, s.method(getPost, wrap.Wrap("slab", s.handleSlab)))
	s.mux.HandleFunc(api.PathContainerPrefix, wrap.Wrap("container", s.handleContainer))
	s.mux.HandleFunc(api.PathContainers, s.method(http.MethodGet, wrap.Wrap("containers", s.handleContainers)))
	s.mux.HandleFunc(api.PathLimits, s.method(http.MethodGet, s.handleLimits))
	s.mux.HandleFunc(api.PathHealthz, s.handleHealthz)
	s.mux.HandleFunc(api.PathMetrics, s.method(http.MethodGet, s.met.reg.Handler().ServeHTTP))
	s.mux.Handle(api.PathDebugTraces, wrap.Rec.Ring)
	s.mux.HandleFunc(api.PathDebugQOS, s.method(http.MethodGet, s.handleDebugQoS))
	s.met.registerQoS(s)
	return s
}

// TickQoS runs one control-loop iteration: it snapshots the signal
// taps (in-flight bytes, shed delta, worker saturation, the fast/slow
// latency EWMAs), folds them through the AIMD controller, and writes
// the resulting budget, worker clamp, and Retry-After back into the
// admission path. Exposed so tests can drive the loop deterministically;
// production pacing comes from StartQoS.
func (s *Server) TickQoS() qos.State {
	s.qosMu.Lock()
	defer s.qosMu.Unlock()
	if !s.adaptive {
		return s.qosc.State()
	}
	sheds := s.gov.sheds.Load()
	st := s.qosc.Tick(qos.Signals{
		InflightBytes: s.gov.inflight.Load(),
		ShedDelta:     sheds - s.prevSheds,
		FastLatency:   s.met.fastLat.Value(),
		SlowLatency:   s.met.slowLat.Value(),
	})
	s.prevSheds = sheds
	s.gov.setBudget(st.BudgetBytes)
	s.gov.setWorkerClamp(st.Workers)
	s.retryAfterMS.Store(st.RetryAfter.Milliseconds())
	return st
}

// StartQoS runs the control loop at the given cadence until the
// returned stop function is called. interval <= 0 starts nothing.
func (s *Server) StartQoS(interval time.Duration) (stop func()) {
	if interval <= 0 || !s.adaptive {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				s.TickQoS()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// qosState reads the controller's last output without ticking it.
func (s *Server) qosState() qos.State {
	s.qosMu.Lock()
	defer s.qosMu.Unlock()
	return s.qosc.State()
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// StartDrain flips the server into draining: /healthz turns 503 so load
// balancers stop routing here, and every new request is rejected with
// 503 while in-flight streams run to completion (the caller then calls
// http.Server.Shutdown to wait for them).
func (s *Server) StartDrain() { s.gov.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (s *Server) Draining() bool { return s.gov.draining.Load() }

// getPost is the Allow list of the container read endpoints: a body
// travels with POST (or GET-with-body), a ?digest= reference with GET.
const getPost = "GET, POST"

// method answers 405 with the Allow list for any method outside allow
// (one method, or a ", "-separated list).
func (s *Server) method(allow string, h http.HandlerFunc) http.HandlerFunc {
	methods := strings.Split(allow, ", ")
	use := "use " + strings.Join(methods, " or ")
	return func(w http.ResponseWriter, r *http.Request) {
		if !slices.Contains(methods, r.Method) {
			w.Header().Set("Allow", allow)
			s.writeError(w, http.StatusMethodNotAllowed, errors.New(use))
			return
		}
		h(w, r)
	}
}

// writeError emits the unified api.Error envelope. Safe only before
// the response body has started streaming. Retryable rejections carry
// the QoS controller's current Retry-After hint.
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	e := api.Wrap(status, err)
	switch {
	case errors.Is(err, errTenantShare):
		e.Code = api.CodeTenantOverShare
	case errors.Is(err, errDraining):
		e.Code = api.CodeDraining
	}
	if e.Temporary() && e.RetryAfterMS == 0 {
		e.RetryAfterMS = s.retryAfterMS.Load()
	}
	api.WriteError(w, e)
}

func admitStatus(err error) int {
	switch {
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, errTooLarge):
		return http.StatusRequestEntityTooLarge
	default: // errBudget, errWorkers, errTenantShare
		return http.StatusTooManyRequests
	}
}

// streamErrStatus maps a mid-body error to its response status:
// governance errors keep their 413/429 semantics (429 is the retryable
// one — a blanket 400 would stop clients from backing off), everything
// else is the client's malformed input.
func streamErrStatus(err error) int {
	if errors.Is(err, errBudget) || errors.Is(err, errTooLarge) {
		return admitStatus(err)
	}
	return http.StatusBadRequest
}

func requestValues(r *http.Request) url.Values {
	v := r.URL.Query()
	// Every wire parameter is accepted in the query string and, as
	// X-Sz-<key>, in headers (query wins).
	for _, key := range codec.WireKeys {
		if v.Get(key) != "" {
			continue
		}
		if hv := r.Header.Get(api.ParamHeaderPrefix + key); hv != "" {
			v.Set(key, hv)
		}
	}
	return v
}

// declaredLength resolves the request's declared body size: the
// Content-Length when present, else the X-Sz-Content-Length hint chunked
// senders can supply so admission charges them accurately. -1 = unknown.
func declaredLength(r *http.Request) int64 {
	if r.ContentLength >= 0 {
		return r.ContentLength
	}
	if h := r.Header.Get(api.HeaderContentLength); h != "" {
		if n, err := strconv.ParseInt(h, 10, 64); err == nil && n >= 0 {
			return n
		}
	}
	return -1
}

func dtypeSize(p codec.Params) int64 {
	if p.DType == grid.Float32 {
		return 4
	}
	return 8 // grid.Float64 and the zero-value default
}

// satMul multiplies non-negative int64s, saturating at MaxInt64. Every
// admission-charge product goes through it: hostile dims (billions per
// axis) must saturate into a rejectable charge, never wrap negative —
// a negative reservation would ADD budget headroom.
func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// rawBytesFor returns prod(dims) x esz, saturating on overflow.
func rawBytesFor(dims []int, esz int64) int64 {
	n := esz
	for _, d := range dims {
		n = satMul(n, int64(d))
	}
	return n
}

// unknownCharge is the admission charge for length-less uploads.
func (s *Server) unknownCharge() int64 {
	if s.cfg.MaxRequestBytes > 0 {
		return s.cfg.MaxRequestBytes
	}
	return unknownLengthCharge
}

// compressCharge and decompressCharge live in charge.go with the
// calibration constants they are built from.

// admit pre-checks that the charge can ever fit the budget — a request
// whose memory estimate exceeds the whole budget gets a permanent 413,
// not a retryable 429 that clients would back off against forever —
// then takes the grant from the governor on behalf of the request's
// tenant. The pre-check uses the configured ceiling, not the live
// adaptive budget: a request that fits the configured budget but not
// the current one is a retryable 429. The "admission" span covers both
// the budget reservation and the worker-token acquisition.
func (s *Server) admit(ctx context.Context, charge int64, wantWorkers int) (*grant, int, error) {
	defer obs.FromContext(ctx).StartSpan("admission").End()
	if s.cfg.MaxInflightBytes > 0 && charge > s.cfg.MaxInflightBytes {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("%w: estimated memory %d exceeds the in-flight budget %d",
				errTooLarge, charge, s.cfg.MaxInflightBytes)
	}
	id := obs.IdentityFrom(ctx)
	gr, err := s.gov.admit(id.Tenant, id.Priority, charge, wantWorkers)
	if err != nil {
		return nil, admitStatus(err), err
	}
	return gr, 0, nil
}

// meteredReader counts request-body bytes and enforces the per-request
// cap. On buffered paths — where every body byte really pins memory —
// it also extends the grant's byte reservation when a stream outgrows
// its declared size (chunks of growQuantum scaled by the request's
// memory multiplier), aborting the request if the budget refuses.
// Streaming paths skip the growth metering: their memory is O(window)
// no matter how many bytes flow through.
type meteredReader struct {
	src       io.Reader
	gr        *grant
	n         int64 // bytes read
	meter     bool  // grow the reservation as bytes arrive (buffered paths)
	allowance int64 // bytes covered by the current reservation
	mult      int64 // memory charge per body byte (>= 1)
	limit     int64 // per-request cap; <= 0 unlimited
}

const growQuantum = 4 << 20

func (m *meteredReader) Read(p []byte) (int, error) {
	n, err := m.src.Read(p)
	m.n += int64(n)
	if m.limit > 0 && m.n > m.limit {
		return n, errTooLarge
	}
	for m.meter && m.n > m.allowance {
		if !m.gr.grow(satMul(growQuantum, m.mult)) {
			return n, fmt.Errorf("%w (stream exceeded its declared size)", errBudget)
		}
		m.allowance += growQuantum
	}
	return n, err
}

// mult is the endpoint's memory-per-body-byte model (3x for buffered
// f32 compress, 5x for buffered decompress, ...), passed explicitly so
// a spoofed declared length of 0 cannot collapse growth metering to 1x.
func newMeteredReader(src io.Reader, gr *grant, declared, charge, limit, mult int64, streaming bool) *meteredReader {
	allowance := declared
	if allowance < 0 {
		allowance = charge // unknown-length: the flat charge covers this many bytes
	}
	if mult < 1 {
		mult = 1
	}
	return &meteredReader{src: src, gr: gr, meter: !streaming, allowance: allowance, mult: mult, limit: limit}
}

// respWriter remembers whether the body has started (after which
// errors can only abort the connection). discard swallows writes once a
// request is being aborted, so cleanup-time flushes from a codec writer
// emit nothing. It needs no lock: every codec writer, the blocked one
// included, writes to its destination only from the goroutine calling
// its Write and Close, the handler's.
type respWriter struct {
	http.ResponseWriter
	wrote   bool
	discard bool
}

func (rw *respWriter) Write(b []byte) (int, error) {
	if rw.discard {
		return len(b), nil
	}
	rw.wrote = true
	return rw.ResponseWriter.Write(b)
}

func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) {
	tr := obs.FromContext(r.Context())
	vals := requestValues(r)
	name := vals.Get("codec")
	if name == "" {
		name = "sz14"
	}
	c, err := codec.Lookup(name)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	name = c.Name()
	obs.SetCodec(r.Context(), name)
	p, err := codec.ParamsFromValues(vals)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(p.Dims) == 0 && name != "gzip" {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("missing dims (required to interpret the raw input)"))
		return
	}
	// The raw body for these dims cannot legally exceed the per-request
	// cap; reject absurd geometries (including int64-saturating ones)
	// before they reach the charge arithmetic.
	if rb := rawBytesFor(p.Dims, dtypeSize(p)); s.cfg.MaxRequestBytes > 0 && rb > s.cfg.MaxRequestBytes {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("%w: dims imply %d raw bytes, limit %d", errTooLarge, rb, s.cfg.MaxRequestBytes))
		return
	}

	declared := declaredLength(r)
	if s.cfg.MaxRequestBytes > 0 && declared > s.cfg.MaxRequestBytes {
		s.writeError(w, http.StatusRequestEntityTooLarge, errTooLarge)
		return
	}
	charge, streaming := s.compressCharge(name, declared, p)
	gr, status, err := s.admit(r.Context(), charge, wantWorkers(name, p))
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	defer gr.release()
	if name == "blocked" {
		// Share the pool: the container's internal parallelism is
		// clamped to the tokens this request was actually granted.
		p.Workers = gr.workers
	}
	if tr != nil {
		// Deep pipeline stages (per-slab Huffman codebook builds) report
		// into the trace; concurrent slab workers aggregate by name.
		p.Stages = tr.Observe
	}

	// Streaming codecs write response bytes while the request body is
	// still arriving; without full duplex, Go's HTTP/1 server reacts to
	// the first response flush by silently discarding 256 KiB of any
	// still-unread chunked body — corrupting the input mid-stream.
	http.NewResponseController(w).EnableFullDuplex()
	body := newMeteredReader(r.Body, gr, declared, charge, s.cfg.MaxRequestBytes, 1+8/dtypeSize(p), streaming)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(api.HeaderCodec, name)
	out := &respWriter{ResponseWriter: w}
	// The finished container is persisted content-addressed as it
	// streams out, and its digest — unknowable before the last byte —
	// travels back as an ETag trailer. Repeat readers then reference
	// the container by digest alone (see store.go).
	var sink io.Writer = out
	var tee *bestEffortPut
	if s.cfg.Store != nil {
		if put, perr := s.cfg.Store.NewPut(); perr == nil {
			tee = &bestEffortPut{p: put, t: tr}
			sink = io.MultiWriter(out, tee)
			w.Header().Add("Trailer", "Etag")
		}
	}
	zw, err := c.NewWriter(sink, p)
	if err != nil {
		if tee != nil {
			tee.abort()
		}
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	cbuf := scratch.Bytes(streamCopyBuffer)
	defer scratch.PutBytes(cbuf)
	// The encode span covers the whole streaming copy: body read,
	// compression, and response writes (they interleave and cannot be
	// separated without buffering the stream).
	sp := tr.StartSpan("encode")
	_, err = io.CopyBuffer(zw, body, cbuf)
	if err == nil {
		err = zw.Close()
	} else {
		// The request is aborted, but the writer is still closed: Close
		// waits for the blocked container's slab encodes in flight and
		// recycles their buffers into the scratch pools. Discard its
		// output first so no trailer bytes reach the truncated
		// response.
		out.discard = true
		zw.Close()
	}
	sp.End()
	if tee != nil {
		if err == nil {
			if digest := tee.commit(); digest != "" {
				w.Header().Set("Etag", etagFor(digest))
			}
		} else {
			tee.abort()
		}
	}
	s.finishStream(w, out, err)
}

// handleDecompress decodes one container from either source: the
// request body, metered against the upload cap and teed into the store
// (its digest travels back as an ETag trailer), or with ?digest= a
// reader over the mmap'd store entry (X-Sz-Store and Etag as headers,
// no bytes in). Codec detection, the charge, admission and the decode
// are the same for both.
func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) {
	tr := obs.FromContext(r.Context())
	vals := requestValues(r)
	p, err := codec.ParamsFromValues(vals)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	ent, done := s.openStoreEntry(w, r)
	if done && ent == nil {
		return
	}
	var src io.Reader = r.Body
	declared := declaredLength(r)
	if ent != nil {
		defer ent.Release()
		src, declared = bytes.NewReader(ent.Bytes()), ent.Size()
	} else if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST (or GET with ?digest=)"))
		return
	} else if s.cfg.MaxRequestBytes > 0 && declared > s.cfg.MaxRequestBytes {
		s.writeError(w, http.StatusRequestEntityTooLarge, errTooLarge)
		return
	}

	// Resolve the codec: forced via ?codec=, else detected from the
	// stream magic (peeking consumes nothing).
	br := newPeekReader(src)
	var c codec.Codec
	if name := vals.Get("codec"); name != "" {
		if c, err = codec.Lookup(name); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
	} else {
		prefix, _ := br.Peek(4)
		if c, err = codec.Detect(prefix); err != nil {
			s.writeError(w, http.StatusBadRequest,
				fmt.Errorf("%w; pass ?codec= explicitly", err))
			return
		}
	}
	name := c.Name()
	obs.SetCodec(r.Context(), name)

	// Peek the stream header for the codecs whose geometry it reveals:
	// blocked (slab footprint) and sz14 (element count) charges come
	// from the data's own shape rather than a flat multiplier.
	var header []byte
	switch name {
	case "blocked":
		header, _ = br.Peek(containerPeekLen)
	case "sz14":
		header, _ = br.Peek(core.MaxHeaderLen)
	}
	if name == "blocked" {
		// Every decompress holds one worker token, so the reader keeps
		// one slab decode in flight beside the slab it serves; the
		// request's ?workers= does not widen it.
		p.Workers = 1
	}
	charge, streaming := s.decompressCharge(name, declared, header, p)
	gr, status, err := s.admit(r.Context(), charge, 1)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	defer gr.release()

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(api.HeaderCodec, name)
	var in io.Reader = br
	var tee *bestEffortPut
	if ent == nil {
		// See handleCompress: required so chunked request bodies survive
		// the first response flush on HTTP/1.
		http.NewResponseController(w).EnableFullDuplex()
		in = newMeteredReader(br, gr, declared, charge, s.cfg.MaxRequestBytes, 5, streaming)
		// Tee the container into the store as the decode consumes it:
		// the body's digest becomes the response's ETag trailer, and the
		// next read of this container can reference it with no upload.
		if s.cfg.Store != nil {
			if put, perr := s.cfg.Store.NewPut(); perr == nil {
				tee = &bestEffortPut{p: put, t: tr}
				in = io.TeeReader(in, tee)
				w.Header().Add("Trailer", "Etag")
			}
		}
	}
	out := &respWriter{ResponseWriter: w}
	zr, err := c.NewReader(in, p)
	if err != nil {
		// Buffered codecs consume the whole body inside NewReader, so
		// governance errors (413/429) can surface here — keep their
		// retry semantics instead of blanketing them as 400.
		if tee != nil {
			tee.abort()
		}
		s.writeError(w, streamErrStatus(err), err)
		return
	}
	cbuf := scratch.Bytes(streamCopyBuffer)
	defer scratch.PutBytes(cbuf)
	sp := tr.StartSpan("decode")
	_, err = io.CopyBuffer(out, zr, cbuf)
	if cerr := zr.Close(); err == nil {
		err = cerr
	}
	sp.End()
	if tee != nil {
		if err == nil {
			// Capture any container bytes the decoder did not need (the
			// stream is self-delimiting, trailing footer bytes may be
			// unread) so the stored digest matches the full body — the
			// same bytes the router hashed for ring placement.
			if _, derr := io.CopyBuffer(io.Discard, in, cbuf); derr == nil {
				if digest := tee.commit(); digest != "" {
					w.Header().Set("Etag", etagFor(digest))
				}
			} else {
				tee.abort()
			}
		} else {
			tee.abort()
		}
	}
	s.finishStream(w, out, err)
}

// finishStream settles a streaming response's error: before the first
// body byte it still yields a proper error response; mid-stream it can
// only abort the connection, which the request wrapper records as a
// 500, so the client sees a truncated transfer instead of silently
// corrupt data.
func (s *Server) finishStream(w http.ResponseWriter, out *respWriter, err error) {
	switch {
	case err == nil:
	case !out.wrote:
		s.writeError(w, streamErrStatus(err), err)
	default:
		panic(http.ErrAbortHandler)
	}
}

func (s *Server) handleCodecs(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	// preferred_streams is the daemon's advice for `sz c -streams auto`:
	// the interleaved sub-stream count it considers a good default for
	// containers that will be decoded here.
	json.NewEncoder(w).Encode(map[string]any{
		"codecs":            codec.Names(),
		"preferred_streams": s.cfg.PreferredStreams,
	})
}

func (s *Server) handleInspect(w http.ResponseWriter, r *http.Request) {
	declared := declaredLength(r)
	if s.cfg.MaxRequestBytes > 0 && declared > s.cfg.MaxRequestBytes {
		s.writeError(w, http.StatusRequestEntityTooLarge, errTooLarge)
		return
	}
	charge := declared
	if charge < 0 {
		charge = s.unknownCharge()
	}
	gr, status, err := s.admit(r.Context(), charge, 1)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	defer gr.release()
	body := newMeteredReader(r.Body, gr, declared, charge, s.cfg.MaxRequestBytes, 1, false)
	stream, err := readAllScratch(body, declared)
	defer scratch.PutBytes(stream)
	if err != nil {
		s.writeError(w, streamErrStatus(err), err)
		return
	}
	si, err := codec.InspectStream(stream)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	obs.SetCodec(r.Context(), si.Codec)
	resp, err := json.Marshal(si)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp = append(resp, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ok\n")
}

// limits assembles the live QoS state as the documented api.Limits
// shape: the router's one health probe and its fleet view.
func (s *Server) limits() api.Limits {
	st := s.qosState()
	lim := api.Limits{
		BudgetBytes:     s.gov.budget.Load(),
		MaxRequestBytes: s.cfg.MaxRequestBytes,
		Workers:         int(s.gov.clamp.Load()),
		RetryAfterMS:    s.retryAfterMS.Load(),
		Congested:       st.Congested,
		Draining:        s.Draining(),
		InflightBytes:   s.gov.inflight.Load(),
		Sheds:           s.gov.sheds.Load(),
		Priorities:      []string{api.Interactive.String(), api.Batch.String()},
		Tenants:         map[string]api.TenantLimits{},
	}
	for _, t := range s.gov.snapshotTenants() {
		lim.Tenants[t.name] = api.TenantLimits{
			Weight:        t.weight,
			ShareBytes:    t.share,
			InflightBytes: t.inflight,
			Admitted:      t.admitted,
			Rejected:      t.rejected,
		}
	}
	return lim
}

// handleLimits serves GET /v1/limits: the admission state a client can
// read before deciding how hard to push.
func (s *Server) handleLimits(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.limits())
}

// handleDebugQoS serves GET /debug/qos: the controller's full state —
// counters, baseline, bounds — for operators chasing a misbehaving
// control loop, a superset of what /v1/limits documents for clients.
func (s *Server) handleDebugQoS(w http.ResponseWriter, r *http.Request) {
	st := s.qosState()
	cfg := s.qosc.Config()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"adaptive": s.adaptive,
		"state":    st,
		"bounds": map[string]any{
			"min_budget_bytes":   cfg.MinBudget,
			"max_budget_bytes":   cfg.MaxBudget,
			"increase_bytes":     cfg.Increase,
			"decrease_factor":    cfg.Decrease,
			"congested_ticks":    cfg.CongestedTicks,
			"clear_ticks":        cfg.ClearTicks,
			"latency_ratio":      cfg.LatencyRatio,
			"min_workers":        cfg.MinWorkers,
			"max_workers":        cfg.MaxWorkers,
			"min_retry_after_ms": cfg.MinRetryAfter.Milliseconds(),
			"max_retry_after_ms": cfg.MaxRetryAfter.Milliseconds(),
		},
		"limits": s.limits(),
	})
}

// readAllScratch reads r to EOF into a scratch-pooled buffer, seeded
// from the declared length when known. The caller owns the result and
// recycles it with scratch.PutBytes when done (also on error: a partial
// buffer is still returned).
func readAllScratch(r io.Reader, declared int64) ([]byte, error) {
	hint := declared + 1 // +1 so an exact-size body EOFs without a growth step
	if declared < 0 || declared > 1<<30 {
		hint = 64 << 10
	}
	buf := scratch.Bytes(int(hint))[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// peekReader is a minimal buffered reader exposing Peek without bulk
// read-ahead (a bufio.Reader would slurp 4 KiB+ past the magic, which
// the metered reader must account, not the buffer).
type peekReader struct {
	src  io.Reader
	head []byte
}

func newPeekReader(src io.Reader) *peekReader { return &peekReader{src: src} }

// Peek returns the next n bytes without consuming them; fewer when the
// stream is shorter.
func (pr *peekReader) Peek(n int) ([]byte, error) {
	for len(pr.head) < n {
		buf := make([]byte, n-len(pr.head))
		m, err := pr.src.Read(buf)
		pr.head = append(pr.head, buf[:m]...)
		if err != nil {
			return pr.head, err
		}
	}
	return pr.head[:n], nil
}

func (pr *peekReader) Read(p []byte) (int, error) {
	if len(pr.head) > 0 {
		n := copy(p, pr.head)
		pr.head = pr.head[n:]
		return n, nil
	}
	return pr.src.Read(p)
}
