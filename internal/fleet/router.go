package fleet

// The routing proxy. One Router fronts a set of szd backends:
//
//   - Replayable bodies (those that fit the buffer limit) are routed by
//     stream identity: the SHA-256 of the body picks the owning ring
//     node, and on 429/503/connect failure the request replays against
//     the next ring node in sequence. Identical inputs always land on
//     the same healthy backend, which keeps per-node caches hot.
//   - Unbounded streaming bodies cannot be replayed, so they skip the
//     ring: the router picks the least-loaded routable backend
//     (round-robin among ties) and forwards in a single attempt.
//   - Backend rejections that exhaust every candidate are relayed to
//     the client unchanged — status, body, and Retry-After header — so
//     client backoff works exactly as it does against a single daemon.
//
// The router adds X-Sz-Backend to every response naming the backend
// that served (or last rejected) it, and exposes szrouter_* metrics:
// per-backend forwards, failovers, and request counts by status. Every
// request is traced: the router continues an inbound W3C traceparent
// (or opens a trace), propagates it to the backend, and merges the
// backend's Server-Timing under a "be-" prefix into its own.
// route.go holds the request path, replicate.go container placement.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

const (
	// defaultBufferLimit bounds the body bytes buffered to keep a
	// request replayable (hash-routed, retryable). Matches the szd
	// client's default.
	defaultBufferLimit = 4 << 20
	// defaultCacheBytes is the response cache's byte budget. A single
	// response is cached only within a quarter of the budget (16 MiB
	// here) — larger than the request buffer limit, because decompress
	// and slab responses expand their input.
	defaultCacheBytes = 64 << 20
	// defaultDrainGrace is how long a removed backend keeps answering
	// in-flight work and serving as an anti-entropy source before the
	// router forgets it entirely.
	defaultDrainGrace = 10 * time.Second
)

// Config configures a Router.
type Config struct {
	// Backends are the szd nodes ("host:port" or full URLs). Required.
	Backends []string
	// BufferLimit is the replayable-body cap in bytes (0 = 4 MiB).
	BufferLimit int
	// PollInterval is the health-poll cadence (0 = 2s).
	PollInterval time.Duration
	// HTTPClient overrides the proxy transport (nil = no-timeout client;
	// streams may legitimately run for minutes).
	HTTPClient *http.Client
	// CacheBytes is the response-cache byte budget for the decode-side
	// endpoints (decompress, slab, slabs, inspect); responses larger
	// than a quarter of it stream through uncached. 0 means the 64 MiB
	// default; negative is rejected.
	CacheBytes int64
	// SlowThreshold is the total-duration floor above which a finished
	// request is logged structured with its stage breakdown; <= 0
	// disables slow-request logging. cmd/szrouter wires -slow-ms.
	SlowThreshold time.Duration
	// TraceRingSize is how many finished traces /debug/traces retains
	// (0 = obs.DefaultRingSize).
	TraceRingSize int
	// Replication is the slab-store replication factor R: every
	// validated container is copied to the ring owner and R-1
	// successors, so any single backend can die without losing data.
	// 0 or 1 disables replication (owner-only, the pre-R behavior).
	Replication int
	// WarmupGrace is how long a never-healthy backend reads as warming
	// instead of dead (0 = DefaultWarmupGrace, < 0 disables).
	WarmupGrace time.Duration
	// DrainGrace is how long a removed backend lingers as a drain/
	// anti-entropy source before being forgotten (0 = 10s).
	DrainGrace time.Duration
	// AntiEntropyInterval is the periodic anti-entropy sweep cadence.
	// 0 means sweeps run only when membership changes; < 0 disables
	// the sweep loop entirely (SweepOnce still works for tests).
	AntiEntropyInterval time.Duration
}

// Router is the fleet-mode HTTP proxy.
type Router struct {
	// mu guards the membership state below: the ring (not itself
	// goroutine-safe), the serving backend list, and the pending/leaving
	// lifecycle sets. Request-path readers take it shared; SetBackends
	// and the poll-driven reconciler take it exclusive.
	mu       sync.RWMutex
	ring     *Ring
	backends []string             // serving set: in-ring plus pending warm-ups
	pending  map[string]bool      // added, awaiting first healthy poll before ring entry
	leaving  map[string]time.Time // removed from ring, kept as drain/repair source until deadline

	poller      *Poller
	client      *http.Client
	bufferLimit int
	replication int
	drainGrace  time.Duration
	aeInterval  time.Duration
	rr          atomic.Uint64
	met         *routerMetrics
	mux         *http.ServeMux

	// Background replication: replSeen dedups per-digest kicks, replWG
	// tracks in-flight copies, and the sweep goroutine re-replicates
	// under-replicated digests after membership changes.
	replMu    sync.Mutex
	replSeen  map[string]time.Time
	replWG    sync.WaitGroup
	sweepKick chan struct{}
	sweepStop chan struct{}
	sweepDone chan struct{}

	// cache serves repeated identical decode-side requests without a
	// backend round trip; entryLimit caps a single cached response.
	cache      *respCache
	entryLimit int64
}

// New builds a Router; call Start to begin health polling.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("fleet: no backends configured")
	}
	if cfg.CacheBytes < 0 {
		return nil, fmt.Errorf("fleet: negative cache budget %d", cfg.CacheBytes)
	}
	seen := map[string]bool{}
	for _, b := range cfg.Backends {
		if b == "" || seen[b] {
			return nil, fmt.Errorf("fleet: empty or duplicate backend %q", b)
		}
		seen[b] = true
	}
	limit := cfg.BufferLimit
	if limit <= 0 {
		limit = defaultBufferLimit
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	// The poller needs its own short-timeout client, but it must share
	// the proxy transport when one is configured — that is where the
	// mTLS client certificate lives, and probing an mTLS backend in
	// plaintext would read every node as dead.
	pi := cfg.PollInterval
	if pi <= 0 {
		pi = 2 * time.Second
	}
	var phc *http.Client
	if hc.Transport != nil {
		phc = &http.Client{Timeout: pi / 2, Transport: hc.Transport}
	}
	replication := cfg.Replication
	if replication < 1 {
		replication = 1
	}
	drainGrace := cfg.DrainGrace
	if drainGrace <= 0 {
		drainGrace = defaultDrainGrace
	}
	cacheBytes := cfg.CacheBytes
	if cacheBytes == 0 {
		cacheBytes = defaultCacheBytes
	}
	rt := &Router{
		ring:        NewRing(cfg.Backends...),
		poller:      NewPoller(cfg.Backends, cfg.PollInterval, cfg.WarmupGrace, phc),
		backends:    append([]string(nil), cfg.Backends...),
		pending:     map[string]bool{},
		leaving:     map[string]time.Time{},
		client:      hc,
		bufferLimit: limit,
		replication: replication,
		drainGrace:  drainGrace,
		aeInterval:  cfg.AntiEntropyInterval,
		replSeen:    map[string]time.Time{},
		sweepKick:   make(chan struct{}, 1),
		mux:         http.NewServeMux(),
		cache:       newRespCache(cacheBytes),
		entryLimit:  cacheBytes / 4,
	}
	rt.poller.afterPoll = rt.reconcile
	rt.met = newRouterMetrics(rt.poller, rt.cache)
	wrap := &obs.Wrapper{
		Rec:    obs.NewRecorder(cfg.TraceRingSize, cfg.SlowThreshold, nil),
		Stages: rt.met.stages,
		Done:   rt.met.record,
	}
	rt.mux.HandleFunc(api.PathCompress, wrap.Wrap("compress", rt.proxyBody("compress")))
	rt.mux.HandleFunc(api.PathDecompress, wrap.Wrap("decompress", rt.proxyBody("decompress")))
	rt.mux.HandleFunc(api.PathInspect, wrap.Wrap("inspect", rt.proxyBody("inspect")))
	rt.mux.HandleFunc(api.PathSlabs, wrap.Wrap("slabs", rt.proxyBody("slabs")))
	rt.mux.HandleFunc(api.PathSlabPrefix, wrap.Wrap("slab", rt.proxyBody("slab")))
	rt.mux.HandleFunc(api.PathContainerPrefix, wrap.Wrap("container", rt.proxyBody("container")))
	rt.mux.HandleFunc(api.PathCodecs, wrap.Wrap("codecs", rt.proxyBodyless("codecs")))
	rt.mux.HandleFunc(api.PathLimits, rt.handleLimits)
	rt.mux.HandleFunc(api.PathHealthz, rt.handleHealthz)
	rt.mux.Handle(api.PathMetrics, rt.met.reg.Handler())
	rt.mux.Handle(api.PathDebugTraces, wrap.Rec.Ring)
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Start runs an initial synchronous health poll, begins the poll loop,
// and (with replication on) the anti-entropy sweep loop.
func (rt *Router) Start() {
	rt.poller.Start()
	if rt.replication > 1 && rt.aeInterval >= 0 {
		rt.sweepStop = make(chan struct{})
		rt.sweepDone = make(chan struct{})
		go rt.sweepLoop()
	}
}

// Stop halts health polling, the sweep loop, and waits for in-flight
// background replica copies.
func (rt *Router) Stop() {
	rt.poller.Stop()
	if rt.sweepStop != nil {
		close(rt.sweepStop)
		<-rt.sweepDone
		rt.sweepStop = nil
	}
	rt.replWG.Wait()
}

// Poller exposes the health tracker (for status pages and tests).
func (rt *Router) Poller() *Poller { return rt.poller }

// Backends returns the current serving set (in-ring plus warming), a
// copy.
func (rt *Router) Backends() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return append([]string(nil), rt.backends...)
}

// SetBackends applies a new membership set, reconciling it against the
// current one with the add → warm-up → in-ring and drain-then-remove
// lifecycles:
//
//   - A new backend starts polling immediately but joins the ring only
//     at its first healthy poll (reconcile), so ring ownership never
//     points at a node that cannot serve yet.
//   - A removed backend leaves the ring at once — new traffic stops
//     hashing to it — but stays polled and usable as an anti-entropy
//     source for the drain grace, then is forgotten.
//
// The ring change is the only synchronous part; data movement happens
// behind it via the anti-entropy sweep this call kicks.
func (rt *Router) SetBackends(nodes []string) error {
	if len(nodes) == 0 {
		return errors.New("fleet: no backends configured")
	}
	next := make(map[string]bool, len(nodes))
	for _, b := range nodes {
		if b == "" || next[b] {
			return fmt.Errorf("fleet: empty or duplicate backend %q", b)
		}
		next[b] = true
	}
	rt.mu.Lock()
	changed := false
	current := make(map[string]bool, len(rt.backends))
	for _, b := range rt.backends {
		current[b] = true
	}
	for _, b := range nodes {
		if current[b] {
			continue
		}
		changed = true
		if _, wasLeaving := rt.leaving[b]; wasLeaving {
			// Re-added while draining: it was healthy in the ring moments
			// ago, so it goes straight back in.
			delete(rt.leaving, b)
			rt.ring.Add(b)
		} else {
			rt.poller.Add(b)
			rt.pending[b] = true
		}
		rt.backends = append(rt.backends, b)
	}
	keep := rt.backends[:0]
	for _, b := range rt.backends {
		if next[b] {
			keep = append(keep, b)
			continue
		}
		changed = true
		if rt.pending[b] {
			// Never served: no drain needed.
			delete(rt.pending, b)
			rt.poller.Remove(b)
			continue
		}
		rt.ring.Remove(b)
		rt.leaving[b] = time.Now().Add(rt.drainGrace)
	}
	rt.backends = keep
	rt.mu.Unlock()
	if changed {
		rt.kickSweep()
	}
	return nil
}

// reconcile runs after every poll: pending backends that reached their
// first healthy poll enter the ring (kicking a sweep so their share of
// replicas migrates in), and leaving backends past their drain
// deadline are forgotten.
func (rt *Router) reconcile() {
	rt.mu.Lock()
	promoted := false
	for b := range rt.pending {
		if rt.poller.Health(b).State == StateHealthy {
			delete(rt.pending, b)
			rt.ring.Add(b)
			promoted = true
		}
	}
	now := time.Now()
	for b, deadline := range rt.leaving {
		if now.After(deadline) {
			delete(rt.leaving, b)
			rt.poller.Remove(b)
		}
	}
	rt.mu.Unlock()
	if promoted {
		rt.kickSweep()
	}
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	for _, b := range rt.Backends() {
		if rt.poller.Routable(b) {
			io.WriteString(w, "ok\n")
			return
		}
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	io.WriteString(w, "no routable backends\n")
}

// handleLimits serves GET /v1/limits for the fleet: every healthy
// backend's last poll answer, at most one poll interval old, plus the
// summed budget. A backend whose last probe failed is absent — a partial
// view beats a 502 when one node is mid-restart.
func (rt *Router) handleLimits(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, api.Wrap(http.StatusMethodNotAllowed,
			&api.Error{Code: api.CodeBadRequest, Message: "method not allowed"}))
		return
	}
	fl := api.FleetLimits{Backends: map[string]api.Limits{}}
	for _, b := range rt.Backends() {
		if h := rt.poller.Health(b); h.State == StateHealthy {
			fl.Backends[b] = h.Limits
			fl.BudgetBytes += h.Limits.BudgetBytes
		}
	}
	if len(fl.Backends) == 0 {
		api.WriteError(w, api.Wrap(http.StatusServiceUnavailable,
			&api.Error{Code: api.CodeNoBackend, Message: "no healthy backend answered /v1/limits"}))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(fl)
}

// routerMetrics counts the router's own traffic on the shared obs
// registry; backend health and response-cache gauges are sampled live at
// exposition time. The szrouter_* family names and label orders predate
// the registry and are scrape-contract for CI and dashboards — only the
// emitter moved.
type routerMetrics struct {
	reg           *obs.Registry
	forwards      *obs.Vec
	failovers     *obs.Vec
	requests      *obs.Vec
	hitBytes      *obs.Vec
	fills         *obs.Vec
	tenants       *obs.Vec
	replWrites    *obs.Vec
	replRepairs   *obs.Vec
	replFailovers *obs.Vec
	stages        *obs.HistVec
}

func newRouterMetrics(p *Poller, cache *respCache) *routerMetrics {
	r := obs.NewRegistry()
	m := &routerMetrics{
		reg: r,
		forwards: r.Counter("szrouter_forwards_total",
			"Attempts forwarded, by backend and endpoint.", "backend", "endpoint"),
		failovers: r.Counter("szrouter_failovers_total",
			"Attempts diverted away from a backend (shed or unreachable).", "backend"),
		requests: r.Counter("szrouter_requests_total",
			"Client requests by endpoint and final status.", "endpoint", "status"),
		hitBytes: r.Counter("szrouter_cache_hit_bytes_total",
			"Body bytes served from the router response cache."),
		fills: r.Counter("szrouter_peer_fills_total",
			"Containers copied into a backend's store from a peer on a ring-affinity miss.", "backend"),
	}
	// Backend gauges read the poller's live membership at exposition
	// time, so added and removed nodes appear and vanish with the set.
	r.Func("szrouter_backend_state", "Backend health (0 unknown, 1 healthy, 2 draining, 3 dead, 4 warming).",
		"gauge", []string{"backend"}, func(emit func(float64, ...string)) {
			for _, bk := range p.Backends() {
				emit(float64(p.Health(bk).State), bk)
			}
		})
	r.Func("szrouter_backend_inflight_bytes", "Last-scraped reserved budget per backend.",
		"gauge", []string{"backend"}, func(emit func(float64, ...string)) {
			for _, bk := range p.Backends() {
				emit(float64(p.Health(bk).Limits.InflightBytes), bk)
			}
		})
	stat := func(pick func(bytes, entries, hits, misses, evictions int64) int64) func(func(float64, ...string)) {
		return func(emit func(float64, ...string)) {
			emit(float64(pick(cache.stats())))
		}
	}
	r.Func("szrouter_cache_hits_total", "Responses served from the router cache.",
		"counter", nil, stat(func(_, _, h, _, _ int64) int64 { return h }))
	r.Func("szrouter_cache_misses_total", "Cacheable requests that missed the cache.",
		"counter", nil, stat(func(_, _, _, mi, _ int64) int64 { return mi }))
	r.Func("szrouter_cache_evictions_total", "Entries evicted to hold the byte budget.",
		"counter", nil, stat(func(_, _, _, _, ev int64) int64 { return ev }))
	r.Func("szrouter_cache_bytes", "Bytes currently held by the response cache.",
		"gauge", nil, stat(func(by, _, _, _, _ int64) int64 { return by }))
	r.Func("szrouter_cache_entries", "Entries currently held by the response cache.",
		"gauge", nil, stat(func(_, en, _, _, _ int64) int64 { return en }))
	m.stages = r.Histogram("szrouter_stage_seconds",
		"Per-stage latency from request traces, by endpoint and stage.",
		obs.StageBuckets, "endpoint", "stage")
	// Registered after every pre-existing family so their exposition
	// positions hold (scrape-compat); malformed credentials count under
	// the fixed "invalid" tenant.
	m.tenants = r.Counter("szrouter_tenant_requests_total",
		"Client requests by resolved tenant and final status.", "tenant", "status")
	m.replWrites = r.Counter("szrouter_replication_writes_total",
		"Replica copies landed by the write-path fan-out, by destination backend.", "backend")
	m.replRepairs = r.Counter("szrouter_replication_repairs_total",
		"Replica copies landed by the anti-entropy sweep, by destination backend.", "backend")
	m.replFailovers = r.Counter("szrouter_replication_failovers_total",
		"Digest reads served by a non-owner replica, by serving backend.", "backend")
	obs.RegisterRuntime(r, "szrouter")
	return m
}

func (m *routerMetrics) replicationWrite(backend string) { m.replWrites.Inc(backend) }

func (m *routerMetrics) replicationRepair(backend string) { m.replRepairs.Inc(backend) }

func (m *routerMetrics) replicationFailover(backend string) { m.replFailovers.Inc(backend) }

func (m *routerMetrics) cacheHitBytes(n int64) { m.hitBytes.Add(float64(n)) }

func (m *routerMetrics) peerFill(backend string) { m.fills.Inc(backend) }

func (m *routerMetrics) forward(backend, endpoint string) { m.forwards.Inc(backend, endpoint) }

func (m *routerMetrics) failover(backend string) { m.failovers.Inc(backend) }

// record counts one finished client request: it is the request
// wrapper's Done hook, the only place the router writes its request
// counters. A malformed credential counts under the fixed tenant
// "invalid", so hostile keys cannot mint metric series.
func (m *routerMetrics) record(o obs.Outcome) {
	status := strconv.Itoa(o.Status)
	tenant := o.Tenant
	if tenant == "" {
		tenant = "invalid"
	}
	m.requests.Inc(o.Endpoint, status)
	m.tenants.Inc(tenant, status)
}

func (m *routerMetrics) expose() string { return m.reg.Expose() }
