package fleet

// The routing proxy. One Router fronts a set of szd backends, which it
// knows only through its poller's membership table:
//
//   - Replayable bodies (those that fit the buffer limit) are routed by
//     stream identity: the SHA-256 of the body picks the owning ring
//     node, and on 429/503/connect failure the request replays against
//     the next ring node in sequence. Identical inputs always land on
//     the same healthy backend, which keeps per-node caches hot.
//   - Bodies beyond the buffer limit cannot be replayed, so they take
//     the same candidates and attempt loop with exactly one candidate:
//     a container PUT's digest owner, or for any other stream the first
//     candidate for a rotating key.
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
	"sort"
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
	// DrainGrace is how long a removed backend lingers as a drain/
	// anti-entropy source before being forgotten (0 = 10s).
	DrainGrace time.Duration
	// AntiEntropyInterval is the periodic anti-entropy sweep cadence.
	// 0 means sweeps run only when membership changes or a backend
	// turns healthy (at start, on a join, on a recovery); < 0 disables
	// the sweep loop entirely (SweepOnce still works for tests).
	AntiEntropyInterval time.Duration
}

// Router is the fleet-mode HTTP proxy.
type Router struct {
	poller      *Poller // the membership table: health and lifecycle
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
	// under-replicated digests after membership changes and recoveries.
	replSeen  recentDigests
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
	if err := checkBackends(cfg.Backends); err != nil {
		return nil, err
	}
	if cfg.CacheBytes < 0 {
		return nil, fmt.Errorf("fleet: negative cache budget %d", cfg.CacheBytes)
	}
	limit := cfg.BufferLimit
	if limit <= 0 {
		limit = defaultBufferLimit
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
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
		poller:      NewPoller(cfg.Backends, cfg.PollInterval, nil),
		client:      hc,
		bufferLimit: limit,
		replication: replication,
		drainGrace:  drainGrace,
		aeInterval:  cfg.AntiEntropyInterval,
		sweepKick:   make(chan struct{}, 1),
		mux:         http.NewServeMux(),
		cache:       newRespCache(cacheBytes),
		entryLimit:  cacheBytes / 4,
	}
	// The poller keeps its own short-timeout client, but it must share
	// the proxy transport — that is where the mTLS client certificate
	// lives, and probing an mTLS backend in plaintext would read every
	// node as dead.
	rt.poller.client.Transport = hc.Transport
	// A backend that turns healthy (joins the ring, or recovers) may lack
	// replicas: its share migrates in, and copies that failed while it
	// was down land now.
	rt.poller.onHealthy = rt.kickSweep
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

// Backends returns the backends that take requests (in the ring or
// joining), in name order.
func (rt *Router) Backends() []string {
	_, serving := rt.poller.view()
	out := make([]string, 0, len(serving))
	for b := range serving {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// checkBackends rejects an empty membership and any empty or duplicate
// address.
func checkBackends(nodes []string) error {
	if len(nodes) == 0 {
		return errors.New("fleet: no backends configured")
	}
	seen := make(map[string]bool, len(nodes))
	for _, b := range nodes {
		if b == "" || seen[b] {
			return fmt.Errorf("fleet: empty or duplicate backend %q", b)
		}
		seen[b] = true
	}
	return nil
}

// SetBackends applies a new membership set to the poller's table
// (Poller.SetBackends); data movement happens behind the table change,
// via the anti-entropy sweep this call kicks.
func (rt *Router) SetBackends(nodes []string) error {
	if err := checkBackends(nodes); err != nil {
		return err
	}
	if rt.poller.SetBackends(nodes, rt.drainGrace) {
		rt.kickSweep()
	}
	return nil
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
	r.Func("szrouter_backend_state", "Backend health (0 unknown, 1 healthy, 2 draining, 3 dead).",
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
