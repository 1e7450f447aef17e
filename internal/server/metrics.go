package server

// Request telemetry on the shared obs registry. The szd_* names and
// label orders are scrape-contract for dashboards, perfbench and CI's
// exact-line greps; the router reads its load signals from /v1/limits.

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/scratch"
	"repro/internal/store"
)

type metrics struct {
	reg      *obs.Registry
	requests *obs.Vec
	bytesIn  *obs.Vec
	bytesOut *obs.Vec
	latency  *obs.HistVec
	stages   *obs.HistVec
	// fastLat/slowLat are the QoS signal tap: two EWMAs over served-
	// request latency at different smoothing factors. The control loop
	// reads them off-path; recording is one multiply-add per request.
	fastLat *obs.EWMA
	slowLat *obs.EWMA
}

func newMetrics(g *governor, st *store.Store) *metrics {
	r := obs.NewRegistry()
	m := &metrics{
		reg: r,
		requests: r.Counter("szd_requests_total",
			"Requests by endpoint, codec, and HTTP status.",
			"endpoint", "codec", "status"),
		bytesIn: r.Counter("szd_bytes_in_total",
			"Request body bytes consumed.", "endpoint"),
		bytesOut: r.Counter("szd_bytes_out_total",
			"Response body bytes produced.", "endpoint"),
		fastLat: obs.NewEWMA(0.3),
		slowLat: obs.NewEWMA(0.02),
	}
	r.GaugeFunc("szd_inflight_requests", "Admitted requests currently being served.",
		func() float64 { return float64(g.requests.Load()) })
	r.GaugeFunc("szd_inflight_bytes", "Reserved in-flight byte budget.",
		func() float64 { return float64(g.inflight.Load()) })
	r.GaugeFunc("szd_workers_busy",
		"Worker-pool tokens handed out (pool size "+strconv.Itoa(g.poolSize)+").",
		func() float64 { return float64(g.busyWorkers()) })
	if st != nil {
		r.GaugeFunc("szd_store_bytes", "Payload bytes resident in the content-addressed store.",
			func() float64 { return float64(st.Stats().Bytes) })
		r.GaugeFunc("szd_store_entries", "Containers resident in the content-addressed store.",
			func() float64 { return float64(st.Stats().Entries) })
		r.Func("szd_store_hits_total", "Digest-referenced reads served from the store.",
			"counter", nil, func(emit func(float64, ...string)) { emit(float64(st.Stats().Hits)) })
		r.Func("szd_store_misses_total", "Digest-referenced reads the store could not answer.",
			"counter", nil, func(emit func(float64, ...string)) { emit(float64(st.Stats().Misses)) })
		r.Func("szd_store_evictions_total", "Entries evicted to hold the byte budget.",
			"counter", nil, func(emit func(float64, ...string)) { emit(float64(st.Stats().Evictions)) })
	}
	m.latency = r.Histogram("szd_request_seconds",
		"Request latency by endpoint and codec.", nil, "endpoint", "codec")
	m.stages = r.Histogram("szd_stage_seconds",
		"Per-stage latency from request traces, by endpoint and stage.",
		obs.StageBuckets, "endpoint", "stage")
	registerScratch(r)
	obs.RegisterRuntime(r, "szd")
	return m
}

// registerScratch exposes the scratch pools' per-size-class traffic as
// szd_scratch_* gauges sampled live at scrape time.
func registerScratch(r *obs.Registry) {
	each := func(pick func(scratch.ClassStats) int64) func(func(float64, ...string)) {
		return func(emit func(float64, ...string)) {
			for _, cs := range scratch.Stats() {
				emit(float64(pick(cs)), strconv.Itoa(cs.Size))
			}
		}
	}
	r.Func("szd_scratch_hits", "Scratch-pool Gets served from the pool, by size class (elements).",
		"gauge", []string{"class"}, each(func(c scratch.ClassStats) int64 { return c.Hits }))
	r.Func("szd_scratch_misses", "Scratch-pool Gets that had to allocate, by size class (elements).",
		"gauge", []string{"class"}, each(func(c scratch.ClassStats) int64 { return c.Misses }))
	r.Func("szd_scratch_puts", "Slices recycled into the scratch pools, by size class (elements).",
		"gauge", []string{"class"}, each(func(c scratch.ClassStats) int64 { return c.Puts }))
}

// record counts one finished request: it is the request wrapper's Done
// hook, the only place szd writes its request counters. Only served
// requests feed the QoS latency tap — rejections finish in microseconds
// and would mask real service latency climbing.
func (m *metrics) record(o obs.Outcome) {
	m.requests.Inc(o.Endpoint, o.Codec, strconv.Itoa(o.Status))
	m.bytesIn.Add(float64(o.BytesIn), o.Endpoint)
	m.bytesOut.Add(float64(o.BytesOut), o.Endpoint)
	m.latency.ObserveDuration(o.Total, o.Endpoint, o.Codec)
	if o.Status >= 200 && o.Status < 300 {
		m.fastLat.Observe(o.Total.Seconds())
		m.slowLat.Observe(o.Total.Seconds())
	}
}

// registerQoS adds the szd_qos_* families: the controller's live
// decisions and the per-tenant admission view, sampled at scrape time.
// Registered last so every pre-existing family keeps its position in
// the exposition (scrape-compat).
func (m *metrics) registerQoS(s *Server) {
	r := m.reg
	r.GaugeFunc("szd_qos_budget_bytes", "Adaptive admission byte budget currently in force.",
		func() float64 { return float64(s.gov.budget.Load()) })
	r.GaugeFunc("szd_qos_workers", "Adaptive worker clamp currently in force.",
		func() float64 { return float64(s.gov.clamp.Load()) })
	r.GaugeFunc("szd_qos_retry_after_seconds", "Backoff hint currently attached to load sheds.",
		func() float64 { return float64(s.retryAfterMS.Load()) / 1000 })
	r.GaugeFunc("szd_qos_congested", "1 while the QoS controller sees sustained pressure.",
		func() float64 {
			if s.qosState().Congested {
				return 1
			}
			return 0
		})
	r.Func("szd_qos_sheds_total", "Load-shed rejections (budget, share, or worker exhaustion).",
		"counter", nil, func(emit func(float64, ...string)) { emit(float64(s.gov.sheds.Load())) })
	r.Func("szd_qos_ticks_total", "QoS control-loop iterations.",
		"counter", nil, func(emit func(float64, ...string)) { emit(float64(s.qosState().Ticks)) })
	r.Func("szd_qos_cuts_total", "Multiplicative budget cuts taken by the controller.",
		"counter", nil, func(emit func(float64, ...string)) { emit(float64(s.qosState().Cuts)) })
	r.Func("szd_qos_grows_total", "Additive budget increases taken by the controller.",
		"counter", nil, func(emit func(float64, ...string)) { emit(float64(s.qosState().Grows)) })
	perTenant := func(pick func(tenantSnapshot) float64) func(func(float64, ...string)) {
		return func(emit func(float64, ...string)) {
			for _, t := range s.gov.snapshotTenants() {
				emit(pick(t), t.name)
			}
		}
	}
	r.Func("szd_qos_tenant_weight", "Configured admission weight by tenant.",
		"gauge", []string{"tenant"}, perTenant(func(t tenantSnapshot) float64 { return t.weight }))
	r.Func("szd_qos_tenant_share_bytes", "Current weighted-fair byte share by tenant.",
		"gauge", []string{"tenant"}, perTenant(func(t tenantSnapshot) float64 { return float64(t.share) }))
	r.Func("szd_qos_tenant_inflight_bytes", "Admitted in-flight bytes by tenant.",
		"gauge", []string{"tenant"}, perTenant(func(t tenantSnapshot) float64 { return float64(t.inflight) }))
	r.Func("szd_qos_tenant_admitted_total", "Admitted requests by tenant.",
		"counter", []string{"tenant"}, perTenant(func(t tenantSnapshot) float64 { return float64(t.admitted) }))
	r.Func("szd_qos_tenant_rejected_total", "Admission rejections by tenant.",
		"counter", []string{"tenant"}, perTenant(func(t tenantSnapshot) float64 { return float64(t.rejected) }))
}
