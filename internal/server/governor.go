package server

// Admission control. The governor meters two resources:
//
//   - an in-flight byte budget approximating the peak memory concurrent
//     requests can pin (buffered codecs charge their whole payload,
//     streaming codecs charge their window), and
//   - a worker pool sized off GOMAXPROCS whose tokens are shared with
//     the blocked container's internal parallelism — a request that is
//     granted k tokens runs its slab workers at most k wide, so total
//     CPU-bound parallelism across all requests stays bounded.
//
// Both resources are acquired non-blocking at admission: when either is
// exhausted the request is rejected immediately (429) instead of queuing,
// so saturation degrades into fast rejections rather than a convoy of
// half-served streams. What a request is granted it holds unchanged
// until release: its body may not run past what its charge covered
// (see bodyLimit).
//
// Neither limit is a constant anymore. The byte budget and a worker
// clamp are atomics the QoS control loop (internal/qos) rewrites at
// its own cadence; admission reads whatever is current. On top of the
// global budget the governor runs weighted-fair tenant accounting:
// every admit is charged to a tenant, and once the daemon is past a
// contention watermark each tenant is held to its weighted share of
// the budget — below the watermark admission is work-conserving and
// any tenant may use idle capacity. Batch-priority requests shed
// before interactive ones by admitting only under a headroom
// watermark.

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/api"
)

var (
	errDraining    = errors.New("server is draining")
	errBudget      = errors.New("in-flight byte budget exhausted")
	errWorkers     = errors.New("worker pool exhausted")
	errTooLarge    = errors.New("request exceeds the per-request size limit")
	errTenantShare = errors.New("tenant exceeded its weighted-fair share")
)

const (
	// fairShareWatermark: fraction of the budget in use before
	// per-tenant shares are enforced. Below it admission is
	// work-conserving.
	fairShareWatermark = 0.5
	// batchWatermark: batch requests are admitted only while total
	// in-flight stays under this fraction of the budget, so batch
	// load sheds first and interactive traffic keeps headroom.
	batchWatermark = 0.9
)

type governor struct {
	poolSize int // worker tokens backing the pool

	draining atomic.Bool
	budget   atomic.Int64 // live byte budget; <= 0 means unlimited
	clamp    atomic.Int64 // live worker clamp, 1..poolSize
	inflight atomic.Int64 // reserved bytes (mirror for lock-free gauges)
	requests atomic.Int64 // admitted, not yet released
	sheds    atomic.Int64 // cumulative load-shed rejections (QoS signal)

	mu      sync.Mutex
	free    int                    // worker tokens not handed out
	weights map[string]float64     // configured tenant weights (read-only)
	tenants map[string]*tenantAcct // live per-tenant accounting
}

// tenantAcct is one tenant's admission state. Entries outlive idle
// periods so the admitted/rejected counters accumulate, until the table
// fills: see acct.
type tenantAcct struct {
	weight   float64
	inflight int64
	grants   int // live grants; an entry with none is idle
	admitted int64
	rejected int64
}

func newGovernor(maxInflightBytes int64, workers int, weights map[string]float64) *governor {
	g := &governor{
		poolSize: workers,
		free:     workers,
		weights:  weights,
		tenants:  map[string]*tenantAcct{},
	}
	g.budget.Store(maxInflightBytes)
	g.clamp.Store(int64(workers))
	return g
}

// setBudget publishes a new byte budget. In-flight charges above a
// shrunken budget drain naturally; only new admissions see the cut.
func (g *governor) setBudget(n int64) { g.budget.Store(n) }

// setWorkerClamp publishes a new worker clamp in [1, poolSize].
func (g *governor) setWorkerClamp(n int) {
	g.clamp.Store(int64(min(max(n, 1), g.poolSize)))
}

// acct returns (creating if needed) the tenant's accounting entry. A
// new entry that finds api.MaxTenants in the table first drops every
// idle tenant without a configured weight, so a flood of distinct API
// keys cannot grow /v1/limits and the szd_qos_tenant_* series; a
// dropped tenant's counters restart if it returns, and no admission
// changes, since shares count only tenants in flight. Caller holds mu.
func (g *governor) acct(tenant string) *tenantAcct {
	a := g.tenants[tenant]
	if a == nil {
		if len(g.tenants) >= api.MaxTenants {
			for name, t := range g.tenants {
				if t.grants == 0 && g.weights[name] == 0 {
					delete(g.tenants, name)
				}
			}
		}
		w := g.weights[tenant]
		if w <= 0 {
			w = 1
		}
		a = &tenantAcct{weight: w}
		g.tenants[tenant] = a
	}
	return a
}

// activeWeight sums the weights of the tenants with in-flight charge;
// a snapshot sums once, not per tenant, to stay linear. Caller holds mu.
func (g *governor) activeWeight() (w float64) {
	for _, t := range g.tenants {
		if t.inflight > 0 {
			w += t.weight
		}
	}
	return w
}

// shareBytes computes tenant a's weighted-fair byte share of budget,
// given active, the activeWeight of the tenants; a itself always counts.
func shareBytes(a *tenantAcct, budget int64, active float64) int64 {
	if a.inflight <= 0 {
		active += a.weight
	}
	return int64(float64(budget) * a.weight / active)
}

// grant is one admitted request's hold on the governed resources.
type grant struct {
	g        *governor
	acct     *tenantAcct
	bytes    int64
	workers  int
	released atomic.Bool
}

// admit reserves charge bytes of budget and up to wantWorkers worker
// tokens (at least one) on behalf of tenant. It never blocks:
// exhaustion of any resource — the global budget, the tenant's fair
// share under contention, or the worker pool — is an immediate error.
func (g *governor) admit(tenant string, pri api.Priority, charge int64, wantWorkers int) (*grant, error) {
	if g.draining.Load() {
		return nil, errDraining
	}
	if charge < 0 {
		return nil, errBudget
	}
	budget := g.budget.Load()

	g.mu.Lock()
	a := g.acct(tenant)
	shed := func(err error) (*grant, error) {
		a.rejected++
		g.mu.Unlock()
		g.sheds.Add(1)
		return nil, err
	}
	if budget > 0 {
		cur := g.inflight.Load()
		if cur+charge > budget {
			return shed(errBudget)
		}
		if pri == api.Batch && float64(cur+charge) > batchWatermark*float64(budget) {
			return shed(errBudget)
		}
		if float64(cur+charge) > fairShareWatermark*float64(budget) {
			if a.inflight+charge > shareBytes(a, budget, g.activeWeight()) {
				return shed(errTenantShare)
			}
		}
	}
	// The clamp may sit below the pool: tokens beyond it are parked
	// even when free.
	clamp := int(g.clamp.Load())
	granted := min(max(wantWorkers, 1), clamp, clamp-(g.poolSize-g.free))
	if granted <= 0 {
		return shed(errWorkers)
	}
	g.free -= granted
	a.inflight += charge
	a.grants++
	a.admitted++
	g.mu.Unlock()

	g.inflight.Add(charge)
	g.requests.Add(1)
	return &grant{g: g, acct: a, bytes: charge, workers: granted}, nil
}

// release returns everything the grant holds. Idempotent.
func (gr *grant) release() {
	if gr.released.Swap(true) {
		return
	}
	g := gr.g
	g.inflight.Add(-gr.bytes)
	g.mu.Lock()
	g.free += gr.workers
	gr.acct.inflight -= gr.bytes
	gr.acct.grants--
	g.mu.Unlock()
	g.requests.Add(-1)
}

// busyWorkers reports handed-out worker tokens.
func (g *governor) busyWorkers() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.poolSize - g.free
}

// tenantSnapshot is one tenant's externally visible admission state.
type tenantSnapshot struct {
	name     string
	weight   float64
	share    int64
	inflight int64
	admitted int64
	rejected int64
}

// snapshotTenants returns the per-tenant view plus the current budget,
// for /v1/limits, /debug/qos, and the szd_qos_* gauges. Configured-
// but-idle tenants are included so operators can see their weights.
func (g *governor) snapshotTenants() []tenantSnapshot {
	budget := g.budget.Load()
	g.mu.Lock()
	defer g.mu.Unlock()
	for name := range g.weights {
		g.acct(name)
	}
	active := g.activeWeight()
	out := make([]tenantSnapshot, 0, len(g.tenants))
	for name, a := range g.tenants {
		out = append(out, tenantSnapshot{
			name:     name,
			weight:   a.weight,
			share:    shareBytes(a, budget, active),
			inflight: a.inflight,
			admitted: a.admitted,
			rejected: a.rejected,
		})
	}
	return out
}
