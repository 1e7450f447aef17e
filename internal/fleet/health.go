package fleet

// Backend health and membership: the poller's table is the router's
// one record of its backends, each entry a health beside a lifecycle.
// The poller sends each backend one GET /v1/limits per poll: a decoded
// answer is the node's health (draining when it says so) and its load
// signals at once — the reserved in-flight bytes and the cumulative
// admission rejections. The router consults the resulting state to
// order candidates (dead and draining nodes are tried last, loaded
// nodes deprioritized), serves the answers as its own /v1/limits, and
// feeds observed connect failures back so a SIGKILLed backend stops
// receiving traffic before the next poll tick.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
)

// limitsReadLimit bounds one /v1/limits answer. The document grows with
// the daemon's tenant count, which szd holds to api.MaxTenants besides
// configured and in-flight ones: that many at their longest take 1.2 MB.
const limitsReadLimit = 8 << 20

// State is a backend's health as seen by the poller.
type State int

const (
	// StateUnknown is the pre-first-poll state; the router treats it as
	// routable so a cold router does not blackhole traffic.
	StateUnknown State = iota
	// StateHealthy backends answer /v1/limits.
	StateHealthy
	// StateDraining backends answer /v1/limits with draining set: they
	// finish in-flight work but accept nothing new, so the router routes
	// around them.
	StateDraining
	// StateDead backends are unreachable (connect error, timeout) or
	// answer with a non-200 or a body that is not a Limits document.
	StateDead
)

func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDraining:
		return "draining"
	case StateDead:
		return "dead"
	}
	return "unknown"
}

// routable reports whether the router offers a backend in this state
// traffic: healthy, or not yet polled.
func (s State) routable() bool {
	return s == StateHealthy || s == StateUnknown
}

// Health is one backend's polled status and load signals.
type Health struct {
	State State
	// Limits is the backend's last /v1/limits answer: its reserved
	// in-flight bytes, cumulative sheds and the rest of its admission
	// state. A failed probe keeps the previous answer.
	Limits api.Limits
	// ShedRecently reports whether Limits.Sheds rose between the two
	// most recent answers — the signal that its budget is saturated
	// right now, not just that it shed load at some point.
	ShedRecently bool

	// joining: no keys until its first healthy answer.
	joining bool
	// leaving: removed, and polled as a repair source until this time.
	leaving time.Time
}

// Poller tracks the health and membership of a dynamic backend set.
type Poller struct {
	client   *http.Client
	interval time.Duration

	// mu guards status, the membership table.
	mu     sync.Mutex
	status map[string]*Health

	// onHealthy, when set before the first poll, runs after a poll in
	// which some backend turned healthy: its first answer, a join, or a
	// recovery from dead or draining.
	onHealthy func()

	stop chan struct{}
	done chan struct{}
}

// NewPoller builds a poller over backends (each "host:port", http://
// assumed; full URLs pass through, so https:// backends work), all of
// them joining: none owns keys before its first healthy answer.
// interval <= 0 defaults to 2s; hc nil uses a client with a per-probe
// timeout of half the interval.
func NewPoller(backends []string, interval time.Duration, hc *http.Client) *Poller {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	if hc == nil {
		hc = &http.Client{Timeout: interval / 2}
	}
	p := &Poller{
		client:   hc,
		interval: interval,
		status:   make(map[string]*Health, len(backends)),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, b := range backends {
		p.status[b] = &Health{joining: true}
	}
	return p
}

// SetBackends makes nodes the membership by applying the difference to
// the table, and reports whether anything changed:
//
//   - A new backend joins: it is polled from now on, but owns no keys
//     until its first healthy answer, so ring ownership never points at
//     a node that cannot serve yet.
//   - A leaving backend named again goes straight back into the ring:
//     it was in it moments ago.
//   - A removed backend in the ring leaves it at once — new traffic
//     stops hashing to it — but stays polled as a repair source for the
//     drain grace; with drain <= 0 it is dropped at once.
//   - A removed backend that never owned keys is dropped at once.
func (p *Poller) SetBackends(nodes []string, drain time.Duration) bool {
	named := make(map[string]bool, len(nodes))
	p.mu.Lock()
	defer p.mu.Unlock()
	changed := false
	for _, b := range nodes {
		named[b] = true
		if h := p.status[b]; h == nil {
			p.status[b] = &Health{joining: true}
			changed = true
		} else if !h.leaving.IsZero() {
			h.leaving = time.Time{}
			changed = true
		}
	}
	for b, h := range p.status {
		if named[b] || !h.leaving.IsZero() {
			continue
		}
		changed = true
		if h.joining || drain <= 0 {
			delete(p.status, b)
		} else {
			h.leaving = time.Now().Add(drain)
		}
	}
	return changed
}

// Backends returns every tracked backend, leaving ones included, in
// name order.
func (p *Poller) Backends() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.status))
	for b := range p.status {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// view reads the table once: the health of every backend that takes
// requests (not leaving), and the ring of those past joining.
func (p *Poller) view() (*Ring, map[string]Health) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ring := &Ring{}
	serving := make(map[string]Health, len(p.status))
	for b, h := range p.status {
		if !h.leaving.IsZero() {
			continue
		}
		serving[b] = *h
		if !h.joining {
			ring.nodes = append(ring.nodes, b)
		}
	}
	return ring, serving
}

// Start runs one synchronous poll (so callers begin with real states,
// not Unknown) and then polls on the interval until Stop.
func (p *Poller) Start() {
	p.PollOnce(context.Background())
	go func() {
		defer close(p.done)
		t := time.NewTicker(p.interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.PollOnce(context.Background())
			}
		}
	}()
}

// Stop halts the poll loop and waits for it to exit.
func (p *Poller) Stop() {
	close(p.stop)
	<-p.done
}

// PollOnce probes every backend concurrently and updates states, then
// moves the lifecycle on: a joining backend that answered healthy
// enters the ring, and a leaving one past its drain deadline is
// dropped. If any backend turned healthy, onHealthy runs last.
func (p *Poller) PollOnce(ctx context.Context) {
	var wg sync.WaitGroup
	var turned atomic.Bool
	for _, b := range p.Backends() {
		wg.Add(1)
		go func(b string) {
			defer wg.Done()
			if p.probe(ctx, b) {
				turned.Store(true)
			}
		}(b)
	}
	wg.Wait()
	now := time.Now()
	p.mu.Lock()
	for b, h := range p.status {
		switch {
		case h.joining && h.State == StateHealthy:
			h.joining = false
		case !h.leaving.IsZero() && now.After(h.leaving):
			delete(p.status, b)
		}
	}
	p.mu.Unlock()
	if turned.Load() && p.onHealthy != nil {
		p.onHealthy()
	}
}

// probe classifies one backend from a single GET /v1/limits: a decoded
// answer is healthy (draining if it says so); a connect failure, a
// non-200 or a body that is not a Limits document is dead. It reports
// whether the backend turned healthy.
func (p *Poller) probe(ctx context.Context, backend string) bool {
	var lim *api.Limits
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, backendURL(backend)+api.PathLimits, nil)
	if err == nil {
		if resp, err := p.client.Do(req); err == nil {
			if resp.StatusCode != http.StatusOK ||
				json.NewDecoder(io.LimitReader(resp.Body, limitsReadLimit)).Decode(&lim) != nil {
				lim = nil
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
			resp.Body.Close()
		}
	}
	state := StateDead
	if lim != nil {
		state = StateHealthy
		if lim.Draining {
			state = StateDraining
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.status[backend]
	if h == nil {
		return false
	}
	turned := state == StateHealthy && h.State != StateHealthy
	h.State = state
	if lim != nil {
		h.ShedRecently = lim.Sheds > h.Limits.Sheds
		h.Limits = *lim
	}
	return turned
}

// backendURL normalizes a backend address to a base URL.
func backendURL(backend string) string {
	if strings.Contains(backend, "://") {
		return strings.TrimRight(backend, "/")
	}
	return "http://" + backend
}

// Health returns the backend's current status (zero value for unknown
// backends).
func (p *Poller) Health(backend string) Health {
	p.mu.Lock()
	defer p.mu.Unlock()
	if h := p.status[backend]; h != nil {
		return *h
	}
	return Health{}
}

// Routable reports whether the router should offer the backend traffic.
func (p *Poller) Routable(backend string) bool {
	return p.Health(backend).State.routable()
}

// MarkDead records an observed failure (the router could not connect)
// without waiting for the next poll tick, so a killed backend stops
// being offered traffic immediately.
func (p *Poller) MarkDead(backend string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if h := p.status[backend]; h != nil {
		h.State = StateDead
	}
}
