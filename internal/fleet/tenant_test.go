package fleet

// Router-side tenant QoS tests: hostile credentials rejected at the
// edge, X-Sz-Tenant spoofing replaced with the key-derived identity,
// and fleet-wide /v1/limits aggregation.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/server"
)

// tenantBackend is a minimal szd stand-in: it records every proxied
// request (headers cloned) and optionally serves a canned /v1/limits
// document, without which the poller reads it dead.
type tenantBackend struct {
	ts     *httptest.Server
	limits *api.Limits

	mu   sync.Mutex
	hits []*http.Request
}

func newTenantBackend(t *testing.T, limits *api.Limits) *tenantBackend {
	t.Helper()
	fb := &tenantBackend{limits: limits}
	fb.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case api.PathLimits:
			if fb.limits == nil {
				http.Error(w, "limits unavailable", http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(fb.limits)
		default:
			fb.mu.Lock()
			fb.hits = append(fb.hits, r.Clone(r.Context()))
			fb.mu.Unlock()
			io.WriteString(w, "proxied-payload")
		}
	}))
	t.Cleanup(fb.ts.Close)
	return fb
}

func (fb *tenantBackend) addr() string { return strings.TrimPrefix(fb.ts.URL, "http://") }

// proxied returns the recorded non-poll requests.
func (fb *tenantBackend) proxied() []*http.Request {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return append([]*http.Request(nil), fb.hits...)
}

// TestRouterHostileTenantKey: malformed credentials are answered at the
// router with the shared 400 bad_tenant envelope, the backend never
// sees the request, and the hostile traffic lands on the fixed
// tenant="invalid" metric label rather than minting new series.
func TestRouterHostileTenantKey(t *testing.T) {
	fb := newTenantBackend(t, nil)
	rt, ts := newRouter(t, Config{Backends: []string{fb.addr()}})

	for _, tc := range []struct {
		name, key, priority string
	}{
		{"oversized key", strings.Repeat("k", api.MaxAPIKeyLen+1), ""},
		{"key with space", "acme key", ""},
		{"empty tenant prefix", ".secret", ""},
		{"bad priority", "acme.k1", "realtime"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, _ := http.NewRequest(http.MethodPost,
				ts.URL+api.PathCompress+"?codec=gzip", strings.NewReader("data"))
			req.Header.Set(api.HeaderAPIKey, tc.key)
			if tc.priority != "" {
				req.Header.Set(api.HeaderPriority, tc.priority)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			var e api.Error
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("not an envelope: %v", err)
			}
			if e.Code != api.CodeBadTenant {
				t.Fatalf("code = %q, want %q", e.Code, api.CodeBadTenant)
			}
			if e.RequestID == "" {
				t.Error("envelope missing request_id")
			}
		})
	}
	if n := len(fb.proxied()); n != 0 {
		t.Fatalf("backend saw %d proxied requests, want 0 — hostile keys must die at the edge", n)
	}
	if m := rt.met.expose(); !strings.Contains(m,
		`szrouter_tenant_requests_total{tenant="invalid",status="400"} 4`) {
		t.Error("hostile traffic not accounted under the fixed invalid tenant label")
	}
}

// TestRouterTenantSpoofReplaced: a forged inbound X-Sz-Tenant is
// stripped and the router re-attaches the key-derived tenant toward the
// backend; without any key the default tenant rides instead.
func TestRouterTenantSpoofReplaced(t *testing.T) {
	fb := newTenantBackend(t, nil)
	rt, ts := newRouter(t, Config{Backends: []string{fb.addr()}})

	req, _ := http.NewRequest(http.MethodPost,
		ts.URL+api.PathCompress+"?codec=gzip", strings.NewReader("data"))
	req.Header.Set(api.HeaderAPIKey, "acme.key-1")
	req.Header.Set(api.HeaderTenant, "victim")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAllClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}

	resp = post(t, ts.URL+api.PathCompress+"?codec=gzip", []byte("anonymous"))
	readAllClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("anonymous status = %d, want 200", resp.StatusCode)
	}

	hits := fb.proxied()
	if len(hits) != 2 {
		t.Fatalf("backend saw %d requests, want 2", len(hits))
	}
	if got := hits[0].Header.Get(api.HeaderTenant); got != "acme" {
		t.Errorf("backend saw tenant %q, want key-derived \"acme\" (spoof must be replaced)", got)
	}
	if got := hits[0].Header.Get(api.HeaderAPIKey); got != "acme.key-1" {
		t.Errorf("API key not forwarded: %q", got)
	}
	if got := hits[1].Header.Get(api.HeaderTenant); got != api.DefaultTenant {
		t.Errorf("anonymous request carried tenant %q, want %q", got, api.DefaultTenant)
	}

	m := rt.met.expose()
	for _, want := range []string{
		`szrouter_tenant_requests_total{tenant="acme",status="200"} 1`,
		`szrouter_tenant_requests_total{tenant="default",status="200"} 1`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("router metrics missing %q", want)
		}
	}
}

// TestFleetLimitsAggregation: GET /v1/limits on the router sums the
// budget across every backend that answers and keys the per-backend
// documents by address; nodes that fail are simply absent.
func TestFleetLimitsAggregation(t *testing.T) {
	fb1 := newTenantBackend(t, &api.Limits{BudgetBytes: 100, Workers: 4})
	fb2 := newTenantBackend(t, &api.Limits{BudgetBytes: 250, Workers: 8})
	broken := newTenantBackend(t, nil) // 500s on /v1/limits
	_, ts := newRouter(t, Config{Backends: []string{fb1.addr(), fb2.addr(), broken.addr()}})

	resp, err := http.Get(ts.URL + api.PathLimits)
	if err != nil {
		t.Fatal(err)
	}
	var fl api.FleetLimits
	if err := json.NewDecoder(resp.Body).Decode(&fl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fl.BudgetBytes != 350 {
		t.Errorf("fleet budget = %d, want 350", fl.BudgetBytes)
	}
	if len(fl.Backends) != 2 {
		t.Errorf("backends answering = %d, want 2 (broken node absent, not fatal)", len(fl.Backends))
	}
	if got := fl.Backends[fb2.addr()].Workers; got != 8 {
		t.Errorf("backend %s workers = %d, want 8", fb2.addr(), got)
	}

	// Non-GET is rejected with the envelope.
	presp, err := http.Post(ts.URL+api.PathLimits, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if presp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/limits = %d, want 405", presp.StatusCode)
	}
	presp.Body.Close()
}

// TestFleetLimitsNoBackend: when no backend answers, the router reports
// 503 no_backend rather than an empty success.
func TestFleetLimitsNoBackend(t *testing.T) {
	broken := newTenantBackend(t, nil)
	_, ts := newRouter(t, Config{Backends: []string{broken.addr()}})

	resp, err := http.Get(ts.URL + api.PathLimits)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var e api.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != api.CodeNoBackend {
		t.Fatalf("code = %q, want %q", e.Code, api.CodeNoBackend)
	}
}

// TestFleetLimitsEndToEnd runs the aggregation against two real szd
// daemons: every field a real backend publishes must survive the hop.
func TestFleetLimitsEndToEnd(t *testing.T) {
	backends := []string{newSzd(t), newSzd(t)}
	_, ts := newRouter(t, Config{Backends: backends})

	resp, err := http.Get(ts.URL + api.PathLimits)
	if err != nil {
		t.Fatal(err)
	}
	var fl api.FleetLimits
	if err := json.NewDecoder(resp.Body).Decode(&fl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(fl.Backends) != 2 {
		t.Fatalf("backends = %d, want 2", len(fl.Backends))
	}
	for _, b := range backends {
		lim, ok := fl.Backends[b]
		if !ok {
			t.Fatalf("backend %s missing from fleet limits", b)
		}
		if lim.BudgetBytes <= 0 || lim.Workers <= 0 || len(lim.Priorities) != 2 {
			t.Errorf("backend %s limits = %+v, want live budget/workers/priorities", b, lim)
		}
	}
	if fl.BudgetBytes != fl.Backends[backends[0]].BudgetBytes+fl.Backends[backends[1]].BudgetBytes {
		t.Error("fleet budget is not the sum of backend budgets")
	}
}

// TestFleetLimitsDrainingBackend: a real szd that starts draining reads
// draining after the router's next poll and leaves the router's
// /v1/limits, while the other backend stays.
func TestFleetLimitsDrainingBackend(t *testing.T) {
	s := server.New(server.Config{})
	sts := httptest.NewServer(s.Handler())
	t.Cleanup(sts.Close)
	draining, other := strings.TrimPrefix(sts.URL, "http://"), newSzd(t)
	rt, ts := newRouter(t, Config{Backends: []string{draining, other}})

	s.StartDrain()
	rt.poller.PollOnce(context.Background())
	if st := rt.poller.Health(draining).State; st != StateDraining {
		t.Fatalf("draining szd reads %v after a poll, want draining", st)
	}
	resp, err := http.Get(ts.URL + api.PathLimits)
	if err != nil {
		t.Fatal(err)
	}
	var fl api.FleetLimits
	if err := json.NewDecoder(resp.Body).Decode(&fl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := fl.Backends[draining]; ok {
		t.Errorf("draining backend %s still listed in the router's /v1/limits", draining)
	}
	if lim, ok := fl.Backends[other]; !ok || lim.Draining {
		t.Errorf("healthy backend %s: listed %v, draining %v; want listed and not draining", other, ok, lim.Draining)
	}
}

// TestPollerTenantFlood: a real szd that has seen more distinct API
// keys than api.MaxTenants lists at most that many tenants and still
// reads healthy; and that many tenants, with the longest names and
// counters a daemon can report, fit the probe's read limit.
func TestPollerTenantFlood(t *testing.T) {
	// A batch gzip compress, charged the whole 1 MiB budget, is shed
	// past the batch watermark: each key reaches admission, and so the
	// tenant table, at the cost of a 429.
	sts := httptest.NewServer(server.New(server.Config{MaxInflightBytes: 1 << 20}).Handler())
	t.Cleanup(sts.Close)
	addr := strings.TrimPrefix(sts.URL, "http://")
	for i := 0; i < api.MaxTenants+100; i++ {
		req, err := http.NewRequest(http.MethodPost, sts.URL+api.PathCompress+"?codec=gzip", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(api.HeaderAPIKey, fmt.Sprintf("flood%05d.k", i))
		req.Header.Set(api.HeaderPriority, api.Batch.String())
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("batch compress %d = %d, want 429", i, resp.StatusCode)
		}
	}
	p := NewPoller([]string{addr}, 20*time.Second, nil)
	p.PollOnce(context.Background())
	if h := p.Health(addr); h.State != StateHealthy || len(h.Limits.Tenants) > api.MaxTenants {
		t.Errorf("after %d keys: state %v with %d tenants, want healthy with at most %d",
			api.MaxTenants+100, h.State, len(h.Limits.Tenants), api.MaxTenants)
	}

	worst := api.Limits{Tenants: map[string]api.TenantLimits{}}
	for i := 0; i < api.MaxTenants; i++ {
		worst.Tenants[fmt.Sprintf("%0*d", api.MaxAPIKeyLen, i)] = api.TenantLimits{
			Weight: math.MaxFloat64, ShareBytes: math.MaxInt64, InflightBytes: math.MaxInt64,
			Admitted: math.MaxInt64, Rejected: math.MaxInt64,
		}
	}
	doc, err := json.Marshal(worst)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc) > limitsReadLimit {
		t.Errorf("%d tenants at their longest take %d bytes, past the %d-byte read limit", api.MaxTenants, len(doc), limitsReadLimit)
	}
}
