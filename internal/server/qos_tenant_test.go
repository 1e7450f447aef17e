package server

// Tests for the per-tenant QoS surface: hostile tenant headers, the
// weighted-fair admission guarantee under a flooding tenant, batch
// shedding, and the /v1/limits and /debug/qos read-side.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/grid"
)

// TestHostileTenantHeaders drives malformed and spoofed identity
// headers at a live daemon: bad credentials are 400 bad_tenant
// envelopes answered before admission, and an inbound X-Sz-Tenant is
// stripped — accounting follows the API key, never the spoof.
func TestHostileTenantHeaders(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	raw, _ := makeRaw(t, grid.Float32, 8, 10)
	url := ts.URL + api.PathCompress + "?codec=sz14&abs=1e-3&dtype=f32&dims=8,10"

	bad := []struct {
		name, key, priority string
	}{
		{"oversized key", strings.Repeat("a", api.MaxAPIKeyLen+1), ""},
		{"invalid byte", "acme key", ""},
		{"header injection", "acme\tkey", ""},
		{"empty tenant prefix", ".hidden", ""},
		{"unknown priority", "acme.k1", "urgent"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			req, _ := http.NewRequest(http.MethodPost, url, strings.NewReader(string(raw)))
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

	// Spoof attempt: a valid key plus a forged X-Sz-Tenant. The request
	// must succeed and be accounted to the key's tenant, not the forgery.
	req, _ := http.NewRequest(http.MethodPost, url, strings.NewReader(string(raw)))
	req.Header.Set(api.HeaderAPIKey, "acme.k1")
	req.Header.Set(api.HeaderTenant, "victim")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spoofed-but-valid request status = %d, want 200", resp.StatusCode)
	}
	seen := map[string]bool{}
	for _, ten := range s.gov.snapshotTenants() {
		seen[ten.name] = true
	}
	if !seen["acme"] {
		t.Error("tenant \"acme\" missing from accounting after keyed request")
	}
	if seen["victim"] {
		t.Error("forged X-Sz-Tenant minted an account — spoof not stripped")
	}
}

// TestOversizedChargeEnvelope: a request whose charge can never fit the
// configured budget is a 413 too_large envelope, not a retryable 429.
func TestOversizedChargeEnvelope(t *testing.T) {
	s := New(Config{MaxInflightBytes: 4096})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := strings.Repeat("x", 8192)
	resp, err := http.Post(ts.URL+api.PathCompress+"?codec=gzip", "application/octet-stream",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var e api.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("not an envelope: %v", err)
	}
	if e.Code != api.CodeTooLarge {
		t.Fatalf("code = %q, want %q", e.Code, api.CodeTooLarge)
	}
}

// TestMixedTenantFairness is the admission half of the ISSUE's
// acceptance load test, run deterministically against the governor: a
// flooding tenant saturates admission while a victim tenant offers
// steady load under its weighted-fair share. The victim must land at
// least 80% of its share-bounded demand, and the flood must actually
// be capped (shed at least once) — otherwise the test would pass on an
// ungoverned free-for-all.
func TestMixedTenantFairness(t *testing.T) {
	const budget = int64(1 << 20)
	const chunk = budget / 64
	for _, tc := range []struct {
		name    string
		weights map[string]float64
		share   float64 // victim's weighted-fair fraction
	}{
		{"equal", nil, 0.5},
		{"weighted-3to1", map[string]float64{"flood": 3, "victim": 1}, 0.25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newGovernor(budget, 1024, tc.weights)
			// The victim asks for 80% of its fair share each round, in
			// chunks, interleaved 1:3 with flood attempts.
			demandPerRound := int64(float64(budget) * tc.share * 0.8)
			var victimGot, victimAsked, floodRejects int64
			const rounds = 50
			for r := 0; r < rounds; r++ {
				var grants []*grant
				demand := demandPerRound
				for i := 0; i < 512; i++ {
					if i%4 == 3 {
						if demand <= 0 {
							continue
						}
						c := chunk
						if c > demand {
							c = demand
						}
						victimAsked += c
						demand -= c
						if gr, err := g.admit("victim", api.Interactive, c, 1); err == nil {
							grants = append(grants, gr)
							victimGot += c
						}
					} else {
						if gr, err := g.admit("flood", api.Interactive, chunk, 1); err == nil {
							grants = append(grants, gr)
						} else {
							floodRejects++
						}
					}
				}
				for _, gr := range grants {
					gr.release()
				}
			}
			if floodRejects == 0 {
				t.Fatal("flood was never capped — fairness did not engage")
			}
			goodput := float64(victimGot) / float64(victimAsked)
			if goodput < 0.8 {
				t.Fatalf("victim goodput %.1f%% of its share-bounded demand, want >= 80%%",
					100*goodput)
			}
			// The flood must not have been starved either: work-conserving
			// admission gives it everything the victim left on the table.
			for _, ten := range g.snapshotTenants() {
				if ten.name == "flood" && ten.admitted == 0 {
					t.Fatal("flood tenant starved outright")
				}
			}
		})
	}
}

// TestBatchShedsFirst: with the daemon past the batch watermark, batch
// admission fails while an interactive request of the same size and
// tenant still lands.
func TestBatchShedsFirst(t *testing.T) {
	const budget = int64(1000)
	g := newGovernor(budget, 16, nil)
	base, err := g.admit("t", api.Interactive, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer base.release()
	if _, err := g.admit("t", api.Batch, 600, 1); err == nil {
		t.Fatal("batch admitted past the batch watermark")
	}
	gr, err := g.admit("t", api.Interactive, 600, 1)
	if err != nil {
		t.Fatalf("interactive rejected where batch correctly shed: %v", err)
	}
	gr.release()
}

// TestLimitsAndDebugQoS reads the QoS state endpoints end to end:
// /v1/limits reports the live budget, clamp, and configured tenant
// weights; /debug/qos reflects controller ticks driven via TickQoS.
func TestLimitsAndDebugQoS(t *testing.T) {
	s := New(Config{
		MaxInflightBytes: 64 << 20,
		TenantWeights:    map[string]float64{"acme": 3},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + api.PathLimits)
	if err != nil {
		t.Fatal(err)
	}
	var lim api.Limits
	if err := json.NewDecoder(resp.Body).Decode(&lim); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if lim.BudgetBytes <= 0 || lim.Workers <= 0 {
		t.Fatalf("limits = %+v, want positive budget and workers", lim)
	}
	if len(lim.Priorities) != 2 || lim.Priorities[0] != "interactive" || lim.Priorities[1] != "batch" {
		t.Fatalf("priorities = %v, want [interactive batch]", lim.Priorities)
	}
	acme, ok := lim.Tenants["acme"]
	if !ok || acme.Weight != 3 {
		t.Fatalf("tenants[acme] = %+v (present %v), want weight 3", acme, ok)
	}

	before := s.qosState().Ticks
	s.TickQoS()
	resp, err = http.Get(ts.URL + api.PathDebugQOS)
	if err != nil {
		t.Fatal(err)
	}
	var dbg struct {
		Adaptive bool `json:"adaptive"`
		State    struct {
			Ticks int64 `json:"ticks"`
		} `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !dbg.Adaptive {
		t.Error("daemon with a byte budget should report adaptive QoS")
	}
	if dbg.State.Ticks != before+1 {
		t.Errorf("ticks = %d, want %d", dbg.State.Ticks, before+1)
	}
}

// TestLimitsLoadSignals: /v1/limits carries the signals the router's
// health poll reads — a held grant's bytes in inflight_bytes, a 429
// counted in sheds, and draining once StartDrain is called.
func TestLimitsLoadSignals(t *testing.T) {
	s, ts := newTestDaemon(t, Config{MaxInflightBytes: 64 << 20})
	read := func() api.Limits {
		t.Helper()
		resp, err := http.Get(ts.URL + api.PathLimits)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var lim api.Limits
		if err := json.NewDecoder(resp.Body).Decode(&lim); err != nil {
			t.Fatal(err)
		}
		return lim
	}
	if lim := read(); lim.Draining || lim.InflightBytes != 0 || lim.Sheds != 0 {
		t.Fatalf("idle limits = %+v, want not draining, nothing in flight, no sheds", lim)
	}
	gr, err := s.gov.admit(api.DefaultTenant, api.Interactive, 64<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer gr.release()
	if lim := read(); lim.InflightBytes != 64<<20 {
		t.Fatalf("inflight_bytes = %d with a held %d-byte grant", lim.InflightBytes, 64<<20)
	}
	resp := post(t, ts.URL+api.PathCompress+"?codec=gzip", []byte("x"))
	readAllClose(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("compress against a full budget = %d, want 429", resp.StatusCode)
	}
	if lim := read(); lim.Sheds != 1 {
		t.Fatalf("sheds = %d after one 429, want 1", lim.Sheds)
	}
	s.StartDrain()
	if lim := read(); !lim.Draining {
		t.Fatal("limits not draining after StartDrain")
	}
}

// TestTenantTableBounded: tenants past api.MaxTenants, admitted or shed
// from several goroutines at once, do not grow the table past it, while
// a configured tenant and one that holds a grant keep their entries and
// counters, and every other grant's release lands on a live entry.
func TestTenantTableBounded(t *testing.T) {
	g := newGovernor(1<<20, 8, map[string]float64{"gold": 3})
	held, err := g.admit("busy", api.Interactive, 1<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.admit("gold", api.Interactive, 2<<20, 1); err == nil {
		t.Fatal("a charge over the budget was admitted")
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 2*api.MaxTenants; i += workers {
				name := fmt.Sprintf("flood%05d", i)
				if i%2 == 0 {
					gr, err := g.admit(name, api.Interactive, 1<<10, 1)
					if err != nil {
						t.Error(err)
						return
					}
					gr.release()
				} else if _, err := g.admit(name, api.Interactive, 2<<20, 1); err == nil {
					t.Error("a charge over the budget was admitted")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := len(g.tenants); n > api.MaxTenants {
		t.Fatalf("after %d flood tenants the table holds %d, want at most %d", 2*api.MaxTenants, n, api.MaxTenants)
	}
	for name, a := range g.tenants {
		if name != "busy" && (a.grants != 0 || a.inflight != 0) {
			t.Errorf("released tenant %s = %+v, want idle", name, a)
		}
	}
	if g.inflight.Load() != 1<<10 || g.free != 7 {
		t.Errorf("governor holds %d bytes and %d free tokens, want the held grant's 1024 and 7", g.inflight.Load(), g.free)
	}
	snap := map[string]tenantSnapshot{}
	for _, ten := range g.snapshotTenants() {
		snap[ten.name] = ten
	}
	if b := snap["busy"]; b.inflight != 1<<10 || b.admitted != 1 {
		t.Errorf("tenant with a held grant = %+v, want 1 KiB in flight and 1 admitted", b)
	}
	if gd := snap["gold"]; gd.weight != 3 || gd.rejected != 1 {
		t.Errorf("configured tenant = %+v, want weight 3 and 1 rejected", gd)
	}
	held.release()
	if b := g.tenants["busy"]; b == nil || b.inflight != 0 || b.grants != 0 {
		t.Errorf("after release the held tenant's entry = %+v, want present and idle", b)
	}
}

// TestQoSMetricsExposed: the szd_qos_* families must appear on /metrics
// with per-tenant series once a tenant has traffic.
func TestQoSMetricsExposed(t *testing.T) {
	s := New(Config{MaxInflightBytes: 64 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	raw, _ := makeRaw(t, grid.Float32, 8, 10)
	req, _ := http.NewRequest(http.MethodPost,
		ts.URL+api.PathCompress+"?codec=sz14&abs=1e-3&dtype=f32&dims=8,10",
		strings.NewReader(string(raw)))
	req.Header.Set(api.HeaderAPIKey, "acme.k1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status %d", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + api.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, mresp)
	for _, want := range []string{
		"szd_qos_budget_bytes ",
		"szd_qos_workers ",
		"szd_qos_retry_after_seconds ",
		"szd_qos_congested ",
		"szd_qos_ticks_total ",
		`szd_qos_tenant_admitted_total{tenant="acme"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}
