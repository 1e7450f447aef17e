package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
)

// fakeBackend is a controllable szd stand-in: its /v1/limits can report
// draining and arbitrary load, and it can be killed and resurrected on
// the same address to exercise the dead -> recovered transition.
type fakeBackend struct {
	t        *testing.T
	addr     string
	srv      *http.Server
	draining atomic.Bool
	inflight atomic.Int64
	shed     atomic.Int64
}

func newFakeBackend(t *testing.T) *fakeBackend {
	t.Helper()
	fb := &fakeBackend{t: t}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fb.addr = ln.Addr().String()
	fb.serve(ln)
	t.Cleanup(func() { fb.stop() })
	return fb
}

func (fb *fakeBackend) serve(ln net.Listener) {
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathLimits, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.Limits{
			Draining:      fb.draining.Load(),
			InflightBytes: fb.inflight.Load(),
			Sheds:         fb.shed.Load(),
		})
	})
	fb.srv = &http.Server{Handler: mux}
	go fb.srv.Serve(ln)
}

// stop kills the backend: connections refuse from here on.
func (fb *fakeBackend) stop() { fb.srv.Close() }

// restart resurrects the backend on its original address.
func (fb *fakeBackend) restart() {
	fb.t.Helper()
	ln, err := net.Listen("tcp", fb.addr)
	if err != nil {
		fb.t.Fatalf("rebinding %s: %v", fb.addr, err)
	}
	fb.serve(ln)
}

// TestPollerStateTransitions walks one backend through the full
// lifecycle: healthy -> draining -> dead -> recovered (healthy again).
func TestPollerStateTransitions(t *testing.T) {
	fb := newFakeBackend(t)
	fb.inflight.Store(12345)
	fb.shed.Store(0)
	p := NewPoller([]string{fb.addr}, time.Second, nil)
	ctx := context.Background()

	p.PollOnce(ctx)
	h := p.Health(fb.addr)
	if h.State != StateHealthy {
		t.Fatalf("state = %v, want healthy", h.State)
	}
	if h.Limits.InflightBytes != 12345 {
		t.Errorf("inflight = %d, want 12345 (metrics not scraped?)", h.Limits.InflightBytes)
	}
	if !p.Routable(fb.addr) {
		t.Error("healthy backend not routable")
	}

	fb.draining.Store(true)
	p.PollOnce(ctx)
	if h = p.Health(fb.addr); h.State != StateDraining {
		t.Fatalf("state = %v, want draining", h.State)
	}
	if p.Routable(fb.addr) {
		t.Error("draining backend still routable")
	}

	fb.stop()
	p.PollOnce(ctx)
	if h = p.Health(fb.addr); h.State != StateDead {
		t.Fatalf("state = %v, want dead", h.State)
	}

	fb.draining.Store(false)
	fb.restart()
	p.PollOnce(ctx)
	if h = p.Health(fb.addr); h.State != StateHealthy {
		t.Fatalf("state = %v, want healthy after recovery", h.State)
	}
	if !p.Routable(fb.addr) {
		t.Error("recovered backend not routable")
	}
}

// TestPollerShedRecently verifies the 429-rate signal: a counter
// increase between scrapes flags the backend as shedding, a flat
// counter clears it.
func TestPollerShedRecently(t *testing.T) {
	fb := newFakeBackend(t)
	p := NewPoller([]string{fb.addr}, time.Second, nil)
	ctx := context.Background()

	p.PollOnce(ctx)
	fb.shed.Store(5)
	p.PollOnce(ctx)
	if h := p.Health(fb.addr); !h.ShedRecently || h.Limits.Sheds != 5 {
		t.Fatalf("after 429 burst: ShedRecently=%v Shed429=%d, want true/5", h.ShedRecently, h.Limits.Sheds)
	}
	p.PollOnce(ctx)
	if h := p.Health(fb.addr); h.ShedRecently {
		t.Fatal("ShedRecently still set though the counter is flat")
	}
}

func TestPollerMarkDead(t *testing.T) {
	fb := newFakeBackend(t)
	p := NewPoller([]string{fb.addr}, time.Second, nil)
	p.PollOnce(context.Background())
	p.MarkDead(fb.addr)
	if h := p.Health(fb.addr); h.State != StateDead {
		t.Fatalf("state = %v, want dead after MarkDead", h.State)
	}
	// The next poll sees the live backend and recovers it.
	p.PollOnce(context.Background())
	if h := p.Health(fb.addr); h.State != StateHealthy {
		t.Fatalf("state = %v, want healthy after re-poll", h.State)
	}
}

// TestPollerOnHealthy: the hook runs after a poll in which some backend
// turned healthy — its first answer, a recovery, a join — and not after
// one in which no backend did.
func TestPollerOnHealthy(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	p := NewPoller([]string{a.addr}, time.Second, nil)
	kicks := 0
	p.onHealthy = func() { kicks++ }
	for _, step := range []struct {
		name string
		do   func()
		want int
	}{
		{"first answer", func() {}, 1},
		{"still healthy", func() {}, 0},
		{"stopped", a.stop, 0},
		{"restarted", a.restart, 1},
		{"marked dead while up", func() { p.MarkDead(a.addr) }, 1},
		{"joined", func() { p.SetBackends([]string{a.addr, b.addr}, 0) }, 1},
		{"draining", func() { a.draining.Store(true) }, 0},
		{"done draining", func() { a.draining.Store(false) }, 1},
	} {
		kicks = 0
		step.do()
		p.PollOnce(context.Background())
		if kicks != step.want {
			t.Errorf("%s: hook ran %d times, want %d", step.name, kicks, step.want)
		}
	}
}

// TestPollerAddRemove exercises dynamic membership on the poller.
func TestPollerAddRemove(t *testing.T) {
	fb := newFakeBackend(t)
	p := NewPoller(nil, time.Second, nil)
	if got := p.Backends(); len(got) != 0 {
		t.Fatalf("backends %v", got)
	}
	p.SetBackends([]string{fb.addr}, 0)
	p.SetBackends([]string{fb.addr}, 0) // idempotent
	if got := p.Backends(); len(got) != 1 || got[0] != fb.addr {
		t.Fatalf("backends %v", got)
	}
	p.PollOnce(context.Background())
	if h := p.Health(fb.addr); h.State != StateHealthy {
		t.Fatalf("state = %v, want healthy", h.State)
	}
	p.SetBackends(nil, 0)
	if got := p.Backends(); len(got) != 0 {
		t.Fatalf("backends after remove %v", got)
	}
	if h := p.Health(fb.addr); h.State != StateUnknown {
		t.Fatalf("removed backend state %v, want zero value", h.State)
	}
}

// TestPollerOneProbe: a poll is exactly one GET /v1/limits per backend.
// The fake answers every other path with 200 as szd would, so a second
// probe request could not hide behind a failure.
func TestPollerOneProbe(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.Method+" "+r.URL.Path]++
		mu.Unlock()
		if r.URL.Path == api.PathLimits {
			io.WriteString(w, "{}\n")
			return
		}
		io.WriteString(w, "ok\n")
	}))
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")
	p := NewPoller([]string{addr}, time.Second, nil)
	for i := 1; i <= 3; i++ {
		p.PollOnce(context.Background())
		mu.Lock()
		got := fmt.Sprint(seen)
		ok := reflect.DeepEqual(seen, map[string]int{"GET " + api.PathLimits: i})
		mu.Unlock()
		if !ok {
			t.Fatalf("after %d polls the backend saw %s, want only %d GET %s", i, got, i, api.PathLimits)
		}
	}
	if h := p.Health(addr); h.State != StateHealthy {
		t.Fatalf("state = %v, want healthy", h.State)
	}
}

// TestPollerLimitsDocuments: an answer carrying 10,000 tenants (~1.5 MB)
// is read whole and reads healthy; a 200 whose body is HTML is not a
// Limits document and reads dead.
func TestPollerLimitsDocuments(t *testing.T) {
	lim := api.Limits{BudgetBytes: 1 << 30, Workers: 8, Tenants: map[string]api.TenantLimits{}}
	for i := 0; i < 10000; i++ {
		lim.Tenants[fmt.Sprintf("climate-reanalysis-ingest-team-%05d", i)] = api.TenantLimits{
			Weight: 1.25, ShareBytes: 1073741824, InflightBytes: 167772160, Admitted: 123456789, Rejected: 1234567,
		}
	}
	big, err := json.Marshal(lim)
	if err != nil {
		t.Fatal(err)
	}
	if len(big) < 1<<20 {
		t.Fatalf("tenant document is %d bytes, want over 1 MiB", len(big))
	}
	serve := func(body []byte) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write(body)
		}))
		t.Cleanup(ts.Close)
		return strings.TrimPrefix(ts.URL, "http://")
	}
	bigAddr := serve(big)
	htmlAddr := serve([]byte("<!DOCTYPE html>\n<html><body><h1>200 OK</h1></body></html>\n"))
	// A long interval gives the probe a generous timeout (half of it):
	// the decode runs slowly under the race detector.
	p := NewPoller([]string{bigAddr, htmlAddr}, 20*time.Second, nil)
	p.PollOnce(context.Background())
	if h := p.Health(bigAddr); h.State != StateHealthy || len(h.Limits.Tenants) != 10000 {
		t.Errorf("large document: state %v with %d tenants, want healthy with 10000", h.State, len(h.Limits.Tenants))
	}
	if h := p.Health(htmlAddr); h.State != StateDead {
		t.Errorf("HTML 200: state %v, want dead", h.State)
	}
}
