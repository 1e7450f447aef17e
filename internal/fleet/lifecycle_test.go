package fleet

// Membership lifecycle, replication, and chaos tests: the fault-model
// contract. A fleet with R=2 must survive any single backend dying —
// abruptly, mid-traffic — with zero client-visible failures and zero
// lost digests, and live membership changes must move only the new
// node's fair share of keys.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/server"
	"repro/internal/store"
)

// newKillableSzd is newSzdWithStore exposing the server handle so tests
// can SIGKILL-equivalently drop the backend mid-traffic.
func newKillableSzd(t *testing.T) (string, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(server.Config{Store: st}).Handler())
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://"), ts
}

func putContainer(t *testing.T, backend, digest string, body []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut,
		"http://"+backend+api.PathContainerPrefix+digest, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAllClose(t, resp)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("direct PUT to %s: status %d", backend, resp.StatusCode)
	}
}

// hasContainer HEADs a backend's store directly (no router, no chaos).
func hasContainer(backend, digest string) bool {
	req, err := http.NewRequest(http.MethodHead,
		"http://"+backend+api.PathContainerPrefix+digest, nil)
	if err != nil {
		return false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusNoContent
}

// metricSum scrapes base/metrics and sums every sample of family.
func metricSum(t *testing.T, base, family string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := string(readAllClose(t, resp))
	var sum float64
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, family+"{") && !strings.HasPrefix(line, family+" ") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v); err == nil {
			sum += v
		}
	}
	return sum
}

func ringHas(rt *Router, node string) bool {
	ring, _ := rt.poller.view()
	return slices.Contains(ring.nodes, node)
}

// TestRouterSetBackendsLifecycle walks the two membership lifecycles:
// add -> joining -> in-ring (a node joins the ring only at its first
// healthy poll) and drain-then-remove (a removed node leaves the ring
// at once but stays polled as a repair source for the drain grace).
func TestRouterSetBackendsLifecycle(t *testing.T) {
	a, b := newSzd(t), newSzd(t)
	rt, _ := newRouter(t, Config{Backends: []string{a, b}, DrainGrace: 30 * time.Millisecond})
	ctx := context.Background()

	// Add a healthy node: pending until polled, in-ring after.
	c := newSzd(t)
	if err := rt.SetBackends([]string{a, b, c}); err != nil {
		t.Fatal(err)
	}
	if ringHas(rt, c) {
		t.Fatal("unpolled backend entered the ring immediately")
	}
	if got := rt.Backends(); len(got) != 3 {
		t.Fatalf("serving set %v, want 3 entries", got)
	}
	rt.poller.PollOnce(ctx)
	if !ringHas(rt, c) {
		t.Fatal("healthy backend not promoted into the ring")
	}

	// Add a node that never comes up: it reads dead, serves as a
	// last-resort candidate, but must not own keys.
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	dead := ln.Addr().String()
	ln.Close()
	if err := rt.SetBackends([]string{a, b, c, dead}); err != nil {
		t.Fatal(err)
	}
	rt.poller.PollOnce(ctx)
	if st := rt.poller.Health(dead).State; st != StateDead {
		t.Fatalf("unreachable new backend state %v, want dead", st)
	}
	if ringHas(rt, dead) {
		t.Fatal("unreachable backend entered the ring")
	}

	// Remove b: out of the ring now, polled until the drain grace ends.
	if err := rt.SetBackends([]string{a, c, dead}); err != nil {
		t.Fatal(err)
	}
	if ringHas(rt, b) {
		t.Fatal("removed backend still in the ring")
	}
	tracked := func(n string) bool {
		for _, x := range rt.poller.Backends() {
			if x == n {
				return true
			}
		}
		return false
	}
	if !tracked(b) {
		t.Fatal("draining backend dropped from the poller before its grace")
	}
	time.Sleep(40 * time.Millisecond)
	rt.poller.PollOnce(ctx)
	if tracked(b) {
		t.Fatal("leaving backend not forgotten after the drain grace")
	}

	// Validation mirrors New.
	if err := rt.SetBackends(nil); err == nil {
		t.Fatal("empty membership accepted")
	}
	if err := rt.SetBackends([]string{a, a}); err == nil {
		t.Fatal("duplicate membership accepted")
	}
}

// TestRouterMembershipChurnRace hammers the router with traffic while
// membership flaps, under -race in CI: the ring, the serving set, and
// the poller set all mutate behind the router's lock while the request
// path reads them.
func TestRouterMembershipChurnRace(t *testing.T) {
	a, b, c := newSzd(t), newSzd(t), newSzd(t)
	extra := newSzd(t)
	rt, ts := newRouter(t, Config{
		Backends:     []string{a, b, c},
		PollInterval: 10 * time.Millisecond,
		DrainGrace:   20 * time.Millisecond,
	})
	rt.Start()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + api.PathCodecs)
				if err != nil {
					t.Errorf("codecs during churn: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("codecs during churn: status %d", resp.StatusCode)
				}
			}
		}()
	}
	for i := 0; i < 15; i++ {
		if err := rt.SetBackends([]string{a, b, c, extra}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		if err := rt.SetBackends([]string{a, b, c}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	rt.Stop()
}

// TestRouterPeerFillUnderChaosReset is the fault-injection contract for
// the repair path: an owner 404 plus a connection reset from the first
// peer must degrade to the next peer, never to a client-visible error.
func TestRouterPeerFillUnderChaosReset(t *testing.T) {
	var resetHost atomic.Value
	resetHost.Store("")
	ch := chaos.NewRoundTripper(nil, chaos.Config{
		Seed:  42,
		Reset: 1,
		Match: func(r *http.Request) bool {
			h, _ := resetHost.Load().(string)
			return h != "" && r.URL.Host == h && strings.HasPrefix(r.URL.Path, api.PathContainerPrefix)
		},
	})
	backends := []string{newSzdWithStore(t), newSzdWithStore(t), newSzdWithStore(t)}
	rt, ts := newRouter(t, Config{Backends: backends, HTTPClient: &http.Client{Transport: ch}})

	raw := makeRaw(t, grid.Float32, 16, 8, 8)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 8, 8}}
	stream := localStream(t, "blocked", raw, p)
	digest := streamDigest(stream)

	// The container lives only on the two non-owners; every container
	// request to the first of them resets.
	seq := rt.ringSequence(digest, 3)
	putContainer(t, seq[1], digest, stream)
	putContainer(t, seq[2], digest, stream)
	resetHost.Store(seq[1])

	resp, err := http.Get(ts.URL + api.PathContainerPrefix + digest)
	if err != nil {
		t.Fatal(err)
	}
	got := readAllClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("digest read under peer reset: status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, stream) {
		t.Fatal("digest read under peer reset returned wrong bytes")
	}
	if ch.Injected().Resets == 0 {
		t.Fatal("chaos reset never fired; the test exercised nothing")
	}
	// The fill from the surviving peer repaired the owner.
	if !hasContainer(seq[0], digest) {
		t.Fatal("owner not repaired from the surviving peer")
	}
	if n := metricSum(t, ts.URL, "szrouter_peer_fills_total"); n == 0 {
		t.Fatal("peer fill not counted")
	}
}

// TestRouterReplicationFanout: with R=2 a container compressed through
// the router must land on the digest's ring owner AND its successor.
func TestRouterReplicationFanout(t *testing.T) {
	backends := []string{newSzdWithStore(t), newSzdWithStore(t), newSzdWithStore(t)}
	rt, ts := newRouter(t, Config{Backends: backends, Replication: 2})

	raw := makeRaw(t, grid.Float32, 16, 8, 8)
	_, digest := routedContainer(t, ts.URL, raw, "codec=blocked&abs=1e-3&dtype=f32&dims=16,8,8")

	targets := rt.ringSequence(digest, 2)
	if len(targets) != 2 {
		t.Fatalf("ring sequence %v, want 2 targets", targets)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if hasContainer(targets[0], digest) && hasContainer(targets[1], digest) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas not placed on %v within deadline", targets)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if n := metricSum(t, ts.URL, "szrouter_replication_writes_total"); n == 0 {
		t.Fatal("replication writes not counted")
	}
}

// TestRouterSweepRepairs: the anti-entropy sweep must find a container
// that lives only off-ring (here: on the one node outside the digest's
// R-set) and copy it to every ring target.
func TestRouterSweepRepairs(t *testing.T) {
	backends := []string{newSzdWithStore(t), newSzdWithStore(t), newSzdWithStore(t)}
	rt, ts := newRouter(t, Config{Backends: backends, Replication: 2, AntiEntropyInterval: -1})

	raw := makeRaw(t, grid.Float32, 16, 8, 8)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 8, 8}}
	stream := localStream(t, "blocked", raw, p)
	digest := streamDigest(stream)

	targets := rt.ringSequence(digest, 2)
	inTargets := map[string]bool{targets[0]: true, targets[1]: true}
	outsider := ""
	for _, b := range backends {
		if !inTargets[b] {
			outsider = b
		}
	}
	putContainer(t, outsider, digest, stream)

	rt.SweepOnce(context.Background())
	for _, tgt := range targets {
		if !hasContainer(tgt, digest) {
			t.Fatalf("sweep left %s without the container", tgt)
		}
	}
	if n := metricSum(t, ts.URL, "szrouter_replication_repairs_total"); n < 2 {
		t.Fatalf("repairs counted = %v, want >= 2", n)
	}
}

// makeRawVaried is makeRaw with a frequency knob so tests can mint
// distinct containers deterministically.
func makeRawVaried(t *testing.T, k int) []byte {
	t.Helper()
	a := grid.New(16, 8, 8)
	for i := range a.Data {
		a.Data[i] = float64(float32(math.Sin(float64(i) * 0.02 * float64(k+1))))
	}
	var raw bytes.Buffer
	if err := a.WriteRaw(&raw, grid.Float32); err != nil {
		t.Fatal(err)
	}
	return raw.Bytes()
}

// TestFleetChaosKillAndLiveAdd is the end-to-end fault drill from the
// issue: a 3-node fleet at R=2 takes uploads, then — mid-traffic —
// suffers injected connection resets on one node, a live add of a
// fourth, and the abrupt death and removal of another. The contract:
// zero client-visible failures, zero lost digests, and the live add
// moves only the new node's fair share of keys.
func TestFleetChaosKillAndLiveAdd(t *testing.T) {
	addrA, _ := newKillableSzd(t)
	addrB, _ := newKillableSzd(t)
	addrC, srvC := newKillableSzd(t)

	var armed atomic.Value
	armed.Store("")
	ch := chaos.NewRoundTripper(nil, chaos.Config{
		Seed:  7,
		Reset: 0.5,
		Match: func(r *http.Request) bool {
			h, _ := armed.Load().(string)
			// Health probes stay clean so the poller's picture tracks
			// real liveness, not injected noise.
			return h != "" && r.URL.Host == h && r.URL.Path != api.PathLimits && strings.HasPrefix(r.URL.Path, "/v1/")
		},
	})
	rt, ts := newRouter(t, Config{
		Backends:     []string{addrA, addrB, addrC},
		Replication:  2,
		PollInterval: 25 * time.Millisecond,
		DrainGrace:   150 * time.Millisecond,
		HTTPClient:   &http.Client{Transport: ch},
	})
	rt.Start()

	// Upload containers until every backend owns at least one digest —
	// the kill below must hit an owner to prove anything.
	digests := map[string][]byte{}
	owners := map[string]bool{}
	q := "codec=blocked&abs=1e-3&dtype=f32&dims=16,8,8"
	for k := 0; len(digests) < 4 || !(owners[addrA] && owners[addrB] && owners[addrC]); k++ {
		if k > 60 {
			t.Fatalf("owner coverage not reached after %d uploads (owners %v)", k, owners)
		}
		stream, digest := routedContainer(t, ts.URL, makeRawVaried(t, k), q)
		digests[digest] = stream
		owners[rt.ringOwner(digest)] = true
	}

	// Every digest fully replicated before the faults start.
	waitReplicas := func(deadline time.Duration) {
		t.Helper()
		end := time.Now().Add(deadline)
		for {
			missing := 0
			for d := range digests {
				for _, tgt := range rt.ringSequence(d, 2) {
					if !hasContainer(tgt, d) {
						missing++
					}
				}
			}
			if missing == 0 {
				return
			}
			if time.Now().After(end) {
				t.Fatalf("%d replicas still missing", missing)
			}
			rt.SweepOnce(context.Background())
			time.Sleep(50 * time.Millisecond)
		}
	}
	waitReplicas(10 * time.Second)

	// Background traffic for the rest of the test: every read must
	// return 200 with byte-exact content, whatever the fleet is doing.
	list := make([]string, 0, len(digests))
	for d := range digests {
		list = append(list, d)
	}
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	var failures, reads atomic.Int64
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			d := list[i%len(list)]
			resp, err := http.Get(ts.URL + api.PathContainerPrefix + d)
			if err != nil {
				failures.Add(1)
				continue
			}
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || rerr != nil || !bytes.Equal(body, digests[d]) {
				failures.Add(1)
			}
			reads.Add(1)
		}
	}()

	// Phase 1: connection resets against one live node. Failover and
	// peer data mean no read may fail.
	armed.Store(addrB)
	for i := 0; i < 40; i++ {
		d := list[i%len(list)]
		resp, err := http.Get(ts.URL + api.PathContainerPrefix + d)
		if err != nil {
			t.Fatalf("read %d under chaos: %v", i, err)
		}
		body := readAllClose(t, resp)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, digests[d]) {
			t.Fatalf("read %d under chaos: status %d", i, resp.StatusCode)
		}
	}
	armed.Store("")
	if ch.Injected().Resets == 0 {
		t.Fatal("chaos resets never fired during the armed window")
	}

	// Phase 2: live add. Only the new node's fair share of keys may
	// move, and every moved key must move TO the new node.
	const sampleN = 1200
	before := make([]string, sampleN)
	for i := range before {
		before[i] = rt.ringOwner(fmt.Sprintf("remap-sample-%d", i))
	}
	addrD, _ := newKillableSzd(t)
	if err := rt.SetBackends([]string{addrA, addrB, addrC, addrD}); err != nil {
		t.Fatal(err)
	}
	end := time.Now().Add(5 * time.Second)
	for !ringHas(rt, addrD) {
		if time.Now().After(end) {
			t.Fatal("added backend never promoted into the ring")
		}
		time.Sleep(20 * time.Millisecond)
	}
	moved := 0
	for i := range before {
		after := rt.ringOwner(fmt.Sprintf("remap-sample-%d", i))
		if after != before[i] {
			moved++
			if after != addrD {
				t.Fatalf("key %d moved to %s, not the new node — consistent hashing broken", i, after)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved to the new node")
	}
	if limit := sampleN * 3 / (2 * 4); moved > limit { // 1.5x fair share of N=4
		t.Fatalf("live add remapped %d/%d keys, want <= %d (~1.5/N)", moved, sampleN, limit)
	}

	// Phase 3: SIGKILL-style death of an owner. Reads of its digests
	// must be served by replicas (counted as replication failovers).
	srvC.Close()
	end = time.Now().Add(5 * time.Second)
	for metricSum(t, ts.URL, "szrouter_replication_failovers_total") == 0 {
		if time.Now().After(end) {
			t.Fatal("no replica served a dead owner's digest")
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Phase 4: remove the dead node; anti-entropy restores R=2 on the
	// new ring from the surviving copies.
	if err := rt.SetBackends([]string{addrA, addrB, addrD}); err != nil {
		t.Fatal(err)
	}
	waitReplicas(10 * time.Second)
	if n := metricSum(t, ts.URL, "szrouter_replication_repairs_total"); n == 0 {
		t.Fatal("anti-entropy repaired nothing after the kill")
	}

	close(stop)
	readerWG.Wait()
	if f := failures.Load(); f != 0 {
		t.Fatalf("%d client-visible failures during chaos (of %d reads)", f, reads.Load())
	}
	if reads.Load() == 0 {
		t.Fatal("background reader made no requests")
	}
	// Zero lost digests: every container still byte-exact.
	for d, want := range digests {
		resp, err := http.Get(ts.URL + api.PathContainerPrefix + d)
		if err != nil {
			t.Fatal(err)
		}
		got := readAllClose(t, resp)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("digest %s lost after churn (status %d)", d, resp.StatusCode)
		}
	}
	rt.Stop()
}

// restartableSzd is a stored szd that stops and starts again at its
// address on the same store directory, as a restarted process would.
type restartableSzd struct {
	t    *testing.T
	dir  string
	addr string
	srv  *http.Server
}

// newRestartableSzd starts one listening on addr ("127.0.0.1:0" picks a
// free port).
func newRestartableSzd(t *testing.T, addr string) *restartableSzd {
	t.Helper()
	s := &restartableSzd{t: t, dir: t.TempDir(), addr: addr}
	s.start()
	t.Cleanup(s.stop)
	return s
}

// start opens the store directory and listens at s.addr.
func (s *restartableSzd) start() {
	s.t.Helper()
	st, err := store.Open(s.dir, 0)
	if err != nil {
		s.t.Fatal(err)
	}
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		s.t.Fatalf("listening on %s: %v", s.addr, err)
	}
	s.addr = ln.Addr().String()
	s.srv = &http.Server{Handler: server.New(server.Config{Store: st}).Handler()}
	go s.srv.Serve(ln)
}

// stop kills the daemon: connections are refused until start.
func (s *restartableSzd) stop() { s.srv.Close() }

// TestRouterRecoverySweepsMissedReplica: at R=2 a replica copy that
// fails while its target is down lands once the target recovers, with
// no membership change and no periodic sweep, so the container
// survives its owner's later death. In one variant the router polls
// while the target is down; in the other it never does, and only the
// failed copy itself marks the target dead.
func TestRouterRecoverySweepsMissedReplica(t *testing.T) {
	for _, pollWhileDown := range []bool{true, false} {
		t.Run(fmt.Sprintf("pollWhileDown=%v", pollWhileDown), func(t *testing.T) {
			nodes := map[string]*restartableSzd{}
			var addrs []string
			for i := 0; i < 3; i++ {
				s := newRestartableSzd(t, "127.0.0.1:0")
				nodes[s.addr] = s
				addrs = append(addrs, s.addr)
			}
			rt, ts := newRouter(t, Config{Backends: addrs, Replication: 2})
			rt.Start()
			defer rt.Stop()

			raw := makeRaw(t, grid.Float32, 16, 8, 8)
			p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 8, 8}}
			stream := localStream(t, "blocked", raw, p)
			digest := streamDigest(stream)
			targets := rt.ringSequence(digest, 2)
			owner, second := nodes[targets[0]], nodes[targets[1]]

			second.stop()
			if pollWhileDown {
				rt.poller.PollOnce(context.Background())
			}
			req, err := http.NewRequest(http.MethodPut, ts.URL+api.PathContainerPrefix+digest, bytes.NewReader(stream))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if body := readAllClose(t, resp); resp.StatusCode != http.StatusNoContent {
				t.Fatalf("PUT through the router: status %d: %s", resp.StatusCode, body)
			}
			rt.replWG.Wait() // the fan-out copy to the stopped target has failed

			second.start()
			rt.poller.PollOnce(context.Background())
			for end := time.Now().Add(5 * time.Second); !hasContainer(second.addr, digest) && time.Now().Before(end); {
				time.Sleep(20 * time.Millisecond)
			}

			owner.stop()
			resp, err = http.Get(ts.URL + api.PathDecompress + "?" + api.QueryDigest + "=" + digest)
			if err != nil {
				t.Fatal(err)
			}
			if body := readAllClose(t, resp); resp.StatusCode != http.StatusOK {
				t.Fatalf("digest read after the owner died: status %d: %s", resp.StatusCode, body)
			}
		})
	}
}

// TestRouterStartRace: a backend that is down at the router's first
// poll owns no keys, and the router's /healthz answers 503. Once it
// listens, a request reaches it before any further poll, because
// candidates tries dead backends last instead of dropping them; the
// next poll puts it in the ring.
func TestRouterStartRace(t *testing.T) {
	addr := closedAddr(t)
	rt, ts := newRouter(t, Config{Backends: []string{addr}})
	if ringHas(rt, addr) {
		t.Fatal("a backend down at the first poll is in the ring")
	}
	healthz := func() int {
		t.Helper()
		resp, err := http.Get(ts.URL + api.PathHealthz)
		if err != nil {
			t.Fatal(err)
		}
		readAllClose(t, resp)
		return resp.StatusCode
	}
	if code := healthz(); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d before any backend answered, want 503", code)
	}

	newRestartableSzd(t, addr)
	resp := post(t, ts.URL+api.PathCompress+"?codec=gzip", []byte("the first request after the backend came up"))
	if body := readAllClose(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("compress before the next poll: status %d: %s", resp.StatusCode, body)
	}
	rt.poller.PollOnce(context.Background())
	if !ringHas(rt, addr) {
		t.Fatal("backend not in the ring after answering a poll")
	}
	if code := healthz(); code != http.StatusOK {
		t.Fatalf("healthz = %d with a healthy backend, want 200", code)
	}
}

// TestRouterSweepLargeListing: a backend's container listing past 8 MiB
// is read whole. The fake lists 130,000 digest-length entries that are
// not valid digests, which the sweep skips without a copy attempt each,
// and then one container it really serves: the sweep must copy that one
// to the real backend.
func TestRouterSweepLargeListing(t *testing.T) {
	raw := makeRaw(t, grid.Float32, 16, 8, 8)
	stream := localStream(t, "blocked", raw, codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 8, 8}})
	digest := streamDigest(stream)
	var listing bytes.Buffer
	listing.WriteString(`{"digests":[`)
	for i := 0; i < 130000; i++ {
		fmt.Fprintf(&listing, `"X%063x",`, i)
	}
	fmt.Fprintf(&listing, `"%s"]}`, digest)
	if listing.Len() != 8710080 {
		t.Fatalf("listing is %d bytes, want 8,710,080", listing.Len())
	}
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case api.PathLimits:
			io.WriteString(w, "{}\n")
		case api.PathContainers:
			w.Write(listing.Bytes())
		case api.PathContainerPrefix + digest:
			w.Write(stream)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(fake.Close)
	szd := newSzdWithStore(t)
	rt, _ := newRouter(t, Config{
		Backends:            []string{strings.TrimPrefix(fake.URL, "http://"), szd},
		Replication:         2,
		AntiEntropyInterval: -1,
	})
	rt.SweepOnce(context.Background())
	if !hasContainer(szd, digest) {
		t.Fatal("the sweep did not copy the container listed past 8 MiB")
	}
}
