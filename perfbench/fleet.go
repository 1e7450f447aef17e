package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/api"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

// The in-process fleet is assembled the way cmd/szd and cmd/szrouter
// assemble theirs with default flags, plus -store-dir on every backend
// and -replication 2 on the router. Each tier listens on its own
// loopback port, so every hop is real HTTP.
const (
	backendCount   = 2
	replication    = 2
	storeBytes     = 4 << 30 // szd -store-bytes default
	qosInterval    = time.Second
	readHeaderWait = 10 * time.Second
	idleTimeout    = 2 * time.Minute
)

// listener is one tier's HTTP server; close stops it and waits for its
// serve loop to return.
type listener struct {
	addr string
	hs   *http.Server
	done chan struct{}
}

func (l *listener) close() {
	l.hs.Close()
	<-l.done
}

type backend struct {
	*listener
	stopQoS func()
}

type fleetEnv struct {
	backends []*backend
	router   *fleet.Router
	front    *listener
	addr     string // router address
	plain    *http.Client
}

// serve starts h on a fresh loopback listener.
func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		addr: ln.Addr().String(),
		hs: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: readHeaderWait,
			IdleTimeout:       idleTimeout,
			ErrorLog:          log.New(io.Discard, "", 0),
		},
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln)
	}()
	return l, nil
}

// startFleet brings up the backends and the router. With tr set, the
// router's and backends' handlers and the router's backend transport are
// wrapped for tracing.
func startFleet(dir string, tr *tracer) (*fleetEnv, error) {
	f := &fleetEnv{plain: &http.Client{Timeout: 30 * time.Second}}
	var addrs []string
	for i := 0; i < backendCount; i++ {
		st, err := store.Open(filepath.Join(dir, fmt.Sprintf("store%d", i)), storeBytes)
		if err != nil {
			f.stop()
			return nil, err
		}
		s := server.New(server.Config{Store: st})
		var h http.Handler = s.Handler()
		if tr != nil {
			h = &hopHandler{t: tr, h: h}
		}
		l, err := serve(h)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, &backend{listener: l, stopQoS: s.StartQoS(qosInterval)})
		addrs = append(addrs, l.addr)
	}
	hc := &http.Client{}
	if tr != nil {
		hc.Transport = &backendTransport{t: tr, base: http.DefaultTransport}
	}
	rt, err := fleet.New(fleet.Config{Backends: addrs, Replication: replication, HTTPClient: hc})
	if err != nil {
		f.stop()
		return nil, err
	}
	rt.Start()
	f.router = rt
	var h http.Handler = rt.Handler()
	if tr != nil {
		h = &hopHandler{t: tr, h: h, router: true}
	}
	if f.front, err = serve(h); err != nil {
		f.stop()
		return nil, err
	}
	f.addr = f.front.addr
	return f, nil
}

// stop shuts every tier down and waits for the router's background
// copies.
func (f *fleetEnv) stop() {
	if f.front != nil {
		f.front.close()
	}
	if f.router != nil {
		f.router.Stop()
	}
	for _, b := range f.backends {
		b.close()
		b.stopQoS()
	}
	f.plain.CloseIdleConnections()
}

// scrape parses one tier's /metrics.
func (f *fleetEnv) scrape(ctx context.Context, addr string) (*obs.Exposition, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+api.PathMetrics, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.plain.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: %s", addr, resp.Status)
	}
	return obs.ParseExposition(string(body))
}

// counters is a snapshot of the fleet's own counters: the router's
// families plus every backend's, summed over labels and backends.
type counters map[string]float64

var scraped = []string{
	"szrouter_cache_hits_total", "szrouter_cache_misses_total", "szrouter_cache_evictions_total",
	"szrouter_cache_hit_bytes_total", "szrouter_coalesced_total", "szrouter_peer_fills_total",
	"szrouter_failovers_total",
	"szrouter_replication_writes_total", "szrouter_replication_repairs_total",
	"szrouter_replication_failovers_total",
	"szd_store_hits_total", "szd_store_misses_total", "szd_store_evictions_total", "szd_store_bytes",
	"szd_qos_sheds_total", "szd_requests_total",
}

func (f *fleetEnv) counters(ctx context.Context) (counters, error) {
	c := counters{}
	addrs := []string{f.addr}
	for _, b := range f.backends {
		addrs = append(addrs, b.addr)
	}
	for _, addr := range addrs {
		exp, err := f.scrape(ctx, addr)
		if err != nil {
			return nil, err
		}
		for _, s := range exp.Samples {
			c[s.Name] += s.Value
		}
	}
	out := counters{}
	for _, name := range scraped {
		out[name] = c[name]
	}
	return out, nil
}

func (c counters) delta(before counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// holds asks one backend whether its store holds digest: a container
// HEAD answers 204 when it does.
func (f *fleetEnv) holds(ctx context.Context, addr, digest string) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, "http://"+addr+api.PathContainerPrefix+digest, nil)
	if err != nil {
		return false, err
	}
	resp, err := f.plain.Do(req)
	if err != nil {
		return false, err
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusNoContent, nil
}

// awaitReplicas polls until every digest is on every backend or the
// deadline passes, and returns the digests still missing somewhere.
func (f *fleetEnv) awaitReplicas(ctx context.Context, digests []string, deadline time.Time) ([]string, error) {
	pending := append([]string(nil), digests...)
	for {
		var still []string
		for _, d := range pending {
			for _, b := range f.backends {
				ok, err := f.holds(ctx, b.addr, d)
				if err != nil {
					return nil, err
				}
				if !ok {
					still = append(still, d)
					break
				}
			}
		}
		pending = still
		if len(pending) == 0 || time.Now().After(deadline) {
			return pending, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}
