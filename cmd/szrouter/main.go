// Command szrouter fronts a fleet of szd daemons: it spreads
// /v1/compress, /v1/decompress, /v1/inspect, and the slab range
// endpoints across the backends by rendezvous hashing on stream
// identity, and fails over to the next node in the key's order when a
// backend sheds (429), drains (503), or is unreachable. A body too large
// to buffer streams in one attempt: a container PUT to its digest's
// owner, any other stream to a rotating pick among the nodes known to
// answer. It learns each backend's health and load from one GET
// /v1/limits per -poll interval.
//
//	szrouter -addr :7070 -backends host1:7071,host2:7071,host3:7071
//
// Clients need no changes: `sz -remote <router>` and the Go client work
// against the router exactly as against a single daemon; backend
// rejections (including Retry-After) are relayed unchanged when the
// whole fleet is saturated. Tenant identity resolves at this edge: the
// X-Sz-Api-Key header is validated and mapped to its tenant before any
// backend work (malformed keys are 400 bad_tenant envelopes here),
// inbound X-Sz-Tenant spoofs are stripped, per-tenant request counts
// are exported as szrouter_tenant_requests_total, and GET /v1/limits
// lists the healthy backends' QoS state as of their last poll. The full
// wire contract lives in internal/api and API.md.
//
// Fleet robustness:
//
//   - -membership-file names a watched backend list (one address per
//     line, '#' comments); edits apply live — on SIGHUP or the mtime
//     poll — through the add → joining → in-ring and drain-then-remove
//     lifecycles. -backends is then only the seed used when the file
//     does not exist yet. Start-up backends join the same way: one that
//     is down at start owns no keys until it answers a poll, and
//     /healthz answers 503 until some backend has.
//   - -replication R copies every validated container to its digest's
//     ring owner and R-1 successors, and digest reads fail over from
//     the owner through the replicas, so any single backend can die
//     without data loss. An anti-entropy sweep re-replicates after
//     membership changes and whenever a backend turns healthy (at
//     start, on a join, on a recovery).
//   - -tls-cert/-tls-key/-tls-client-ca serve the client-facing
//     listener over TLS (optionally mTLS); -backend-ca/-backend-cert/
//     -backend-key dial the backends over TLS with a client
//     certificate (backend addresses must then be https:// URLs).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on the DefaultServeMux, served only via -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/membership"
	"repro/internal/tlsconf"
)

// options carries the parsed flags into run.
type options struct {
	addr           string
	backends       string
	membershipFile string
	memberPoll     time.Duration
	poll           time.Duration
	replication    int
	drainGrace     time.Duration
	antiEntropy    time.Duration
	bufferLimit    int
	cacheBytes     int64
	slowMS         int64
	traceRing      int

	tlsCert, tlsKey, tlsClientCA       string
	backendCA, backendCert, backendKey string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":7070", "listen address")
	flag.StringVar(&o.backends, "backends", "", "comma-separated szd backends (host:port or URLs); required unless -membership-file exists")
	flag.StringVar(&o.membershipFile, "membership-file", "", "watched backend list (one address per line, '#' comments); edits apply live on SIGHUP or the poll; empty = static -backends")
	flag.DurationVar(&o.memberPoll, "membership-poll", 2*time.Second, "membership-file mtime poll cadence (<= 0 disables polling; SIGHUP still reloads)")
	flag.DurationVar(&o.poll, "poll", 2*time.Second, "health-poll interval")
	flag.IntVar(&o.replication, "replication", 1, "container replication factor R: ring owner plus R-1 successors hold every validated container (1 = owner only)")
	flag.DurationVar(&o.drainGrace, "drain-grace", 0, "how long a removed backend lingers as a drain/repair source (0 = 10s)")
	flag.DurationVar(&o.antiEntropy, "anti-entropy", 0, "periodic anti-entropy sweep cadence (0 = sweep only on membership changes and when a backend turns healthy, < 0 disables)")
	flag.IntVar(&o.bufferLimit, "buffer-limit", 0, "replayable-body cap in bytes (0 = 4 MiB)")
	flag.Int64Var(&o.cacheBytes, "cache-bytes", 0, "response-cache budget for decode endpoints; one response is cached up to a quarter of it (0 = 64 MiB)")
	flag.Int64Var(&o.slowMS, "slow-ms", 0, "log requests slower than this many milliseconds with their stage breakdown (0 = disabled)")
	flag.IntVar(&o.traceRing, "trace-ring", 0, "finished traces retained for /debug/traces (0 = 256)")
	flag.StringVar(&o.tlsCert, "tls-cert", "", "serve TLS with this PEM certificate (requires -tls-key)")
	flag.StringVar(&o.tlsKey, "tls-key", "", "PEM private key for -tls-cert")
	flag.StringVar(&o.tlsClientCA, "tls-client-ca", "", "require and verify client certificates signed by this PEM CA (mTLS); empty = no client certs")
	flag.StringVar(&o.backendCA, "backend-ca", "", "PEM CA anchoring backend server verification; setting any -backend-* flag dials backends over TLS")
	flag.StringVar(&o.backendCert, "backend-cert", "", "PEM client certificate presented to mTLS backends (requires -backend-key)")
	flag.StringVar(&o.backendKey, "backend-key", "", "PEM private key for -backend-cert")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty = disabled")
	flag.Parse()
	servePprof(*pprofAddr)
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "szrouter:", err)
		os.Exit(1)
	}
}

// servePprof exposes the pprof handlers on their own listener when
// enabled; the routing mux serves only the in-memory trace ring at
// /debug/traces, never the pprof handlers.
func servePprof(addr string) {
	if addr == "" {
		return
	}
	go func() {
		log.Printf("szrouter: pprof listening on %s", addr)
		if err := http.ListenAndServe(addr, nil); err != nil {
			log.Printf("szrouter: pprof server: %v", err)
		}
	}()
}

// backendClient builds the proxy HTTP client: plain when no -backend-*
// flag is set, TLS (with an optional client certificate for mTLS
// backends) otherwise.
func backendClient(o options) (*http.Client, error) {
	if o.backendCA == "" && o.backendCert == "" && o.backendKey == "" {
		return &http.Client{}, nil
	}
	cfg, err := tlsconf.Client(o.backendCA, o.backendCert, o.backendKey, "")
	if err != nil {
		return nil, err
	}
	return &http.Client{Transport: &http.Transport{TLSClientConfig: cfg}}, nil
}

func run(o options) error {
	// Membership edits flow file -> watcher -> router. The watcher fires
	// only on real set changes; a bad edit (empty file, duplicates) is
	// logged and the previous membership keeps serving. rt is assigned
	// before the watcher starts, so the nil check only covers the
	// construction window.
	var rt *fleet.Router
	watcher, err := membership.NewWatcher(membership.Config{
		Path:     o.membershipFile,
		Seed:     membership.ParseList(o.backends),
		Interval: o.memberPoll,
		OnChange: func(nodes []string) {
			if rt == nil {
				return
			}
			if err := rt.SetBackends(nodes); err != nil {
				log.Printf("szrouter: membership change rejected: %v", err)
				return
			}
			log.Printf("szrouter: membership now %v", nodes)
		},
	})
	if err != nil {
		return err
	}
	hc, err := backendClient(o)
	if err != nil {
		return err
	}
	var listenerTLS = func() (ok bool, err error) {
		if o.tlsCert == "" && o.tlsKey == "" {
			if o.tlsClientCA != "" {
				return false, errors.New("-tls-client-ca requires -tls-cert and -tls-key")
			}
			return false, nil
		}
		if o.tlsCert == "" || o.tlsKey == "" {
			return false, errors.New("-tls-cert and -tls-key must both be set")
		}
		return true, nil
	}
	serveTLS, err := listenerTLS()
	if err != nil {
		return err
	}

	rt, err = fleet.New(fleet.Config{
		Backends:            watcher.Nodes(),
		Replication:         o.replication,
		DrainGrace:          o.drainGrace,
		AntiEntropyInterval: o.antiEntropy,
		BufferLimit:         o.bufferLimit,
		PollInterval:        o.poll,
		HTTPClient:          hc,
		CacheBytes:          o.cacheBytes,
		SlowThreshold:       time.Duration(o.slowMS) * time.Millisecond,
		TraceRingSize:       o.traceRing,
	})
	if err != nil {
		return err
	}
	watcher.Start()
	defer watcher.Stop()
	rt.Start()
	defer rt.Stop()

	hs := &http.Server{
		Addr:              o.addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          log.New(os.Stderr, "szrouter: ", log.LstdFlags),
	}
	if serveTLS {
		if hs.TLSConfig, err = tlsconf.Server(o.tlsCert, o.tlsKey, o.tlsClientCA); err != nil {
			return err
		}
	}
	errc := make(chan error, 1)
	go func() {
		if serveTLS {
			log.Printf("szrouter: listening on %s (tls), backends %v", o.addr, watcher.Nodes())
			errc <- hs.ListenAndServeTLS("", "")
			return
		}
		log.Printf("szrouter: listening on %s, backends %v", o.addr, watcher.Nodes())
		errc <- hs.ListenAndServe()
	}()

	hupc := make(chan os.Signal, 1)
	signal.Notify(hupc, syscall.SIGHUP)
	go func() {
		for range hupc {
			log.Printf("szrouter: SIGHUP: reloading membership")
			if err := watcher.Reload(); err != nil {
				log.Printf("szrouter: membership reload: %v", err)
			}
		}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("szrouter: %v: shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown incomplete: %w", err)
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		log.Printf("szrouter: drained cleanly")
		return nil
	}
}
