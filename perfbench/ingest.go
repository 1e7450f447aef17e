package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blocked"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/metrics"
)

// replicaWait bounds how long a run waits for the router's background
// copies after its window; a container still short of R copies then
// counts as missing.
const replicaWait = 30 * time.Second

// newTransport is a fresh client-side connection pool. maxConns > 0
// caps connections per host; tr wraps it for tracing.
func newTransport(tr *tracer, maxConns int) (http.RoundTripper, *http.Transport) {
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxConnsPerHost = maxConns
	if maxConns > 0 {
		base.MaxIdleConnsPerHost = maxConns
	}
	if tr == nil {
		return base, base
	}
	return &clientTransport{t: tr, base: base}, base
}

// newClient is a client of the router that never retries: a refused
// request is a failed operation, not a delay.
func newClient(addr string, rt http.RoundTripper) (*client.Client, error) {
	return client.New(addr,
		client.WithHTTPClient(&http.Client{Transport: rt}),
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1}))
}

// ingest streams raw (with sample pos replaced by v when pos >= 0)
// through a client writer and returns the container and its digest. g,
// when traced, marks the calls into the client.
func ingest(ctx context.Context, cl *client.Client, dst *bytes.Buffer, raw []byte, pos int, v float32, scratch []byte, g *gaps) (string, error) {
	dst.Reset()
	g.enter()
	w, err := cl.NewWriter(ctx, dst, codecName, params(0))
	g.leave()
	if err != nil {
		return "", err
	}
	if err := writeChunks(writerFor(w, g), raw, pos, v, scratch); err != nil {
		w.(interface{ Abort() error }).Abort()
		return "", err
	}
	g.enter()
	defer g.leave()
	if err := w.Close(); err != nil {
		return "", err
	}
	return w.(client.Digester).Digest(), nil
}

type ingestState struct {
	fl      *fleetEnv
	pool    *http.Transport
	clients []*client.Client
	fields  []*field
	base    [][]byte         // each field's container, compressed locally
	ix      []*blocked.Index // and its slab index
}

func (st *ingestState) stop() {
	if st.fl != nil {
		st.fl.stop()
	}
	if st.pool != nil {
		st.pool.CloseIdleConnections()
	}
}

// setupIngest starts the fleet and one client per producer, compresses
// every field locally as the reference, and ingests each field once
// through the router: the remote container must equal the local one.
func setupIngest(e *env, i int) (*ingestState, error) {
	st := &ingestState{fields: makeFields(e.seed, localFields)}
	fl, err := startFleet(filepath.Join(e.dir, fmt.Sprintf("setup%d", i)), e.tr)
	if err != nil {
		return nil, err
	}
	st.fl = fl
	rt, pool := newTransport(e.tr, 0)
	st.pool = pool
	for p := 0; p < e.nproc; p++ {
		cl, err := newClient(fl.addr, rt)
		if err != nil {
			st.stop()
			return nil, err
		}
		st.clients = append(st.clients, cl)
	}
	dec := make([]byte, rawBytes)
	for k, f := range st.fields {
		var out bytes.Buffer
		if err := compressInto(&out, f.raw, params(e.nproc), nil); err != nil {
			st.stop()
			return nil, err
		}
		if err := decompressLocal(out.Bytes(), dec, nil); err != nil {
			st.stop()
			return nil, err
		}
		if m := boundErr(dec, f.arr.Data, nil); m > absBound {
			st.stop()
			return nil, fmt.Errorf("%w: field %d decodes with max |err| %g", errSetup, k, m)
		}
		ix, err := blocked.Inspect(out.Bytes())
		if err != nil {
			st.stop()
			return nil, err
		}
		st.base = append(st.base, out.Bytes())
		st.ix = append(st.ix, ix)
	}
	var mu sync.Mutex
	var firstErr error
	digests := make([]string, len(st.fields))
	parallel(len(st.fields), func(k int) {
		var got bytes.Buffer
		d, err := ingest(context.Background(), st.clients[k%len(st.clients)], &got, st.fields[k].raw, -1, 0, nil, nil)
		if err == nil && !bytes.Equal(got.Bytes(), st.base[k]) {
			err = fmt.Errorf("%w: field %d: the routed container differs from the local one", errSetup, k)
		}
		digests[k] = d
		if err != nil {
			mu.Lock()
			firstErr = err
			mu.Unlock()
		}
	})
	if firstErr == nil {
		// Let the warm-up copies land before the window's counters start.
		var missing []string
		if missing, firstErr = fl.awaitReplicas(context.Background(), digests, time.Now().Add(replicaWait)); firstErr == nil && len(missing) > 0 {
			firstErr = fmt.Errorf("%w: %d reference containers never reached both backends", errSetup, len(missing))
		}
	}
	if firstErr != nil {
		st.stop()
		return nil, firstErr
	}
	return st, nil
}

// ack is an acknowledged ingest awaiting its post-window checks; its
// latency counts only once they pass.
type ack struct {
	digest string
	field  int
	slab   int    // the slab holding the changed sample
	stream []byte // that slab's core stream as the fleet returned it
	pos    int
	v      float32
	lat    time.Duration
	traced bool
}

// change picks the sample op i changes and its new value: positions
// walk the field by a multiplier coprime with its length, so no two of
// the first nSamples operations on a field touch the same sample, and
// the value moves far past the bound so every container is new.
func change(f *field, i int64) (int, float32) {
	pos := int((uint64(i) * 2654435761) % nSamples)
	return pos, float32(f.arr.Data[pos] + 0.25 + float64(i%97)*0.01)
}

// runIngest is fleet-ingest: nproc producers in a closed loop, each
// streaming a field with one changed sample through the router.
func runIngest(e *env) (*outcome, error) {
	st, setupS, err := repeatSetup(func(i int) (*ingestState, error) { return setupIngest(e, i) }, (*ingestState).stop)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	ctx := context.Background()
	before, err := st.fl.counters(ctx)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	var lat, tracedLat, plainLat samples
	var mu sync.Mutex
	var acks []ack
	var packed atomic.Int64
	var next atomic.Int64
	mem := sampleMemory()
	start := time.Now()
	deadline := start.Add(e.window)
	parallel(e.nproc, func(p int) {
		var buf bytes.Buffer
		scratch := make([]byte, writeChunk)
		for time.Now().Before(deadline) {
			i := next.Add(1) - 1
			k := int(i % localFields)
			f := st.fields[k]
			pos, v := change(f, i)
			octx := ctx
			traced := e.traced(i)
			var o *op
			var g *gaps
			tr := e.tr
			if traced {
				o = &op{traced: true, root: tr.id()}
				o.call.Store(tr.id())
				octx = withOp(ctx, o)
				g = tr.gaps(o.root)
			}
			t0 := time.Now()
			digest, err := ingest(octx, st.clients[p], &buf, f.raw, pos, v, scratch, g)
			t1 := time.Now()
			if traced {
				tr.add(span{ID: o.root, Name: "op", Start: tr.at(t0), End: tr.at(t1)})
				tr.add(span{ID: o.call.Load(), Parent: o.root, Name: "client.call", Start: tr.at(g.first), End: tr.at(g.last)})
			}
			if err != nil {
				e.chk.failErr("ingest", err)
				continue
			}
			a, ok := checkAck(e.chk, st, buf.Bytes(), digest, k, pos, v)
			if !ok {
				continue
			}
			a.lat, a.traced = t1.Sub(t0), traced
			packed.Add(int64(buf.Len()))
			mu.Lock()
			acks = append(acks, a)
			mu.Unlock()
		}
	})
	windowEnd := time.Now()
	out.mem = mem.end()
	out.e2e["rss_mb"] = out.mem.P50RSS
	out.e2e["setup_s"] = setupS

	// After the window: every acknowledged container must reach both
	// backends and decode within the bound before its latency counts.
	digests := make([]string, len(acks))
	for i, a := range acks {
		digests[i] = a.digest
	}
	missing, err := st.fl.awaitReplicas(ctx, digests, time.Now().Add(replicaWait))
	if err != nil {
		return nil, err
	}
	drain := time.Since(windowEnd)
	short := map[string]bool{}
	for _, d := range missing {
		short[d] = true
	}
	for _, a := range acks {
		if short[a.digest] {
			e.chk.fail(kindMissing, "container %s is not on every backend after %s", a.digest[:12], replicaWait)
			continue
		}
		if !verifyAck(e.chk, st, a) {
			continue
		}
		lat.add(a.lat)
		if e.tr != nil {
			if a.traced {
				tracedLat.add(a.lat)
			} else {
				plainLat.add(a.lat)
			}
		}
	}
	after, err := st.fl.counters(ctx)
	if err != nil {
		return nil, err
	}
	d := after.delta(before)

	ms := lat.values()
	cf := float64(len(acks)) * rawBytes / float64(packed.Load())
	out.lat = ms
	out.e2e["compression_factor"] = cf
	out.e2e["p50_ms"] = median(ms)
	if !supports(len(ms), 0.9) {
		out.notes = append(out.notes, fmt.Sprintf("only %d ingests: p90 has fewer than ten samples beyond it", len(ms)))
	}
	out.named = []namedValue{
		{"ingest_p50_ms", median(ms), "ms"},
		{"ingest_p90_ms", percentile(ms, 0.9), "ms"},
		{"ingest_mb_s", float64(len(ms)) * rawBytes / 1e6 / windowEnd.Sub(start).Seconds(), "MB/s"},
		{"compression_factor", cf, "x"},
		{"ops", float64(len(ms)), "count"},
	}
	if e.tr != nil {
		fleetLayers(d, out.layers)
		out.layers["fleet.replication_writes_per_container"] = ratio(d["szrouter_replication_writes_total"], float64(len(acks)))
		out.layers["fleet.replication_drain_s"] = drain.Seconds()
		out.layers["store.bytes_per_raw_byte"] = ratio(d["szd_store_bytes"], float64(len(acks))*rawBytes)
		out.layers["trace.overhead_ratio"] = median(tracedLat.values())/median(plainLat.values()) - 1
		if err := probeInto(e, st.fields, out.layers); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkAck runs the cheap checks right after an ingest: the digest names
// the bytes, the container's CRC and index hold, and every slab but the
// changed one is byte-identical to the verified local container. The
// changed slab's stream is kept for decoding after the window.
func checkAck(chk *checker, st *ingestState, container []byte, digest string, k, pos int, v float32) (ack, bool) {
	if digest == "" {
		chk.fail(kindMissing, "ingest acknowledged without a digest")
		return ack{}, false
	}
	sum := sha256.Sum256(container)
	if hex.EncodeToString(sum[:]) != digest {
		chk.fail(kindWrong, "digest %s does not name the %d returned bytes", digest[:12], len(container))
		return ack{}, false
	}
	ix, err := blocked.Inspect(container)
	if err != nil {
		chk.fail(kindWrong, "container %s: %v", digest[:12], err)
		return ack{}, false
	}
	base, bix := st.base[k], st.ix[k]
	changed := pos / (slabRows * ny * nx)
	if ix.NumSlabs() != bix.NumSlabs() {
		chk.fail(kindWrong, "container %s has %d slabs, want %d", digest[:12], ix.NumSlabs(), bix.NumSlabs())
		return ack{}, false
	}
	a := ack{digest: digest, field: k, slab: changed, pos: pos, v: v}
	for s := 0; s < ix.NumSlabs(); s++ {
		lo, hi, _ := ix.SlabExtent(s, s)
		if s == changed {
			a.stream = append([]byte(nil), container[lo:hi]...)
			continue
		}
		blo, bhi, _ := bix.SlabExtent(s, s)
		if !bytes.Equal(container[lo:hi], base[blo:bhi]) {
			chk.fail(kindWrong, "container %s: unchanged slab %d differs from the local container", digest[:12], s)
			return ack{}, false
		}
	}
	return a, true
}

// verifyAck decodes the changed slab and checks it against the changed
// input: with the other slabs byte-identical to a container verified at
// set-up, the whole container then decodes within the bound.
func verifyAck(chk *checker, st *ingestState, a ack) bool {
	arr, _, err := core.Decompress(a.stream)
	if err != nil {
		chk.fail(kindWrong, "container %s slab %d: %v", a.digest[:12], a.slab, err)
		return false
	}
	f := st.fields[a.field]
	plane := slabRows * ny * nx
	ref := append([]float64(nil), f.arr.Data[a.slab*plane:(a.slab+1)*plane]...)
	ref[a.pos-a.slab*plane] = float64(a.v)
	if len(arr.Data) != len(ref) {
		chk.fail(kindWrong, "container %s slab %d decodes to %d samples, want %d", a.digest[:12], a.slab, len(arr.Data), len(ref))
		return false
	}
	if m := metrics.MaxAbsError(arr.Data, ref); m > absBound {
		chk.fail(kindWrong, "container %s slab %d: max |err| %g exceeds the bound", a.digest[:12], a.slab, m)
		return false
	}
	chk.pass()
	return true
}
