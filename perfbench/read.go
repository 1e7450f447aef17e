package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/codec"
)

const (
	corpusFields = 8  // 40 slabs
	analysts     = 16 // each its own client, so its own revalidation cache
	zipfS        = 1.1
	// readRate is the fleet-read offered load: about half the closed-loop
	// capacity measured with --capacity on a 2-core host (see README.md).
	readRate = 60.0
	// lagLimitMS invalidates a run whose generator started its p99
	// request later than this after its due time: about three times the
	// ~16 ms of scheduling jitter a 2-core host shows at this load.
	lagLimitMS = 50.0
	// readGrace bounds how long requests still in flight at the end of
	// the window may take before they count as failed.
	readGrace = 60 * time.Second
)

type readKind int

const (
	readExtent readKind = iota // ReadSlabExtent + Decode, 60%
	readRaw                    // ReadSlabAt, 30%
	readField                  // whole-field DecompressAt, 10%
)

func (k readKind) String() string {
	return [...]string{"extent", "raw", "field"}[k]
}

// request is one planned read. The plan is drawn from the workload seed
// before the window opens, so a seed fixes the request sequence.
type request struct {
	at      time.Duration // due time from the window start
	analyst int
	slab    int // global slab index, field = slab / slabsPer
	kind    readKind
}

// planSeed fixes the traffic every fleet-read run replays; --seed varies
// the corpus. Under the router's Accept-blind cache key (README.md), the
// failure and raw-fallback shares hinge on which request kind first
// touches each hot slab, so a per-seed plan would move slab_p50 by ~12%
// between seeds on that coin flip alone; one plan keeps the defect's
// share fixed instead of letting it swamp the latency signal.
const planSeed = 1

// plan draws Poisson arrivals at rate for window, each picking a slab by
// Zipf(s) over a seeded ranking of the 40 slabs, an analyst uniformly,
// and the 60/30/10 request mix.
func plan(seed int64, rate float64, window time.Duration) []request {
	rng := rand.New(rand.NewSource(seed))
	rank := rng.Perm(corpusFields * slabsPer)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(rank)-1))
	var out []request
	var at time.Duration
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= window {
			return out
		}
		rq := request{at: at, analyst: rng.Intn(analysts), slab: rank[zipf.Uint64()]}
		switch u := rng.Float64(); {
		case u < 0.6:
			rq.kind = readExtent
		case u < 0.9:
			rq.kind = readRaw
		default:
			rq.kind = readField
		}
		out = append(out, rq)
	}
}

type readState struct {
	fl         *fleetEnv
	pool       *http.Transport
	clients    []*client.Client
	digests    []string
	ref        [][]byte // local decode of each stored container
	containers [][]byte
}

func (st *readState) stop() {
	if st.fl != nil {
		st.fl.stop()
	}
	if st.pool != nil {
		st.pool.CloseIdleConnections()
	}
}

// setupRead ingests the corpus through the router, decodes each returned
// container locally as the reference every read is compared with, and
// waits until both backends hold every container.
func setupRead(e *env, i int) (*readState, error) {
	fields := makeFields(e.seed, corpusFields)
	fl, err := startFleet(filepath.Join(e.dir, fmt.Sprintf("setup%d", i)), e.tr)
	if err != nil {
		return nil, err
	}
	st := &readState{
		fl:         fl,
		digests:    make([]string, corpusFields),
		ref:        make([][]byte, corpusFields),
		containers: make([][]byte, corpusFields),
	}
	loader, pool := newTransport(nil, 0)
	defer pool.CloseIdleConnections()
	cl, err := newClient(fl.addr, loader)
	if err != nil {
		st.stop()
		return nil, err
	}
	var errs [corpusFields]error
	var next atomic.Int64
	parallel(e.nproc, func(int) {
		var buf bytes.Buffer
		for k := int(next.Add(1) - 1); k < corpusFields; k = int(next.Add(1) - 1) {
			errs[k] = st.load(cl, &buf, fields[k], k)
		}
	})
	if err := errors.Join(errs[:]...); err != nil {
		st.stop()
		return nil, err
	}
	missing, err := fl.awaitReplicas(context.Background(), st.digests, time.Now().Add(replicaWait))
	if err == nil && len(missing) > 0 {
		err = fmt.Errorf("%w: %d corpus containers never reached both backends", errSetup, len(missing))
	}
	if err != nil {
		st.stop()
		return nil, err
	}
	rt, pool := newTransport(e.tr, e.nproc)
	st.pool = pool
	for a := 0; a < analysts; a++ {
		cl, err := newClient(fl.addr, rt)
		if err != nil {
			st.stop()
			return nil, err
		}
		st.clients = append(st.clients, cl)
	}
	return st, nil
}

func (st *readState) load(cl *client.Client, buf *bytes.Buffer, f *field, k int) error {
	digest, err := ingest(context.Background(), cl, buf, f.raw, -1, 0, nil, nil)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(buf.Bytes())
	if hex.EncodeToString(sum[:]) != digest {
		return fmt.Errorf("%w: corpus field %d: digest does not name the container", errSetup, k)
	}
	dec := make([]byte, rawBytes)
	if err := decompressLocal(buf.Bytes(), dec, nil); err != nil {
		return err
	}
	if m := boundErr(dec, f.arr.Data, nil); m > absBound {
		return fmt.Errorf("%w: corpus field %d decodes with max |err| %g", errSetup, k, m)
	}
	st.digests[k] = digest
	st.ref[k] = dec
	st.containers[k] = append([]byte(nil), buf.Bytes()...)
	return nil
}

// readStats collects per-kind latencies of one window.
type readStats struct {
	slab, field, lag      samples
	tracedSlab, plainSlab samples
	extents, fallbacks    atomic.Int64
}

// fieldBufs recycles read buffers: one spare byte past a whole field
// shows an over-long answer instead of hiding it.
var fieldBufs = sync.Pool{New: func() any { b := make([]byte, rawBytes+1); return &b }}

// readAllInto reads rc to its end into buf and closes it.
func readAllInto(rc io.ReadCloser, buf []byte) ([]byte, error) {
	defer rc.Close()
	n, err := io.ReadFull(rc, buf)
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		err = nil // shorter than the buffer: the normal case
	}
	return buf[:n], err
}

// do issues one read and checks what came back against the local
// decode. Latency runs from due to samples in hand and counts only for a
// read that passes the check.
func (st *readState) do(ctx context.Context, e *env, idx int64, rq request, due time.Time, rs *readStats) {
	begin := time.Now()
	rs.lag.add(begin.Sub(due))
	cl := st.clients[rq.analyst]
	k, s := rq.slab/slabsPer, rq.slab%slabsPer
	digest := st.digests[k]
	tr := e.tr
	traced := e.traced(idx)
	var o *op
	if traced {
		o = &op{traced: true, root: tr.id()}
		o.call.Store(tr.id())
		ctx = withOp(ctx, o)
	}
	var buf []byte
	if rq.kind != readExtent {
		bp := fieldBufs.Get().(*[]byte)
		defer fieldBufs.Put(bp)
		buf = *bp
	}
	// The client call runs from callStart to callEnd; the harness's own
	// work before, between and after is left outside every layer span.
	var got []byte
	var err error
	var callEnd, decodeStart time.Time
	callStart := time.Now()
	switch rq.kind {
	case readExtent:
		var ex *client.SlabExtent
		ex, err = cl.ReadSlabExtent(ctx, digest, s, s)
		callEnd = time.Now()
		if err == nil {
			rs.extents.Add(1)
			if ex.Raw {
				rs.fallbacks.Add(1)
			}
			decodeStart = time.Now()
			got, err = ex.Decode()
		}
	case readRaw:
		var rc io.ReadCloser
		if rc, err = cl.ReadSlabAt(ctx, digest, s, s); err == nil {
			got, err = readAllInto(rc, buf)
		}
		callEnd = time.Now()
	case readField:
		var rc io.ReadCloser
		if rc, err = cl.DecompressAt(ctx, digest, "", codec.Params{}); err == nil {
			got, err = readAllInto(rc, buf)
		}
		callEnd = time.Now()
	}
	end := time.Now()
	if traced {
		if !decodeStart.IsZero() {
			tr.add(span{ID: tr.id(), Parent: o.root, Name: "client.decode", Start: tr.at(decodeStart), End: tr.at(end)})
		}
		tr.add(span{ID: o.root, Name: "op", Start: tr.at(due), End: tr.at(end)})
		tr.add(span{ID: tr.id(), Parent: o.root, Name: "gen.lag", Start: tr.at(due), End: tr.at(begin)})
		tr.add(span{ID: o.call.Load(), Parent: o.root, Name: "client.call", Start: tr.at(callStart), End: tr.at(callEnd),
			Attr: map[string]string{"kind": rq.kind.String()}})
	}
	if err != nil {
		e.chk.failErr(rq.kind.String()+" read", err)
		return
	}
	want := st.ref[k]
	if rq.kind != readField {
		want = want[s*slabBytes : (s+1)*slabBytes]
	}
	if !e.chk.sameBytes(fmt.Sprintf("%s read of field %d slab %d", rq.kind, k, s), got, want) {
		return
	}
	if rq.kind == readField {
		rs.field.add(end.Sub(due))
		return
	}
	rs.slab.add(end.Sub(due))
	if tr != nil {
		if traced {
			rs.tracedSlab.add(end.Sub(due))
		} else {
			rs.plainSlab.add(end.Sub(due))
		}
	}
}

// runRead is fleet-read: an open loop of Poisson arrivals at a fixed
// offered rate, timed from each request's due time.
func runRead(e *env) (*outcome, error) {
	st, setupS, err := repeatSetup(func(i int) (*readState, error) { return setupRead(e, i) }, (*readState).stop)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	bg := context.Background()
	before, err := st.fl.counters(bg)
	if err != nil {
		return nil, err
	}
	reqs := plan(planSeed, readRate, e.window)
	out := newOutcome()
	var rs readStats
	ctx, cancel := context.WithTimeout(bg, e.window+readGrace)
	defer cancel()
	mem := sampleMemory()
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for i, rq := range reqs {
		due := start.Add(rq.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int64, rq request, due time.Time) {
			defer wg.Done()
			st.do(ctx, e, i, rq, due, &rs)
		}(int64(i), rq, due)
	}
	wg.Wait()
	out.mem = mem.end()
	out.e2e["rss_mb"] = out.mem.P50RSS
	out.e2e["setup_s"] = setupS
	after, err := st.fl.counters(bg)
	if err != nil {
		return nil, err
	}

	slab, field := rs.slab.values(), rs.field.values()
	out.lagP99 = percentile(rs.lag.values(), 0.99)
	out.valid = out.lagP99 <= lagLimitMS
	var raw, packed float64
	for _, c := range st.containers {
		raw += rawBytes
		packed += float64(len(c))
	}
	out.lat = slab
	out.e2e["compression_factor"] = raw / packed
	out.e2e["p50_ms"] = median(slab)
	if !supports(len(slab), 0.99) {
		out.notes = append(out.notes, fmt.Sprintf("only %d slab reads: p99 has fewer than ten samples beyond it", len(slab)))
	}
	out.named = []namedValue{
		{"slab_p50_ms", median(slab), "ms"},
		{"slab_p90_ms", percentile(slab, 0.9), "ms"},
		{"slab_p99_ms", percentile(slab, 0.99), "ms"},
		{"field_p50_ms", median(field), "ms"},
		{"extent_raw_fallback_ratio", ratio(float64(rs.fallbacks.Load()), float64(rs.extents.Load())), "ratio"},
		{"offered_rate", readRate, "1/s"},
		{"gen_lag_p99_ms", out.lagP99, "ms"},
		{"compression_factor", raw / packed, "x"},
		{"requests", float64(len(reqs)), "count"},
	}
	if e.tr != nil {
		fleetLayers(after.delta(before), out.layers)
		out.layers["client.extent_raw_fallback_ratio"] = ratio(float64(rs.fallbacks.Load()), float64(rs.extents.Load()))
		out.layers["trace.overhead_ratio"] = median(rs.tracedSlab.values())/median(rs.plainSlab.values()) - 1
		if err := probeInto(e, makeFields(e.seed, localFields), out.layers); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// measureCapacity runs the fleet-read mix as a closed loop with one
// caller per connection and reports the requests/s it sustains: the
// figure the open loop's offered rate is set against.
func measureCapacity(e *env) (*outcome, error) {
	st, _, err := repeatSetup(func(i int) (*readState, error) { return setupRead(e, i) }, (*readState).stop)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	reqs := plan(planSeed, readRate, 10*time.Minute) // recycled; only the mix and order matter here
	var rs readStats
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(e.window)
	parallel(e.nproc, func(int) {
		for time.Now().Before(deadline) {
			i := next.Add(1) - 1
			st.do(context.Background(), e, i, reqs[int(i)%len(reqs)], time.Now(), &rs)
		}
	})
	n := float64(next.Load())
	out := newOutcome()
	out.named = []namedValue{
		{"capacity_rps", n / time.Since(start).Seconds(), "1/s"},
		{"slab_p50_ms", median(rs.slab.values()), "ms"},
		{"field_p50_ms", median(rs.field.values()), "ms"},
	}
	out.valid = true
	return out, nil
}
