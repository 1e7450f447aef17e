// Command perfbench is the repository's layered benchmark. One run
// measures one workload against the system as built and prints, as its
// last line, one JSON object with the end-to-end metrics (--trace 0) or
// the per-layer metrics (--trace 1):
//
//	bash perfbench/run.sh --workload fleet-read --seed 1 --seconds 20 --trace 0
//
// Workloads, metrics and their meaning are documented in README.md next
// to this file.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

type metricDef struct {
	name, unit string
	moves      string // for a per-layer metric: the end-to-end metric it should move
}

// The end-to-end metrics every workload reports. Each workload has one
// primary operation: a local compress, a local decompress, a routed
// ingest, or a routed slab read timed from its due time.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "rss_mb", unit: "MB"},
	{name: "ok_ratio", unit: "ratio"},
	{name: "compression_factor", unit: "x"},
	{name: "p50_ms", unit: "ms"},
}

// The per-layer metrics of the traced run, each with the end-to-end
// metric (by its name in README.md) it should move. perLayer is what
// BENCHMARK.json lists; every traced run reports it.
var perLayer = []metricDef{
	{"core.predict_quantize_ms", "ms", "compress_mb_s, ingest_p50_ms"},
	{"core.decode_ms", "ms", "decompress_mb_s"},
	{"core.hit_rate", "ratio", "compression_factor"},
	{"huffman.huffbuild_ms", "ms", "compress_mb_s"},
	{"huffman.encode_ms", "ms", "compress_mb_s"},
	{"huffman.code_bits_per_value", "bits", "compression_factor"},
	{"huffman.table_bits_per_value", "bits", "compression_factor"},
	{"binrep.outlier_bits_per_value", "bits", "compression_factor"},
	{"blocked.container_ms", "ms", "compress_mb_s"},
	{"blocked.compress_speedup", "x", "compress_mb_s"},
	{"blocked.decompress_speedup", "x", "decompress_mb_s"},
	{"blocked.slab_range_ms", "ms", "slab_p50_ms"},
	{"codec.writer_overhead_ratio", "ratio", "compress_mb_s"},
	{"codec.reader_overhead_ratio", "ratio", "decompress_mb_s"},
	{"server.compress_ms", "ms", "ingest_p50_ms"},
	{"server.encode_ms", "ms", "ingest_p50_ms"},
	{"server.store_write_ms", "ms", "ingest_p50_ms"},
	{"server.admission_ms", "ms", "ingest_p90_ms, slab_p99_ms"},
	{"server.shed_ratio", "ratio", "failed_ratio"},
	{"server.sheds", "count", "failed_ratio"},
	{"store.hit_ratio", "ratio", "slab_p50_ms"},
	{"store.hits", "count", "slab_p50_ms"},
	{"store.misses", "count", "slab_p50_ms"},
	{"store.evictions", "count", "slab_p50_ms"},
	{"store.bytes_per_raw_byte", "ratio", "compression_factor"},
	{"fleet.self_ms", "ms", "slab_p50_ms, ingest_p50_ms"},
	{"fleet.attempts_per_request", "ratio", "slab_p99_ms"},
	{"fleet.failovers", "count", "slab_p99_ms"},
	{"fleet.peer_fills", "count", "slab_p99_ms"},
	{"fleet.replication_writes_per_container", "ratio", "ingest_p90_ms"},
	{"fleet.replication_repairs", "count", "ingest_p90_ms"},
	{"fleet.replication_drain_s", "s", "ingest_p90_ms"},
	{"client.self_ms", "ms", "ingest_p50_ms, slab_p50_ms"},
	{"wire.hop_ms", "ms", "slab_p50_ms"},
	{"wire.conn_wait_ms", "ms", "slab_p99_ms"},
	{"trace.overhead_ratio", "ratio", "all"},
	{"unattributed_ratio", "ratio", "all"},
}

// readLayers are the per-layer metrics only fleet-read reaches. The
// traced fleet-read run reports them after perLayer; BENCHMARK.json
// leaves them out with fleet-read itself, whose results are wrong until
// the router-cache defect in README.md is fixed.
var readLayers = []metricDef{
	{"server.slab_ms", "ms", "slab_p50_ms"},
	{"server.decompress_ms", "ms", "field_p50_ms"},
	{"server.store_read_ms", "ms", "slab_p50_ms, field_p50_ms"},
	{"server.decode_ms", "ms", "slab_p50_ms, field_p50_ms"},
	{"server.mmap_serve_ms", "ms", "slab_p50_ms"},
	{"fleet.cache_hit_ratio", "ratio", "slab_p50_ms, field_p50_ms"},
	{"fleet.cache_hit_ratio_seen", "ratio", "slab_p50_ms, field_p50_ms"},
	{"fleet.cache_hits", "count", "slab_p50_ms, field_p50_ms"},
	{"fleet.cache_hit_bytes", "B", "slab_p50_ms, field_p50_ms"},
	{"fleet.cache_evictions", "count", "slab_p50_ms, field_p50_ms"},
	{"fleet.coalesced", "count", "slab_p50_ms, field_p50_ms"},
	{"client.extent_decode_ms", "ms", "slab_p50_ms"},
	{"client.revalidated_ratio", "ratio", "slab_p50_ms"},
	{"client.extent_raw_fallback_ratio", "ratio", "slab_p50_ms"},
	{"wire.bytes_per_slab_read", "B", "slab_p50_ms"},
	{"gen.lag_p99_ms", "ms", "slab_p99_ms"},
}

// setupRuns is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupRuns = 3

type env struct {
	workload string
	seed     int64
	window   time.Duration
	dir      string
	tr       *tracer // nil in the untraced run
	chk      *checker
	nproc    int
}

// traced says whether operation i records spans: in the traced run
// every other operation stays untraced, and comparing the two halves
// gives the tracing overhead.
func (e *env) traced(i int64) bool { return e.tr != nil && i%2 == 0 }

type namedValue struct {
	name  string
	value float64
	unit  string
}

// outcome is what a workload reports.
type outcome struct {
	e2e    map[string]float64 // by endToEnd name
	named  []namedValue       // the same results under their workload-specific names
	layers map[string]float64 // per-layer metrics (traced run)
	lagP99 float64            // open-loop generator lateness, ms
	mem    memStats
	lat    []float64 // the primary operation's latencies, ms
	valid  bool
	notes  []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, valid: true}
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "local-compress | local-decompress | fleet-ingest | fleet-read")
		seed     = flag.Int64("seed", 1, "workload seed: fixes every generated input")
		seconds  = flag.Int("seconds", 20, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		capacity = flag.Bool("capacity", false, "fleet-read: measure closed-loop capacity instead of the open loop")
	)
	flag.Parse()
	if err := selfTest(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	work := filepath.Join(root, ".bench_build")
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	e := &env{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		dir:      dir,
		chk:      newChecker(),
		nproc:    runtime.NumCPU(),
	}
	if *trace == 1 {
		e.tr = newTracer()
	}
	var out *outcome
	switch {
	case *workload == "fleet-read" && *capacity:
		out, err = measureCapacity(e)
	case *workload == "local-compress":
		out, err = runLocal(e, false)
	case *workload == "local-decompress":
		out, err = runLocal(e, true)
	case *workload == "fleet-ingest":
		out, err = runIngest(e)
	case *workload == "fleet-read":
		out, err = runRead(e)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	if e.tr != nil {
		path := filepath.Join(work, "trace-"+tag(e, *trace)+".json")
		if err := e.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		bd, err := readBreakdown(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		out.notes = append(out.notes, fromTrace(bd, e.tr, out.layers)...)
		out.layers["gen.lag_p99_ms"] = out.lagP99
		fmt.Println("trace", path)
	}
	attempted, failed, wrong := e.chk.counts()
	rec := runRecord(e, root, out, attempted, failed)
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println("run", string(line))
	if err := os.WriteFile(filepath.Join(work, "record-"+tag(e, *trace)+".json"), append(line, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, d := range e.chk.details {
		fmt.Println("failure", d)
	}
	if !out.valid {
		fmt.Fprintf(os.Stderr, "perfbench: invalid run: the open-loop generator fell behind (lag p99 %.2f ms > %.0f ms)\n", out.lagP99, lagLimitMS)
		return 3
	}
	if attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation completed in the window")
		return 1
	}

	defs, values := endToEnd, out.e2e
	values["ok_ratio"] = float64(attempted-failed) / float64(attempted)
	if e.tr != nil {
		defs, values = perLayer, out.layers
		if e.workload == "fleet-read" {
			defs = append(defs[:len(defs):len(defs)], readLayers...)
		}
	} else {
		out.named = append(out.named,
			namedValue{"failed_ratio", float64(failed) / float64(attempted), "ratio"},
			namedValue{"peak_rss_mb", out.mem.PeakRSS, "MB"})
		for _, nv := range out.named {
			fmt.Printf("e2e    %-28s %14.4f %s\n", nv.name, nv.value, nv.unit)
		}
	}
	if *capacity {
		return 0 // a tuning measurement, not a benchmark result
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if e.tr == nil {
				// No operation succeeded: there is no latency to report.
				fmt.Fprintf(os.Stderr, "perfbench: %s has no samples\n", d.name)
				return 1
			}
			v = 0 // a layer the run never reached
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		if d.moves != "" {
			fmt.Printf("layer  %-38s %14.4f %-6s -> %s\n", d.name, v, d.unit, d.moves)
		} else {
			fmt.Printf("metric %-28s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	res, err := json.Marshal(map[string]any{
		"correct":   wrong == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(res))
	return 0
}

// tag names a run's files under .bench_build.
func tag(e *env, trace int) string {
	return fmt.Sprintf("%s-seed%d-trace%d", e.workload, e.seed, trace)
}

// repeatSetup sets the workload up setupRuns times, tearing down all but
// the last, and returns the last with the median set-up time in seconds.
func repeatSetup[T any](setup func(i int) (T, error), teardown func(T)) (T, float64, error) {
	var cur T
	var times []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			teardown(cur)
		}
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		s, err := setup(i)
		if err != nil {
			var zero T
			return zero, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		cur = s
	}
	runtime.GC()
	return cur, median(times), nil
}

// memory samples the process's resident set while a window runs.
type memory struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB
}

func sampleMemory() *memory {
	m := &memory{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			m.samples = append(m.samples, float64(residentBytes())/1e6)
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// memStats summarizes a window's memory: the resident set's peak and
// median, and the heap still live after a full collection.
type memStats struct {
	PeakRSS float64 `json:"peak_rss_mb"`
	P50RSS  float64 `json:"p50_rss_mb"`
	Live    float64 `json:"live_heap_mb"`
}

// end stops sampling and summarizes.
func (m *memory) end() memStats {
	close(m.stop)
	<-m.done
	var peak float64
	for _, v := range m.samples {
		if v > peak {
			peak = v
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memStats{PeakRSS: peak, P50RSS: median(m.samples), Live: float64(ms.HeapAlloc) / 1e6}
}

func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// record is the run record: enough to tell two runs' conditions apart.
type record struct {
	Workload     string   `json:"workload"`
	Seed         int64    `json:"seed"`
	Seconds      float64  `json:"seconds"`
	Traced       bool     `json:"traced"`
	Commit       string   `json:"commit"`
	SourceSHA256 string   `json:"source_sha256"`
	CPU          string   `json:"cpu"`
	NProc        int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	GoVersion    string   `json:"go_version"`
	FieldSeeds   []int64  `json:"field_seeds"`
	OfferedRate  float64  `json:"offered_rate,omitempty"`
	PlanSeed     int64    `json:"plan_seed,omitempty"`
	GenLagP99MS  float64  `json:"gen_lag_p99_ms"`
	Memory       memStats `json:"memory"`
	Latency      any      `json:"latency_ms"`
	Valid        bool     `json:"valid"`
	Attempted    int64    `json:"attempted"`
	Failed       int64    `json:"failed"`
	Failures     any      `json:"failures"`
	Notes        []string `json:"notes,omitempty"`
}

func runRecord(e *env, root string, out *outcome, attempted, failed int64) record {
	r := record{
		Workload:     e.workload,
		Seed:         e.seed,
		Seconds:      e.window.Seconds(),
		Traced:       e.tr != nil,
		Commit:       os.Getenv("PERFBENCH_COMMIT"),
		SourceSHA256: sourceDigest(root),
		CPU:          cpuModel(),
		NProc:        e.nproc,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GenLagP99MS:  out.lagP99,
		Memory:       out.mem,
		Latency:      quantiles(out.lat),
		Valid:        out.valid,
		Attempted:    attempted,
		Failed:       failed,
		Notes:        out.notes,
	}
	if r.Commit == "" {
		r.Commit = "unknown"
	}
	for i := 0; i < fieldsFor(e.workload); i++ {
		r.FieldSeeds = append(r.FieldSeeds, fieldSeed(e.seed, i))
	}
	if e.workload == "fleet-read" {
		r.OfferedRate = readRate
		r.PlanSeed = planSeed
	}
	e.chk.mu.Lock()
	r.Failures = e.chk.failures
	e.chk.mu.Unlock()
	return r
}

// quantiles summarizes the primary operation's latency distribution.
func quantiles(ms []float64) map[string]float64 {
	if len(ms) == 0 {
		return nil
	}
	out := map[string]float64{"n": float64(len(ms))}
	for _, q := range []float64{0.5, 0.75, 0.9, 0.95, 0.99} {
		out[fmt.Sprintf("p%g", q*100)] = percentile(ms, q)
	}
	return out
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file of the checkout,
// which identifies the code measured when the checkout has no git
// metadata.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// parallel runs f(i) for i in [0, n) on n goroutines and waits.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}

var errSetup = errors.New("setup check failed")
