package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/parallel"
)

// ScalingResult reproduces Tables VII and VIII: strong scalability of
// parallel compression and decompression. Points up to the host core
// count are measured with the goroutine pool; the cluster model (Blues
// shape, calibrated on the measured single-worker rate) extends the curve
// to 1024 processes as the paper's tables do.
type ScalingResult struct {
	MeasuredComp   []parallel.ScalingPoint
	MeasuredDecomp []parallel.ScalingPoint
	ModeledComp    []parallel.ScalingPoint
	ModeledDecomp  []parallel.ScalingPoint
}

// paperTables78 holds the published speedups at 1024 processes.
const (
	paperCompSpeedup1024   = 930.7
	paperDecompSpeedup1024 = 932.7
)

// Tables78 measures and models the strong-scaling study (eb_rel = 1e-4,
// as in the paper).
func Tables78(cfg Config) (*ScalingResult, error) {
	cfg = cfg.withDefaults()
	dims := datagen.ATMDims
	rows, cols := dims[0]/cfg.Scale, dims[1]/cfg.Scale
	if rows < 8 {
		rows = 8
	}
	if cols < 8 {
		cols = 8
	}
	p := core.Params{Mode: core.BoundRel, RelBound: 1e-4, OutputType: grid.Float32}
	var workerCounts []int
	for w := 1; w <= runtime.NumCPU(); w *= 2 {
		workerCounts = append(workerCounts, w)
	}
	nFiles := 4 * workerCounts[len(workerCounts)-1]
	if nFiles > 64 {
		nFiles = 64
	}
	comp, decomp, err := parallel.MeasureScaling(
		func(i int) *grid.Array { return datagen.ATM(rows, cols, cfg.Seed+int64(i)) },
		nFiles, p, workerCounts)
	if err != nil {
		return nil, err
	}
	res := &ScalingResult{MeasuredComp: comp, MeasuredDecomp: decomp}
	procs := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	if len(comp) > 0 {
		m := parallel.BluesModel(comp[0].SpeedGBs)
		res.ModeledComp = m.Scaling(procs)
	}
	if len(decomp) > 0 {
		m := parallel.BluesModel(decomp[0].SpeedGBs)
		res.ModeledDecomp = m.Scaling(procs)
	}
	return res, nil
}

func formatScaling(name string, measured, modeled []parallel.ScalingPoint, paperSpeedup float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n[%s]\n", name)
	header := []string{"processes", "speed (GB/s)", "speedup", "efficiency", "source"}
	var rows [][]string
	for _, pt := range measured {
		rows = append(rows, []string{
			fmt.Sprint(pt.Processes), fmt.Sprintf("%.3f", pt.SpeedGBs),
			f2(pt.Speedup), pct(pt.Efficiency), "measured",
		})
	}
	for _, pt := range modeled {
		rows = append(rows, []string{
			fmt.Sprint(pt.Processes), fmt.Sprintf("%.3f", pt.SpeedGBs),
			f2(pt.Speedup), pct(pt.Efficiency), "modeled",
		})
	}
	b.WriteString(table(header, rows))
	fmt.Fprintf(&b, "paper speedup at 1024 processes: %.1f (efficiency ~91%%)\n", paperSpeedup)
	return b.String()
}

func (r *ScalingResult) String() string {
	var b strings.Builder
	b.WriteString("Tables VII/VIII — strong scalability of parallel compression (eb_rel=1e-4)\n")
	b.WriteString(formatScaling("Table VII: compression", r.MeasuredComp, r.ModeledComp, paperCompSpeedup1024))
	b.WriteString(formatScaling("Table VIII: decompression", r.MeasuredDecomp, r.ModeledDecomp, paperDecompSpeedup1024))
	b.WriteString("paper shape: ~100% efficiency through 128 processes (<=2 per node),\n")
	b.WriteString("~90% beyond as node-internal contention appears.\n")
	return b.String()
}

// Fig10Result reproduces Fig. 10: the share of time spent compressing,
// writing compressed data, and writing the initial data, per process count.
type Fig10Result struct {
	Rows []parallel.Fig10Row
	// CF and PerProcGBs record the model inputs.
	CF         float64
	PerProcGBs float64
}

// Fig10 evaluates the I/O model using a measured compression factor and
// single-worker rate (the mean of a timedLoop-long loop of runs) on
// ATM-like data at eb_rel = 1e-4.
func Fig10(cfg Config) (*Fig10Result, error) {
	cfg = cfg.withDefaults()
	set, err := cfg.setByName("ATM")
	if err != nil {
		return nil, err
	}
	a := set.Gen()
	rr := runCompressorTimed(SZ14, a, absBoundFor(a, 1e-4), set.DType)
	if rr.Failed {
		return nil, rr.Err
	}
	perProc := float64(rr.OriginalBytes) / rr.CompSeconds / 1e9
	procs := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	// 2.5 TB: the paper's full ATM archive size.
	rows := parallel.Fig10(2.5e12, rr.CF, perProc, parallel.BluesIOModel(), procs)
	return &Fig10Result{Rows: rows, CF: rr.CF, PerProcGBs: perProc}, nil
}

func (r *Fig10Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 10 — time shares for 2.5 TB ATM archive (CF=%.1f, %.2f GB/s per process)\n",
		r.CF, r.PerProcGBs)
	header := []string{"processes", "compress", "write compressed", "write initial"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprint(row.Processes),
			pct(row.CompressShare), pct(row.WriteCompShare), pct(row.WriteInitialShare),
		})
	}
	b.WriteString(table(header, rows))
	b.WriteString("paper shape: from 32 processes on, writing the initial data exceeds 50%\n")
	b.WriteString("of the bar — compression pays for itself at scale.\n")
	return b.String()
}
