package experiments

import (
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/grid"
)

// Compressor names used across experiments, matching the paper's labels.
const (
	SZ14    = "SZ-1.4"
	SZ11    = "SZ-1.1"
	ZFP     = "ZFP-0.5"
	ISABELA = "ISABELA-0.2.1"
	FPZIP   = "FPZIP"
	GZIP    = "GZIP"
)

// AllCompressors lists every evaluated compressor in the paper's order.
var AllCompressors = []string{SZ14, ZFP, SZ11, ISABELA, FPZIP, GZIP}

// LossyCompressors lists the error-bounded subset.
var LossyCompressors = []string{SZ14, ZFP, SZ11, ISABELA}

// codecNames maps the paper's labels to codec registry names.
var codecNames = map[string]string{
	SZ14:    "sz14",
	SZ11:    "sz11",
	ZFP:     "zfp",
	ISABELA: "isabela",
	FPZIP:   "fpzip",
	GZIP:    "gzip",
}

// RunResult is the outcome of one (compressor, data set, bound) cell.
type RunResult struct {
	Compressor      string
	CompressedBytes int
	OriginalBytes   int
	CF              float64
	BitRate         float64
	Recon           *grid.Array
	CompSeconds     float64
	DecompSeconds   float64
	// Failed marks expected model failures (ISABELA at tight bounds).
	Failed bool
	Err    error
}

// runCodec executes one registry codec on a with the given parameters,
// timing compression and decompression separately.
func runCodec(label, codecName string, a *grid.Array, p codec.Params) RunResult {
	p.Dims = a.Dims
	dt := p.DType
	if dt == 0 {
		dt = grid.Float64
	}
	res := RunResult{Compressor: label, OriginalBytes: a.Len() * dt.Size()}
	fail := func(err error) RunResult {
		res.Err = err
		res.Failed = true
		return res
	}
	c, err := codec.Lookup(codecName)
	if err != nil {
		return fail(err)
	}
	start := time.Now()
	stream, err := c.Encode(a, p)
	if err != nil {
		return fail(err)
	}
	res.CompSeconds = time.Since(start).Seconds()
	res.CompressedBytes = len(stream)
	res.CF = float64(res.OriginalBytes) / float64(res.CompressedBytes)
	res.BitRate = float64(res.CompressedBytes) * 8 / float64(a.Len())

	start = time.Now()
	recon, err := c.Decode(stream, p)
	if err != nil {
		return fail(err)
	}
	res.DecompSeconds = time.Since(start).Seconds()
	res.Recon = recon
	return res
}

// timedLoop is how long the speed experiments (Table VI, Fig. 10) time
// each side of a cell. A run is a few milliseconds, and the host's phase
// noise outlasts a few runs, so the fastest of three spread widely from
// one table to the next; a cell's compresses, and then its decompresses,
// instead repeat until they add up to this, and report the time per run.
const timedLoop = 100 * time.Millisecond

// runCompressorTimed is runCompressor reporting the compress and
// decompress time per run of a timedLoop-long loop of each, after a
// first run whose outputs it returns. Every run writes the same bytes.
func runCompressorTimed(name string, a *grid.Array, absBound float64, dt grid.DType) RunResult {
	res := runCompressor(name, a, absBound, dt)
	if res.Failed {
		return res
	}
	c, err := codec.Lookup(codecNames[name])
	if err != nil {
		res.Err, res.Failed = err, true
		return res
	}
	p := codec.Params{Mode: core.BoundAbs, AbsBound: absBound, DType: dt, Dims: a.Dims}
	var stream []byte
	res.CompSeconds, err = timeLoop(func() (err error) {
		stream, err = c.Encode(a, p)
		return err
	})
	if err == nil && len(stream) != res.CompressedBytes {
		err = fmt.Errorf("experiments: %s wrote %d bytes, then %d", name, res.CompressedBytes, len(stream))
	}
	if err == nil {
		res.DecompSeconds, err = timeLoop(func() error {
			_, err := c.Decode(stream, p)
			return err
		})
	}
	if err != nil {
		res.Err, res.Failed = err, true
	}
	return res
}

// timeLoop runs f until its runs add up to timedLoop and returns the
// seconds per run.
func timeLoop(f func() error) (float64, error) {
	var total time.Duration
	runs := 0
	for total < timedLoop {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		total += time.Since(t0)
		runs++
	}
	return total.Seconds() / float64(runs), nil
}

// runCompressor executes one compressor on a with the given absolute error
// bound (ignored by the lossless ones). dt is the source precision used
// for compression-factor accounting.
func runCompressor(name string, a *grid.Array, absBound float64, dt grid.DType) RunResult {
	cn, ok := codecNames[name]
	if !ok {
		res := RunResult{Compressor: name, OriginalBytes: a.Len() * dt.Size()}
		res.Err = fmt.Errorf("experiments: unknown compressor %q", name)
		res.Failed = true
		return res
	}
	return runCodec(name, cn, a, codec.Params{
		Mode:     core.BoundAbs,
		AbsBound: absBound,
		DType:    dt,
	})
}

// runZFPFixedRate runs ZFP in its native fixed-rate mode (Fig. 8).
func runZFPFixedRate(a *grid.Array, rate float64, dt grid.DType) RunResult {
	return runCodec(ZFP, "zfp", a, codec.Params{Rate: rate, DType: dt})
}
