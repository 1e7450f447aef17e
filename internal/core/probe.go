package core

import (
	"math"

	"repro/internal/grid"
	"repro/internal/predictor"
	"repro/internal/quant"
)

// HitRates holds the two prediction-hitting-rate variants of the paper's
// Table II. A point is "predictable" here when the difference between its
// original value and its predicted value is within the error bound
// (Section III-B) — the strictest, interval-count-independent definition.
type HitRates struct {
	// Orig is R^orig_PH: prediction performed on original data values.
	Orig float64
	// Decomp is R^decomp_PH: prediction performed on preceding decompressed
	// values, i.e. under the feedback loop the real compressor must use.
	Decomp float64
}

// ProbeHitRates measures both hitting rates for the given parameters.
// It mirrors the analysis behind Table II: the Orig rate is what an
// idealized compressor could score, and the Decomp rate is what the
// error-controlled compressor actually achieves once prediction runs on
// reconstructed values.
func ProbeHitRates(a *grid.Array, p Params) (HitRates, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return HitRates{}, err
	}
	_, _, valueRange := a.Range()
	eb, err := p.EffectiveBound(valueRange)
	if err != nil {
		return HitRates{}, err
	}

	pred, err := predictor.New(a.Dims, p.Layers)
	if err != nil {
		return HitRates{}, err
	}
	q, err := quant.New(eb, p.IntervalBits)
	if err != nil {
		return HitRates{}, err
	}

	n := a.Len()
	data := a.Data
	coord := make([]int, a.NDims())
	origHits := 0
	for idx := 0; idx < n; idx++ {
		pv := pred.Predict(data, idx, coord)
		if math.Abs(data[idx]-pv) <= eb {
			origHits++
		}
		advanceCoord(coord, a.Dims)
	}

	// Decomp rate: run the real reconstruction loop. A decomp "hit" is a
	// point predicted within eb of its original value (equivalently, its
	// quantization code is the centre code).
	recon := make([]float64, n)
	for i := range coord {
		coord[i] = 0
	}
	decompHits := 0
	for idx := 0; idx < n; idx++ {
		x := data[idx]
		pv := pred.Predict(recon, idx, coord)
		if math.Abs(x-pv) <= eb {
			decompHits++
		}
		code, rv, ok := q.Quantize(x, pv)
		if ok {
			rv = snap(rv, p.OutputType)
			if !(math.Abs(x-rv) <= eb) {
				ok = false
			}
		}
		if ok {
			_ = code
			recon[idx] = rv
		} else {
			// The probe does not need the outlier bitstream; reconstruct
			// the outlier the same way the compressor would bound it. The
			// worst-case representative is the original value itself (the
			// compressor's binrep reconstruction is within eb of it).
			recon[idx] = snap(x, p.OutputType)
		}
		advanceCoord(coord, a.Dims)
	}

	return HitRates{
		Orig:   float64(origHits) / float64(n),
		Decomp: float64(decompHits) / float64(n),
	}, nil
}
