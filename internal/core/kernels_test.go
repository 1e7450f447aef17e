package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/binrep"
	"repro/internal/bitstream"
	"repro/internal/grid"
	"repro/internal/predictor"
	"repro/internal/quant"
)

// randArray fills an array with smooth data plus occasional spikes so both
// the predictable path and the outlier path get exercised.
func randArray(rng *rand.Rand, dims []int, f32 bool) *grid.Array {
	a := grid.New(dims...)
	for i := range a.Data {
		v := math.Sin(float64(i)*0.05)*10 + rng.NormFloat64()*0.3
		switch rng.Intn(50) {
		case 0:
			v *= 1e6 // spike: quantizer escape
		case 1:
			v = 0
		}
		if f32 {
			v = float64(float32(v))
		}
		a.Data[i] = v
	}
	return a
}

func randDims(rng *rand.Rand, nd int) []int {
	dims := make([]int, nd)
	for i := range dims {
		dims[i] = 1 + rng.Intn(16)
	}
	return dims
}

// TestKernelEquivalence asserts the fused kernels produce byte-identical
// streams, identical Stats, and identical reconstructions to the generic
// reference path on randomized geometries covering every kernel plus the
// generic fallbacks. Run it with -race as well; the kernels must stay
// data-race free when blocked/parallel drive them from many goroutines.
func TestKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20170529))
	cases := 0
	for _, nd := range []int{1, 2, 3, 4} {
		for _, layers := range []int{1, 2, 3} {
			for _, f32 := range []bool{false, true} {
				for rep := 0; rep < 4; rep++ {
					dims := randDims(rng, nd)
					a := randArray(rng, dims, f32)
					p := Params{Mode: BoundRel, RelBound: 1e-4, Layers: layers}
					if f32 {
						p.OutputType = grid.Float32
					}
					if rep%2 == 1 {
						p.Mode = BoundAbs
						p.AbsBound = 1e-3
					}
					checkEquivalence(t, a, p, dims, layers)
					cases++
				}
			}
		}
	}
	t.Logf("checked %d randomized cases", cases)
}

func checkEquivalence(t *testing.T, a *grid.Array, p Params, dims []int, layers int) {
	t.Helper()
	fast, fastStats, err := compress(nil, a, p, true)
	if err != nil {
		t.Fatalf("dims=%v layers=%d: kernel compress: %v", dims, layers, err)
	}
	ref, refStats, err := compress(nil, a, p, false)
	if err != nil {
		t.Fatalf("dims=%v layers=%d: generic compress: %v", dims, layers, err)
	}
	if !bytes.Equal(fast, ref) {
		t.Fatalf("dims=%v layers=%d: kernel stream differs from generic (%d vs %d bytes)",
			dims, layers, len(fast), len(ref))
	}
	if !reflect.DeepEqual(fastStats, refStats) {
		t.Fatalf("dims=%v layers=%d: kernel stats differ:\n%+v\nvs\n%+v",
			dims, layers, fastStats, refStats)
	}
	fastOut, fastH, err := decompress(fast, true, nil, nil)
	if err != nil {
		t.Fatalf("dims=%v layers=%d: kernel decompress: %v", dims, layers, err)
	}
	refOut, refH, err := decompress(ref, false, nil, nil)
	if err != nil {
		t.Fatalf("dims=%v layers=%d: generic decompress: %v", dims, layers, err)
	}
	if !fastOut.Equal(refOut) {
		t.Fatalf("dims=%v layers=%d: kernel reconstruction differs from generic", dims, layers)
	}
	if !reflect.DeepEqual(fastH, refH) {
		t.Fatalf("dims=%v layers=%d: headers differ: %+v vs %+v", dims, layers, fastH, refH)
	}
	// And the round trip must honour the bound.
	for i, x := range a.Data {
		if math.Abs(x-fastOut.Data[i]) > fastH.AbsBound {
			t.Fatalf("dims=%v layers=%d: point %d error %g exceeds bound %g",
				dims, layers, i, math.Abs(x-fastOut.Data[i]), fastH.AbsBound)
		}
	}
}

// TestKernelEquivalenceNonFinite covers NaN/Inf inputs, which must take the
// outlier path identically under both scans.
func TestKernelEquivalenceNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][]int{{40}, {9, 11}, {5, 6, 7}} {
		a := randArray(rng, dims, false)
		a.Data[0] = math.NaN()
		a.Data[len(a.Data)/2] = math.Inf(1)
		a.Data[len(a.Data)-1] = math.Inf(-1)
		p := Params{Mode: BoundAbs, AbsBound: 0.01}
		checkEquivalence(t, a, p, dims, 1)
	}
}

// TestPointMatchesQuantizer pins the fused point() quantize against the
// independent quant.Quantize + snap + bound-recheck reference on randomized
// (x, pv, eb, m, dtype). The equivalence tests compare kernels against
// scanGeneric, but scanGeneric shares point() — this test is what ties
// point() back to the quantizer's documented semantics.
func TestPointMatchesQuantizer(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 200000; iter++ {
		eb := math.Pow(10, -1-8*rng.Float64())
		m := quant.MinBits + rng.Intn(quant.MaxBits-quant.MinBits+1)
		dtype := grid.Float64
		if rng.Intn(2) == 0 {
			dtype = grid.Float32
		}
		q, err := quant.New(eb, m)
		if err != nil {
			t.Fatal(err)
		}
		pv := rng.NormFloat64() * 10
		x := pv + rng.NormFloat64()*eb*math.Pow(10, 4*rng.Float64()-2)
		switch iter % 17 {
		case 13:
			x = math.NaN()
		case 14:
			x = math.Inf(1)
		case 15:
			pv = math.Inf(-1)
		case 16:
			x = pv // exact hit
		}

		// Reference: the seed's scan body.
		wantCode, wantRv, ok := q.Quantize(x, pv)
		if ok {
			wantRv = snap(wantRv, dtype)
			if !(math.Abs(x-wantRv) <= eb) {
				ok = false
			}
		}
		if !ok {
			wantCode = quant.UnpredictableCode
		}

		// Fused path, with the outlier writer stubbed out.
		outW := bitstream.NewWriter(8)
		s := &compressState{
			qparams: newQParams(q, dtype),
			data:    []float64{x},
			recon:   make([]float64, 1),
			codes:   make([]int, 1),
			hist:    make([]uint64, q.NumCodes()),
			outW:    outW,
			outEnc:  binrep.NewEncoder(outW, eb),
		}
		s.point(0, pv)

		if s.codes[0] != wantCode {
			t.Fatalf("x=%g pv=%g eb=%g m=%d %v: code %d, want %d",
				x, pv, eb, m, dtype, s.codes[0], wantCode)
		}
		if ok && math.Float64bits(s.recon[0]) != math.Float64bits(wantRv) {
			t.Fatalf("x=%g pv=%g eb=%g m=%d %v: recon %x, want %x",
				x, pv, eb, m, dtype, math.Float64bits(s.recon[0]), math.Float64bits(wantRv))
		}
		if ok != (s.numOutliers == 0) {
			t.Fatalf("x=%g pv=%g eb=%g m=%d %v: outlier mismatch (ok=%v, outliers=%d)",
				x, pv, eb, m, dtype, ok, s.numOutliers)
		}
	}
}

// TestKernelSelection pins which geometries take a fused kernel so a
// regression that silently drops everything to the generic path fails.
func TestKernelSelection(t *testing.T) {
	for _, tc := range []struct {
		dims   []int
		layers int
		want   bool
	}{
		{[]int{64}, 1, true},
		{[]int{8, 8}, 1, true},
		{[]int{4, 8, 8}, 1, true},
		{[]int{8, 8}, 2, true},
		{[]int{4, 8, 8}, 2, true},
		{[]int{64}, 2, false},
		{[]int{8, 8}, 3, false},
		{[]int{2, 2, 8, 8}, 1, false},
	} {
		a := grid.New(tc.dims...)
		p := Params{Mode: BoundAbs, AbsBound: 0.01, Layers: tc.layers}.withDefaults()
		eb := p.EffectiveBound(0)
		q, err := quant.New(eb, p.IntervalBits)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := predictor.New(a.Dims, p.Layers)
		if err != nil {
			t.Fatal(err)
		}
		outW := bitstream.NewWriter(64)
		s := &compressState{
			qparams: newQParams(q, p.OutputType),
			data:    a.Data,
			recon:   make([]float64, a.Len()),
			codes:   make([]int, a.Len()),
			hist:    make([]uint64, q.NumCodes()),
			outW:    outW,
			outEnc:  binrep.NewEncoder(outW, eb),
		}
		if got := s.scan(a.Dims, p.Layers, pred, true); got != tc.want {
			t.Errorf("dims=%v layers=%d: kernel used = %v, want %v", tc.dims, tc.layers, got, tc.want)
		}
	}
}
