package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/binrep"
	"repro/internal/grid"
	"repro/internal/huffman"
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
	if p.OutputType == grid.Float32 {
		checkFloat32Shape(t, a, p, fast, fastOut)
	}
}

// checkFloat32Shape runs the float32 shape of the kernels and of the
// generic scan on a's narrowing, which for a float32 source holds the
// same values: both must write stream, the float64 shape's bytes, and
// reconstruct, bit for bit, the narrowing of out, its reconstruction.
func checkFloat32Shape(t *testing.T, a *grid.Array, p Params, stream []byte, out *grid.Array) {
	t.Helper()
	data, want := a.Float32s(), out.Float32s()
	for _, kernels := range []bool{true, false} {
		got, _, err := compressSamples(nil, data, a.Dims, p, kernels)
		if err != nil {
			t.Fatalf("dims=%v kernels=%v: float32 compress: %v", a.Dims, kernels, err)
		}
		if !bytes.Equal(got, stream) {
			t.Fatalf("dims=%v kernels=%v: float32 shape's stream differs from float64's", a.Dims, kernels)
		}
		rec, _, err := decompressSamples(stream, kernels, []float32(nil), nil)
		if err != nil {
			t.Fatalf("dims=%v kernels=%v: float32 decompress: %v", a.Dims, kernels, err)
		}
		for i := range want {
			if math.Float32bits(rec[i]) != math.Float32bits(want[i]) {
				t.Fatalf("dims=%v kernels=%v: point %d reconstructs as %x in float32, %x narrowed",
					a.Dims, kernels, i, math.Float32bits(rec[i]), math.Float32bits(want[i]))
			}
		}
	}
}

// labelledFloat32 is a float64 field to label float32 under a bound of
// 1e-9: its even rows hold values near 1 that narrowing moves by more
// than the bound, which escape with 64 bits, and its odd rows one
// float32 value, coded against predictions that sum those escapes'
// exact values.
func labelledFloat32(dims []int) *grid.Array {
	a := grid.New(dims...)
	w := dims[len(dims)-1]
	for i := range a.Data {
		if (i/w)%2 == 0 {
			a.Data[i] = 1 + float64(i%w%7)*1e-8
		} else {
			a.Data[i] = float64(float32(1e-3))
		}
	}
	return a
}

// TestSampleShapeFallback: float32 samples of a stream the float32 shape
// cannot reconstruct in place — a float64 field labelled float32, whose
// 64-bit escapes narrowing would change, and a float64 stream — hold
// the narrowing of the float64 reconstruction. A float32 field whose
// only 64-bit escapes are ±Inf, which narrowing keeps, decodes in place
// to the same values. CompressSamples refuses float32 samples under a
// float64 output type.
func TestSampleShapeFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	dims := []int{5, 9, 11}
	inf := randArray(rng, dims, true)
	inf.Data[7], inf.Data[100] = math.Inf(1), math.Inf(-1)
	for _, tc := range []struct {
		name string
		a    *grid.Array
		p    Params
	}{
		{"float64 labelled float32", labelledFloat32(dims), Params{Mode: BoundAbs, AbsBound: 1e-9, OutputType: grid.Float32}},
		{"float64 stream", randArray(rng, dims, false), Params{Mode: BoundAbs, AbsBound: 1e-3}},
		{"float32 with ±Inf", inf, Params{Mode: BoundAbs, AbsBound: 1e-3, OutputType: grid.Float32}},
	} {
		stream, st, err := Compress(tc.a, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Histogram[0] == 0 || st.Histogram[0] == uint64(tc.a.Len()) {
			t.Fatalf("%s: %d of %d points escape", tc.name, st.Histogram[0], tc.a.Len())
		}
		out, _, err := Decompress(stream)
		if err != nil {
			t.Fatal(err)
		}
		want := out.Float32s()
		for _, kernels := range []bool{true, false} {
			dst := make([]float32, len(want))
			rec, _, err := decompressSamples(stream, kernels, dst, nil)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if &rec[0] != &dst[0] {
				t.Fatalf("%s: reconstruction not in the caller's buffer", tc.name)
			}
			for i := range want {
				if math.Float32bits(rec[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s kernels=%v: point %d reconstructs as %x, %x narrowed",
						tc.name, kernels, i, math.Float32bits(rec[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
	if _, _, err := CompressSamples(nil, inf.Float32s(), dims, Params{Mode: BoundAbs, AbsBound: 1e-3}); err == nil {
		t.Fatal("float32 samples compressed under a float64 output type")
	}
	if _, _, err := CompressSamples(nil, inf.Float32s(), []int{5, 9, 10}, Params{Mode: BoundAbs, AbsBound: 1e-3, OutputType: grid.Float32}); err == nil {
		t.Fatal("samples that do not fill their dims compressed")
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

// escapeHeavy is randArray with every 37th sample scaled by 1e3: each
// scaled sample escapes and so do its right and lower neighbours, so
// escapes land in both rows of a pair.
func escapeHeavy(rng *rand.Rand, dims []int, f32 bool) *grid.Array {
	a := randArray(rng, dims, f32)
	for i := 0; i < len(a.Data); i += 37 {
		a.Data[i] *= 1e3
		if f32 {
			a.Data[i] = float64(float32(a.Data[i]))
		}
	}
	return a
}

// nonFinite is randArray with NaN, ±Inf and subnormal samples of the
// source precision scattered through it.
func nonFinite(rng *rand.Rand, dims []int, f32 bool) *grid.Array {
	a := randArray(rng, dims, f32)
	sub := 5e-320
	if f32 {
		sub = float64(math.Float32frombits(3)) // a float32 subnormal
	}
	for i := range a.Data {
		switch {
		case i%11 == 5:
			a.Data[i] = math.NaN()
		case i%13 == 6:
			a.Data[i] = math.Inf(1)
		case i%17 == 7:
			a.Data[i] = math.Inf(-1)
		case i%7 == 3:
			a.Data[i] = sub
		}
	}
	return a
}

// TestKernelEquivalenceEdges checks the 2D and 3D Layers=1 kernels on fixed
// geometries where the row-pair loop meets its borders: one to three rows
// and planes, widths 1 and 2 (no interior column), and odd and even row
// counts (a trailing unpaired row, or none).
func TestKernelEquivalenceEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var geoms [][]int
	for _, h := range []int{1, 2, 3, 6, 7} {
		for _, w := range []int{1, 2, 3, 40} {
			geoms = append(geoms, []int{h, w})
			for _, d := range []int{1, 2, 3} {
				geoms = append(geoms, []int{d, h, w})
			}
		}
	}
	fields := []struct {
		name string
		gen  func(*rand.Rand, []int, bool) *grid.Array
	}{{"rand", randArray}, {"escape-heavy", escapeHeavy}, {"non-finite", nonFinite}}
	cases := 0
	for _, dims := range geoms {
		for _, f := range fields {
			for _, f32 := range []bool{false, true} {
				for _, mode := range []BoundMode{BoundAbs, BoundRel} {
					a := f.gen(rng, dims, f32)
					p := Params{Mode: mode, AbsBound: 1e-3, RelBound: 1e-4}
					if f.name == "non-finite" && mode == BoundRel {
						// ±Inf makes the value range infinite, which leaves a
						// relative bound alone undefined.
						p.Mode = BoundAbsAndRel
					}
					if f32 {
						p.OutputType = grid.Float32
					}
					t.Run(fmt.Sprintf("%s/%v/f32=%v/%v", f.name, dims, f32, p.Mode), func(t *testing.T) {
						checkEquivalence(t, a, p, dims, 1)
					})
					cases++
				}
			}
		}
	}
	t.Logf("checked %d fixed cases", cases)
}

// TestKernelRoundsTiesAway pins the rounding of residuals that land
// exactly on a half interval: away from zero, as math.Round rounds and
// as every stream so far was written. eb is a power of two, so the
// division by 2eb is exact, and each sample steps (k+½)·2eb from the
// Lorenzo prediction on its reconstructed neighbours, so every point is a
// tie. The kernel's and the generic scan's codes must both equal a
// reference made with math.Round.
func TestKernelRoundsTiesAway(t *testing.T) {
	const eb = 1.0 / 1024
	for _, dims := range [][]int{{4096}, {37, 53}, {5, 19, 23}} {
		a := grid.New(dims...)
		pred, err := predictor.New(dims, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref := make([]float64, a.Len()) // the reference reconstruction
		want := make([]int, a.Len())
		coord := make([]int, len(dims))
		rng := rand.New(rand.NewSource(int64(len(dims))))
		const center = 1 << 7 // the default m = 8
		for idx := range a.Data {
			pv := pred.Predict(ref, idx, coord)
			fi := float64(rng.Intn(200)-100) + 0.5
			a.Data[idx] = pv + fi*2*eb
			ri := math.Round(fi)
			want[idx] = center + int(ri)
			ref[idx] = pv + 2*eb*ri
			advanceCoord(coord, dims)
		}
		for _, dtype := range []grid.DType{grid.Float64, grid.Float32} {
			p := Params{Mode: BoundAbs, AbsBound: eb, OutputType: dtype}
			for _, kernels := range []bool{true, false} {
				s, err := analyze(a.Data, a.Dims, p, kernels)
				if err != nil {
					t.Fatal(err)
				}
				for idx, c := range s.codes {
					if int(c) != want[idx] {
						t.Fatalf("dims %v %v kernels=%v: code %d at %d, want %d",
							dims, dtype, kernels, c, idx, want[idx])
					}
				}
				s.Release()
			}
		}
	}
}

// TestRoundOnlyThroughQuant fails on any math.Round call in the non-test
// sources of internal/core and internal/quant: a fused kernel that rounds
// with its own math.Round call is slower, and one that rounds otherwise
// may differ from quant.Round on ties.
func TestRoundOnlyThroughQuant(t *testing.T) {
	var offenders []string
	for _, dir := range []string{".", filepath.Join("..", "quant")} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no Go sources in %s", dir)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				if strings.Contains(line, "math.Round(") {
					offenders = append(offenders, fmt.Sprintf("%s:%d: %s", path, i+1, strings.TrimSpace(line)))
				}
			}
		}
	}
	if len(offenders) > 0 {
		t.Errorf("math.Round calls in core or quant (use quant.Round):\n  %s", strings.Join(offenders, "\n  "))
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

		// Fused path; escapes are reconstructed, never written.
		s := &compressState[float64]{
			qparams: newQParams(q, dtype),
			data:    []float64{x},
			recon:   make([]float64, 1),
			codes:   make([]uint16, 1),
			hist:    make([]uint64, q.NumCodes()),
			enc:     binrep.NewEncoder(nil, eb),
			marks:   make([]uint64, 1),
		}
		s.point(0, pv)

		if int(s.codes[0]) != wantCode {
			t.Fatalf("x=%g pv=%g eb=%g m=%d %v: code %d, want %d",
				x, pv, eb, m, dtype, s.codes[0], wantCode)
		}
		if ok && math.Float64bits(s.recon[0]) != math.Float64bits(wantRv) {
			t.Fatalf("x=%g pv=%g eb=%g m=%d %v: recon %x, want %x",
				x, pv, eb, m, dtype, math.Float64bits(s.recon[0]), math.Float64bits(wantRv))
		}
		if ok != (s.hist[quant.UnpredictableCode] == 0) {
			t.Fatalf("x=%g pv=%g eb=%g m=%d %v: outlier mismatch (ok=%v, outliers=%d)",
				x, pv, eb, m, dtype, ok, s.hist[quant.UnpredictableCode])
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
		eb, err := p.EffectiveBound(0)
		if err != nil {
			t.Fatal(err)
		}
		q, err := quant.New(eb, p.IntervalBits)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := predictor.New(a.Dims, p.Layers)
		if err != nil {
			t.Fatal(err)
		}
		s := &compressState[float64]{
			qparams: newQParams(q, p.OutputType),
			data:    a.Data,
			recon:   make([]float64, a.Len()),
			codes:   make([]uint16, a.Len()),
			hist:    make([]uint64, q.NumCodes()),
			enc:     binrep.NewEncoder(nil, eb),
			marks:   make([]uint64, huffman.MarkWords(a.Len())),
		}
		if got := s.scan(a.Dims, p.Layers, pred, true); got != tc.want {
			t.Errorf("dims=%v layers=%d: kernel used = %v, want %v", tc.dims, tc.layers, got, tc.want)
		}
	}
}
