package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuantizeCenterHit(t *testing.T) {
	q, err := New(0.01, 8)
	if err != nil {
		t.Fatal(err)
	}
	code, recon, ok := q.Quantize(5.004, 5.0)
	if !ok {
		t.Fatal("value within eb of prediction must be predictable")
	}
	if code != q.CenterCode() {
		t.Fatalf("code = %d, want center %d", code, q.CenterCode())
	}
	if recon != 5.0 {
		t.Fatalf("recon = %v, want 5.0", recon)
	}
}

func TestQuantizeOffsets(t *testing.T) {
	q, _ := New(0.5, 4) // intervals of width 1, radius 7
	pred := 10.0
	for off := -7; off <= 7; off++ {
		x := pred + float64(off) // exactly at interval centre
		code, recon, ok := q.Quantize(x, pred)
		if !ok {
			t.Fatalf("offset %d should be predictable", off)
		}
		if code != q.CenterCode()+off {
			t.Fatalf("offset %d: code %d, want %d", off, code, q.CenterCode()+off)
		}
		if math.Abs(recon-x) > q.ErrorBound() {
			t.Fatalf("offset %d: recon error %v", off, recon-x)
		}
	}
}

func TestQuantizeOutOfRange(t *testing.T) {
	q, _ := New(0.5, 4) // radius 7, reach = 7*1 + 0.5 = 7.5
	if _, _, ok := q.Quantize(18.0, 10.0); ok {
		t.Fatal("diff 8.0 > reach must be unpredictable")
	}
	if code, _, ok := q.Quantize(100, 0); ok || code != UnpredictableCode {
		t.Fatal("far value must give the unpredictable code")
	}
}

func TestQuantizeNaNInf(t *testing.T) {
	q, _ := New(0.1, 8)
	if _, _, ok := q.Quantize(math.NaN(), 0); ok {
		t.Fatal("NaN must be unpredictable")
	}
	if _, _, ok := q.Quantize(math.Inf(1), 0); ok {
		t.Fatal("Inf must be unpredictable")
	}
	if _, _, ok := q.Quantize(1, math.Inf(-1)); ok {
		t.Fatal("Inf prediction must be unpredictable")
	}
}

func TestReconstructRoundTrip(t *testing.T) {
	q, _ := New(0.001, 8)
	pred := -3.7
	for _, x := range []float64{-3.7, -3.701, -3.58, -3.85} {
		code, recon, ok := q.Quantize(x, pred)
		if !ok {
			t.Fatalf("x=%v should be predictable", x)
		}
		got, err := q.Reconstruct(code, pred)
		if err != nil {
			t.Fatal(err)
		}
		if got != recon {
			t.Fatalf("Reconstruct(%d) = %v, want %v", code, got, recon)
		}
	}
}

func TestReconstructErrors(t *testing.T) {
	q, _ := New(0.1, 4)
	if _, err := q.Reconstruct(UnpredictableCode, 0); err == nil {
		t.Fatal("code 0 must be rejected")
	}
	if _, err := q.Reconstruct(16, 0); err == nil {
		t.Fatal("code 2^m must be rejected")
	}
	if _, err := q.Reconstruct(-1, 0); err == nil {
		t.Fatal("negative code must be rejected")
	}
}

func TestErrorBoundInvariantQuick(t *testing.T) {
	// THE core invariant of the paper: any predictable quantization honours
	// |x - recon| <= eb, for any eb, m, x, pred.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eb := math.Pow(10, -float64(rng.Intn(8))) * (rng.Float64() + 0.01)
		m := MinBits + rng.Intn(MaxBits-MinBits+1)
		q, err := New(eb, m)
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			pred := rng.NormFloat64() * 100
			x := pred + rng.NormFloat64()*eb*float64(int(1)<<uint(m-1))
			code, recon, ok := q.Quantize(x, pred)
			if !ok {
				continue
			}
			if code <= 0 || code >= q.NumCodes() {
				return false
			}
			if math.Abs(x-recon) > eb {
				return false
			}
			// decoder sees same pred -> same recon
			got, err := q.Reconstruct(code, pred)
			if err != nil || got != recon {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalEdgeRounding(t *testing.T) {
	// Values exactly at interval boundaries must still respect the bound.
	q, _ := New(1.0, 4)
	pred := 0.0
	for _, x := range []float64{1.0, -1.0, 3.0, 2.9999999999, 3.0000000001} {
		_, recon, ok := q.Quantize(x, pred)
		if ok && math.Abs(x-recon) > q.ErrorBound() {
			t.Fatalf("x=%v: bound violated, recon=%v", x, recon)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 8); err == nil {
		t.Fatal("eb=0 must fail")
	}
	if _, err := New(-1, 8); err == nil {
		t.Fatal("eb<0 must fail")
	}
	if _, err := New(math.Inf(1), 8); err == nil {
		t.Fatal("eb=Inf must fail")
	}
	if _, err := New(math.NaN(), 8); err == nil {
		t.Fatal("eb=NaN must fail")
	}
	if _, err := New(0.1, 1); err == nil {
		t.Fatal("m=1 must fail")
	}
	if _, err := New(0.1, 17); err == nil {
		t.Fatal("m=17 must fail")
	}
}

func TestCounts(t *testing.T) {
	q, _ := New(0.1, 8)
	if q.NumIntervals() != 255 {
		t.Fatalf("NumIntervals = %d, want 255", q.NumIntervals())
	}
	if q.NumCodes() != 256 {
		t.Fatalf("NumCodes = %d, want 256", q.NumCodes())
	}
	if q.CenterCode() != 128 {
		t.Fatalf("CenterCode = %d, want 128", q.CenterCode())
	}
	if q.Bits() != 8 {
		t.Fatalf("Bits = %d", q.Bits())
	}
}

func TestAdaptIncrease(t *testing.T) {
	hist := make([]uint64, 256)
	hist[0] = 50 // half unpredictable
	hist[128] = 50
	advice, rate, err := Adapt(hist, 8, DefaultHitRateThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if advice != Increase {
		t.Fatalf("advice = %v, want Increase", advice)
	}
	if rate != 0.5 {
		t.Fatalf("rate = %v", rate)
	}
}

func TestAdaptKeep(t *testing.T) {
	// 95% hits spread beyond the m-1 radius: keep.
	hist := make([]uint64, 256)
	hist[0] = 5
	// Place hits outside the would-be smaller radius (m-1: radius 63).
	hist[128+100] = 50
	hist[128-100] = 45
	advice, _, err := Adapt(hist, 8, DefaultHitRateThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if advice != Keep {
		t.Fatalf("advice = %v, want Keep", advice)
	}
}

func TestAdaptDecrease(t *testing.T) {
	// All hits on the centre code: a smaller m suffices.
	hist := make([]uint64, 256)
	hist[128] = 100
	advice, rate, err := Adapt(hist, 8, DefaultHitRateThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if advice != Decrease {
		t.Fatalf("advice = %v (rate %v), want Decrease", advice, rate)
	}
}

func TestAdaptBoundaries(t *testing.T) {
	// At m=MinBits, never advise Decrease.
	hist := make([]uint64, 1<<MinBits)
	hist[1<<(MinBits-1)] = 100
	advice, _, err := Adapt(hist, MinBits, DefaultHitRateThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if advice != Keep {
		t.Fatalf("m=MinBits advice = %v, want Keep", advice)
	}
	// At m=MaxBits with bad rate, never advise Increase.
	hist = make([]uint64, 1<<MaxBits)
	hist[0] = 100
	hist[1<<(MaxBits-1)] = 1
	advice, _, err = Adapt(hist, MaxBits, DefaultHitRateThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if advice != Keep {
		t.Fatalf("m=MaxBits advice = %v, want Keep", advice)
	}
}

func TestAdaptErrors(t *testing.T) {
	if _, _, err := Adapt(make([]uint64, 10), 8, 0.9); err == nil {
		t.Fatal("wrong histogram size must fail")
	}
	if _, _, err := Adapt(make([]uint64, 256), 8, 0); err == nil {
		t.Fatal("threshold 0 must fail")
	}
	if _, _, err := Adapt(make([]uint64, 256), 8, 1); err == nil {
		t.Fatal("threshold 1 must fail")
	}
	if _, _, err := Adapt(make([]uint64, 256), 8, 0.9); err == nil {
		t.Fatal("empty histogram must fail")
	}
}

func TestHitRate(t *testing.T) {
	hist := make([]uint64, 16)
	hist[0] = 25
	hist[8] = 75
	if got := HitRate(hist); got != 0.75 {
		t.Fatalf("HitRate = %v", got)
	}
	if got := HitRate(make([]uint64, 4)); got != 0 {
		t.Fatalf("empty HitRate = %v", got)
	}
}

func TestAdviceString(t *testing.T) {
	if Keep.String() != "keep" || Increase.String() != "increase" || Decrease.String() != "decrease" {
		t.Fatal("Advice String mismatch")
	}
	if Advice(9).String() == "" {
		t.Fatal("unknown advice should still format")
	}
}

// TestRoundMatchesMathRound pins Round to math.Round bit for bit (NaN
// matching NaN) on the edge values, on every half-integer within 2^20 of
// zero and both its neighbours, on a grid over binary exponents −60…60,
// and on random bit patterns.
func TestRoundMatchesMathRound(t *testing.T) {
	checked := 0
	check := func(x float64) {
		checked++
		got, want := Round(x), math.Round(x)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("Round(%v) [%#016x] = %v [%#016x], math.Round gives %v [%#016x]",
				x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	both := func(x float64) {
		check(x)
		check(-x)
	}
	for _, x := range []float64{
		0, 0.5, 1.5, 2.5, 0.49999999999999994,
		1<<51 + 0.5, 1 << 52, 1 << 53, math.MaxFloat64, math.Inf(1),
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
		math.Float64frombits(0x0008000000000000),
	} {
		both(x)
	}
	check(math.NaN())
	check(math.Float64frombits(0xfff8000000000001)) // a negative NaN

	for k := -1 << 20; k <= 1<<20; k++ {
		h := float64(k) + 0.5
		check(h)
		check(math.Nextafter(h, math.Inf(-1)))
		check(math.Nextafter(h, math.Inf(1)))
	}
	for e := -60; e <= 60; e++ {
		p := math.Ldexp(1, e)
		for _, f := range []float64{1, 1.25, 1.5, 1.75, 1.9999999999999998} {
			x := f * p
			both(x)
			both(math.Nextafter(x, 0))
			both(math.Nextafter(x, math.Inf(1)))
		}
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 10_000_000; i++ {
		check(math.Float64frombits(rng.Uint64()))
	}
	t.Logf("checked %d values", checked)
}

func BenchmarkQuantize(b *testing.B) {
	q, _ := New(1e-4, 8)
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 4096)
	preds := make([]float64, 4096)
	for i := range xs {
		preds[i] = rng.NormFloat64()
		xs[i] = preds[i] + rng.NormFloat64()*1e-3
	}
	b.SetBytes(int64(len(xs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range xs {
			q.Quantize(xs[j], preds[j])
		}
	}
}
