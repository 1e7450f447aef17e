package binrep

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitstream"
)

func encodeDecode(t *testing.T, vals []float64, eb float64) []float64 {
	t.Helper()
	w := bitstream.NewWriter(0)
	enc := NewEncoder(w, eb)
	for _, v := range vals {
		enc.Encode(v)
	}
	r := bitstream.NewReaderBits(w.Bytes(), w.Len())
	dec := NewDecoder(r)
	out := make([]float64, len(vals))
	for i := range vals {
		v, err := dec.Decode()
		if err != nil {
			t.Fatalf("Decode %d: %v", i, err)
		}
		out[i] = v
	}
	return out
}

func TestBoundRespected(t *testing.T) {
	vals := []float64{1.0, -1.0, 3.14159, 1e10, -1e-5, 123456.789, 0.001}
	for _, eb := range []float64{1e-2, 1e-4, 1e-8, 1.5e-3, 1} {
		out := encodeDecode(t, vals, eb)
		for i, v := range vals {
			if math.Abs(out[i]-v) > eb {
				t.Fatalf("eb=%g: |%g - %g| = %g > eb", eb, out[i], v, math.Abs(out[i]-v))
			}
		}
	}
}

func TestZeroAndSmallValues(t *testing.T) {
	eb := 0.01
	out := encodeDecode(t, []float64{0, 0.005, -0.0099, 1e-300}, eb)
	for _, v := range out {
		if v != 0 {
			t.Fatalf("small values should decode to exactly 0, got %v", v)
		}
	}
}

func TestNonFiniteValues(t *testing.T) {
	vals := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	out := encodeDecode(t, vals, 1e-3)
	if !math.IsInf(out[0], 1) || !math.IsInf(out[1], -1) || !math.IsNaN(out[2]) {
		t.Fatalf("non-finite values must round-trip exactly: %v", out)
	}
}

func TestNonPositiveBoundIsLossless(t *testing.T) {
	vals := []float64{1.23456789012345, -9.87654321e-12, 1e15}
	for _, eb := range []float64{0, -1, math.Inf(1), math.NaN()} {
		out := encodeDecode(t, vals, eb)
		for i := range vals {
			if out[i] != vals[i] {
				t.Fatalf("eb=%v should be lossless: got %v want %v", eb, out[i], vals[i])
			}
		}
	}
}

func TestSubnormalAboveBound(t *testing.T) {
	// eb smaller than a subnormal value: forces the raw escape.
	eb := 1e-320
	v := 5e-320 // subnormal
	out := encodeDecode(t, []float64{v}, eb)
	if math.Abs(out[0]-v) > eb {
		t.Fatalf("subnormal: error %g > %g", math.Abs(out[0]-v), eb)
	}
}

func TestHugeDynamicRange(t *testing.T) {
	// The CDNUMC case from the paper: values spanning 1e-3..1e11 with an
	// absolute bound derived from the range. Every outlier must respect it.
	eb := 1e-7 * 1e11 // ebrel=1e-7 of range 1e11
	vals := []float64{1e-3, 6.936168, 42, 1e7, 9.99e10}
	out := encodeDecode(t, vals, eb)
	for i, v := range vals {
		if math.Abs(out[i]-v) > eb {
			t.Fatalf("value %g: error %g > bound %g", v, math.Abs(out[i]-v), eb)
		}
	}
}

func TestBitsForMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	eb := 1e-4
	for i := 0; i < 200; i++ {
		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
		w := bitstream.NewWriter(0)
		enc := NewEncoder(w, eb)
		enc.Encode(v)
		if int(w.Len()) != enc.BitsFor(v) {
			t.Fatalf("BitsFor(%g)=%d but wrote %d bits", v, enc.BitsFor(v), w.Len())
		}
	}
}

func TestTruncationSavesBits(t *testing.T) {
	// With a loose bound, values near 1.0 should need far fewer than 64 bits.
	w := bitstream.NewWriter(0)
	enc := NewEncoder(w, 1e-3)
	enc.Encode(1.2345678)
	if w.Len() >= 45 {
		t.Fatalf("loose bound should truncate aggressively, used %d bits", w.Len())
	}
}

func TestErrorBoundQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eb := math.Pow(10, -float64(rng.Intn(10))) * (rng.Float64() + 0.1)
		n := rng.Intn(100) + 1
		vals := make([]float64, n)
		for i := range vals {
			scale := math.Pow(10, float64(rng.Intn(20)-10))
			vals[i] = rng.NormFloat64() * scale
		}
		w := bitstream.NewWriter(0)
		enc := NewEncoder(w, eb)
		for _, v := range vals {
			enc.Encode(v)
		}
		r := bitstream.NewReaderBits(w.Bytes(), w.Len())
		dec := NewDecoder(r)
		for _, v := range vals {
			got, err := dec.Decode()
			if err != nil {
				return false
			}
			if math.Abs(got-v) > eb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	w := bitstream.NewWriter(0)
	enc := NewEncoder(w, 1e-3)
	enc.Encode(123.456)
	// Chop the stream short.
	r := bitstream.NewReaderBits(w.Bytes(), 5)
	dec := NewDecoder(r)
	if _, err := dec.Decode(); err == nil {
		t.Fatal("expected error on truncated stream")
	}
}

func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 1000
	}
	b.SetBytes(int64(len(vals) * 8))
	for i := 0; i < b.N; i++ {
		w := bitstream.NewWriter(len(vals) * 4)
		enc := NewEncoder(w, 1e-4)
		for _, v := range vals {
			enc.Encode(v)
		}
	}
}

func TestEncodeReturnsDecoderValue(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, eb := range []float64{1e-2, 1e-5, 1e-9, 0, -1} {
		w := bitstream.NewWriter(0)
		enc := NewEncoder(w, eb)
		vals := make([]float64, 200)
		rets := make([]float64, 200)
		for i := range vals {
			vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(10)-5))
			rets[i] = enc.Encode(vals[i])
		}
		r := bitstream.NewReaderBits(w.Bytes(), w.Len())
		dec := NewDecoder(r)
		for i := range vals {
			got, err := dec.Decode()
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(rets[i]) {
				t.Fatalf("eb=%g val=%g: Encode returned %g, Decode produced %g",
					eb, vals[i], rets[i], got)
			}
		}
	}
}

// TestValueMatchesEncode pins Value(v) to Encode(v)'s return, bit for bit,
// and checks that Value writes nothing: compressors reconstruct an
// unpredictable point with Value during the scan and write its bits
// afterwards.
func TestValueMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	sub := math.SmallestNonzeroFloat64
	for _, eb := range []float64{1e-2, 1e-5, 1e-9, 1e-320, 0, -1, math.Inf(1), math.NaN()} {
		vals := []float64{0, math.Copysign(0, -1), eb, -eb, math.Nextafter(eb, 2), 2 * eb,
			math.NaN(), math.Inf(1), math.Inf(-1), sub, -sub, 5e-320, 2.2e-308,
			math.MaxFloat64, -math.MaxFloat64}
		for i := 0; i < 500; i++ {
			vals = append(vals, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
		}
		w := bitstream.NewWriter(0)
		enc := NewEncoder(w, eb)
		for _, v := range vals {
			want := enc.Encode(v)
			n := w.Len()
			if got := enc.Value(v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("eb=%g v=%g: Value %x, Encode returned %x",
					eb, v, math.Float64bits(got), math.Float64bits(want))
			}
			if w.Len() != n {
				t.Fatalf("eb=%g v=%g: Value wrote %d bits", eb, v, w.Len()-n)
			}
		}
	}
}
