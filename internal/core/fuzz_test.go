package core

import (
	"math"
	"testing"

	"repro/internal/grid"
)

// FuzzDecompress feeds arbitrary bytes to the decoder: it must never
// panic, and whatever it accepts must have a well-formed header. Seeds
// include valid streams so mutation explores deep paths.
func FuzzDecompress(f *testing.F) {
	a := grid.New(8, 9)
	for i := range a.Data {
		a.Data[i] = math.Sin(float64(i) * 0.2)
	}
	for _, p := range []Params{
		{Mode: BoundAbs, AbsBound: 1e-3},
		{Mode: BoundAbs, AbsBound: 1e-6, Layers: 2, IntervalBits: 4},
		{Mode: BoundAbs, AbsBound: 1e-2, OutputType: grid.Float32},
		// VersionMulti streams, so mutation reaches the sub-stream
		// length table.
		{Mode: BoundAbs, AbsBound: 1e-3, Streams: 2},
		{Mode: BoundAbs, AbsBound: 1e-3, Streams: 4},
		{Mode: BoundAbs, AbsBound: 1e-4, Streams: 8, OutputType: grid.Float32},
	} {
		stream, _, err := Compress(a, p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(stream)
	}
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		out, h, err := Decompress(data)
		if err != nil {
			return
		}
		if out == nil || h == nil {
			t.Fatal("nil result without error")
		}
		if out.Len() != h.N() {
			t.Fatalf("decoded %d values, header says %d", out.Len(), h.N())
		}
	})
}

// FuzzRoundTrip compresses fuzz-shaped inputs and checks the bound.
func FuzzRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(10), 3)
	f.Add(int64(2), uint8(1), uint8(30), 6)
	f.Add(int64(3), uint8(40), uint8(2), 1)
	f.Fuzz(func(t *testing.T, seed int64, d0, d1 uint8, ebExp int) {
		rows := int(d0)%40 + 1
		cols := int(d1)%40 + 1
		if ebExp < 0 {
			ebExp = -ebExp
		}
		eb := math.Pow(10, -float64(ebExp%10)-1)
		a := grid.New(rows, cols)
		s := seed
		for i := range a.Data {
			// Cheap deterministic pseudo-noise.
			s = s*6364136223846793005 + 1442695040888963407
			a.Data[i] = math.Sin(float64(i)*0.07) + float64(s%1000)/1e5
		}
		stream, _, err := Compress(a, Params{Mode: BoundAbs, AbsBound: eb})
		if err != nil {
			t.Fatal(err)
		}
		out, h, err := Decompress(stream)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Data {
			if math.Abs(a.Data[i]-out.Data[i]) > h.AbsBound {
				t.Fatalf("bound violated at %d", i)
			}
		}
	})
}
