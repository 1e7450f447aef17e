package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grid"
)

// BenchmarkCoreKernels compares each fused kernel against the generic scan
// on the same geometry, for both compression and decompression. The
// "generic" variants force the reference path, so the ratio is the kernel
// speedup in isolation (Huffman coding and stream assembly included).
// "kernel" runs the float64 shape on the widened samples, "kernel32" the
// float32 shape on the samples themselves (every case is float32 data).
func BenchmarkCoreKernels(b *testing.B) {
	type benchCase struct {
		name string
		a    *grid.Array
		p    Params
	}
	var cases []benchCase
	for _, tc := range []struct {
		name   string
		dims   []int
		layers int
	}{
		{"1D-L1", []int{1 << 16}, 1},
		{"2D-L1", []int{256, 256}, 1},
		{"3D-L1", []int{40, 40, 40}, 1},
		{"2D-L2", []int{256, 256}, 2},
		{"3D-L2", []int{40, 40, 40}, 2},
	} {
		rng := rand.New(rand.NewSource(1))
		cases = append(cases, benchCase{tc.name, randArray(rng, tc.dims, true),
			Params{Mode: BoundRel, RelBound: 1e-4, Layers: tc.layers, OutputType: grid.Float32}})
	}
	// The per-slab unit of perfbench's local-compress: the first 10-plane
	// slab of its first 50×250×250 Hurricane field at --seed 1, compressed
	// as its blocked container does (abs 1e-3, 4 sub-streams).
	field := datagen.Hurricane(50, 250, 250, 1000004)
	slab := &grid.Array{Dims: []int{10, 250, 250}, Data: field.Data[:10*250*250]}
	slabParams := Params{Mode: BoundAbs, AbsBound: 1e-3, OutputType: grid.Float32, Streams: 4}
	cases = append(cases, benchCase{"3D-L1-hurricane-slab", slab, slabParams})
	// The same slab with every 37th sample ×1e3 and a NaN every 1009th, so
	// nearly every 64-code block holds an escape: the worst case for the
	// escape marks, which let writeOutliers and readOutliers skip blocks.
	heavy := &grid.Array{Dims: slab.Dims, Data: append([]float64(nil), slab.Data...)}
	for i := range heavy.Data {
		if i%37 == 0 {
			heavy.Data[i] *= 1e3
		}
		if i%1009 == 0 {
			heavy.Data[i] = math.NaN()
		}
	}
	cases = append(cases, benchCase{"3D-L1-escape-heavy-slab", heavy, slabParams})

	for _, tc := range cases {
		a, p := tc.a, tc.p
		stream, _, err := Compress(a, p)
		if err != nil {
			b.Fatal(err)
		}
		// The float32 shape, as the blocked writer and reader run it on
		// a float32 field's raw slab bytes.
		data32, out32 := a.Float32s(), make([]float32, a.Len())
		b.Run(fmt.Sprintf("compress/%s/kernel32", tc.name), func(b *testing.B) {
			b.SetBytes(int64(a.Len() * 4))
			for i := 0; i < b.N; i++ {
				if _, _, err := CompressSamples(nil, data32, a.Dims, p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("decompress/%s/kernel32", tc.name), func(b *testing.B) {
			b.SetBytes(int64(a.Len() * 4))
			for i := 0; i < b.N; i++ {
				if _, _, err := DecompressSamples(stream, out32, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, variant := range []struct {
			name    string
			kernels bool
		}{{"kernel", true}, {"generic", false}} {
			b.Run(fmt.Sprintf("compress/%s/%s", tc.name, variant.name), func(b *testing.B) {
				b.SetBytes(int64(a.Len() * 4))
				for i := 0; i < b.N; i++ {
					if _, _, err := compress(nil, a, p, variant.kernels); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("decompress/%s/%s", tc.name, variant.name), func(b *testing.B) {
				b.SetBytes(int64(a.Len() * 4))
				for i := 0; i < b.N; i++ {
					if _, _, err := decompress(stream, variant.kernels, nil, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
