// Command szgen writes the synthetic ATM / APS / Hurricane data sets to
// disk as raw little-endian float32 files, for use with sz.
//
//	szgen -set ATM -scale 8 -o atm.f32
//	szgen -set Hurricane -scale 4 -o hur.f32
//	szgen -variant CDNUMC -scale 8 -o cdnumc.f32   # ATM named variable
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/datagen"
	"repro/internal/grid"
)

func main() {
	var (
		set     = flag.String("set", "ATM", "data set: ATM | APS | Hurricane | HACC")
		variant = flag.String("variant", "", "ATM variable variant (FREQSH | SNOWHLND | CDNUMC)")
		scale   = flag.Int("scale", 8, "divide paper dims by this factor")
		seed    = flag.Int64("seed", 1, "generator seed")
		out     = flag.String("o", "", "output file (raw little-endian float32); - for stdout")
	)
	flag.Parse()
	if err := run(*set, *variant, *scale, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "szgen:", err)
		os.Exit(1)
	}
}

func run(set, variant string, scale int, seed int64, out string) error {
	if out == "" {
		return fmt.Errorf("missing -o output file")
	}
	if scale < 1 {
		scale = 1
	}
	div := func(dims []int) []int {
		o := make([]int, len(dims))
		for i, d := range dims {
			o[i] = d / scale
			if o[i] < 8 {
				o[i] = 8
			}
		}
		return o
	}
	var a *grid.Array
	switch set {
	case "ATM":
		d := div(datagen.ATMDims)
		if variant != "" {
			a = datagen.ATMVariant(variant, d[0], d[1], seed)
		} else {
			a = datagen.ATM(d[0], d[1], seed)
		}
	case "APS":
		d := div(datagen.APSDims)
		a = datagen.APS(d[0], d[1], seed)
	case "Hurricane":
		d := div(datagen.HurricaneDims)
		a = datagen.Hurricane(d[0], d[1], d[2], seed)
	case "HACC":
		// 16M particles at scale 1, divided by the scale factor.
		n := 1 << 24 / scale
		if n < 1024 {
			n = 1024
		}
		a = datagen.HACC(n, seed)
	default:
		return fmt.Errorf("unknown -set %q (ATM|APS|Hurricane|HACC)", set)
	}
	var f *os.File
	if out == "-" {
		f = os.Stdout
	} else {
		var err error
		f, err = os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
	}
	if err := a.WriteRaw(f, grid.Float32); err != nil {
		return err
	}
	dims := ""
	for i, d := range a.Dims {
		if i > 0 {
			dims += "x"
		}
		dims += fmt.Sprint(d)
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %d float32 values, dims %s (use sz c -dims %s -dtype f32)\n",
		out, a.Len(), dims, dims)
	return nil
}
