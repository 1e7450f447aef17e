package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/blocked"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/huffman"
)

// measureAllocated returns the bytes op allocates, with the collector
// disabled so nothing is reclaimed mid-measurement. Two forced GCs first
// empty the scratch pools (sync.Pool drops its contents across two GC
// cycles), so the op pays for — and the measurement sees — its full
// working set. With the hot path pooled, allocation during one op is a
// faithful stand-in for the peak memory it pins: the working buffers are
// allocated once and reused, not churned.
//
// The op runs on one P. sync.Pool keeps a private slot per P that no
// other P can take from, so on several Ps a buffer recycled on one and
// requested on another is allocated again: under a loaded full test
// run, a preempted blocked decompress that resumed on the other P paid
// for one more 4 MiB quantization-code buffer (14.9 MB against 10.7 MB),
// which a run on one P never does. Concurrent work, such as the blocked
// writer's and reader's slab goroutines, still interleaves on that P,
// but their working sets overlap only where one blocks or is preempted,
// so a figure with several goroutines busy is a lower bound on its peak.
func measureAllocated(t *testing.T, op func()) int64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	op()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestAdmissionChargeCalibration pins the admission-charge constants to
// reality: for each calibrated codec path the charge must stay within 2x
// of the measured peak in both directions — neither letting real memory
// exceed the budget the governor thinks it granted, nor rejecting
// traffic the daemon could easily carry.
//
// The blocked *decompress* charge is deliberately not calibrated here:
// it is an adversarial bound (a hostile container may legally carry
// compressed slabs up to 4x their raw size), so it intentionally sits
// above the well-formed-container peak.
func TestAdmissionChargeCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("memory calibration is slow")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation accounting; run without -race")
	}
	s := New(Config{})
	a := datagen.Hurricane(32, 192, 192, 7) // ~4.5 MiB as float32
	var rawBuf bytes.Buffer
	if err := a.WriteRaw(&rawBuf, grid.Float32); err != nil {
		t.Fatal(err)
	}
	raw := rawBuf.Bytes()
	dims := []int{32, 192, 192}

	encode := func(name string, p codec.Params) []byte {
		t.Helper()
		c, err := codec.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		zw, err := c.NewWriter(&out, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(raw); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}

	check := func(path, name string, charge, measured int64) {
		t.Helper()
		t.Logf("%-20s charge %10d  measured %10d  ratio %.2f", path+"/"+name, charge, measured, float64(charge)/float64(measured))
		if charge > 2*measured {
			t.Errorf("%s %s: charge %d over-estimates measured peak %d by more than 2x", path, name, charge, measured)
		}
		if measured > 2*charge {
			t.Errorf("%s %s: measured peak %d exceeds charge %d by more than 2x (budget can be overrun)", path, name, measured, charge)
		}
	}

	compressParams := map[string]codec.Params{
		"sz14":    {Dims: dims, DType: grid.Float32, Mode: core.BoundAbs, AbsBound: 1e-3},
		"gzip":    {},
		"blocked": {Dims: dims, DType: grid.Float32, Mode: core.BoundAbs, AbsBound: 1e-3, SlabRows: 8, Workers: 2},
	}
	measureCompress := func(name string, p codec.Params, in []byte) int64 {
		t.Helper()
		c, err := codec.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return measureAllocated(t, func() {
			zw, err := c.NewWriter(io.Discard, p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := zw.Write(in); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, name := range []string{"sz14", "gzip", "blocked"} {
		p := compressParams[name]
		charge, _ := s.compressCharge(name, int64(len(raw)), p)
		check("compress", name, charge, measureCompress(name, p, raw))
	}

	// The blocked writer on input where every point escapes — noise under
	// a tiny bound, which any client can send — whose slabs also carry 33
	// outlier bits per float32 cell.
	noise := grid.New(dims...)
	rng := rand.New(rand.NewSource(7))
	for i := range noise.Data {
		noise.Data[i] = float64(rng.Float32())
	}
	var noiseBuf bytes.Buffer
	if err := noise.WriteRaw(&noiseBuf, grid.Float32); err != nil {
		t.Fatal(err)
	}
	escP := compressParams["blocked"]
	escP.AbsBound = 1e-9
	slab := &grid.Array{Dims: []int{8, 192, 192}, Data: noise.Data[:8*192*192]}
	if _, st, err := core.Compress(slab, core.Params{Mode: core.BoundAbs, AbsBound: escP.AbsBound, OutputType: grid.Float32}); err != nil {
		t.Fatal(err)
	} else if st.Histogram[0] != uint64(slab.Len()) {
		t.Fatalf("all-escape input: %d of %d points escape", st.Histogram[0], slab.Len())
	}
	charge, _ := s.compressCharge("blocked", int64(noiseBuf.Len()), escP)
	check("compress", "blocked/all-escape", charge, measureCompress("blocked", escP, noiseBuf.Bytes()))

	// The blocked writer on a float64 field, whose slabs hold their
	// samples and reconstruction at 8 bytes a cell.
	var raw64 bytes.Buffer
	if err := a.WriteRaw(&raw64, grid.Float64); err != nil {
		t.Fatal(err)
	}
	p64 := compressParams["blocked"]
	p64.DType = grid.Float64
	charge, _ = s.compressCharge("blocked", int64(raw64.Len()), p64)
	check("compress", "blocked/float64", charge, measureCompress("blocked", p64, raw64.Bytes()))

	for _, name := range []string{"sz14", "gzip"} {
		stream := encode(name, compressParams[name])
		c, err := codec.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		measured := measureAllocated(t, func() {
			zr, err := c.NewReader(bytes.NewReader(stream), codec.Params{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, zr); err != nil {
				t.Fatal(err)
			}
			zr.Close()
		})
		// The handler peeks the stream prefix for header-bearing codecs;
		// hand the charge the same view.
		charge, _ := s.decompressCharge(name, int64(len(stream)), stream[:blockedHeaderPeek(stream)], codec.Params{})
		check("decompress", name, charge, measured)
	}

	// Blocked decompress with one decode in flight (what handleDecompress
	// runs) and with one per CPU: assert only the safe direction (the
	// charge is an adversarial upper bound and must never under-cover).
	// On one P the multi-worker figure is a lower bound on the window's
	// real peak, since decodes there overlap only when one is preempted,
	// so the window is also checked from the one-worker figure (about
	// one slab decode's working set, the served slab's output buffer
	// being recycled into the next decode): workers decodes in flight
	// plus the slab being served must fit the charge at that figure each.
	stream := encode("blocked", compressParams["blocked"])
	c, _ := codec.Lookup("blocked")
	var perSlab int64
	for _, workers := range []int{1, runtime.NumCPU()} {
		p := codec.Params{Workers: workers}
		measured := measureAllocated(t, func() {
			zr, err := c.NewReader(bytes.NewReader(stream), p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, zr); err != nil {
				t.Fatal(err)
			}
			zr.Close()
		})
		charge, _ := s.decompressCharge("blocked", int64(len(stream)), stream[:blockedHeaderPeek(stream)], p)
		path := fmt.Sprintf("decompress/blocked/w%d", workers)
		t.Logf("%-20s charge %10d  measured %10d  ratio %.2f", path, charge, measured, float64(charge)/float64(measured))
		if measured > charge {
			t.Errorf("%s: measured peak %d exceeds the adversarial charge %d", path, measured, charge)
		}
		if workers == 1 {
			perSlab = measured
		}
		if window := int64(workers+1) * perSlab; window > charge {
			t.Errorf("%s: %d slabs at the one-worker figure %d (%d bytes) exceed the adversarial charge %d",
				path, workers+1, perSlab, window, charge)
		}
	}
}

// TestSharedCodebookChargeCalibration: the charge for a v3 shared
// codebook follows the alphabet its section declares. Deserialize of the
// default 2^8-symbol alphabet (a Hurricane field's shared codebook) and
// of a full 2^16-symbol one (every symbol coded) must each allocate
// within the charge and at least half of it. Both decompress and slab
// reads add the charge for a shared-codebook container.
func TestSharedCodebookChargeCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("memory calibration is slow")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation accounting; run without -race")
	}
	a := datagen.Hurricane(32, 192, 192, 7)
	var raw bytes.Buffer
	if err := a.WriteRaw(&raw, grid.Float32); err != nil {
		t.Fatal(err)
	}
	container := func(shared bool) []byte {
		t.Helper()
		c, _ := codec.Lookup("blocked")
		var out bytes.Buffer
		zw, err := c.NewWriter(&out, codec.Params{Dims: []int{32, 192, 192}, DType: grid.Float32,
			Mode: core.BoundAbs, AbsBound: 1e-3, SlabRows: 8, Streams: 4, SharedCodebook: shared})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(raw.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	shared, plain := container(true), container(false)
	ix, err := blocked.Inspect(shared)
	if err != nil {
		t.Fatal(err)
	}
	hurricane := shared[ix.HeaderLen-ix.CodebookLen : ix.HeaderLen]

	freqs := make([]uint64, huffman.MaxSymbols)
	for i := range freqs {
		freqs[i] = uint64(1 + i*7919%1000)
	}
	full, err := huffman.New(freqs)
	if err != nil {
		t.Fatal(err)
	}
	w := bitstream.NewWriter(0)
	full.Serialize(w)

	for _, tc := range []struct {
		name    string
		section []byte
		symbols int
	}{
		{"2^8", hurricane, 1 << 8},
		{"2^16", w.Bytes(), 1 << 16},
	} {
		var cb *huffman.Codebook
		measured := measureAllocated(t, func() {
			cb, err = huffman.Deserialize(bitstream.NewReader(tc.section))
		})
		if err != nil {
			t.Fatal(err)
		}
		if cb.NumSymbols() != tc.symbols {
			t.Fatalf("%s: codebook has %d symbols", tc.name, cb.NumSymbols())
		}
		charge := sharedCodebookCharge(tc.section)
		t.Logf("shared codebook %-5s charge %8d  measured %8d  ratio %.2f", tc.name, charge, measured, float64(charge)/float64(measured))
		if measured > charge || charge > 2*measured {
			t.Errorf("%s: measured %d against charge %d, want within the charge and at least half of it", tc.name, measured, charge)
		}
	}

	// Both read paths add the codebook's charge to what the same
	// geometry costs without one.
	cbCharge := sharedCodebookCharge(hurricane)
	s := New(Config{})
	p := codec.Params{Workers: 1}
	withCB, _ := s.decompressCharge("blocked", int64(len(shared)), shared[:containerPeekLen], p)
	without, _ := s.decompressCharge("blocked", int64(len(plain)), plain[:containerPeekLen], p)
	if withCB-without != cbCharge {
		t.Errorf("decompress charge %d with a shared codebook, %d without; want a difference of %d", withCB, without, cbCharge)
	}
	if d := slabCharge(0, shared, 1, 2, false) - slabCharge(0, plain, 1, 2, false); d != cbCharge {
		t.Errorf("slab charge differs by %d with a shared codebook, want %d", d, cbCharge)
	}
	if c := slabCharge(0, shared, 1, 2, true); c != slabCharge(0, shared, 1, 2, false) {
		t.Errorf("extent read of a shared-codebook container charged %d, want the decode's %d", c, slabCharge(0, shared, 1, 2, false))
	}
}

func blockedHeaderPeek(stream []byte) int {
	if len(stream) > 64 {
		return 64
	}
	return len(stream)
}
