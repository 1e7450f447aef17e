package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitstream"
	"repro/internal/grid"
	"repro/internal/huffman"
	"repro/internal/metrics"
	"repro/internal/predictor"
	"repro/internal/quant"
)

// smooth2D builds a smooth 2D field with a few sharp features, the data
// character the paper targets.
func smooth2D(m, n int, seed int64) *grid.Array {
	rng := rand.New(rand.NewSource(seed))
	a := grid.New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			x := float64(i) / float64(m)
			y := float64(j) / float64(n)
			v := math.Sin(4*math.Pi*x)*math.Cos(6*math.Pi*y) + 0.3*math.Sin(20*math.Pi*x*y)
			if rng.Float64() < 0.001 {
				v += rng.NormFloat64() * 5 // spikes
			}
			a.Set(v, i, j)
		}
	}
	return a
}

func smooth3D(d0, d1, d2 int) *grid.Array {
	a := grid.New(d0, d1, d2)
	for i := 0; i < d0; i++ {
		for j := 0; j < d1; j++ {
			for k := 0; k < d2; k++ {
				v := math.Sin(2*math.Pi*float64(i)/float64(d0)) *
					math.Cos(3*math.Pi*float64(j)/float64(d1)) *
					math.Sin(5*math.Pi*float64(k)/float64(d2))
				a.Set(v, i, j, k)
			}
		}
	}
	return a
}

func compressDecompress(t *testing.T, a *grid.Array, p Params) (*grid.Array, *Stats, *Header) {
	t.Helper()
	stream, st, err := Compress(a, p)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	out, h, err := Decompress(stream)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if err := grid.SameShape(a, out); err != nil {
		t.Fatalf("shape: %v", err)
	}
	return out, st, h
}

func assertBound(t *testing.T, a, out *grid.Array, eb float64) {
	t.Helper()
	for i := range a.Data {
		if math.Abs(a.Data[i]-out.Data[i]) > eb {
			t.Fatalf("bound violated at %d: |%g - %g| = %g > %g",
				i, a.Data[i], out.Data[i], math.Abs(a.Data[i]-out.Data[i]), eb)
		}
	}
}

func TestRoundTrip2DAbsBound(t *testing.T) {
	a := smooth2D(64, 80, 1)
	p := Params{Mode: BoundAbs, AbsBound: 1e-3}
	out, st, h := compressDecompress(t, a, p)
	assertBound(t, a, out, h.AbsBound)
	if st.HitRate < 0.5 {
		t.Fatalf("hit rate %v unexpectedly low for smooth data", st.HitRate)
	}
	if st.CompressionFactor < 2 {
		t.Fatalf("CF %v < 2 on smooth data at eb=1e-3", st.CompressionFactor)
	}
}

func TestRoundTrip2DRelBound(t *testing.T) {
	a := smooth2D(64, 80, 2)
	_, _, rng := a.Range()
	p := Params{Mode: BoundRel, RelBound: 1e-4}
	out, _, h := compressDecompress(t, a, p)
	wantEb := 1e-4 * rng
	if math.Abs(h.AbsBound-wantEb) > 1e-15*rng {
		t.Fatalf("effective bound %v, want %v", h.AbsBound, wantEb)
	}
	assertBound(t, a, out, h.AbsBound)
}

func TestRoundTrip3D(t *testing.T) {
	a := smooth3D(20, 24, 28)
	p := Params{Mode: BoundRel, RelBound: 1e-4, Layers: 1}
	out, st, h := compressDecompress(t, a, p)
	assertBound(t, a, out, h.AbsBound)
	if st.CompressionFactor < 4 {
		t.Fatalf("3D smooth data should compress well, CF=%v", st.CompressionFactor)
	}
}

func TestRoundTrip1D(t *testing.T) {
	// The longer array is past the 2^20 codes whose escape marks the
	// compressor and the decoder keep on the stack, and every 37th sample
	// of it escapes.
	for _, n := range []int{2000, 1<<20 + 4097} {
		a := grid.New(n)
		for i := range a.Data {
			a.Data[i] = math.Sin(float64(i) * 0.01)
			if n > 1<<20 && i%37 == 0 {
				a.Data[i] *= 1e3
			}
		}
		p := Params{Mode: BoundAbs, AbsBound: 1e-5}
		out, _, h := compressDecompress(t, a, p)
		assertBound(t, a, out, h.AbsBound)
	}
}

// TestEscapeMarksAcrossWords round-trips a 3D slab whose 8,192 codes span
// two words of the escape bitmap, with escapes forced at the first and
// last code of a 64-code block, of a bitmap word and of the array. eb is
// a power of two and every sample is float32-exact, so each hit
// reconstructs exactly and an escape stores its raw pattern: the data
// equal their own reconstruction, and exactly the forced samples escape.
func TestEscapeMarksAcrossWords(t *testing.T) {
	dims := []int{2, 64, 64}
	const eb = 1.0 / 1024
	forced := map[int]bool{0: true, 63: true, 64: true, 4095: true, 4096: true, 8191: true}
	a := grid.New(dims...)
	pred, err := predictor.New(dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	coord := make([]int, len(dims))
	rng := rand.New(rand.NewSource(7))
	for idx := range a.Data {
		k := rng.Intn(7) - 3
		if forced[idx] {
			k = 1000 // past the radius of 127 intervals at m = 8
		}
		a.Data[idx] = pred.Predict(a.Data, idx, coord) + float64(k)*2*eb
		advanceCoord(coord, dims)
	}
	for _, streams := range []int{1, 4} {
		p := Params{Mode: BoundAbs, AbsBound: eb, OutputType: grid.Float32, Streams: streams}
		out, st, h := compressDecompress(t, a, p)
		assertBound(t, a, out, h.AbsBound)
		if h.NumOutliers != len(forced) || st.N-st.Predictable != len(forced) {
			t.Fatalf("streams=%d: header outliers %d, stats %d, want %d",
				streams, h.NumOutliers, st.N-st.Predictable, len(forced))
		}
		for idx := range forced {
			if out.Data[idx] != a.Data[idx] {
				t.Fatalf("streams=%d: escape at %d decoded %v, want %v", streams, idx, out.Data[idx], a.Data[idx])
			}
		}
	}
}

func TestLayers2Through4(t *testing.T) {
	a := smooth2D(48, 48, 3)
	for n := 2; n <= 4; n++ {
		p := Params{Mode: BoundAbs, AbsBound: 1e-4, Layers: n}
		out, _, h := compressDecompress(t, a, p)
		assertBound(t, a, out, h.AbsBound)
		if h.Layers != n {
			t.Fatalf("header layers %d, want %d", h.Layers, n)
		}
	}
}

func TestIntervalBitsSweep(t *testing.T) {
	a := smooth2D(32, 32, 4)
	for _, m := range []int{2, 4, 8, 12, 16} {
		p := Params{Mode: BoundAbs, AbsBound: 1e-4, IntervalBits: m}
		out, st, h := compressDecompress(t, a, p)
		assertBound(t, a, out, h.AbsBound)
		if len(st.Histogram) != 1<<m {
			t.Fatalf("m=%d: histogram len %d", m, len(st.Histogram))
		}
	}
}

func TestFloat32Mode(t *testing.T) {
	a := smooth2D(40, 40, 5)
	// Make the data genuinely float32.
	for i := range a.Data {
		a.Data[i] = float64(float32(a.Data[i]))
	}
	p := Params{Mode: BoundAbs, AbsBound: 1e-4, OutputType: grid.Float32}
	out, st, h := compressDecompress(t, a, p)
	assertBound(t, a, out, h.AbsBound)
	// Every reconstruction must be exactly float32-representable.
	for i, v := range out.Data {
		if v != float64(float32(v)) {
			t.Fatalf("value %d not float32-representable: %v", i, v)
		}
	}
	if st.OriginalBytes != a.Len()*4 {
		t.Fatalf("float32 OriginalBytes = %d", st.OriginalBytes)
	}
}

func TestFloat32ModeWithFloat64Input(t *testing.T) {
	// Float64 data mislabelled as float32: the escape path must still hold
	// the bound relative to the original float64 values.
	rng := rand.New(rand.NewSource(6))
	a := grid.New(500)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64() * 1e10 // large magnitudes stress ulp
	}
	p := Params{Mode: BoundAbs, AbsBound: 1e-8, OutputType: grid.Float32}
	out, _, h := compressDecompress(t, a, p)
	assertBound(t, a, out, h.AbsBound)
}

func TestConstantData(t *testing.T) {
	a := grid.New(10, 10)
	for i := range a.Data {
		a.Data[i] = 42.5
	}
	p := Params{Mode: BoundRel, RelBound: 1e-4} // range 0 -> degenerate bound
	out, st, _ := compressDecompress(t, a, p)
	for i := range out.Data {
		if out.Data[i] != 42.5 {
			t.Fatalf("constant data must round-trip exactly, got %v", out.Data[i])
		}
	}
	if st.CompressionFactor < 10 {
		t.Fatalf("constant data CF = %v, want large", st.CompressionFactor)
	}
}

func TestDataWithNaNAndInf(t *testing.T) {
	a := smooth2D(16, 16, 7)
	a.Data[5] = math.NaN()
	a.Data[100] = math.Inf(1)
	a.Data[200] = math.Inf(-1)
	p := Params{Mode: BoundAbs, AbsBound: 1e-3}
	out, _, _ := compressDecompress(t, a, p)
	if !math.IsNaN(out.Data[5]) {
		t.Fatalf("NaN lost: %v", out.Data[5])
	}
	if !math.IsInf(out.Data[100], 1) || !math.IsInf(out.Data[200], -1) {
		t.Fatal("Inf lost")
	}
	for i := range a.Data {
		if i == 5 || i == 100 || i == 200 {
			continue
		}
		if math.Abs(a.Data[i]-out.Data[i]) > 1e-3 {
			t.Fatalf("bound violated near specials at %d", i)
		}
	}
}

func TestHugeDynamicRange(t *testing.T) {
	// The CDNUMC scenario: values spanning 1e-3..1e11. SZ must respect the
	// bound exactly (this is where ZFP fails, per the paper).
	rng := rand.New(rand.NewSource(8))
	a := grid.New(50, 50)
	for i := range a.Data {
		a.Data[i] = math.Pow(10, rng.Float64()*14-3) // 1e-3 .. 1e11
	}
	p := Params{Mode: BoundRel, RelBound: 1e-7}
	out, _, h := compressDecompress(t, a, p)
	assertBound(t, a, out, h.AbsBound)
}

func TestRandomNoiseStaysBounded(t *testing.T) {
	// Unpredictable white noise: poor compression but the bound must hold.
	rng := rand.New(rand.NewSource(9))
	a := grid.New(40, 40)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	p := Params{Mode: BoundAbs, AbsBound: 1e-9}
	out, st, h := compressDecompress(t, a, p)
	assertBound(t, a, out, h.AbsBound)
	if st.HitRate > 0.9 {
		t.Fatalf("white noise at tight bound should not hit 90%%: %v", st.HitRate)
	}
}

func TestErrorBoundPropertyQuick(t *testing.T) {
	// The paper's core guarantee under random shapes, bounds, layers, and m.
	f := func(seed int64, layerSel, mSel, dimSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		layers := int(layerSel%4) + 1
		m := []int{2, 4, 8, 12}[int(mSel)%4]
		var a *grid.Array
		switch dimSel % 3 {
		case 0:
			a = grid.New(rng.Intn(200) + 2)
		case 1:
			a = grid.New(rng.Intn(20)+2, rng.Intn(20)+2)
		default:
			a = grid.New(rng.Intn(8)+2, rng.Intn(8)+2, rng.Intn(8)+2)
		}
		for i := range a.Data {
			// Mix of smooth and noisy.
			a.Data[i] = math.Sin(float64(i)*0.1) + rng.NormFloat64()*0.1
		}
		eb := math.Pow(10, -float64(rng.Intn(6)+1))
		p := Params{Mode: BoundAbs, AbsBound: eb, Layers: layers, IntervalBits: m}
		stream, _, err := Compress(a, p)
		if err != nil {
			return false
		}
		out, h, err := Decompress(stream)
		if err != nil {
			return false
		}
		for i := range a.Data {
			if math.Abs(a.Data[i]-out.Data[i]) > h.AbsBound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicStreams(t *testing.T) {
	a := smooth2D(32, 32, 10)
	p := Params{Mode: BoundAbs, AbsBound: 1e-4}
	s1, _, err := Compress(a, p)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := Compress(a, p)
	if err != nil {
		t.Fatal(err)
	}
	if string(s1) != string(s2) {
		t.Fatal("compression is not deterministic")
	}
}

func TestIdempotentRecompression(t *testing.T) {
	// Compressing the decompressed output again with the same bound must
	// keep total error within 2×eb of the original (triangle inequality),
	// and the second round-trip should be near-lossless relative to the
	// first (every point already sits on an interval centre).
	a := smooth2D(32, 32, 11)
	p := Params{Mode: BoundAbs, AbsBound: 1e-4}
	out1, _, _ := compressDecompress(t, a, p)
	out2, _, _ := compressDecompress(t, out1, p)
	for i := range a.Data {
		if math.Abs(out2.Data[i]-out1.Data[i]) > 1e-4 {
			t.Fatalf("second pass bound violated at %d", i)
		}
	}
}

func TestInspect(t *testing.T) {
	a := smooth2D(16, 24, 12)
	p := Params{Mode: BoundAbs, AbsBound: 1e-3, Layers: 2, IntervalBits: 10}
	stream, _, err := Compress(a, p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Inspect(stream)
	if err != nil {
		t.Fatal(err)
	}
	if h.Dims[0] != 16 || h.Dims[1] != 24 || h.Layers != 2 || h.IntervalBits != 10 {
		t.Fatalf("Inspect header: %+v", h)
	}
	if h.N() != 16*24 {
		t.Fatalf("N = %d", h.N())
	}
}

func TestCorruptionDetected(t *testing.T) {
	a := smooth2D(16, 16, 13)
	stream, _, err := Compress(a, Params{Mode: BoundAbs, AbsBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit.
	bad := append([]byte(nil), stream...)
	bad[len(bad)/2] ^= 0x40
	if _, _, err := Decompress(bad); err == nil {
		t.Fatal("corrupted stream decompressed without error")
	}
	// Truncate.
	if _, _, err := Decompress(stream[:len(stream)-10]); err == nil {
		t.Fatal("truncated stream decompressed without error")
	}
	// Bad magic.
	bad = append([]byte(nil), stream...)
	bad[0] = 'X'
	if _, _, err := Decompress(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Empty.
	if _, _, err := Decompress(nil); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// TestCorruptOutlierSection checks the outlier read that runs ahead of the
// reconstruction scan: a stream whose outlier section is cut short, or
// whose escape codes outnumber the header's outlier count, fails with
// ErrCorrupt (and no panic) in both layouts. The streams are re-framed
// with a valid header and CRC, so only the outlier read can catch them.
func TestCorruptOutlierSection(t *testing.T) {
	a := escapeHeavy(rand.New(rand.NewSource(5)), []int{6, 9, 40}, true)
	for _, streams := range []int{1, 4} {
		p := Params{Mode: BoundAbs, AbsBound: 1e-3, OutputType: grid.Float32, Streams: streams}
		stream, st, err := Compress(a, p)
		if err != nil {
			t.Fatal(err)
		}
		h, off, err := parseHeader(stream)
		if err != nil {
			t.Fatal(err)
		}
		if h.NumOutliers < 2 {
			t.Fatalf("streams=%d: only %d outliers", streams, h.NumOutliers)
		}
		payload := stream[off : len(stream)-4]
		// reframe writes h and the payload's first h.PayloadBits bits as a
		// stream with a valid CRC.
		reframe := func(h Header) []byte {
			out := appendHeader(nil, &h)
			out = append(out, payload[:(h.PayloadBits+7)/8]...)
			return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
		}
		cut := *h
		// Forty bits lose at least the last 33-bit float32 outlier.
		cut.PayloadBits -= 40
		fewer := *h
		fewer.NumOutliers--
		none := *h
		none.NumOutliers = 0
		for name, bad := range map[string][]byte{
			"truncated":  reframe(cut),
			"outnumber":  reframe(fewer),
			"no-outlier": reframe(none),
		} {
			if _, _, err := Decompress(bad); !errors.Is(err, ErrCorrupt) {
				t.Errorf("streams=%d (%d outliers in %d bits) %s: err = %v, want ErrCorrupt",
					streams, h.NumOutliers, st.OutlierBits, name, err)
			}
		}
	}
}

// TestAlphabetBoundVersion1: a Version-1 stream whose codebook codes a
// symbol ≥ 2^m fails with ErrCorrupt whether or not its codes use that
// symbol. The streams are re-framed with a valid header and CRC, so only
// the alphabet check can catch them; re-framed with the scan's own
// codebook, the stream is byte-identical to Compress's.
func TestAlphabetBoundVersion1(t *testing.T) {
	a := smooth2D(16, 16, 13)
	p := Params{Mode: BoundAbs, AbsBound: 1e-3}
	want, _, err := Compress(a, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Analyze(a, p)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	// frame codes under a codebook built from freqs, with the scan's
	// outliers, as a Version-1 stream.
	frame := func(freqs []uint64, codes []uint16) []byte {
		cb, err := huffman.New(freqs)
		if err != nil {
			t.Fatal(err)
		}
		w := bitstream.NewWriter(0)
		cb.Serialize(w)
		if err := cb.Encode(w, codes); err != nil {
			t.Fatal(err)
		}
		w.AppendStream(s.outW.Bytes(), s.outW.Len())
		h := Header{Version: Version, DType: s.p.OutputType, Dims: s.dims, AbsBound: s.eb,
			Layers: s.p.Layers, IntervalBits: s.p.IntervalBits, NumOutliers: s.numOutliers,
			PayloadBits: w.Len(), Streams: 1}
		out := append(appendHeader(nil, &h), w.Bytes()...)
		return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	}
	if !bytes.Equal(frame(s.hist, s.codes), want) {
		t.Fatal("re-framed stream differs from Compress's")
	}
	numCodes := 1 << s.p.IntervalBits
	wide := append(append([]uint64(nil), s.hist...), 1) // symbol 2^m gets a code
	used := append([]uint16(nil), s.codes...)
	for i, c := range used {
		if c != quant.UnpredictableCode {
			used[i] = uint16(numCodes)
			break
		}
	}
	for name, codes := range map[string][]uint16{"unused": s.codes, "used": used} {
		if _, _, err := Decompress(frame(wide, codes)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s symbol %d: err = %v, want ErrCorrupt", name, numCodes, err)
		}
	}
}

func TestParamValidation(t *testing.T) {
	a := grid.New(4, 4)
	bad := []Params{
		{Mode: BoundAbs, AbsBound: 0},
		{Mode: BoundAbs, AbsBound: -1},
		{Mode: BoundAbs, AbsBound: math.Inf(1)},
		{Mode: BoundRel, RelBound: 0},
		{Mode: BoundRel, RelBound: 1.5},
		{Mode: BoundAbs, AbsBound: 1, Layers: 9},
		{Mode: BoundAbs, AbsBound: 1, IntervalBits: 1},
		{Mode: BoundAbs, AbsBound: 1, IntervalBits: 20},
		{Mode: BoundAbs, AbsBound: 1, HitRateThreshold: 2},
		{Mode: BoundAbsAndRel, AbsBound: 1},
		{Mode: BoundMode(9), AbsBound: 1},
		{Mode: BoundAbs, AbsBound: 1, OutputType: grid.DType(7)},
	}
	for i, p := range bad {
		if _, _, err := Compress(a, p); err == nil {
			t.Fatalf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestAbsAndRelTakesMin(t *testing.T) {
	a := smooth2D(16, 16, 14) // range ~2.6
	p := Params{Mode: BoundAbsAndRel, AbsBound: 1e-2, RelBound: 1e-6}
	_, _, h := compressDecompress(t, a, p)
	_, _, rng := a.Range()
	want := math.Min(1e-2, 1e-6*rng)
	if h.AbsBound != want {
		t.Fatalf("bound %v, want min %v", h.AbsBound, want)
	}
}

func TestStatsConsistency(t *testing.T) {
	a := smooth2D(32, 32, 15)
	stream, st, err := Compress(a, Params{Mode: BoundAbs, AbsBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if st.CompressedBytes != len(stream) {
		t.Fatalf("CompressedBytes %d != len %d", st.CompressedBytes, len(stream))
	}
	var histTotal uint64
	for _, f := range st.Histogram {
		histTotal += f
	}
	if histTotal != uint64(st.N) {
		t.Fatalf("histogram total %d != N %d", histTotal, st.N)
	}
	if st.Predictable+int(st.Histogram[quant.UnpredictableCode]) != st.N {
		t.Fatal("Predictable + escapes != N")
	}
	wantCF := float64(st.OriginalBytes) / float64(st.CompressedBytes)
	if math.Abs(st.CompressionFactor-wantCF) > 1e-12 {
		t.Fatal("CF inconsistent")
	}
	if math.Abs(st.BitRate*st.CompressionFactor-64) > 1e-9 {
		t.Fatalf("BR*CF = %v, want 64 for float64", st.BitRate*st.CompressionFactor)
	}
}

func TestTighterBoundLowerCF(t *testing.T) {
	a := smooth2D(64, 64, 16)
	var prevCF = math.Inf(1)
	for _, eb := range []float64{1e-2, 1e-4, 1e-6, 1e-8} {
		_, st, err := Compress(a, Params{Mode: BoundAbs, AbsBound: eb})
		if err != nil {
			t.Fatal(err)
		}
		if st.CompressionFactor > prevCF*1.05 {
			t.Fatalf("CF should not grow as the bound tightens: eb=%g CF=%v prev=%v",
				eb, st.CompressionFactor, prevCF)
		}
		prevCF = st.CompressionFactor
	}
}

func TestPSNRImprovesWithTighterBound(t *testing.T) {
	a := smooth2D(64, 64, 17)
	var prevPSNR float64
	for _, eb := range []float64{1e-2, 1e-3, 1e-4} {
		out, _, _ := compressDecompress(t, a, Params{Mode: BoundAbs, AbsBound: eb})
		psnr := metrics.PSNR(a.Data, out.Data)
		if psnr < prevPSNR {
			t.Fatalf("PSNR decreased with tighter bound: %v -> %v", prevPSNR, psnr)
		}
		prevPSNR = psnr
	}
}

func TestProbeHitRates(t *testing.T) {
	a := smooth2D(64, 64, 18)
	hr, err := ProbeHitRates(a, Params{Mode: BoundRel, RelBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if hr.Orig <= 0 || hr.Orig > 1 || hr.Decomp <= 0 || hr.Decomp > 1 {
		t.Fatalf("rates out of range: %+v", hr)
	}
}

func TestProbeHitRatesDecompDegradation(t *testing.T) {
	// Table II's key phenomenon: with many layers, the decomp rate falls
	// well below the orig rate because quantization noise feeds back.
	a := smooth2D(96, 96, 19)
	p := Params{Mode: BoundRel, RelBound: 1e-4, Layers: 4}
	hr, err := ProbeHitRates(a, p)
	if err != nil {
		t.Fatal(err)
	}
	if hr.Decomp > hr.Orig {
		t.Fatalf("decomp rate %v should not exceed orig rate %v at 4 layers", hr.Decomp, hr.Orig)
	}
}

func TestProbeValidation(t *testing.T) {
	a := grid.New(4)
	if _, err := ProbeHitRates(a, Params{Mode: BoundAbs, AbsBound: -1}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestBoundModeString(t *testing.T) {
	for _, m := range []BoundMode{BoundAbs, BoundRel, BoundAbsAndRel, BoundMode(9)} {
		if m.String() == "" {
			t.Fatal("empty BoundMode string")
		}
	}
}

func TestSingleElement(t *testing.T) {
	a := grid.New(1)
	a.Data[0] = 3.14159
	out, _, h := compressDecompress(t, a, Params{Mode: BoundAbs, AbsBound: 1e-6})
	if math.Abs(out.Data[0]-a.Data[0]) > h.AbsBound {
		t.Fatal("single element bound violated")
	}
}

func TestTinyArrays(t *testing.T) {
	for _, dims := range [][]int{{1, 1}, {2, 1}, {1, 5}, {2, 2, 2}, {1, 1, 1}} {
		a := grid.New(dims...)
		for i := range a.Data {
			a.Data[i] = float64(i) * 1.1
		}
		out, _, h := compressDecompress(t, a, Params{Mode: BoundAbs, AbsBound: 1e-4})
		assertBound(t, a, out, h.AbsBound)
	}
}

func TestStatsStreamComposition(t *testing.T) {
	a := smooth2D(48, 48, 21)
	stream, st, err := Compress(a, Params{Mode: BoundAbs, AbsBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	payloadBits := st.TableBits + st.CodeBits + st.OutlierBits
	h, err := Inspect(stream)
	if err != nil {
		t.Fatal(err)
	}
	if payloadBits != h.PayloadBits {
		t.Fatalf("component bits %d != payload bits %d", payloadBits, h.PayloadBits)
	}
	if st.FixedWidthCodeBits != uint64(st.N)*8 {
		t.Fatalf("FixedWidthCodeBits = %d", st.FixedWidthCodeBits)
	}
	// Variable-length encoding must beat fixed-width on peaked
	// distributions (the AEQVE claim).
	if st.CodeBits >= st.FixedWidthCodeBits {
		t.Fatalf("VLE (%d bits) did not beat fixed-width (%d bits)",
			st.CodeBits, st.FixedWidthCodeBits)
	}
}
