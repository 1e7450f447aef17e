package huffman

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitstream"
)

func roundTrip(t *testing.T, symbols []uint16, numSymbols int) {
	t.Helper()
	freqs, err := CountFrequencies(symbols, numSymbols)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := New(freqs)
	if err != nil {
		t.Fatal(err)
	}
	w := bitstream.NewWriter(0)
	cb.Serialize(w)
	tableBits := w.Len()
	if err := cb.Encode(w, symbols); err != nil {
		t.Fatal(err)
	}
	if got := w.Len() - tableBits; got != cb.EncodedBits(freqs) {
		t.Fatalf("EncodedBits=%d but wrote %d", cb.EncodedBits(freqs), got)
	}
	r := bitstream.NewReaderBits(w.Bytes(), w.Len())
	cb2, err := Deserialize(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cb2.Decode(r, len(symbols))
	if err != nil {
		t.Fatal(err)
	}
	for i := range symbols {
		if got[i] != symbols[i] {
			t.Fatalf("symbol %d: got %d want %d", i, got[i], symbols[i])
		}
	}
}

func TestRoundTripSmall(t *testing.T) {
	roundTrip(t, []uint16{0, 1, 2, 1, 0, 1, 1, 1, 3}, 4)
}

func TestSingleSymbolAlphabet(t *testing.T) {
	roundTrip(t, []uint16{0, 0, 0, 0, 0}, 1)
}

func TestSingleUsedSymbolInLargeAlphabet(t *testing.T) {
	syms := make([]uint16, 100)
	for i := range syms {
		syms[i] = 42
	}
	roundTrip(t, syms, 512)
}

func TestTwoSymbols(t *testing.T) {
	roundTrip(t, []uint16{0, 1, 0, 1, 1}, 2)
}

func TestLargeAlphabet65535(t *testing.T) {
	// The paper's key requirement: alphabets beyond 256 symbols.
	rng := rand.New(rand.NewSource(5))
	n := 65535
	syms := make([]uint16, 20000)
	for i := range syms {
		// Geometric-ish: most mass near the center code, like quantization output.
		v := n/2 + int(rng.NormFloat64()*50)
		if v < 0 {
			v = 0
		}
		if v >= n {
			v = n - 1
		}
		syms[i] = uint16(v)
	}
	roundTrip(t, syms, n)
}

func TestUniformAlphabet(t *testing.T) {
	syms := make([]uint16, 4096)
	for i := range syms {
		syms[i] = uint16(i % 256)
	}
	roundTrip(t, syms, 256)
}

func TestSkewedDistributionCompresses(t *testing.T) {
	// ~95% of mass on one symbol: entropy ≈ 0.4 bits/sym. Huffman should get
	// close to 1 bit/sym (its floor for a dominant symbol + escape).
	rng := rand.New(rand.NewSource(11))
	syms := make([]uint16, 50000)
	for i := range syms {
		if rng.Float64() < 0.95 {
			syms[i] = 128
		} else {
			syms[i] = uint16(rng.Intn(255))
		}
	}
	freqs, _ := CountFrequencies(syms, 255)
	cb, err := New(freqs)
	if err != nil {
		t.Fatal(err)
	}
	bits := cb.EncodedBits(freqs)
	perSym := float64(bits) / float64(len(syms))
	if perSym > 1.5 {
		t.Fatalf("skewed stream coded at %.2f bits/sym, want < 1.5", perSym)
	}
}

func TestOptimalityVsFixedWidth(t *testing.T) {
	// Huffman must never be worse than ceil(log2(n)) + 1 per symbol overall.
	rng := rand.New(rand.NewSource(3))
	syms := make([]uint16, 10000)
	for i := range syms {
		syms[i] = uint16(rng.Intn(100))
	}
	freqs, _ := CountFrequencies(syms, 100)
	cb, err := New(freqs)
	if err != nil {
		t.Fatal(err)
	}
	bits := cb.EncodedBits(freqs)
	if bits > uint64(len(syms))*8 {
		t.Fatalf("Huffman %d bits worse than 8-bit fixed coding", bits)
	}
}

func TestPrefixProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	freqs := make([]uint64, 300)
	for i := range freqs {
		freqs[i] = uint64(rng.Intn(1000))
	}
	freqs[0] = 1 // ensure some nonzero
	cb, err := New(freqs)
	if err != nil {
		t.Fatal(err)
	}
	// No code may be a prefix of another.
	type code struct {
		bits uint64
		len  int
	}
	var codes []code
	for s := 0; s < cb.NumSymbols(); s++ {
		if l := cb.CodeLen(s); l > 0 {
			codes = append(codes, code{cb.codes[s], l})
		}
	}
	for i := range codes {
		for j := range codes {
			if i == j {
				continue
			}
			a, b := codes[i], codes[j]
			if a.len <= b.len && b.bits>>(uint(b.len-a.len)) == a.bits {
				t.Fatalf("code %d is a prefix of code %d", i, j)
			}
		}
	}
}

func TestErrorPaths(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty alphabet should fail")
	}
	if _, err := New(make([]uint64, 4)); err == nil {
		t.Fatal("all-zero frequencies should fail")
	}
	if _, err := CountFrequencies([]int{5}, 4); err == nil {
		t.Fatal("out-of-range symbol should fail")
	}
	cb, err := New([]uint64{1, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	w := bitstream.NewWriter(0)
	if err := cb.Encode(w, []uint16{1}); err == nil {
		t.Fatal("encoding a zero-frequency symbol should fail")
	}
	if err := cb.Encode(w, []uint16{7}); err == nil {
		t.Fatal("encoding an out-of-range symbol should fail")
	}
}

func TestDecodeTruncatedStream(t *testing.T) {
	cb, err := New([]uint64{5, 3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	w := bitstream.NewWriter(0)
	if err := cb.Encode(w, []uint16{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Ask for more symbols than were written.
	r := bitstream.NewReaderBits(w.Bytes(), w.Len())
	if _, err := cb.Decode(r, 100); err == nil {
		t.Fatal("decoding past end should fail")
	}
}

func TestDeserializeCorrupt(t *testing.T) {
	// Alphabet size 0.
	w := bitstream.NewWriter(0)
	w.WriteEliasGamma(0)
	if _, err := Deserialize(bitstream.NewReaderBits(w.Bytes(), w.Len())); err == nil {
		t.Fatal("alphabet size 0 should fail")
	}
	// Run overflowing the alphabet.
	w = bitstream.NewWriter(0)
	w.WriteEliasGamma(2)  // 2 symbols
	w.WriteEliasGamma(10) // run of 11
	w.WriteBits(1, 6)     // length 1
	if _, err := Deserialize(bitstream.NewReaderBits(w.Bytes(), w.Len())); err == nil {
		t.Fatal("overflowing run should fail")
	}
	// Kraft violation: three symbols of length 1.
	w = bitstream.NewWriter(0)
	w.WriteEliasGamma(3)
	w.WriteEliasGamma(2) // run of 3
	w.WriteBits(1, 6)
	if _, err := Deserialize(bitstream.NewReaderBits(w.Bytes(), w.Len())); err == nil {
		t.Fatal("Kraft violation should fail")
	}
	// An alphabet past MaxSymbols, whose symbols the packed table's 16-bit
	// lanes could not hold.
	w = bitstream.NewWriter(0)
	w.WriteEliasGamma(MaxSymbols + 1)
	w.WriteEliasGamma(MaxSymbols) // one run covering it
	w.WriteBits(17, 6)
	if _, err := Deserialize(bitstream.NewReaderBits(w.Bytes(), w.Len())); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("65,537-symbol alphabet: err = %v, want ErrCorrupt", err)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, alphaSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		numSymbols := []int{2, 3, 15, 63, 255, 511, 2048}[int(alphaSel)%7]
		n := rng.Intn(2000) + 1
		syms := make([]uint16, n)
		for i := range syms {
			// Mix of gaussian-centered and uniform symbols.
			if rng.Float64() < 0.8 {
				v := numSymbols/2 + int(rng.NormFloat64()*float64(numSymbols)/16)
				if v < 0 {
					v = 0
				}
				if v >= numSymbols {
					v = numSymbols - 1
				}
				syms[i] = uint16(v)
			} else {
				syms[i] = uint16(rng.Intn(numSymbols))
			}
		}
		freqs, err := CountFrequencies(syms, numSymbols)
		if err != nil {
			return false
		}
		cb, err := New(freqs)
		if err != nil {
			return false
		}
		w := bitstream.NewWriter(0)
		cb.Serialize(w)
		if err := cb.Encode(w, syms); err != nil {
			return false
		}
		r := bitstream.NewReaderBits(w.Bytes(), w.Len())
		cb2, err := Deserialize(r)
		if err != nil {
			return false
		}
		got, err := cb2.Decode(r, n)
		if err != nil {
			return false
		}
		for i := range syms {
			if got[i] != syms[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 18
	syms := make([]uint16, n)
	for i := range syms {
		v := 128 + int(rng.NormFloat64()*10)
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		syms[i] = uint16(v)
	}
	freqs, _ := CountFrequencies(syms, 256)
	cb, _ := New(freqs)
	b.SetBytes(int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := bitstream.NewWriter(n / 2)
		if err := cb.Encode(w, syms); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSymbols draws n symbols from the 256-symbol distribution the
// encode and decode benchmarks share: most mass near symbol 128, like
// quantization codes.
func benchSymbols(n int) []uint16 {
	rng := rand.New(rand.NewSource(1))
	syms := make([]uint16, n)
	for i := range syms {
		v := 128 + int(rng.NormFloat64()*10)
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		syms[i] = uint16(v)
	}
	return syms
}

// benchDecodeSetup encodes syms into k sub-streams laid end to end
// (encodeStreams) and returns them with the codebook a decoder rebuilds,
// which carries the packed table every production decoder uses.
func benchDecodeSetup(b *testing.B, syms []uint16, k int) ([]byte, []int, *Codebook) {
	freqs, err := CountFrequencies(syms, 256)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := New(freqs)
	if err != nil {
		b.Fatal(err)
	}
	payload, lens := encodeStreams(b, enc, syms, k)
	return payload, lens, deserialized(b, enc)
}

func BenchmarkDecode(b *testing.B) {
	syms := benchSymbols(1 << 18)
	payload, _, cb := benchDecodeSetup(b, syms, 1)
	out := make([]uint16, len(syms))
	marks := make([]uint64, MarkWords(len(syms)))
	b.SetBytes(int64(len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cb.DecodeInto(bitstream.NewReader(payload), out, marks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeN times the interleaved decode of one Hurricane slab's
// worth of codes (625,000) over core's default four sub-streams.
func BenchmarkDecodeN(b *testing.B) {
	const k = 4
	syms := benchSymbols(625000)
	payload, lens, cb := benchDecodeSetup(b, syms, k)
	out := make([]uint16, len(syms))
	marks := make([]uint64, MarkWords(len(syms)))
	b.SetBytes(int64(len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cb.DecodeNInto(readers(payload, lens), out, marks); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFibonacciFrequenciesDeepTree(t *testing.T) {
	// Fibonacci frequencies force the deepest possible Huffman tree —
	// the stress case for code-length bookkeeping and the length cap.
	freqs := make([]uint64, 40)
	a, b := uint64(1), uint64(1)
	for i := range freqs {
		freqs[i] = a
		a, b = b, a+b
	}
	cb, err := New(freqs)
	if err != nil {
		t.Fatal(err)
	}
	if cb.MaxCodeLen() < 30 {
		t.Fatalf("Fibonacci tree depth %d unexpectedly shallow", cb.MaxCodeLen())
	}
	// Round-trip a stream touching the deepest codes.
	syms := []uint16{0, 1, 2, 39, 38, 0, 39}
	w := bitstream.NewWriter(0)
	cb.Serialize(w)
	if err := cb.Encode(w, syms); err != nil {
		t.Fatal(err)
	}
	r := bitstream.NewReaderBits(w.Bytes(), w.Len())
	cb2, err := Deserialize(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cb2.Decode(r, len(syms))
	if err != nil {
		t.Fatal(err)
	}
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("deep-tree decode mismatch at %d", i)
		}
	}
}

func TestEncodeDecodeSymbolAgreeWithSlices(t *testing.T) {
	freqs := []uint64{7, 1, 3, 9, 2}
	cb, err := New(freqs)
	if err != nil {
		t.Fatal(err)
	}
	w1 := bitstream.NewWriter(0)
	w2 := bitstream.NewWriter(0)
	syms := []uint16{3, 0, 2, 4, 1, 3, 3}
	if err := cb.Encode(w1, syms); err != nil {
		t.Fatal(err)
	}
	for _, s := range syms {
		if err := cb.EncodeSymbol(w2, int(s)); err != nil {
			t.Fatal(err)
		}
	}
	b1, b2 := w1.Bytes(), w2.Bytes()
	if string(b1) != string(b2) {
		t.Fatal("EncodeSymbol and Encode produce different streams")
	}
	r := bitstream.NewReaderBits(b1, w1.Len())
	for i, want := range syms {
		got, err := cb.DecodeSymbol(r)
		if err != nil || got != int(want) {
			t.Fatalf("DecodeSymbol %d: got %d err %v", i, got, err)
		}
	}
	if err := cb.EncodeSymbol(w2, 99); err == nil {
		t.Fatal("out-of-range EncodeSymbol accepted")
	}
}
