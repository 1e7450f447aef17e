package huffman

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/datagen"
	"repro/internal/predictor"
	"repro/internal/quant"
)

// decodeCodebooks are the frequency tables the decode tests build
// codebooks from.
func decodeCodebooks() []struct {
	name  string
	freqs []uint64
} {
	// Quantization-like: mass falls off geometrically around the center
	// code, and symbol 0 (core's escape) takes about 0.4%. The tail codes
	// are longer than the table's 12 bits.
	skewed := make([]uint64, 256)
	for s := range skewed {
		d := s - 128
		if d < 0 {
			d = -d
		}
		skewed[s] = 1 + 1<<20>>min(2*d, 40)
	}
	skewed[0] = 5000
	uniform := make([]uint64, 256)
	for s := range uniform {
		uniform[s] = 1
	}
	// Fibonacci frequencies give the deepest tree: codes up to 39 bits.
	fib := make([]uint64, 40)
	a, b := uint64(1), uint64(1)
	for s := range fib {
		fib[s] = a
		a, b = b, a+b
	}
	// The largest alphabet: every symbol coded, symbols 0 and 65,535
	// among them, a few heavy ones in the middle.
	wide := make([]uint64, MaxSymbols)
	for s := range wide {
		wide[s] = 1
	}
	for d := 0; d < 8; d++ {
		wide[MaxSymbols/2+d] = 1 << (24 - 2*d)
	}
	return []struct {
		name  string
		freqs []uint64
	}{
		{"skewed", skewed},
		{"uniform", uniform},
		{"fibonacci", fib},
		{"one-symbol", []uint64{1}},
		{"65536-symbol", wide},
	}
}

// drawSymbols returns n symbols: three in four by freqs, the rest uniform
// over the coded symbols, so long codes and symbol 0 turn up in short
// streams too.
func drawSymbols(rng *rand.Rand, freqs []uint64, n int) []uint16 {
	cum := make([]uint64, len(freqs))
	var total uint64
	for s, f := range freqs {
		total += f
		cum[s] = total
	}
	syms := make([]uint16, n)
	for i := range syms {
		if rng.Intn(4) == 0 {
			for syms[i] = uint16(rng.Intn(len(freqs))); freqs[syms[i]] == 0; syms[i] = uint16(rng.Intn(len(freqs))) {
			}
			continue
		}
		v := uint64(rng.Int63n(int64(total)))
		syms[i] = uint16(sort.Search(len(cum), func(s int) bool { return cum[s] > v }))
	}
	return syms
}

// encodeStreams EncodeN-encodes syms into k sub-streams and lays them end
// to end, byte-aligned, as core's VersionMulti payload does; it returns
// the payload and each sub-stream's length in bytes.
func encodeStreams(t testing.TB, cb *Codebook, syms []uint16, k int) ([]byte, []int) {
	t.Helper()
	ws := make([]*bitstream.Writer, k)
	for j := range ws {
		ws[j] = bitstream.NewWriter(0)
	}
	if err := cb.EncodeN(ws, syms); err != nil {
		t.Fatal(err)
	}
	var payload []byte
	lens := make([]int, k)
	for j, w := range ws {
		lens[j] = len(w.Bytes())
		payload = append(payload, w.Bytes()...)
	}
	return payload, lens
}

// readers returns one reader per sub-stream of payload.
func readers(payload []byte, lens []int) []*bitstream.Reader {
	rs := make([]*bitstream.Reader, len(lens))
	start := 0
	for j, l := range lens {
		rs[j] = bitstream.NewReaderAt(payload, start, l)
		start += l
	}
	return rs
}

// decodePerSymbol is the reference decode: DecodeSymbol over each
// StreamBounds partition. It returns the symbols and where each
// sub-stream's reader stopped.
func decodePerSymbol(cb *Codebook, payload []byte, lens []int, n int) ([]uint16, []uint64, error) {
	out := make([]uint16, n)
	rs := readers(payload, lens)
	pos := make([]uint64, len(rs))
	for j, r := range rs {
		lo, hi := StreamBounds(n, len(rs), j)
		for i := lo; i < hi; i++ {
			s, err := cb.DecodeSymbol(r)
			if err != nil {
				return nil, nil, fmt.Errorf("stream %d symbol %d: %w", j, i, err)
			}
			out[i] = uint16(s)
		}
		pos[j] = r.Pos()
	}
	return out, pos, nil
}

// zeroMarks is the bitmap a naive scan for symbol 0 gives.
func zeroMarks(syms []uint16) []uint64 {
	marks := make([]uint64, MarkWords(len(syms)))
	for i, s := range syms {
		if s == 0 {
			b := i / MarkBlock
			marks[b/64] |= 1 << (b % 64)
		}
	}
	return marks
}

// diffDecodeN decodes n symbols from the sub-streams of payload with
// DecodeNInto and with the per-symbol reference, and describes the first
// disagreement: both must fail, or give the same symbols, the marks a
// naive scan gives, and the same reader positions. out and marks sit
// between guard words, and out keeps its guard in its capacity, so a
// write past the last sub-stream's range, which a reslice would not
// catch, shows. A write past an inner sub-stream's range shows as a
// wrong symbol: a stream's last steps come after its successor's first.
func diffDecodeN(cb *Codebook, payload []byte, lens []int, n int) error {
	ref, refPos, refErr := decodePerSymbol(cb, payload, lens, n)
	const guard, unwritten = 8, 0xffff
	buf := make([]uint16, guard+n+guard)
	for i := range buf {
		buf[i] = unwritten
	}
	out := buf[guard : guard+n]
	const sentinel = 0xdeadbeefcafef00d
	mbuf := make([]uint64, 1+MarkWords(n)+1)
	for i := range mbuf {
		mbuf[i] = sentinel
	}
	marks := mbuf[1 : 1+MarkWords(n)]
	rs := readers(payload, lens)
	err := cb.DecodeNInto(rs, out, marks)
	for i := 0; i < guard; i++ {
		if buf[i] != unwritten || buf[guard+n+i] != unwritten {
			return fmt.Errorf("write outside the output")
		}
	}
	if mbuf[0] != sentinel || mbuf[len(mbuf)-1] != sentinel {
		return fmt.Errorf("write outside the marks")
	}
	if (err == nil) != (refErr == nil) {
		return fmt.Errorf("DecodeNInto err = %v, per-symbol err = %v", err, refErr)
	}
	if err != nil {
		return nil
	}
	for i := range out {
		if out[i] != ref[i] {
			return fmt.Errorf("symbol %d = %d, per-symbol decode %d", i, out[i], ref[i])
		}
	}
	for w, m := range zeroMarks(ref) {
		if marks[w] != m {
			return fmt.Errorf("marks word %d = %#x, naive scan %#x", w, marks[w], m)
		}
	}
	for j, r := range rs {
		if r.Pos() != refPos[j] {
			return fmt.Errorf("stream %d reader at bit %d, per-symbol decode at %d", j, r.Pos(), refPos[j])
		}
	}
	return nil
}

// TestDecodeNMatchesPerSymbol checks DecodeNInto against per-symbol
// DecodeSymbol over every codebook shape, sub-stream count and short
// length a slab can produce, with the packed table and without one, and
// checks that a sub-stream cut by a byte fails rather than panics.
func TestDecodeNMatchesPerSymbol(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range decodeCodebooks() {
		enc, err := New(tc.freqs)
		if err != nil {
			t.Fatal(err)
		}
		dec := deserialized(t, enc)
		for _, k := range []int{1, 2, 3, 4, 7, 16} {
			lengths := []int{4*k - 1, 4*k + 1, 1000}
			for n := 0; n <= 13; n++ {
				lengths = append(lengths, n)
			}
			for _, n := range lengths {
				syms := drawSymbols(rng, tc.freqs, n)
				payload, lens := encodeStreams(t, enc, syms, k)
				for _, cb := range []struct {
					kind string
					cb   *Codebook
				}{{"table", dec}, {"no-table", enc}} {
					name := fmt.Sprintf("%s/%s/k=%d/n=%d", tc.name, cb.kind, k, n)
					ref, _, err := decodePerSymbol(cb.cb, payload, lens, n)
					if err != nil {
						t.Fatalf("%s: per-symbol decode: %v", name, err)
					}
					for i := range syms {
						if ref[i] != syms[i] {
							t.Fatalf("%s: per-symbol decode %d = %d, encoded %d", name, i, ref[i], syms[i])
						}
					}
					if err := diffDecodeN(cb.cb, payload, lens, n); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for j := range lens {
						if lens[j] == 0 {
							continue
						}
						cut := append([]int(nil), lens...)
						cut[j]--
						if _, _, err := decodePerSymbol(cb.cb, payload, cut, n); err == nil {
							t.Fatalf("%s: sub-stream %d cut by a byte decoded per symbol", name, j)
						}
						if err := diffDecodeN(cb.cb, payload, cut, n); err != nil {
							t.Fatalf("%s: sub-stream %d cut by a byte: %v", name, j, err)
						}
					}
				}
			}
		}
	}
}

// deserialized returns the codebook a decoder rebuilds from cb's
// serialization, which carries the packed table.
func deserialized(t testing.TB, cb *Codebook) *Codebook {
	t.Helper()
	w := bitstream.NewWriter(0)
	cb.Serialize(w)
	dec, err := Deserialize(bitstream.NewReaderBits(w.Bytes(), w.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// hurricaneCodes returns the quantization codes of a 10×64×64 Hurricane
// slab under an absolute bound of 1e-3 with m = 8 and the 3D Lorenzo
// predictor, scanned as core's generic path scans a float64 source.
func hurricaneCodes(t testing.TB) []uint16 {
	a := datagen.Hurricane(10, 64, 64, 1000004)
	q, err := quant.New(1e-3, 8)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := predictor.New(a.Dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	recon := make([]float64, a.Len())
	codes := make([]uint16, a.Len())
	coord := make([]int, 3)
	for idx, x := range a.Data {
		code, rv, ok := q.Quantize(x, pred.Predict(recon, idx, coord))
		if !ok {
			rv = x
		}
		codes[idx], recon[idx] = uint16(code), rv
		for d := 2; d >= 0; d-- {
			if coord[d]++; coord[d] < a.Dims[d] {
				break
			}
			coord[d] = 0
		}
	}
	return codes
}

// FuzzDecodeN feeds DecodeNInto arbitrary codebooks and sub-streams. It
// must never panic, and it must agree with per-symbol DecodeSymbol over
// each StreamBounds partition: the same symbols, marks and reader
// positions, or both fail. data is a uvarint length per sub-stream, then
// the sub-streams end to end; the seed is a Hurricane slab's codebook
// and the first 2,048 of its codes over four sub-streams.
func FuzzDecodeN(f *testing.F) {
	codes := hurricaneCodes(f)
	freqs, err := CountFrequencies(codes, 256)
	if err != nil {
		f.Fatal(err)
	}
	cb, err := New(freqs)
	if err != nil {
		f.Fatal(err)
	}
	w := bitstream.NewWriter(0)
	cb.Serialize(w)
	const k, n = 4, 2048
	payload, lens := encodeStreams(f, cb, codes[:n], k)
	var data []byte
	for _, l := range lens {
		data = binary.AppendUvarint(data, uint64(l))
	}
	data = append(data, payload...)
	f.Add(w.Bytes(), data, uint8(k-1), uint16(n))
	f.Add(w.Bytes(), data, uint8(k-1), uint16(n+1))
	f.Add(w.Bytes(), payload, uint8(0), uint16(100))
	f.Fuzz(func(t *testing.T, book, data []byte, k8 uint8, n16 uint16) {
		cb, err := Deserialize(bitstream.NewReader(book))
		if err != nil {
			return
		}
		k := int(k8)%MaxStreams + 1
		n := int(n16) % 4096
		lens := make([]int, k)
		for j := range lens {
			v, m := binary.Uvarint(data)
			if m <= 0 {
				return
			}
			lens[j] = int(min(v, uint64(len(data))))
			data = data[m:]
		}
		if err := diffDecodeN(cb, data, lens, n); err != nil {
			t.Fatal(err)
		}
	})
}
