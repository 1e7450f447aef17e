package huffman

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/bitstream"
)

// TestDecodeTableSizedToAlphabet: the packed decode table must be sized
// min(maxLen, decodeTableBits) — a tiny alphabet gets a tiny table, not
// the full 2^decodeTableBits fill — and every entry must hold what greedy
// decoding of its prefix gives (checkPackedTable), for the small
// alphabets here and for the decode tests' codebooks.
func TestDecodeTableSizedToAlphabet(t *testing.T) {
	cases := []struct {
		name  string
		freqs []uint64
	}{
		{"single", []uint64{0, 7}},
		{"two", []uint64{3, 5}},
		{"three", []uint64{10, 3, 2}},
		{"eight-uniform", []uint64{1, 1, 1, 1, 1, 1, 1, 1}},
	}
	cases = append(cases, decodeCodebooks()...)
	for _, tc := range cases {
		cb, err := New(tc.freqs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		dec := deserialized(t, cb)
		wantBits := uint(dec.maxLen)
		if wantBits > decodeTableBits {
			wantBits = decodeTableBits
		}
		if dec.tableBits != wantBits || len(dec.table) != 1<<wantBits {
			t.Errorf("%s: table %d entries (tableBits %d), want %d (maxLen %d)",
				tc.name, len(dec.table), dec.tableBits, 1<<wantBits, dec.maxLen)
		}
		if len(dec.table) > 1<<decodeTableBits {
			t.Errorf("%s: table exceeds the 2^%d cap", tc.name, decodeTableBits)
		}
		checkPackedTable(t, tc.name, dec)
	}
}

// checkPackedTable fails t unless every entry of cb's packed table is what
// decodeSlow gives on the entry's tableBits-bit prefix alone: up to three
// whole codes read from its top bit, their symbols, count and total
// length, the first code's length, and the flag for symbol 0 among them;
// zero when no whole code starts the prefix.
func checkPackedTable(t *testing.T, name string, cb *Codebook) {
	t.Helper()
	tb := cb.tableBits
	for i, e := range cb.table {
		w := bitstream.NewWriter(2)
		w.WriteBits(uint64(i), tb)
		r := bitstream.NewReaderBits(w.Bytes(), uint64(tb))
		var want uint64
		for c := 0; c < 3; c++ {
			before := r.Pos()
			s, err := cb.decodeSlow(r)
			if err != nil {
				break
			}
			l := r.Pos() - before
			if c == 0 {
				want |= l << entryLen1Shift
			}
			want += 1<<entryCountShift + l
			want |= uint64(s) << (entrySymShift + 16*c)
			if s == 0 {
				want |= entryZero
			}
		}
		if e != want {
			t.Fatalf("%s: entry %0*b = %#x, greedy decode of the prefix gives %#x", name, tb, i, e, want)
		}
	}
}

// TestDecodeTableSmallAlphabetRoundTrip: a recycled (dirty) table must
// decode a small alphabet correctly — the zeroed-get path is what keeps
// stale entries from a previous, larger codebook out of the fast path.
func TestDecodeTableSmallAlphabetRoundTrip(t *testing.T) {
	// First build and release a large codebook so the pools hold big,
	// dirty tables and arrays.
	big := make([]uint64, 4096)
	for i := range big {
		big[i] = uint64(i + 1)
	}
	cbBig, err := New(big)
	if err != nil {
		t.Fatal(err)
	}
	cbBig.Release()

	// Now a 3-symbol codebook drawn from those pools.
	symbols := []uint16{0, 1, 2, 1, 0, 0, 2, 1, 1, 0}
	freqs, err := CountFrequencies(symbols, 3)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := New(freqs)
	if err != nil {
		t.Fatal(err)
	}
	w := bitstream.NewWriter(64)
	cb.Serialize(w)
	if err := cb.Encode(w, symbols); err != nil {
		t.Fatal(err)
	}
	r := bitstream.NewReaderBits(w.Bytes(), w.Len())
	dec, err := Deserialize(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Decode(r, len(symbols))
	if err != nil {
		t.Fatal(err)
	}
	for i := range symbols {
		if got[i] != symbols[i] {
			t.Fatalf("symbol %d: got %d want %d", i, got[i], symbols[i])
		}
	}
	dec.Release()
	cb.Release()
}

// TestReleaseReuseByteIdentical: codebooks built through the recycled
// pools must serialize and encode byte-identically to the first build,
// also when many goroutines churn the pools concurrently (run under
// -race).
func TestReleaseReuseByteIdentical(t *testing.T) {
	freqs := make([]uint64, 300)
	for i := range freqs {
		freqs[i] = uint64((i*2654435761 + 17) % 97)
	}
	symbols := make([]uint16, 0, 1000)
	for i := 0; i < 1000; i++ {
		s := (i * 31) % len(freqs)
		if freqs[s] == 0 {
			s = 17
		}
		symbols = append(symbols, uint16(s))
	}
	ref := func() []byte {
		cb, err := New(freqs)
		if err != nil {
			t.Fatal(err)
		}
		w := bitstream.NewWriter(256)
		cb.Serialize(w)
		if err := cb.Encode(w, symbols); err != nil {
			t.Fatal(err)
		}
		cb.Release()
		return w.Bytes()
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cb, err := New(freqs)
				if err != nil {
					t.Error(err)
					return
				}
				w := bitstream.NewWriter(256)
				cb.Serialize(w)
				if err := cb.Encode(w, symbols); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(w.Bytes(), ref) {
					t.Error("pooled codebook produced different bytes")
					cb.Release()
					return
				}
				cb.Release()
			}
		}()
	}
	wg.Wait()
}
