package huffman

// Multi-stream (interleaved) Huffman coding. A serial Huffman stream
// decodes one symbol at a time: the bit position of code i+1 depends on
// the decoded length of code i, so the CPU pipeline stalls on a chain of
// table lookups. Splitting a slab's symbols into N independent
// sub-streams (zstd-style) and decoding them with N interleaved cursor
// states breaks that chain — while one stream's table load is in flight
// the decoder advances the next — trading a small framing overhead for
// instruction-level parallelism on a single core.
//
// The split is block-wise: stream j carries symbols
// [j·chunk, min(n, (j+1)·chunk)) with chunk = ceil(n/N), so the decoder
// writes each stream's output to a contiguous range and the concatenated
// result is in original order. Each sub-stream is an ordinary Huffman
// bit stream over the same codebook; framing (byte alignment and
// per-stream lengths) belongs to the caller's container format.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitstream"
)

// MaxStreams bounds the sub-stream count of a multi-stream payload. The
// fused decoder keeps one cursor state per stream in fixed-size locals;
// past ~8 streams the ILP win flattens while framing overhead keeps
// growing, so the cap is generous.
const MaxStreams = 16

// StreamBounds returns the half-open symbol range [lo, hi) that stream j
// of k covers in an n-symbol slab. Streams partition the slab block-wise
// in order, so decoded sub-streams concatenate to the original sequence.
func StreamBounds(n, k, j int) (lo, hi int) {
	chunk := (n + k - 1) / k
	lo = j * chunk
	if lo > n {
		lo = n
	}
	hi = lo + chunk
	if hi > n {
		hi = n
	}
	return lo, hi
}

// EncodeN splits symbols block-wise across len(ws) sub-streams and
// Huffman-encodes each partition into its own writer. len(ws) must be in
// [1, MaxStreams]. The emitted bits of stream j are exactly what Encode
// would produce for the partition StreamBounds(len(symbols), len(ws), j).
func (cb *Codebook) EncodeN(ws []*bitstream.Writer, symbols []uint16) error {
	k := len(ws)
	if k < 1 || k > MaxStreams {
		return fmt.Errorf("huffman: stream count %d out of range [1,%d]", k, MaxStreams)
	}
	for j := 0; j < k; j++ {
		lo, hi := StreamBounds(len(symbols), k, j)
		if err := cb.Encode(ws[j], symbols[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// MarkBlock is the number of consecutive output symbols one bit of a
// decode's zero-symbol bitmap covers.
const MarkBlock = 64

// MarkWords returns the length of the bitmap that marks an n-symbol
// decode: one bit per MarkBlock-symbol block of the output.
func MarkWords(n int) int { return (n + 64*MarkBlock - 1) / (64 * MarkBlock) }

// Mark sets the bit of symbol index i's block in marks, as DecodeNInto
// does for each symbol 0, so an encoder's caller can mark its symbols 0
// the same way.
func Mark(marks []uint64, i int) {
	b := i / MarkBlock
	marks[b/64] |= 1 << (b % 64)
}

// DecodeNInto decodes len(out) symbols from len(rs) sub-streams written
// by EncodeN, stepping the streams in turn so their decode chains overlap
// in the CPU pipeline. Stream j fills the range
// StreamBounds(len(out), len(rs), j) of out, and no write lands outside
// it. Each reader is left at the end of its stream's codes.
//
// When marks is not nil it must hold at least MarkWords(len(out)) words.
// On success, bit b of marks[w] is set exactly when block 64w+b of out
// (symbols [MarkBlock·(64w+b), MarkBlock·(64w+b+1))) holds symbol 0, so a
// caller whose symbol 0 is rare visits only the marked blocks.
//
// The fast path lifts every reader's cursor into locals (Window), and
// each step loads 8 stream bytes big-endian and resolves from them up to
// two packed-table entries of up to three codes each, or one code longer
// than tableBits (decodeLong). Between bound checks the streams run as
// many steps as every stream has output slots and stream bits for; a
// stream with none left finishes one symbol at a time through its
// reader (decodeOne) and drops out of the rotation. Codebooks without a
// table decode every symbol that way.
func (cb *Codebook) DecodeNInto(rs []*bitstream.Reader, out []uint16, marks []uint64) error {
	k := len(rs)
	if k < 1 || k > MaxStreams {
		return fmt.Errorf("huffman: stream count %d out of range [1,%d]", k, MaxStreams)
	}
	n := len(out)
	if marks != nil {
		clear(marks[:MarkWords(n)])
	}
	// A step looks at and consumes at most stepBits bits: two entries of
	// at most tableBits each, or one code of at most maxLen bits. With the
	// cursor's byte offset that stays inside the 64-bit word it loads.
	// It writes at most stepSyms symbols.
	const stepSyms = 6
	tb := cb.tableBits
	stepBits := max(int64(cb.maxLen), 2*int64(tb))
	var (
		id       [MaxStreams]int // the stream's index; live streams come first
		bufs     [MaxStreams][]byte
		pos      [MaxStreams]uint64
		last     [MaxStreams]int64 // last cursor a step may start from
		next, hi [MaxStreams]int   // next output index and end of the stream's range
	)
	for j := 0; j < k; j++ {
		id[j] = j
		next[j], hi[j] = StreamBounds(n, k, j)
		var end uint64
		bufs[j], pos[j], end = rs[j].Window()
		last[j] = min(int64(end)-stepBits, int64(len(bufs[j])-8)*8+7)
		if cb.table == nil {
			last[j] = -1
		}
	}
	// steps is how many steps stream j can take before its next bound
	// check: as many as its output slots and its stream bits cover.
	steps := func(j int) int {
		if int64(pos[j]) > last[j] {
			return 0
		}
		return min((hi[j]-next[j])/stepSyms, int((last[j]-int64(pos[j]))/stepBits)+1)
	}
	table := cb.table
	for live := k; live > 0; {
		run := steps(0)
		for j := 1; j < live; j++ {
			run = min(run, steps(j))
		}
		for ; run > 0; run-- {
			for j := 0; j < live; j++ {
				p, o := pos[j], next[j]
				w := binary.BigEndian.Uint64(bufs[j][p>>3:]) << (p & 7)
				e := table[w>>(64-tb)]
				if e == 0 {
					s, l := cb.decodeLong(w)
					if l == 0 {
						return fmt.Errorf("huffman: stream %d/%d symbol %d: %w: no code matches after %d bits",
							id[j], k, o, ErrCorrupt, cb.maxLen)
					}
					out[o] = uint16(s)
					if s == 0 {
						markBlock(marks, o)
					}
					pos[j], next[j] = p+l, o+1
					continue
				}
				for g := 0; ; g++ {
					// All three lanes are written; slots past the
					// entry's count are rewritten by the stream's next
					// codes.
					d := out[o : o+3]
					d[0] = uint16(e >> entrySymShift)
					d[1] = uint16(e >> (entrySymShift + 16))
					d[2] = uint16(e >> (entrySymShift + 32))
					c := int(e >> entryCountShift & 3)
					if e&entryZero != 0 {
						markZeros(marks, d[:c], o)
					}
					o += c
					u := e & entryUsedMask
					p += u
					if g == 1 {
						break
					}
					w <<= u
					if e = table[w>>(64-tb)]; e == 0 {
						break
					}
				}
				pos[j], next[j] = p, o
			}
		}
		// Finish the streams that have no step left, and drop them.
		for j := 0; j < live; {
			if steps(j) > 0 {
				j++
				continue
			}
			r := rs[id[j]]
			r.SetPos(pos[j])
			for o := next[j]; o < hi[j]; o++ {
				s, err := cb.decodeOne(r)
				if err != nil {
					return fmt.Errorf("huffman: stream %d/%d symbol %d: %w", id[j], k, o, err)
				}
				out[o] = uint16(s)
				if s == 0 {
					markBlock(marks, o)
				}
			}
			live--
			id[j], bufs[j], pos[j], last[j], next[j], hi[j] = id[live], bufs[live], pos[live], last[live], next[live], hi[live]
		}
	}
	return nil
}

// markZeros marks the block of every symbol 0 in syms, which start at
// output index base.
func markZeros(marks []uint64, syms []uint16, base int) {
	for i, s := range syms {
		if s == 0 {
			markBlock(marks, base+i)
		}
	}
}

// markBlock sets the bit of output index i's block in marks, if any.
func markBlock(marks []uint64, i int) {
	if marks != nil {
		Mark(marks, i)
	}
}

// decodeLong resolves a code longer than tableBits from the top bits of
// w (the stream's next bits, MSB-aligned) using the canonical per-length
// tables — the same walk decodeSlow does, minus the per-bit reader
// calls. Returns the symbol and its code length, or length 0 when no
// code matches within maxLen bits.
func (cb *Codebook) decodeLong(w uint64) (int, uint64) {
	for l := cb.tableBits + 1; l <= uint(cb.maxLen); l++ {
		cnt := cb.countByLen[l]
		if cnt == 0 {
			continue
		}
		code := w >> (64 - l)
		first := cb.firstCode[l]
		if code >= first && code < first+uint64(cnt) {
			return int(cb.symByCode[cb.firstIndex[l]+int(code-first)]), uint64(l)
		}
	}
	return 0, 0
}
