// Package huffman implements canonical Huffman coding over alphabets of
// arbitrary size.
//
// The SZ-1.4 paper (Section IV-A) notes that off-the-shelf Huffman coders
// operate byte-by-byte (≤256 symbols), while its quantization codes need
// alphabets of 2^m symbols with m up to 16. This package builds an optimal
// prefix code for any alphabet up to MaxSymbols, encodes symbol streams to
// a bit stream, and serializes the codebook compactly as canonical code
// lengths so the decoder can rebuild identical codes.
package huffman

import (
	"errors"
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/scratch"
)

// MaxSymbols bounds the alphabet size: quantization uses up to 2^16 codes,
// and the packed decode table holds each symbol in 16 bits.
const MaxSymbols = 1 << 16

// maxCodeLen is the maximum admissible code length. Canonical codes from
// realistic frequency tables stay far below this; the serialization format
// stores lengths in 6 bits.
const maxCodeLen = 57

// ErrCorrupt is returned when a serialized codebook or encoded stream is
// malformed.
var ErrCorrupt = errors.New("huffman: corrupt stream")

// Codebook is an immutable canonical Huffman code for a fixed alphabet
// [0, NumSymbols). Symbols with zero frequency have code length 0 and must
// not appear in encoded streams.
type Codebook struct {
	numSymbols int
	lengths    []uint8  // code length per symbol, 0 = absent
	codes      []uint64 // canonical code per symbol (valid when length > 0)

	// Canonical decoding tables, indexed by code length 1..maxLen.
	maxLen     uint8
	firstCode  []uint64 // first canonical code of each length
	firstIndex []int    // index into symByCode of the first code of each length
	countByLen []int    // number of codes of each length
	symByCode  []uint32 // symbols sorted by (length, code)

	// Packed decode table, indexed by the next tableBits of the stream
	// (see buildDecodeTable); nil for codebooks built by New.
	tableBits uint
	table     []uint64
}

// node is a Huffman tree node used during construction.
type node struct {
	freq        uint64
	symbol      int // valid for leaves
	left, right int // indices into the node arena, -1 for leaves
	depth       int // tie-break to keep the tree shallow and deterministic
}

type nodeHeap struct {
	arena []node
	idx   []int
}

// The heap is hand-rolled rather than container/heap to keep the build off
// interface calls. The comparison is a strict total order (freq, then
// depth, then arena index — all unique), so nodes pop in exactly sorted
// order and the resulting tree is independent of heap mechanics: this
// produces bit-identical codebooks to any other correct min-heap.
func (h *nodeHeap) less(i, j int) bool {
	a, b := h.arena[h.idx[i]], h.arena[h.idx[j]]
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	if a.depth != b.depth {
		return a.depth < b.depth
	}
	return h.idx[i] < h.idx[j]
}

func (h *nodeHeap) down(i int) {
	n := len(h.idx)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h.idx[i], h.idx[m] = h.idx[m], h.idx[i]
		i = m
	}
}

func (h *nodeHeap) init() {
	for i := len(h.idx)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *nodeHeap) push(x int) {
	h.idx = append(h.idx, x)
	i := len(h.idx) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.idx[i], h.idx[p] = h.idx[p], h.idx[i]
		i = p
	}
}

func (h *nodeHeap) pop() int {
	x := h.idx[0]
	last := len(h.idx) - 1
	h.idx[0] = h.idx[last]
	h.idx = h.idx[:last]
	if last > 0 {
		h.down(0)
	}
	return x
}

// nodePool recycles build arenas between codebook constructions; the
// arena is dead the moment code lengths are extracted.
var nodePool = scratch.NewPool[node]()

// New builds a canonical Huffman codebook from symbol frequencies.
// freqs[i] is the count of symbol i; zero-frequency symbols get no code.
// At least one symbol must have nonzero frequency.
//
// The codebook's working slices come from the scratch pools; callers
// done with a codebook may hand them back with Release.
func New(freqs []uint64) (*Codebook, error) {
	n := len(freqs)
	if n == 0 || n > MaxSymbols {
		return nil, fmt.Errorf("huffman: alphabet size %d out of range [1,%d]", n, MaxSymbols)
	}
	lengths := scratch.BytesZeroed(n)
	nz := 0
	single := -1
	for s, f := range freqs {
		if f > 0 {
			nz++
			single = s
		}
	}
	switch nz {
	case 0:
		return nil, errors.New("huffman: all frequencies are zero")
	case 1:
		// A one-symbol alphabet still needs a 1-bit code so the stream has
		// positive length and decoding terminates by symbol count.
		lengths[single] = 1
		return fromLengths(n, lengths)
	}

	h := &nodeHeap{arena: nodePool.Get(2 * nz)[:0], idx: scratch.Ints(nz)[:0]}
	defer func() {
		nodePool.Put(h.arena)
		scratch.PutInts(h.idx)
	}()
	for s, f := range freqs {
		if f == 0 {
			continue
		}
		h.arena = append(h.arena, node{freq: f, symbol: s, left: -1, right: -1})
		h.idx = append(h.idx, len(h.arena)-1)
	}
	h.init()
	for len(h.idx) > 1 {
		a := h.pop()
		b := h.pop()
		d := h.arena[a].depth
		if h.arena[b].depth > d {
			d = h.arena[b].depth
		}
		h.arena = append(h.arena, node{
			freq:  h.arena[a].freq + h.arena[b].freq,
			left:  a,
			right: b,
			depth: d + 1,
		})
		h.push(len(h.arena) - 1)
	}
	root := h.idx[0]

	// Extract code lengths by depth-first walk (iterative to bound stack).
	// Depth is checked at internal nodes too — every internal node past
	// the limit has a leaf strictly deeper, so the same trees fail — which
	// caps the walk depth and lets the frame stack live on the goroutine
	// stack.
	type frame struct {
		node  int
		depth uint8
	}
	var stackArr [maxCodeLen + 4]frame
	stack := stackArr[:0]
	stack = append(stack, frame{root, 0})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := h.arena[f.node]
		if nd.left < 0 {
			if f.depth > maxCodeLen {
				return nil, fmt.Errorf("huffman: code length %d exceeds limit %d", f.depth, maxCodeLen)
			}
			lengths[nd.symbol] = f.depth
			continue
		}
		if f.depth >= maxCodeLen {
			return nil, fmt.Errorf("huffman: code length %d exceeds limit %d", f.depth+1, maxCodeLen)
		}
		stack = append(stack, frame{nd.left, f.depth + 1}, frame{nd.right, f.depth + 1})
	}
	return fromLengths(n, lengths)
}

// fromLengths assigns canonical codes given per-symbol lengths and builds
// the decoding tables. It validates the Kraft sum. lengths must come from
// the scratch byte pool (Release hands it back there).
func fromLengths(n int, lengths []uint8) (*Codebook, error) {
	cb := &Codebook{numSymbols: n, lengths: lengths}
	for _, l := range lengths {
		if l > cb.maxLen {
			cb.maxLen = l
		}
	}
	if cb.maxLen == 0 {
		return nil, errors.New("huffman: no coded symbols")
	}
	if cb.maxLen > maxCodeLen {
		return nil, fmt.Errorf("huffman: code length %d exceeds limit %d", cb.maxLen, maxCodeLen)
	}
	cb.countByLen = scratch.IntsZeroed(int(cb.maxLen) + 1)
	nz := 0
	for _, l := range lengths {
		if l > 0 {
			cb.countByLen[l]++
			nz++
		}
	}
	// Kraft inequality check (equality not required: the degenerate
	// single-symbol codebook uses length 1 with Kraft sum 1/2).
	var kraft uint64 // scaled by 2^maxLen
	for l := uint8(1); l <= cb.maxLen; l++ {
		kraft += uint64(cb.countByLen[l]) << (cb.maxLen - l)
	}
	if kraft > 1<<cb.maxLen {
		return nil, fmt.Errorf("%w: Kraft sum exceeds 1", ErrCorrupt)
	}

	// Canonical first codes per length. Entries 1..maxLen are assigned
	// below and are the only ones ever read, so the recycled slices'
	// leftover contents elsewhere are harmless.
	cb.firstCode = scratch.Uint64s(int(cb.maxLen) + 2)
	cb.firstIndex = scratch.Ints(int(cb.maxLen) + 2)
	code := uint64(0)
	idx := 0
	for l := uint8(1); l <= cb.maxLen; l++ {
		cb.firstCode[l] = code
		cb.firstIndex[l] = idx
		code = (code + uint64(cb.countByLen[l])) << 1
		idx += cb.countByLen[l]
	}

	// Assign codes in (length, symbol) order without sorting: scanning
	// symbols in ascending order with a per-length placement counter
	// visits each length class in ascending symbol order, which is
	// exactly the canonical ordering. codes[s] is read only for symbols
	// with a nonzero length, all of which are assigned here, so it needs
	// no clearing.
	cb.codes = scratch.Uint64s(n)
	cb.symByCode = scratch.Uint32s(nz)
	next := scratch.IntsZeroed(int(cb.maxLen) + 1)
	defer scratch.PutInts(next)
	for s, l := range lengths {
		if l == 0 {
			continue
		}
		off := next[l]
		next[l]++
		cb.codes[s] = cb.firstCode[l] + uint64(off)
		cb.symByCode[cb.firstIndex[l]+off] = uint32(s)
	}
	return cb, nil
}

// Release hands the codebook's working slices back to the scratch pools
// and zeroes the codebook. It is an optimization for per-slab codebooks
// on the hot path; a released codebook must not be used again. Releasing
// is never required — an un-released codebook is ordinary garbage.
func (cb *Codebook) Release() {
	scratch.PutBytes(cb.lengths)
	scratch.PutUint64s(cb.codes)
	scratch.PutUint64s(cb.firstCode)
	scratch.PutInts(cb.firstIndex)
	scratch.PutInts(cb.countByLen)
	scratch.PutUint32s(cb.symByCode)
	scratch.PutUint64s(cb.table)
	*cb = Codebook{}
}

// decodeTableBits caps the packed decode table at 2^12 entries (32 KiB).
const decodeTableBits = 12

// A packed decode-table entry describes the whole codes the entry's
// tableBits-bit prefix resolves on its own, read greedily from its top
// bit: up to three, each symbol in a 16-bit lane (MaxSymbols is 2^16).
// A zero entry means the prefix starts a code longer than tableBits.
const (
	entryUsedMask   = 0xf     // bits 0–3: total length of the resolved codes
	entryLen1Shift  = 4       // bits 4–7: length of the first code
	entryCountShift = 8       // bits 8–9: number of codes resolved, 1–3
	entryZero       = 1 << 10 // bit 10: symbol 0 is among them
	entrySymShift   = 16      // bits 16–63: the symbols, first in the lowest lane
)

// buildDecodeTable fills the packed decode table. A first pass stores
// every code of length ≤ tableBits as a one-code entry, replicated
// across all suffixes of its prefix; a second pass extends each entry
// with the codes that follow within the same prefix, reading only the
// first-code fields of other entries, which the extension never changes.
//
// Only Deserialize builds the table: codebooks built by New sit on the
// encode side (the decoder always reconstructs its own from the stream),
// so they skip the fill and fall back to decodeSlow in the rare case they
// decode anyway.
func (cb *Codebook) buildDecodeTable() {
	tb := uint(cb.maxLen)
	if tb > decodeTableBits {
		tb = decodeTableBits
	}
	cb.tableBits = tb
	// Sized to min(maxLen, decodeTableBits): a tiny alphabet gets a tiny
	// table (a 3-symbol codebook needs 4 entries, not 4096).
	table := scratch.Uint64sZeroed(1 << tb)
	for s, l := range cb.lengths {
		if l == 0 || uint(l) > tb {
			continue
		}
		base := cb.codes[s] << (tb - uint(l))
		e := uint64(s)<<entrySymShift | 1<<entryCountShift | uint64(l)<<entryLen1Shift | uint64(l)
		if s == 0 {
			e |= entryZero
		}
		for p := uint64(0); p < 1<<(tb-uint(l)); p++ {
			table[base+p] = e
		}
	}
	mask := uint64(1)<<tb - 1
	for i, e := range table {
		if e == 0 {
			continue
		}
		used := uint(e & entryUsedMask)
		for c := uint(1); c < 3; c++ {
			f := table[uint64(i)<<used&mask]
			l := uint(f >> entryLen1Shift & 0xf)
			if f == 0 || used+l > tb {
				break
			}
			sym := f >> entrySymShift & 0xffff
			e += 1<<entryCountShift + uint64(l)
			e |= sym << (entrySymShift + 16*c)
			if sym == 0 {
				e |= entryZero
			}
			used += l
		}
		table[i] = e
	}
	cb.table = table
}

// NumSymbols returns the alphabet size.
func (cb *Codebook) NumSymbols() int { return cb.numSymbols }

// CodeLen returns the code length of symbol s (0 if s has no code).
func (cb *Codebook) CodeLen(s int) int { return int(cb.lengths[s]) }

// MaxCodeLen returns the longest code length in the book.
func (cb *Codebook) MaxCodeLen() int { return int(cb.maxLen) }

// MaxSymbol returns the largest symbol with a code assigned, or -1 for a
// codebook with no codes. Every decode path resolves symbols through the
// code tables, so no decoded symbol can exceed this bound.
func (cb *Codebook) MaxSymbol() int {
	for s := len(cb.lengths) - 1; s >= 0; s-- {
		if cb.lengths[s] != 0 {
			return s
		}
	}
	return -1
}

// EncodedBits returns the exact number of bits Encode will emit for the
// given frequency histogram (Σ freq[s]·len[s]).
func (cb *Codebook) EncodedBits(freqs []uint64) uint64 {
	var total uint64
	for s, f := range freqs {
		if s < len(cb.lengths) {
			total += f * uint64(cb.lengths[s])
		}
	}
	return total
}

// Encode appends the code for each symbol to w. It returns an error if a
// symbol is out of range or has no code.
//
// Codes are gathered into a local 64-bit accumulator and spilled to the
// writer in large chunks; the emitted bits are identical to writing each
// code individually (MSB-first concatenation is associative), but the
// per-symbol writer call disappears from the hot path.
func (cb *Codebook) Encode(w *bitstream.Writer, symbols []int) error {
	if cb.maxLen > 32 {
		// Rare deep codebooks fall back to the simple loop so the
		// accumulator never has to split a single code.
		for _, s := range symbols {
			if err := cb.EncodeSymbol(w, s); err != nil {
				return err
			}
		}
		return nil
	}
	lengths, codes := cb.lengths, cb.codes
	var acc uint64
	var nacc uint
	for _, s := range symbols {
		if s < 0 || s >= cb.numSymbols {
			return fmt.Errorf("huffman: symbol %d out of range [0,%d)", s, cb.numSymbols)
		}
		l := uint(lengths[s])
		if l == 0 {
			return fmt.Errorf("huffman: symbol %d has no code (zero frequency at build time)", s)
		}
		if nacc+l > 64 {
			w.WriteBits(acc, nacc)
			acc, nacc = 0, 0
		}
		acc = acc<<l | codes[s]&(1<<l-1)
		nacc += l
	}
	if nacc > 0 {
		w.WriteBits(acc, nacc)
	}
	return nil
}

// EncodeSymbol appends the code for a single symbol to w.
func (cb *Codebook) EncodeSymbol(w *bitstream.Writer, s int) error {
	if s < 0 || s >= cb.numSymbols {
		return fmt.Errorf("huffman: symbol %d out of range [0,%d)", s, cb.numSymbols)
	}
	l := cb.lengths[s]
	if l == 0 {
		return fmt.Errorf("huffman: symbol %d has no code (zero frequency at build time)", s)
	}
	w.WriteBits(cb.codes[s], uint(l))
	return nil
}

// DecodeSymbol reads a single symbol from r.
func (cb *Codebook) DecodeSymbol(r *bitstream.Reader) (int, error) {
	return cb.decodeOne(r)
}

// Decode reads exactly count symbols from r.
func (cb *Codebook) Decode(r *bitstream.Reader, count int) ([]int, error) {
	out := make([]int, count)
	if err := cb.DecodeInto(r, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto fills out with len(out) decoded symbols and, when marks is
// not nil, marks the blocks of out that hold symbol 0 (see DecodeNInto).
// It is DecodeNInto over one stream.
func (cb *Codebook) DecodeInto(r *bitstream.Reader, out []int, marks []uint64) error {
	rs := [1]*bitstream.Reader{r}
	return cb.DecodeNInto(rs[:], out, marks)
}

// decodeOne reads one symbol, through the first code of the packed
// table's entry when the whole prefix lies inside the stream.
func (cb *Codebook) decodeOne(r *bitstream.Reader) (int, error) {
	if cb.table != nil && r.Remaining() >= uint64(cb.tableBits) {
		if e := cb.table[r.Peek(cb.tableBits)]; e != 0 {
			r.Skip(uint(e >> entryLen1Shift & 0xf))
			return int(e >> entrySymShift & 0xffff), nil
		}
	}
	return cb.decodeSlow(r)
}

// decodeSlow is the bit-by-bit canonical decode, used near the end of the
// stream and for codes longer than tableBits.
func (cb *Codebook) decodeSlow(r *bitstream.Reader) (int, error) {
	var code uint64
	for l := uint8(1); l <= cb.maxLen; l++ {
		b, err := r.ReadBits(1)
		if err != nil {
			return 0, err
		}
		code = (code << 1) | b
		cnt := cb.countByLen[l]
		if cnt == 0 {
			continue
		}
		first := cb.firstCode[l]
		if code >= first && code < first+uint64(cnt) {
			return int(cb.symByCode[cb.firstIndex[l]+int(code-first)]), nil
		}
	}
	return 0, fmt.Errorf("%w: no code matches after %d bits", ErrCorrupt, cb.maxLen)
}

// --- codebook serialization --------------------------------------------------
//
// Wire format: Elias-gamma alphabet size, then per-symbol code lengths
// run-length encoded as (gamma runLen-1, 6-bit length) pairs. Zero runs
// dominate for sparse alphabets, so this stays compact even for 2^16
// symbols.

// Serialize writes the codebook to w.
func (cb *Codebook) Serialize(w *bitstream.Writer) {
	w.WriteEliasGamma(uint64(cb.numSymbols))
	i := 0
	for i < cb.numSymbols {
		l := cb.lengths[i]
		j := i + 1
		for j < cb.numSymbols && cb.lengths[j] == l {
			j++
		}
		w.WriteEliasGamma(uint64(j - i - 1)) // run length - 1
		w.WriteBits(uint64(l), 6)
		i = j
	}
}

// AlphabetSize reads the alphabet size a serialized codebook declares,
// its first field, without deserializing the rest: what Deserialize
// will hold grows with it. Five bytes always suffice (the largest
// alphabet's gamma code is 33 bits).
func AlphabetSize(serialized []byte) (int, error) {
	return readAlphabet(bitstream.NewReader(serialized))
}

func readAlphabet(r *bitstream.Reader) (int, error) {
	ns, err := r.ReadEliasGamma()
	if err != nil {
		return 0, err
	}
	if ns == 0 || ns > MaxSymbols {
		return 0, fmt.Errorf("%w: alphabet size %d", ErrCorrupt, ns)
	}
	return int(ns), nil
}

// Deserialize reads a codebook written by Serialize.
func Deserialize(r *bitstream.Reader) (*Codebook, error) {
	n, err := readAlphabet(r)
	if err != nil {
		return nil, err
	}
	// Every position is assigned by the run decoding below (the loop only
	// terminates at i == n), so the recycled buffer needs no clearing.
	lengths := scratch.Bytes(n)
	i := 0
	for i < n {
		run, err := r.ReadEliasGamma()
		if err != nil {
			return nil, err
		}
		l, err := r.ReadBits(6)
		if err != nil {
			return nil, err
		}
		end := i + int(run) + 1
		if end > n {
			return nil, fmt.Errorf("%w: run overflows alphabet", ErrCorrupt)
		}
		for ; i < end; i++ {
			lengths[i] = uint8(l)
		}
	}
	cb, err := fromLengths(n, lengths)
	if err != nil {
		return nil, err
	}
	cb.buildDecodeTable()
	return cb, nil
}

// CountFrequencies histograms a symbol stream over alphabet [0, numSymbols).
func CountFrequencies(symbols []int, numSymbols int) ([]uint64, error) {
	freqs := make([]uint64, numSymbols)
	for _, s := range symbols {
		if s < 0 || s >= numSymbols {
			return nil, fmt.Errorf("huffman: symbol %d out of range [0,%d)", s, numSymbols)
		}
		freqs[s]++
	}
	return freqs, nil
}
