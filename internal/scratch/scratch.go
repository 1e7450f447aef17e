// Package scratch provides size-classed, sync.Pool-backed recycling of
// the working slices the hot compression path churns through.
//
// The SZ-1.4 pipeline is memory-bandwidth-bound: per slab, the core
// compressor needs a quantization-code array (2 B per cell: codes are
// below 2^16), a reconstruction array in the samples' own width, a
// histogram, Huffman build arenas, and bitstream buffers — megabytes
// that all die the moment the slab's stream bytes are emitted.
// Allocating them fresh per operation makes the garbage collector, not
// arithmetic, the throughput ceiling once many slabs are in flight (the
// blocked worker pool, the szd daemon). This package recycles them.
//
// Slices are pooled in power-of-two size classes, one sync.Pool per
// class, so a Get never hands back more than 2x the capacity asked for
// and slabs of similar geometry reuse each other's buffers. Get returns
// a slice of exactly the requested length with arbitrary contents (the
// zeroed variants clear it first); Put recycles any slice, filing it
// under the largest class its capacity covers. sync.Pool gives
// per-P caches, so concurrent workers reuse without contention, and the
// GC still reclaims idle buffers under memory pressure — the pools
// cannot pin memory a quiet process no longer needs.
//
// Correctness note: a recycled slice's contents are garbage. Callers
// must either overwrite every element they read (the compression scans
// do — every point is reconstructed) or request the zeroed variant
// (histograms, Huffman decode tables).
//
// View reinterprets a pooled byte buffer of raw little-endian samples as
// the samples themselves, so the blocked writer and reader run the
// kernels on a slab's raw bytes with no widened copy beside them. The
// view shares the buffer's storage: recycle the buffer, not the view,
// and only once the view is dead.
package scratch

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// minClassBits is the smallest pooled class (64 elements): tinier
	// slices cost less to allocate than to recycle.
	minClassBits = 6
	// maxClassBits is the largest pooled class (2^27 elements — 1 GiB
	// of float64): beyond it, Get falls through to plain make and Put
	// drops the slice, so a single pathological request cannot park
	// gigabytes in the pools.
	maxClassBits = 27
)

// Per-class traffic counters, shared across all Pool instances (the
// interesting signal is "does class c recycle or allocate", not which
// element type asked). Atomics keep the hot path lock-free; a miss is
// a Get that had to fall back to make.
var (
	classHits   [maxClassBits + 1]atomic.Int64
	classMisses [maxClassBits + 1]atomic.Int64
	classPuts   [maxClassBits + 1]atomic.Int64
)

// ClassStats is one size class's cumulative traffic.
type ClassStats struct {
	// Size is the class capacity in elements (1 << class bits).
	Size int
	// Hits counts Gets served from the pool, Misses counts Gets that
	// allocated, Puts counts slices recycled into the class.
	Hits, Misses, Puts int64
}

// Stats returns cumulative per-class counters for every class that has
// seen any traffic, smallest class first.
func Stats() []ClassStats {
	var out []ClassStats
	for c := minClassBits; c <= maxClassBits; c++ {
		s := ClassStats{
			Size:   1 << c,
			Hits:   classHits[c].Load(),
			Misses: classMisses[c].Load(),
			Puts:   classPuts[c].Load(),
		}
		if s.Hits|s.Misses|s.Puts != 0 {
			out = append(out, s)
		}
	}
	return out
}

// Pool is a size-classed recycler for []T. The zero value is not ready;
// use NewPool. Pools are safe for concurrent use.
type Pool[T any] struct {
	classes [maxClassBits + 1]sync.Pool
}

// NewPool returns an empty size-classed pool for []T.
func NewPool[T any]() *Pool[T] { return &Pool[T]{} }

// classFor returns the pool class whose capacity (1<<class) covers n,
// or -1 when n is outside the pooled range.
func classFor(n int) int {
	if n <= 0 {
		return minClassBits
	}
	c := bits.Len(uint(n - 1)) // ceil(log2 n)
	if c < minClassBits {
		return minClassBits
	}
	if c > maxClassBits {
		return -1
	}
	return c
}

// Get returns a []T of length n with arbitrary contents, recycled when
// a buffer of a suitable class is pooled, freshly allocated otherwise.
func (p *Pool[T]) Get(n int) []T {
	c := classFor(n)
	if c < 0 {
		return make([]T, n)
	}
	if v := p.classes[c].Get(); v != nil {
		// Pooled entries are stored as their backing-array pointer (a
		// pointer-shaped interface payload, so Get and Put allocate
		// nothing); the capacity is implied by the class.
		classHits[c].Add(1)
		return unsafe.Slice((*T)(v.(unsafe.Pointer)), 1<<c)[:n]
	}
	classMisses[c].Add(1)
	return make([]T, n, 1<<c)
}

// Put recycles s. The slice is filed under the largest class its
// capacity fully covers (slices that grew past their class still
// recycle, trimmed to the class size); slices too small or too large to
// pool are dropped. s must not be used after Put.
func (p *Pool[T]) Put(s []T) {
	c := bits.Len(uint(cap(s))) - 1 // floor(log2 cap)
	if c < minClassBits || c > maxClassBits {
		return
	}
	classPuts[c].Add(1)
	p.classes[c].Put(unsafe.Pointer(unsafe.SliceData(s[:cap(s)])))
}

// Shared pools for the element types the compression pipeline uses.
// Package-level so every layer (core, huffman, blocked, server) draws
// from the same warm set.
var (
	bytePool    = NewPool[byte]()
	intPool     = NewPool[int]()
	float64Pool = NewPool[float64]()
	uint64Pool  = NewPool[uint64]()
	uint32Pool  = NewPool[uint32]()
	uint16Pool  = NewPool[uint16]()
	float32Pool = NewPool[float32]()
)

// Bytes returns a recycled []byte of length n with arbitrary contents.
func Bytes(n int) []byte { return bytePool.Get(n) }

// BytesZeroed returns a recycled []byte of length n, cleared.
func BytesZeroed(n int) []byte {
	s := bytePool.Get(n)
	clear(s)
	return s
}

// PutBytes recycles a byte slice.
func PutBytes(s []byte) { bytePool.Put(s) }

// Ints returns a recycled []int of length n with arbitrary contents.
func Ints(n int) []int { return intPool.Get(n) }

// IntsZeroed returns a recycled []int of length n, cleared.
func IntsZeroed(n int) []int {
	s := intPool.Get(n)
	clear(s)
	return s
}

// PutInts recycles an int slice.
func PutInts(s []int) { intPool.Put(s) }

// Floats returns a recycled []F of length n with arbitrary contents,
// from the float32 or the float64 pool as F's width says.
func Floats[F float32 | float64](n int) []F { return floatPool[F]().Get(n) }

// PutFloats recycles a slice Floats returned.
func PutFloats[F float32 | float64](s []F) { floatPool[F]().Put(s) }

// floatPool returns the shared pool for []F. Boxing a pool pointer does
// not allocate.
func floatPool[F float32 | float64]() *Pool[F] {
	if p, ok := any(float32Pool).(*Pool[F]); ok {
		return p
	}
	return any(float64Pool).(*Pool[F])
}

// Uint16s returns a recycled []uint16 of length n with arbitrary
// contents: the quantization-code arrays.
func Uint16s(n int) []uint16 { return uint16Pool.Get(n) }

// PutUint16s recycles a uint16 slice.
func PutUint16s(s []uint16) { uint16Pool.Put(s) }

// Uint64s returns a recycled []uint64 of length n with arbitrary
// contents.
func Uint64s(n int) []uint64 { return uint64Pool.Get(n) }

// Uint64sZeroed returns a recycled []uint64 of length n, cleared.
func Uint64sZeroed(n int) []uint64 {
	s := uint64Pool.Get(n)
	clear(s)
	return s
}

// PutUint64s recycles a uint64 slice.
func PutUint64s(s []uint64) { uint64Pool.Put(s) }

// Uint32s returns a recycled []uint32 of length n with arbitrary
// contents.
func Uint32s(n int) []uint32 { return uint32Pool.Get(n) }

// PutUint32s recycles a uint32 slice.
func PutUint32s(s []uint32) { uint32Pool.Put(s) }

// littleEndian reports whether the host stores a word's low byte first.
var littleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// View returns b's leading len(b)/size(F) raw little-endian samples as a
// []F sharing b's storage, when the host is little-endian and b is
// aligned for F; otherwise it returns false and the caller converts the
// bytes. Writes through the view are writes to b.
func View[F float32 | float64](b []byte) ([]F, bool) {
	var zero F
	size := unsafe.Sizeof(zero)
	p := unsafe.Pointer(unsafe.SliceData(b))
	if !littleEndian || p == nil || uintptr(p)%unsafe.Alignof(zero) != 0 {
		return nil, false
	}
	return unsafe.Slice((*F)(p), uintptr(len(b))/size), true
}
