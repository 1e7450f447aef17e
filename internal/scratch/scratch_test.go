package scratch

import (
	"encoding/binary"
	"math"
	"sync"
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, minClassBits},
		{1, minClassBits},
		{64, minClassBits},
		{65, 7},
		{128, 7},
		{129, 8},
		{1 << maxClassBits, maxClassBits},
		{1<<maxClassBits + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestGetLengthAndClassCapacity(t *testing.T) {
	p := NewPool[int]()
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 4096, 5000} {
		s := p.Get(n)
		if len(s) != n {
			t.Fatalf("Get(%d): len %d", n, len(s))
		}
		if n > 0 && cap(s) > 2*n && cap(s) > 1<<minClassBits {
			t.Fatalf("Get(%d): cap %d exceeds 2x request", n, cap(s))
		}
		p.Put(s)
	}
}

func TestPutGetRecycles(t *testing.T) {
	p := NewPool[byte]()
	s := p.Get(1000)
	for i := range s {
		s[i] = 0xAB
	}
	p.Put(s)
	// The recycled buffer should come back for a request of the same
	// class (sync.Pool per-P caching makes this deterministic enough on
	// a single goroutine; tolerate a miss rather than flake).
	r := p.Get(900)
	if len(r) != 900 {
		t.Fatalf("len %d", len(r))
	}
	p.Put(r)
}

func TestOversizeFallsThrough(t *testing.T) {
	p := NewPool[byte]()
	n := 1<<maxClassBits + 1
	s := p.Get(n)
	if len(s) != n || cap(s) != n {
		t.Fatalf("oversize Get: len %d cap %d", len(s), cap(s))
	}
	p.Put(s) // must not panic; silently dropped
}

func TestZeroedVariants(t *testing.T) {
	// Dirty a buffer, recycle it, and confirm the zeroed getters clear.
	h := Uint64s(256)
	for i := range h {
		h[i] = ^uint64(0)
	}
	PutUint64s(h)
	z := Uint64sZeroed(256)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("Uint64sZeroed[%d] = %d", i, v)
		}
	}
	PutUint64s(z)
}

func TestGrownSliceRefilesByCapacity(t *testing.T) {
	p := NewPool[byte]()
	s := p.Get(64)
	s = append(s[:cap(s)], make([]byte, 200)...) // grow past the class
	p.Put(s)
	// A larger request should be servable without incident.
	r := p.Get(256)
	if len(r) != 256 {
		t.Fatalf("len %d", len(r))
	}
	p.Put(r)
}

// TestConcurrent exercises the pools from many goroutines (meaningful
// under -race): every Get must return a slice of the right length that
// no other goroutine concurrently holds.
func TestConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 100 + int(seed)*50 + i
				b := Bytes(n)
				for j := range b {
					b[j] = seed
				}
				for j := range b {
					if b[j] != seed {
						t.Errorf("buffer shared across goroutines")
						return
					}
				}
				PutBytes(b)
				f := Floats[float64](n)
				f[0], f[n-1] = 1, 2
				if f[0] != 1 || f[n-1] != 2 {
					t.Errorf("float64 buffer corrupted")
					return
				}
				PutFloats(f)
			}
		}(byte(g))
	}
	wg.Wait()
}

func TestStatsCountTraffic(t *testing.T) {
	const n = 5000 // class 13 (8192), unlikely to collide with other tests' classes
	before := statsFor(1 << 13)
	// A get after a put should be a hit, but sync.Pool may lose the put
	// (a GC empties it, and under the race detector Put drops a quarter
	// of what it is handed at random): cycle get+put until a hit is
	// recorded, counting every call.
	cycles := 0
	for statsFor(1<<13).Hits == before.Hits {
		if cycles == 100 {
			t.Fatalf("no pool hit recorded after %d puts: %+v -> %+v", cycles, before, statsFor(1<<13))
		}
		PutBytes(Bytes(n))
		cycles++
	}
	after := statsFor(1 << 13)
	if d := after.Puts - before.Puts; d != int64(cycles) {
		t.Errorf("puts delta = %d, want %d", d, cycles)
	}
	if d := (after.Hits + after.Misses) - (before.Hits + before.Misses); d != int64(cycles) {
		t.Errorf("gets delta = %d, want %d", d, cycles)
	}
}

func statsFor(size int) ClassStats {
	for _, s := range Stats() {
		if s.Size == size {
			return s
		}
	}
	return ClassStats{Size: size}
}

// TestView: a view reads and writes a buffer's raw little-endian samples
// in place, and a buffer misaligned for the sample type gets none.
func TestView(t *testing.T) {
	if !littleEndian {
		t.Skip("views need a little-endian host")
	}
	b := Bytes(64)
	defer PutBytes(b)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(float32(i)+0.5))
	}
	v, ok := View[float32](b)
	if !ok || len(v) != 16 {
		t.Fatalf("float32 view: %d samples, ok %v", len(v), ok)
	}
	for i, x := range v {
		if x != float32(i)+0.5 {
			t.Fatalf("sample %d reads %v", i, x)
		}
	}
	v[3] = -1
	if got := binary.LittleEndian.Uint32(b[12:]); got != math.Float32bits(-1) {
		t.Fatalf("write through the view left %#x", got)
	}
	if w, ok := View[float64](b[:60]); !ok || len(w) != 7 {
		t.Fatalf("float64 view of 60 bytes: %d samples, ok %v", len(w), ok)
	}
	if _, ok := View[float32](b[1:]); ok {
		t.Fatal("misaligned buffer viewed")
	}
}
