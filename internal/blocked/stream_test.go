package blocked

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grid"
)

func absParams(slabRows int, dt grid.DType) Params {
	return Params{
		Core:     core.Params{Mode: core.BoundAbs, AbsBound: 1e-3, OutputType: dt},
		SlabRows: slabRows,
		Workers:  3,
	}
}

// rawBytes serializes an array the way the streaming writer expects it.
func rawBytes(t *testing.T, a *grid.Array, dt grid.DType) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.WriteRaw(&buf, dt); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriterMatchesCompress: the streaming writer fed raw bytes in
// awkward chunk sizes must produce byte-identical containers to the
// one-shot Compress path, viewing the raw slab bytes in place or
// converting them.
func TestWriterMatchesCompress(t *testing.T) {
	for _, dt := range []grid.DType{grid.Float32, grid.Float64} {
		a := datagen.Hurricane(26, 21, 17, 4)
		p := absParams(7, dt)
		want, _, err := Compress(a, p)
		if err != nil {
			t.Fatal(err)
		}

		raw := rawBytes(t, a, dt)
		for _, views := range []bool{true, false} {
			withViews(views, func() {
				var got bytes.Buffer
				w, err := NewWriter(&got, a.Dims, p)
				if err != nil {
					t.Fatal(err)
				}
				// Deliberately misaligned chunks (prime size) so slab and
				// element boundaries never line up with Write calls.
				for off := 0; off < len(raw); off += 1009 {
					end := off + 1009
					if end > len(raw) {
						end = len(raw)
					}
					if _, err := w.Write(raw[off:end]); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("dtype %v views=%v: streamed container (%d bytes) differs from one-shot (%d bytes)",
						dt, views, got.Len(), len(want))
				}
				st := w.Stats()
				if st == nil || st.Slabs != (26+6)/7 || st.N != a.Len() {
					t.Fatalf("bad writer stats: %+v", st)
				}
			})
		}
	}
}

// TestReaderMatchesDecompress: streaming reconstruction must be
// bit-identical to the in-memory parallel path, whether the reader
// reconstructs in its raw output buffers or converts into them.
func TestReaderMatchesDecompress(t *testing.T) {
	for _, dt := range []grid.DType{grid.Float32, grid.Float64} {
		a := datagen.ATM(45, 64, 9)
		stream, _, err := Compress(a, absParams(8, dt))
		if err != nil {
			t.Fatal(err)
		}
		want, err := Decompress(stream, Params{})
		if err != nil {
			t.Fatal(err)
		}

		for _, views := range []bool{true, false} {
			withViews(views, func() {
				r, err := NewReader(bytes.NewReader(stream), Params{})
				if err != nil {
					t.Fatal(err)
				}
				if r.DType() != dt {
					t.Fatalf("reader dtype %v, want %v", r.DType(), dt)
				}
				if r.NumSlabs() != (45+7)/8 || r.SlabRows() != 8 {
					t.Fatalf("reader geometry: %d slabs x %d rows", r.NumSlabs(), r.SlabRows())
				}
				got, err := io.ReadAll(r)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, rawBytes(t, want, dt)) {
					t.Fatalf("dtype %v views=%v: streamed reconstruction differs from Decompress", dt, views)
				}
				gd := r.Dims()
				if len(gd) != 2 || gd[0] != 45 || gd[1] != 64 {
					t.Fatalf("reader dims %v", gd)
				}
			})
		}
	}
}

// f32Field returns n float32 samples as raw bits: a smooth field, with
// every kind of value a float32 source can hold sprinkled through it
// when specials is set.
func f32Field(n int, specials bool) []uint32 {
	specialBits := []uint32{
		0x7fc00000, 0xffc00123, 0x7fc0beef, // quiet NaNs, with payloads
		0x7f800001, 0xffa00000, 0x7fbfffff, // signalling NaNs, with payloads
		0x7f800000, 0xff800000, // ±Inf
		0x00000001, 0x807fffff, 0x00400000, // subnormals
		0x80000000, // −0
	}
	bits := make([]uint32, n)
	for i := range bits {
		bits[i] = math.Float32bits(float32(math.Sin(float64(i)*0.05) * 10))
		if specials && i%7 == 3 {
			bits[i] = specialBits[(i/7)%len(specialBits)]
		}
	}
	return bits
}

// rawPathCase is a float32 field as the writer receives it (raw) and as
// the grid.Array API holds it (a, each sample widened).
type rawPathCase struct {
	name     string
	dims     []int
	slabRows int
	core     core.Params
	raw      []byte
	a        *grid.Array
}

func newRawPathCase(name string, dims []int, slabRows int, cp core.Params, bits []uint32) rawPathCase {
	a := grid.New(dims...)
	raw := make([]byte, 4*len(bits))
	for i, b := range bits {
		binary.LittleEndian.PutUint32(raw[4*i:], b)
		a.Data[i] = float64(math.Float32frombits(b))
	}
	cp.Mode, cp.OutputType = core.BoundAbs, grid.Float32
	return rawPathCase{name, dims, slabRows, cp, raw, a}
}

// rawPathCases is the adversarial table the writer's and reader's raw
// float32 path is held to: non-finite, subnormal and signed-zero
// samples, a field in which every point escapes, ragged last slabs, the
// 1D, 2D and 3D kernels at Layers 1 and 2, and m = 2 and m = 16.
func rawPathCases() []rawPathCase {
	noise := make([]uint32, 13*11*9)
	rng := rand.New(rand.NewSource(26))
	for i := range noise {
		noise[i] = math.Float32bits(rng.Float32())
	}
	// m = 16: the second sample sits 32767 intervals above the first, so
	// it takes the largest code, 65535.
	const eb16 = 1.0 / 1024
	top := f32Field(1001, false)
	top[0], top[1] = 0, math.Float32bits(32767*2*eb16)
	var cases []rawPathCase
	for _, l := range []int{1, 2} {
		cp := core.Params{AbsBound: 1e-3, Layers: l}
		cases = append(cases,
			newRawPathCase(fmt.Sprintf("1D-L%d", l), []int{1001}, 250, cp, f32Field(1001, true)),
			newRawPathCase(fmt.Sprintf("2D-L%d", l), []int{37, 29}, 8, cp, f32Field(37*29, true)),
			newRawPathCase(fmt.Sprintf("3D-L%d", l), []int{13, 11, 9}, 4, cp, f32Field(13*11*9, true)))
	}
	return append(cases,
		newRawPathCase("all-escape", []int{13, 11, 9}, 4, core.Params{AbsBound: 1e-9}, noise),
		newRawPathCase("m=2", []int{13, 11, 9}, 4, core.Params{AbsBound: 1e-3, IntervalBits: 2}, f32Field(13*11*9, true)),
		newRawPathCase("m=16", []int{1001}, 250, core.Params{AbsBound: eb16, IntervalBits: 16}, top))
}

// withViews runs f with the writer and reader viewing raw slab bytes in
// place (views true) or converting them, as on a big-endian host.
func withViews(views bool, f func()) {
	defer func(old bool) { rawViews = old }(rawViews)
	rawViews = views
	f()
}

// TestRawPathMatchesArrayPath: the writer, which runs the kernels on a
// float32 slab's raw bytes, writes Compress's container for the widened
// field, and the reader, which reconstructs a float32 slab in its raw
// output buffer, serves the narrowing of Decompress's reconstruction,
// both byte for byte, with 1 and 4 sub-streams, on the adversarial
// table, viewing the bytes in place or converting them.
func TestRawPathMatchesArrayPath(t *testing.T) {
	for _, tc := range rawPathCases() {
		if tc.name == "m=16" {
			_, st, err := core.Compress(tc.a, tc.core)
			if err != nil {
				t.Fatal(err)
			}
			if st.Histogram[1<<16-1] == 0 {
				t.Fatal("m=16: code 65535 unused")
			}
		}
		for _, streams := range []int{1, 4} {
			p := Params{Core: tc.core, SlabRows: tc.slabRows, Workers: 3}
			p.Core.Streams = streams
			want, _, err := Compress(tc.a, p)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := Decompress(want, Params{})
			if err != nil {
				t.Fatal(err)
			}
			wantRaw := rawBytes(t, dec, grid.Float32)
			for _, views := range []bool{true, false} {
				name := fmt.Sprintf("%s/streams=%d/views=%v", tc.name, streams, views)
				withViews(views, func() {
					var got bytes.Buffer
					w, err := NewWriter(&got, tc.dims, p)
					if err != nil {
						t.Fatal(err)
					}
					for off := 0; off < len(tc.raw); off += 1009 {
						if _, err := w.Write(tc.raw[off:min(off+1009, len(tc.raw))]); err != nil {
							t.Fatal(err)
						}
					}
					if err := w.Close(); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Bytes(), want) {
						t.Errorf("%s: writer's container differs from Compress's", name)
					}
					for _, workers := range []int{1, 3} {
						r, err := NewReader(bytes.NewReader(want), Params{Workers: workers})
						if err != nil {
							t.Fatal(err)
						}
						gotRaw, err := io.ReadAll(r)
						r.Close()
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(gotRaw, wantRaw) {
							t.Errorf("%s/workers=%d: reader's output differs from Decompress's", name, workers)
						}
					}
				})
			}
		}
	}
}

// TestReaderFloat64LabelledFloat32: a float64 field labelled float32
// (through the grid.Array API) whose escapes narrowing would move past
// the bound is stored with 64-bit escapes; the reader reconstructs its
// slabs in float64 and narrows, serving Decompress's output byte for
// byte, where a float32 reconstruction would predict the coded points
// from narrowed escapes.
func TestReaderFloat64LabelledFloat32(t *testing.T) {
	// Even rows hold values near 1 that narrowing moves by more than the
	// bound, so they escape with 64 bits; odd rows hold one float32
	// value, coded against predictions that sum those escapes' exact
	// values.
	a := grid.New(45, 64)
	for i := range a.Data {
		if (i/64)%2 == 0 {
			a.Data[i] = 1 + float64(i%64%7)*1e-8
		} else {
			a.Data[i] = float64(float32(1e-3))
		}
	}
	p := absParams(8, grid.Float32)
	p.Core.AbsBound = 1e-9
	stream, _, err := Compress(a, p)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress(stream, Params{})
	if err != nil {
		t.Fatal(err)
	}
	wide := 0
	for _, v := range dec.Data {
		if float64(float32(v)) != v {
			wide++
		}
	}
	if wide == 0 {
		t.Fatal("no reconstruction needs float64")
	}
	want := rawBytes(t, dec, grid.Float32)
	for _, views := range []bool{true, false} {
		withViews(views, func() {
			r, err := NewReader(bytes.NewReader(stream), Params{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(r)
			r.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("views=%v: reader's output differs from Decompress's", views)
			}
		})
	}
}

// TestReaderIsIncremental proves the O(slab) input bound behaviorally:
// given only the container header and the first k slab streams — the
// footer and remaining slabs do not exist — the reader must still
// deliver the first k slabs' reconstruction in full. A reader that
// buffers the whole stream (or seeks the footer) cannot do this.
//
// It also pins how far a live source runs ahead of the consumer: on a
// pipe holding only the header and slabs 0..k-1+workers, with the
// writer still to come, the first k slabs must be served, since Read
// keeps workers slabs in its window beside the one it serves.
func TestReaderIsIncremental(t *testing.T) {
	a := datagen.Hurricane(32, 20, 20, 5)
	p := absParams(4, grid.Float32)
	stream, _, err := Compress(a, p)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Inspect(stream)
	if err != nil {
		t.Fatal(err)
	}
	footerLen := int(binary.LittleEndian.Uint32(stream[len(stream)-8:]))
	bodyStart := len(stream) - 8 - footerLen - ix.Offsets[ix.NumSlabs()]

	const k = 3
	cut := bodyStart + ix.Offsets[k]
	lo := 0
	_, hi := ix.SlabBounds(k - 1)
	prefix, err := a.Slab(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	// The prefix data must also be correct (bound-respecting).
	full, err := Decompress(stream, Params{})
	if err != nil {
		t.Fatal(err)
	}
	refSlab, _ := full.Slab(lo, hi)
	var ref, refAll bytes.Buffer
	if err := refSlab.WriteRaw(&ref, grid.Float32); err != nil {
		t.Fatal(err)
	}
	if err := full.WriteRaw(&refAll, grid.Float32); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		r, err := NewReader(bytes.NewReader(stream[:cut]), Params{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, prefix.Len()*grid.Float32.Size())
		if _, err := io.ReadFull(r, got); err != nil {
			t.Fatalf("workers %d: reading %d slabs from a %d-byte prefix: %v", workers, k, cut, err)
		}
		if !bytes.Equal(got, ref.Bytes()) {
			t.Fatalf("workers %d: prefix reconstruction differs from full decompression", workers)
		}
		// Beyond the cut there is nothing; the reader must error, not
		// hang or fabricate data.
		if _, err := io.ReadAll(r); err == nil {
			t.Fatalf("workers %d: reading past the available prefix succeeded", workers)
		}
		r.Close()

		live := bodyStart + ix.Offsets[min(k+workers, ix.NumSlabs())]
		pr, pw := io.Pipe()
		more := make(chan struct{})
		go func() {
			if _, err := pw.Write(stream[:live]); err != nil {
				return
			}
			<-more
			_, err := pw.Write(stream[live:])
			pw.CloseWithError(err)
		}()
		served := make(chan error, 1)
		pipeGot := make([]byte, refAll.Len())
		r, err = NewReader(pr, Params{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			_, err := io.ReadFull(r, pipeGot[:len(got)])
			served <- err
		}()
		select {
		case err := <-served:
			if err != nil {
				t.Fatalf("workers %d: live source: %v", workers, err)
			}
		case <-time.After(10 * time.Second):
			pw.CloseWithError(errors.New("timed out"))
			close(more)
			<-served
			t.Fatalf("workers %d: slabs 0..%d not served from a source holding slabs 0..%d",
				workers, k-1, k-1+workers)
		}
		close(more)
		if _, err := io.ReadFull(r, pipeGot[len(got):]); err != nil {
			t.Fatalf("workers %d: live source, rest of the stream: %v", workers, err)
		}
		if n, err := r.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			t.Fatalf("workers %d: live source ends with %d bytes, %v; want io.EOF", workers, n, err)
		}
		if !bytes.Equal(pipeGot, refAll.Bytes()) {
			t.Fatalf("workers %d: live-source reconstruction differs from full decompression", workers)
		}
		r.Close()
	}
}

// TestReaderMemoryBounded: streaming decompression of a container must
// keep live heap O(workers x slab), far below the array size, while the
// in-memory path would hold the whole reconstruction. The window is
// pinned at two decodes rather than left at NumCPU, so the bound holds
// on any host: the reader holds three slab output buffers (one per
// window slot and the slab being served), which the reconstructions are
// written into, and each decode its quantization codes (a quarter slab
// here) and compressed slab, against a raw/4 limit of eight slabs. At
// NumCPU workers the window alone outgrows the limit on an 8-core host.
// The slots keep their buffers from slab to slab, so the bound also
// holds at any GOMAXPROCS: pooled, a buffer recycled on one P and asked
// for on another is allocated again. CI runs the test at 4 and 8 Ps,
// where it read up to 3.8 MB while each decode drew its output and a
// float64 reconstruction from the pools.
func TestReaderMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	// 1024x1024 float64 = 8 MiB raw; 32-row slabs = 256 KiB per slab.
	a := grid.New(1024, 1024)
	for i := range a.Data {
		a.Data[i] = math.Sin(float64(i) * 1e-3)
	}
	rawBytesTotal := a.Len() * 8
	stream, _, err := Compress(a, Params{
		Core:     core.Params{Mode: core.BoundAbs, AbsBound: 1e-4},
		SlabRows: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	a = nil // only the compressed container stays live

	// sync.Pool keeps what Compress recycled across one collection, so
	// the baseline waits for three.
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	r, err := NewReader(bytes.NewReader(stream), Params{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	read := 0
	peak := uint64(0)
	for {
		n, err := r.Read(buf)
		read += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if read%(2<<20) < len(buf) { // sample roughly every 2 MiB of output
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > base.HeapAlloc && ms.HeapAlloc-base.HeapAlloc > peak {
				peak = ms.HeapAlloc - base.HeapAlloc
			}
		}
	}
	if read != rawBytesTotal {
		t.Fatalf("read %d raw bytes, want %d", read, rawBytesTotal)
	}
	limit := uint64(rawBytesTotal / 4)
	t.Logf("peak %d live bytes against %d at GOMAXPROCS %d", peak, limit, runtime.GOMAXPROCS(0))
	if peak > limit {
		t.Fatalf("streaming decompression held %d live bytes, want < %d (raw size %d)",
			peak, limit, rawBytesTotal)
	}
}

// TestReaderCloseJoinsDecodes: Close waits for the decodes in flight
// before recycling their buffers and releasing a shared codebook, so
// readers closed at any point mid-stream, from several goroutines at
// once, leave no decode goroutine behind. Run with -race: a Close that
// released the codebook or recycled a buffer under a running decode
// would hand it to another reader while that decode still used it.
func TestReaderCloseJoinsDecodes(t *testing.T) {
	a := datagen.Hurricane(40, 24, 24, 3)
	var streams [][]byte
	for _, p := range []Params{
		absParams(4, grid.Float32),
		{Core: core.Params{Mode: core.BoundAbs, AbsBound: 1e-3, Streams: 4}, SlabRows: 5, SharedCodebook: true},
	} {
		stream, _, err := Compress(a, p)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, stream)
	}
	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 24*24*8*7)
			for it := 0; it < 8; it++ {
				r, err := NewReader(bytes.NewReader(streams[(g+it)%len(streams)]), Params{Workers: 4})
				if err != nil {
					t.Error(err)
					return
				}
				// Stop at one of 32 points through the first slabs,
				// while the window still has decodes in flight.
				if _, err := io.ReadFull(r, buf[:(g*8+it)*len(buf)/32]); err != nil {
					t.Error(err)
				}
				r.Close()
			}
		}(g)
	}
	wg.Wait()
	// A decode goroutine's last act is its done signal, which Close
	// receives; allow the ones that already signalled to return.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines outlive the closed readers:\n%s", n-base, buf[:runtime.Stack(buf, true)])
	}
}

// TestWriterIsIncremental pins how far the writer's destination trails
// the input: on a pipe, the header and slabs 0..k must be readable once
// slabs 0..k+workers have been handed in, with Close still to come,
// since handing in slab k+workers first writes out slab k. After Close
// the pipe must have carried exactly Compress's container.
func TestWriterIsIncremental(t *testing.T) {
	a := datagen.Hurricane(32, 20, 20, 5)
	p := absParams(4, grid.Float32)
	want, _, err := Compress(a, p)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Inspect(want)
	if err != nil {
		t.Fatal(err)
	}
	raw := rawBytes(t, a, grid.Float32)
	slabBytes := len(raw) / a.Dims[0] * p.SlabRows

	const k = 2
	for _, workers := range []int{1, 4} {
		p.Workers = workers
		pr, pw := io.Pipe()
		prefix := make(chan error, 1)
		all := make(chan []byte, 1)
		go func() {
			got := make([]byte, ix.HeaderLen+ix.Offsets[k+1])
			_, err := io.ReadFull(pr, got)
			prefix <- err
			rest, _ := io.ReadAll(pr)
			all <- append(got, rest...)
		}()
		w, err := NewWriter(pw, a.Dims, p)
		if err != nil {
			t.Fatal(err)
		}
		handed := (k + workers + 1) * slabBytes
		if _, err := w.Write(raw[:handed]); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-prefix:
			if err != nil {
				t.Fatalf("workers %d: reading the header and slabs 0..%d: %v", workers, k, err)
			}
		case <-time.After(10 * time.Second):
			pw.CloseWithError(errors.New("timed out"))
			t.Fatalf("workers %d: slabs 0..%d not written once slabs 0..%d were handed in",
				workers, k, k+workers)
		}
		if _, err := w.Write(raw[handed:]); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		pw.Close()
		if got := <-all; !bytes.Equal(got, want) {
			t.Fatalf("workers %d: piped container (%d bytes) differs from Compress (%d bytes)",
				workers, len(got), len(want))
		}
	}
}

// TestWriterLeavesNoGoroutines: a writer's encodes run on goroutines of
// their own that end with the encode, so writers abandoned mid-stream
// without Close, or closed at any point mid-stream, from several
// goroutines at once, leave nothing running. Run with -race: a Close
// that recycled a buffer under a running encode would hand it to
// another writer while that encode still used it.
func TestWriterLeavesNoGoroutines(t *testing.T) {
	a := datagen.Hurricane(40, 24, 24, 3)
	raw := rawBytes(t, a, grid.Float32)
	v2 := absParams(4, grid.Float32)
	v3 := absParams(5, grid.Float32)
	v3.Core.Streams = 4
	for _, tc := range []struct {
		name   string
		closes bool
	}{{"abandoned", false}, {"closed", true}} {
		base := runtime.NumGoroutine()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int, closes bool) {
				defer wg.Done()
				for it := 0; it < 8; it++ {
					// Stop at one of 32 points through the stream, the
					// last one its end.
					cut := (g*8 + it + 1) * len(raw) / 32
					for _, p := range []Params{v2, v3} {
						for _, workers := range []int{1, 4} {
							p.Workers = workers
							w, err := NewWriter(io.Discard, a.Dims, p)
							if err != nil {
								t.Error(err)
								return
							}
							if _, err := w.Write(raw[:cut]); err != nil {
								t.Error(err)
							}
							if !closes {
								continue
							}
							if err := w.Close(); (err == nil) != (cut == len(raw)) {
								t.Errorf("%d of %d bytes: Close returned %v", cut, len(raw), err)
							}
						}
					}
				}
			}(g, tc.closes)
		}
		wg.Wait()
		// An encode goroutine's last act is its done signal, into a
		// buffered channel whether or not anything waits for it.
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines outlive the writers:\n%s", tc.name, n-base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// failAfter is a destination whose writes fail once n have succeeded.
type failAfter struct{ n int }

var errDst = errors.New("destination failed")

func (f *failAfter) Write(b []byte) (int, error) {
	if f.n == 0 {
		return 0, errDst
	}
	f.n--
	return len(b), nil
}

// TestWriterDestinationFailure: a destination failing at any write —
// header, any slab, footer or CRC — surfaces from the NewWriter, Write
// or Close that reaches it, and from every Close after it; a failed
// writer has no Stats.
func TestWriterDestinationFailure(t *testing.T) {
	a := datagen.Hurricane(40, 24, 24, 3)
	raw := rawBytes(t, a, grid.Float32)
	p := absParams(4, grid.Float32) // 10 slabs: 13 writes in all
	for _, workers := range []int{1, 4} {
		p.Workers = workers
		for n := 0; n < 13; n++ {
			w, err := NewWriter(&failAfter{n: n}, a.Dims, p)
			if n == 0 {
				if !errors.Is(err, errDst) {
					t.Fatalf("workers %d: header write failure: NewWriter returned %v", workers, err)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err = w.Write(raw); err == nil {
				err = w.Close()
			}
			if !errors.Is(err, errDst) || !errors.Is(w.Close(), errDst) || w.Stats() != nil {
				t.Fatalf("workers %d: write %d failing: got %v, stats %v", workers, n, err, w.Stats())
			}
		}
	}
}

// TestWriterRejectsRelativeBound: a single pass cannot resolve a
// value-range bound.
func TestWriterRejectsRelativeBound(t *testing.T) {
	p := Params{Core: core.Params{Mode: core.BoundRel, RelBound: 1e-4}}
	if _, err := NewWriter(io.Discard, []int{16, 16}, p); err != ErrNeedsAbsBound {
		t.Fatalf("got %v, want ErrNeedsAbsBound", err)
	}
}

// TestWriterRowAccounting: short and long inputs must fail loudly.
func TestWriterRowAccounting(t *testing.T) {
	p := absParams(4, grid.Float64)
	w, err := NewWriter(io.Discard, []int{8, 4}, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 4*4*8)); err != nil { // half the rows
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("short input accepted")
	}
	if err := w.Close(); err == nil {
		t.Fatal("second Close must repeat the error")
	}

	w, err = NewWriter(io.Discard, []int{8, 4}, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 9*4*8)); err == nil { // one row too many
		if err = w.Close(); err == nil {
			t.Fatal("overlong input accepted")
		}
	}

	w, err = NewWriter(io.Discard, []int{8, 4}, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 8*4*8+3)); err == nil { // trailing partial element
		if err = w.Close(); err == nil {
			t.Fatal("trailing bytes accepted")
		}
	}
}

// TestReaderRejectsCorruption covers streaming-path detection of the
// damage classes the one-shot path already catches.
func TestReaderRejectsCorruption(t *testing.T) {
	a := datagen.ATM(24, 16, 11)
	stream, _, err := Compress(a, absParams(8, grid.Float32))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		drain := func(b []byte) error {
			r, err := NewReader(bytes.NewReader(b), Params{Workers: workers})
			if err != nil {
				return err
			}
			defer r.Close()
			_, err = io.ReadAll(r)
			return err
		}
		if err := drain(stream); err != nil {
			t.Fatalf("workers %d: pristine container rejected: %v", workers, err)
		}
		for _, tc := range []struct {
			name   string
			mutate func([]byte) []byte
		}{
			{"bit flip in body", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }},
			{"truncated footer", func(b []byte) []byte { return b[:len(b)-5] }},
			{"truncated body", func(b []byte) []byte { return b[:len(b)*2/3] }},
			{"bad magic", func(b []byte) []byte { copy(b, "NOPE"); return b }},
			{"trailing garbage", func(b []byte) []byte { return append(b, 0xAA) }},
			{"crc flip", func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b }},
		} {
			b := append([]byte(nil), stream...)
			if err := drain(tc.mutate(b)); err == nil {
				t.Errorf("workers %d: %s: accepted", workers, tc.name)
			}
		}
	}
}
