package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/codec"
	"repro/internal/datagen"
	"repro/internal/grid"
)

// The canonical case every BENCH file uses: a 50x250x250 float32
// Hurricane field (12.5 MB raw), absolute bound 1e-3, 10-row slabs, and
// the container `sz c -streams auto` writes (v3, 4 sub-streams).
const (
	nz, ny, nx = 50, 250, 250
	nSamples   = nz * ny * nx
	rawBytes   = 4 * nSamples
	absBound   = 1e-3
	slabRows   = 10
	slabsPer   = nz / slabRows
	slabBytes  = rawBytes / slabsPer
	subStreams = 4
	codecName  = "blocked"
)

// params are the codec parameters of every compress in the benchmark.
// workers 0 leaves the slab parallelism to the layer's default.
func params(workers int) codec.Params {
	return codec.Params{
		AbsBound: absBound,
		DType:    grid.Float32,
		Dims:     []int{nz, ny, nx},
		SlabRows: slabRows,
		Workers:  workers,
		Streams:  subStreams,
	}
}

type field struct {
	arr *grid.Array // float32-representable samples
	raw []byte      // the same samples, little-endian float32
}

// fieldSeed derives the i-th field's generator seed from the workload
// seed, so one seed fixes every input of a run.
func fieldSeed(seed int64, i int) int64 { return seed*1000003 + int64(i)*7919 + 1 }

func makeField(seed int64) *field {
	a := datagen.Hurricane(nz, ny, nx, seed)
	var buf bytes.Buffer
	buf.Grow(rawBytes)
	a.WriteRaw(&buf, grid.Float32)
	return &field{arr: a, raw: buf.Bytes()}
}

// makeFields generates n fields two at a time.
func makeFields(seed int64, n int) []*field {
	out := make([]*field, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i := range out {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			out[i] = makeField(fieldSeed(seed, i))
			<-sem
		}(i)
	}
	wg.Wait()
	return out
}

// compressInto runs the registry's streaming writer over raw samples,
// written in chunks of writeChunk bytes, into out. g, when traced, marks
// the calls into the codec.
func compressInto(out *bytes.Buffer, raw []byte, p codec.Params, g *gaps) error {
	out.Reset()
	g.enter()
	c, err := codec.Lookup(codecName)
	var w io.WriteCloser
	if err == nil {
		w, err = c.NewWriter(out, p)
	}
	g.leave()
	if err != nil {
		return err
	}
	if err := writeChunks(writerFor(w, g), raw, -1, 0, nil); err != nil {
		w.Close()
		return err
	}
	g.enter()
	defer g.leave()
	return w.Close()
}

// writeChunk is the size of each Write a producer makes, the server's
// own stream-copy buffer size.
const writeChunk = 256 << 10

// writeChunks writes raw to w in writeChunk pieces. With pos >= 0,
// sample pos is replaced by v on the way, through scratch (one chunk of
// spare capacity), so raw itself is never modified.
func writeChunks(w io.Writer, raw []byte, pos int, v float32, scratch []byte) error {
	for off := 0; off < len(raw); off += writeChunk {
		end := off + writeChunk
		if end > len(raw) {
			end = len(raw)
		}
		chunk := raw[off:end]
		if pos >= 0 && 4*pos >= off && 4*pos < end {
			chunk = append(scratch[:0], chunk...)
			binary.LittleEndian.PutUint32(chunk[4*pos-off:], math.Float32bits(v))
		}
		if _, err := w.Write(chunk); err != nil {
			return err
		}
	}
	return nil
}

// decompressLocal runs the registry's streaming reader into dst, which
// must be exactly the raw size. g, when traced, marks the call into the
// codec.
func decompressLocal(container, dst []byte, g *gaps) error {
	g.enter()
	defer g.leave()
	c, err := codec.Lookup(codecName)
	if err != nil {
		return err
	}
	r, err := c.NewReader(bytes.NewReader(container), codec.Params{})
	if err != nil {
		return err
	}
	defer r.Close()
	if _, err := io.ReadFull(r, dst); err != nil {
		return err
	}
	var one [1]byte
	if n, _ := r.Read(one[:]); n != 0 {
		return fmt.Errorf("decode produced more than %d bytes", len(dst))
	}
	return nil
}
