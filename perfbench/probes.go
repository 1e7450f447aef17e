package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/blocked"
	"repro/internal/core"
)

// probeInto measures the compute layers directly, by calling each
// layer's public functions on the run's fields, and stores the median
// over fields of each metric. These are the numbers the codec's single
// streaming call cannot be split into from outside. Every timing is the
// faster of two passes, which keeps a scheduling hiccup out of the
// differences computed from them.
func probeInto(e *env, fields []*field, layers map[string]float64) error {
	if len(fields) > localFields {
		fields = fields[:localFields]
	}
	per := map[string][]float64{}
	for _, f := range fields {
		var best probeTimes
		for pass := 0; pass < 2; pass++ {
			t, err := probe(f, e.nproc, e.tr)
			if err != nil {
				return fmt.Errorf("layer probe: %w", err)
			}
			best = best.min(t)
		}
		for k, v := range best.metrics() {
			per[k] = append(per[k], v)
		}
	}
	for k, vs := range per {
		layers[k] = median(vs)
	}
	return nil
}

// probeTimes are one pass's timings plus the field's stream statistics.
type probeTimes struct {
	analyze, encode, huff, decode time.Duration // summed over slabs
	c1, cN, d1, dN                time.Duration // blocked one-shot, 1 and nproc workers
	slabRange                     time.Duration // median DecompressSlabRange of one slab
	writer, reader                time.Duration // registry streaming writer and reader
	n, predictable                int
	codeBits, tableBits, outBits  uint64
}

// min keeps the faster of each timing; statistics are identical across
// passes.
func (a probeTimes) min(b probeTimes) probeTimes {
	if a.n == 0 {
		return b
	}
	for _, p := range [][2]*time.Duration{
		{&a.analyze, &b.analyze}, {&a.encode, &b.encode}, {&a.huff, &b.huff}, {&a.decode, &b.decode},
		{&a.c1, &b.c1}, {&a.cN, &b.cN}, {&a.d1, &b.d1}, {&a.dN, &b.dN},
		{&a.slabRange, &b.slabRange}, {&a.writer, &b.writer}, {&a.reader, &b.reader},
	} {
		if *p[1] < *p[0] {
			*p[0] = *p[1]
		}
	}
	return a
}

func (t probeTimes) metrics() map[string]float64 {
	n := float64(t.n)
	return map[string]float64{
		"core.predict_quantize_ms":      msOf(t.analyze),
		"core.decode_ms":                msOf(t.decode),
		"core.hit_rate":                 float64(t.predictable) / n,
		"huffman.huffbuild_ms":          msOf(t.huff),
		"huffman.encode_ms":             msOf(t.encode - t.huff),
		"huffman.code_bits_per_value":   float64(t.codeBits) / n,
		"huffman.table_bits_per_value":  float64(t.tableBits) / n,
		"binrep.outlier_bits_per_value": float64(t.outBits) / n,
		"blocked.container_ms":          msOf(t.c1 - t.analyze - t.encode),
		"blocked.compress_speedup":      t.c1.Seconds() / t.cN.Seconds(),
		"blocked.decompress_speedup":    t.d1.Seconds() / t.dN.Seconds(),
		"blocked.slab_range_ms":         msOf(t.slabRange),
		"codec.writer_overhead_ratio":   t.writer.Seconds() / t.cN.Seconds(),
		"codec.reader_overhead_ratio":   t.reader.Seconds() / t.dN.Seconds(),
	}
}

// probe runs one pass over f, recording each timed call as a span under
// a "probe" root in the trace.
func probe(f *field, nproc int, tr *tracer) (probeTimes, error) {
	var t probeTimes
	root, rootStart := tr.id(), tr.now()
	defer func() { tr.add(span{ID: root, Name: "probe", Start: rootStart, End: tr.now()}) }()
	timed := func(name string, call func() error) (time.Duration, int64, error) {
		id, start := tr.id(), tr.now()
		t0 := time.Now()
		err := call()
		d := time.Since(t0)
		tr.add(span{ID: id, Parent: root, Name: name, Start: start, End: start + int64(d)})
		return d, id, err
	}
	var huff time.Duration // this slab's codebook build
	cp := params(0).Core()
	cp.Stages = func(name string, d time.Duration) {
		if name == "huffbuild" {
			huff += d // one slab at a time: no concurrent calls
		}
	}
	for s := 0; s < slabsPer; s++ {
		slab, err := f.arr.Slab(s*slabRows, (s+1)*slabRows)
		if err != nil {
			return t, err
		}
		var scan *core.Scan
		d, _, err := timed("core.predict_quantize", func() (err error) {
			scan, err = core.Analyze(slab, cp)
			return err
		})
		if err != nil {
			return t, err
		}
		t.analyze += d
		var stream []byte
		var st *core.Stats
		huff = 0
		encStart := tr.now()
		d, enc, err := timed("huffman.encode", func() (err error) {
			stream, st, err = scan.EncodeAppend(nil, nil)
			return err
		})
		scan.Release()
		if err != nil {
			return t, err
		}
		tr.add(span{ID: tr.id(), Parent: enc, Name: "huffman.huffbuild", Start: encStart, End: encStart + int64(huff), Stage: true})
		t.encode += d
		t.huff += huff
		t.n += st.N
		t.predictable += st.Predictable
		t.codeBits += st.CodeBits
		t.tableBits += st.TableBits
		t.outBits += st.OutlierBits
		buf := make([]float64, slab.Len())
		d, _, err = timed("core.decode", func() error {
			_, _, err := core.DecompressInto(stream, buf)
			return err
		})
		if err != nil {
			return t, err
		}
		t.decode += d
	}

	bp := blocked.Params{Core: cp, SlabRows: slabRows, Workers: 1}
	bp.Core.Stages = nil
	var one, many []byte
	var err error
	if t.c1, _, err = timed("blocked.compress_1", func() (err error) {
		one, _, err = blocked.Compress(f.arr, bp)
		return err
	}); err != nil {
		return t, err
	}
	bp.Workers = nproc
	if t.cN, _, err = timed("blocked.compress_n", func() (err error) {
		many, _, err = blocked.Compress(f.arr, bp)
		return err
	}); err != nil {
		return t, err
	}
	if !bytes.Equal(one, many) {
		return t, fmt.Errorf("blocked.Compress output depends on the worker count")
	}
	if t.d1, _, err = timed("blocked.decompress_1", func() error {
		_, err := blocked.Decompress(one, blocked.Params{Workers: 1})
		return err
	}); err != nil {
		return t, err
	}
	if t.dN, _, err = timed("blocked.decompress_n", func() error {
		_, err := blocked.Decompress(one, blocked.Params{Workers: nproc})
		return err
	}); err != nil {
		return t, err
	}
	var ranges []float64
	for s := 0; s < slabsPer; s++ {
		d, _, err := timed("blocked.slab_range", func() error {
			_, _, err := blocked.DecompressSlabRange(one, s, s)
			return err
		})
		if err != nil {
			return t, err
		}
		ranges = append(ranges, float64(d))
	}
	t.slabRange = time.Duration(median(ranges))

	var buf bytes.Buffer
	if t.writer, _, err = timed("codec.write", func() error { return compressInto(&buf, f.raw, params(nproc), nil) }); err != nil {
		return t, err
	}
	if !bytes.Equal(buf.Bytes(), one) {
		return t, fmt.Errorf("the registry's streaming writer and blocked.Compress disagree")
	}
	dst := make([]byte, rawBytes)
	if t.reader, _, err = timed("codec.read", func() error { return decompressLocal(one, dst, nil) }); err != nil {
		return t, err
	}
	return t, nil
}
