package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"
)

// localFields is how many fields the local workloads and fleet-ingest
// rotate through.
const localFields = 3

func fieldsFor(workload string) int {
	if workload == "fleet-read" {
		return corpusFields
	}
	return localFields
}

type localState struct {
	fields     []*field
	containers [][]byte // each field's container, verified to decode within the bound
}

// setupLocal generates the fields and runs one round trip of each,
// which warms the scratch pools and yields the reference containers.
func setupLocal(e *env) (*localState, error) {
	st := &localState{fields: makeFields(e.seed, localFields)}
	dec := make([]byte, rawBytes)
	for i, f := range st.fields {
		var out bytes.Buffer
		if err := compressInto(&out, f.raw, params(e.nproc), nil); err != nil {
			return nil, err
		}
		if err := decompressLocal(out.Bytes(), dec, nil); err != nil {
			return nil, err
		}
		if m := boundErr(dec, f.arr.Data, nil); m > absBound {
			return nil, fmt.Errorf("%w: field %d decodes with max |err| %g > %g", errSetup, i, m, absBound)
		}
		st.containers = append(st.containers, out.Bytes())
	}
	return st, nil
}

// runLocal is local-compress (decompress false) or local-decompress: one
// caller, closed loop, no HTTP. A compress runs a field through the
// registry's streaming writer and must reproduce the field's reference
// container byte for byte; a decompress runs a reference container
// through the registry's streaming reader and must land within the bound
// of its field.
func runLocal(e *env, decompress bool) (*outcome, error) {
	st, setupS, err := repeatSetup(func(int) (*localState, error) { return setupLocal(e) }, func(*localState) {})
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	var lat, tracedLat, plainLat samples
	var buf bytes.Buffer
	dec := make([]byte, rawBytes)
	var scratch []float64
	if decompress {
		scratch = make([]float64, nSamples)
	}
	mem := sampleMemory()
	deadline := time.Now().Add(e.window)
	for i := int64(0); time.Now().Before(deadline); i++ {
		k := int(i % localFields)
		f := st.fields[k]
		traced := e.traced(i)
		var g *gaps
		var root int64
		if traced {
			root = e.tr.id()
			g = e.tr.gaps(root)
		}
		var huff atomic.Int64
		var t0, t1 time.Time
		var ok bool
		if decompress {
			t0 = time.Now()
			err := decompressLocal(st.containers[k], dec, g)
			t1 = time.Now()
			if err != nil {
				e.chk.failErr("decompress", err)
				continue
			}
			ok = e.chk.withinBound(fmt.Sprintf("local decompress of field %d", k), dec, f.arr.Data, scratch, absBound)
		} else {
			p := params(e.nproc)
			if traced {
				p.Stages = func(name string, d time.Duration) {
					if name == "huffbuild" {
						huff.Add(int64(d))
					}
				}
			}
			t0 = time.Now()
			err := compressInto(&buf, f.raw, p, g)
			t1 = time.Now()
			if err != nil {
				e.chk.failErr("compress", err)
				continue
			}
			ok = e.chk.sameBytes(fmt.Sprintf("local compress of field %d", k), buf.Bytes(), st.containers[k])
		}
		if !ok {
			continue
		}
		lat.add(t1.Sub(t0))
		if e.tr == nil {
			continue
		}
		if !traced {
			plainLat.add(t1.Sub(t0))
			continue
		}
		tracedLat.add(t1.Sub(t0))
		tr := e.tr
		call := tr.id()
		tr.add(span{ID: root, Name: "op", Start: tr.at(t0), End: tr.at(t1)})
		if decompress {
			tr.add(span{ID: call, Parent: root, Name: "codec.read", Start: tr.at(g.first), End: tr.at(g.last)})
		} else {
			tr.add(span{ID: call, Parent: root, Name: "codec.write", Start: tr.at(g.first), End: tr.at(g.last)})
			tr.add(span{ID: tr.id(), Parent: call, Name: "huffman.huffbuild", Start: tr.at(g.first), End: tr.at(g.first) + huff.Load(), Stage: true})
		}
	}
	out.mem = mem.end()
	out.e2e["rss_mb"] = out.mem.P50RSS
	out.e2e["setup_s"] = setupS

	var raw, packed float64
	for _, c := range st.containers {
		raw += rawBytes
		packed += float64(len(c))
	}
	cf := raw / packed
	ms := lat.values()
	out.lat = ms
	out.e2e["compression_factor"] = cf
	out.e2e["p50_ms"] = median(ms)
	if !supports(len(ms), 0.9) {
		out.notes = append(out.notes, fmt.Sprintf("only %d operations: p90 has fewer than ten samples beyond it", len(ms)))
	}
	name := "compress"
	if decompress {
		name = "decompress"
	}
	out.named = []namedValue{
		{name + "_mb_s", float64(rawBytes) / 1e6 / (median(ms) / 1e3), "MB/s"},
		{name + "_p50_ms", median(ms), "ms"},
		{name + "_p90_ms", percentile(ms, 0.9), "ms"},
		{"compression_factor", cf, "x"},
		{"ops", float64(len(ms)), "count"},
	}
	if e.tr != nil {
		out.layers["trace.overhead_ratio"] = median(tracedLat.values())/median(plainLat.values()) - 1
		if err := probeInto(e, st.fields, out.layers); err != nil {
			return nil, err
		}
	}
	return out, nil
}
