package codec

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/blocked"
	"repro/internal/core"
	"repro/internal/grid"
)

// testArray is a smooth 2D field every codec (including ISABELA's spline
// model) can handle.
func testArray() *grid.Array {
	a := grid.New(32, 64)
	for i := range a.Data {
		a.Data[i] = math.Sin(float64(i)*0.013)*3 + math.Cos(float64(i)*0.0041)
	}
	return a
}

func testParams(a *grid.Array, dt grid.DType) Params {
	return Params{
		Mode:     core.BoundAbs,
		AbsBound: 0.01,
		RelBound: 0.01, // pointwise epsilon for pwrel
		DType:    dt,
		Dims:     a.Dims,
		SlabRows: 8,
	}
}

// lossless marks codecs that must reproduce values exactly.
var lossless = map[string]bool{"gzip": true, "fpzip": true}

func TestRegistryComplete(t *testing.T) {
	want := []string{"blocked", "fpzip", "gzip", "isabela", "pwrel", "sz11", "sz14", "zfp"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered %v, want %v", got, want)
		}
	}
	for _, alias := range []string{"SZ-1.4", "sz", "SZ-1.1", "ZFP-0.5", "ISABELA-0.2.1", "pw"} {
		if _, err := Lookup(alias); err != nil {
			t.Errorf("alias %q: %v", alias, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown codec accepted")
	}
}

// TestFromCorePreservesValidation: every core parameter must survive the
// lift into codec form, so invalid values still fail (the contract
// parallel.CompressAll had before it was rewritten on the registry).
func TestFromCorePreservesValidation(t *testing.T) {
	a := testArray()
	cp := core.Params{Mode: core.BoundAbs, AbsBound: 1e-3, HitRateThreshold: 2}
	if err := cp.Validate(); err == nil {
		t.Fatal("core should reject threshold 2")
	}
	if _, err := Encode("sz14", a, FromCore(cp)); err == nil {
		t.Fatal("invalid HitRateThreshold survived FromCore")
	}
}

// TestDetectNamesV1Containers: the retired v1 blocked magic routes to
// the blocked codec (the whole "SZB" family is its prefix), whose decode
// then produces a migration hint — not a bare bad-magic error.
func TestDetectNamesV1Containers(t *testing.T) {
	c, err := Detect([]byte("SZBKxxxx"))
	if err != nil || c.Name() != "blocked" {
		t.Fatalf("Detect = %v, %v; want the blocked codec", c, err)
	}
	_, err = c.Decode([]byte("SZBKxxxx"), Params{})
	if err == nil || !errors.Is(err, blocked.ErrUnsupportedVersion) || !strings.Contains(err.Error(), "v1") {
		t.Fatalf("decode of a v1 container: got %v, want ErrUnsupportedVersion naming v1", err)
	}
	// A container version from the future must name the upgrade path too.
	_, err = c.Decode([]byte("SZB4xxxx"), Params{})
	if err == nil || !errors.Is(err, blocked.ErrUnsupportedVersion) {
		t.Fatalf("decode of a future container: got %v, want ErrUnsupportedVersion", err)
	}
}

// TestOneShotRoundTrip: every codec encodes and decodes through the
// registry, respecting its bound contract.
func TestOneShotRoundTrip(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			a := testArray()
			p := testParams(a, grid.Float64)
			stream, err := Encode(name, a, p)
			if err != nil {
				t.Fatal(err)
			}
			out, err := Decode(name, stream, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := grid.SameShape(a, out); err != nil {
				t.Fatal(err)
			}
			checkBound(t, name, a, out, p)

			// The stream must identify its own codec.
			c, err := Detect(stream)
			if err != nil {
				t.Fatal(err)
			}
			if c.Name() != name {
				t.Fatalf("Detect says %s", c.Name())
			}
		})
	}
}

func checkBound(t *testing.T, name string, a, out *grid.Array, p Params) {
	t.Helper()
	for i := range a.Data {
		diff := math.Abs(a.Data[i] - out.Data[i])
		switch {
		case lossless[name]:
			if diff != 0 {
				t.Fatalf("lossless codec %s changed value %d", name, i)
			}
		case name == "pwrel":
			if diff > p.RelBound*math.Abs(a.Data[i])+1e-12 {
				t.Fatalf("%s: pointwise bound violated at %d", name, i)
			}
		default:
			if diff > p.AbsBound*(1+1e-9) {
				t.Fatalf("%s: bound violated at %d: |%g|", name, i, diff)
			}
		}
	}
}

// TestStreamingMatchesOneShot: for every codec, the writer face fed raw
// bytes must emit the identical stream, and the reader face must
// reproduce the identical raw reconstruction.
func TestStreamingMatchesOneShot(t *testing.T) {
	for _, name := range Names() {
		for _, dt := range []grid.DType{grid.Float32, grid.Float64} {
			t.Run(name+"/"+dt.String(), func(t *testing.T) {
				a := testArray()
				if dt == grid.Float32 {
					for i := range a.Data {
						a.Data[i] = float64(float32(a.Data[i]))
					}
				}
				p := testParams(a, dt)
				c, err := Lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				want, err := c.Encode(a, p)
				if err != nil {
					t.Fatal(err)
				}

				var raw bytes.Buffer
				if err := a.WriteRaw(&raw, dt); err != nil {
					t.Fatal(err)
				}
				rawIn := append([]byte(nil), raw.Bytes()...)

				var got bytes.Buffer
				w, err := c.NewWriter(&got, p)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.Write(rawIn); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("streamed bytes differ from one-shot (%d vs %d bytes)",
						got.Len(), len(want))
				}

				r, err := c.NewReader(bytes.NewReader(want), p)
				if err != nil {
					t.Fatal(err)
				}
				back, err := io.ReadAll(r)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				out, err := c.Decode(want, p)
				if err != nil {
					t.Fatal(err)
				}
				var wantRaw bytes.Buffer
				if err := out.WriteRaw(&wantRaw, dt); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(back, wantRaw.Bytes()) {
					t.Fatal("streamed reconstruction differs from one-shot decode")
				}
			})
		}
	}
}

// TestReaderRecoversDType: self-describing formats record their element
// type, so streaming decode must emit bytes in that type even when the
// caller passes no Params — float32 streams must not inflate to float64.
func TestReaderRecoversDType(t *testing.T) {
	for _, name := range []string{"sz14", "blocked", "sz11", "zfp", "isabela", "fpzip"} {
		t.Run(name, func(t *testing.T) {
			a := testArray()
			for i := range a.Data {
				a.Data[i] = float64(float32(a.Data[i]))
			}
			p := testParams(a, grid.Float32)
			stream, err := Encode(name, a, p)
			if err != nil {
				t.Fatal(err)
			}
			c, _ := Lookup(name)
			r, err := c.NewReader(bytes.NewReader(stream), Params{})
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(r)
			if err != nil {
				t.Fatal(err)
			}
			if len(raw) != a.Len()*4 {
				t.Fatalf("decoded %d raw bytes, want %d (float32)", len(raw), a.Len()*4)
			}
		})
	}
}

// TestWriterRequiresDims: streaming writes without a shape must fail up
// front (gzip excepted — it is shapeless by nature).
func TestWriterRequiresDims(t *testing.T) {
	for _, name := range Names() {
		if name == "gzip" {
			continue
		}
		c, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.NewWriter(io.Discard, Params{Mode: core.BoundAbs, AbsBound: 0.1}); err == nil {
			t.Errorf("%s: writer without Dims accepted", name)
		}
	}
}

// TestBlockedStreamsWithRelativeFallback: the blocked codec accepts a
// relative bound on its streaming face by falling back to the buffered
// one-shot path (which resolves the global range), emitting identical
// bytes.
func TestBlockedStreamsWithRelativeFallback(t *testing.T) {
	a := testArray()
	p := Params{Mode: core.BoundRel, RelBound: 1e-4, Dims: a.Dims, SlabRows: 8}
	c, err := Lookup("blocked")
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Encode(a, p)
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if err := a.WriteRaw(&raw, grid.Float64); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	w, err := c.NewWriter(&got, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(w, &raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("relative-bound streaming fallback differs from one-shot")
	}
}

// TestGzipNeedsShapeToDecode: the one lossless, non-self-describing
// format must demand a shape for one-shot decode but stream-inflate
// without one.
func TestGzipNeedsShapeToDecode(t *testing.T) {
	a := testArray()
	p := Params{DType: grid.Float32, Dims: a.Dims}
	stream, err := Encode("gzip", a, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode("gzip", stream, Params{DType: grid.Float32}); err == nil {
		t.Fatal("gzip decode without dims accepted")
	}
	c, _ := Lookup("gzip")
	r, err := c.NewReader(bytes.NewReader(stream), Params{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != a.Len()*4 {
		t.Fatalf("inflated %d bytes, want %d", len(raw), a.Len()*4)
	}
}

// TestRelBoundOverInfiniteRange: a value-range-relative bound over a
// field holding +Inf or −Inf has no finite absolute bound, so every
// registered codec either refuses it with core.ErrInfiniteRange or
// round-trips every finite point within the bound taken over the finite
// points' range.
func TestRelBoundOverInfiniteRange(t *testing.T) {
	const rel = 1e-4
	for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
		a := grid.New(8, 8, 8)
		for i := range a.Data {
			a.Data[i] = math.Sin(float64(i) * 0.05)
		}
		a.Data[77] = inf
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range a.Data {
			if !math.IsInf(v, 0) {
				lo, hi = min(lo, v), max(hi, v)
			}
		}
		bound := rel * (hi - lo)
		p := Params{Mode: core.BoundRel, RelBound: rel, DType: grid.Float64, Dims: a.Dims}
		for _, name := range Names() {
			stream, err := Encode(name, a, p)
			if err != nil {
				if !errors.Is(err, core.ErrInfiniteRange) {
					t.Errorf("%s over %v: refused with %q, want core.ErrInfiniteRange", name, inf, err)
				}
				continue
			}
			out, err := Decode(name, stream, p)
			if err != nil {
				t.Errorf("%s over %v: decode: %v", name, inf, err)
				continue
			}
			for i, v := range a.Data {
				if !math.IsInf(v, 0) && math.Abs(out.Data[i]-v) > bound {
					t.Errorf("%s over %v: point %d decodes to %g, want within %g of %g", name, inf, i, out.Data[i], bound, v)
					break
				}
			}
		}
	}
}
