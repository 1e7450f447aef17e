package codec

import (
	"net/url"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
)

func TestParseDims(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
		ok   bool
	}{
		{"100,500,500", 3, true},
		{"100x500x500", 3, true},
		{"1024", 1, true},
		{"", 0, true},
		{"0,5", 0, false},
		{"a,b", 0, false},
		{"-3", 0, false},
	} {
		dims, err := ParseDims(tc.in)
		if tc.ok != (err == nil) || (err == nil && len(dims) != tc.want) {
			t.Errorf("ParseDims(%q) = %v, %v", tc.in, dims, err)
		}
	}
}

// TestWireRoundTrip: Values -> ParamsFromValues must reproduce every
// wire-transported field, including an explicitly-set bound mode (with
// both bounds present, a dropped mode would silently re-derive
// BoundAbsAndRel on the receiver and change the compressed bytes).
func TestWireRoundTrip(t *testing.T) {
	p := Params{
		Mode:             core.BoundAbs,
		AbsBound:         1e-3,
		RelBound:         1e-4,
		Layers:           2,
		IntervalBits:     10,
		HitRateThreshold: 0.9,
		DType:            grid.Float32,
		Dims:             []int{100, 500, 500},
		SlabRows:         16,
		Workers:          4,
		Rate:             8,
		Streams:          4,
		Container:        3,
		SharedCodebook:   true,
	}
	got, err := ParamsFromValues(p.Values())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("wire roundtrip:\n got %+v\nwant %+v", got, p)
	}
}

func TestWireKeysCoverValues(t *testing.T) {
	p := Params{
		Mode:             core.BoundRel,
		AbsBound:         1,
		RelBound:         1,
		Layers:           1,
		IntervalBits:     1,
		HitRateThreshold: 0.5,
		DType:            grid.Float64,
		Dims:             []int{2},
		SlabRows:         1,
		Workers:          1,
		Rate:             1,
		Streams:          1,
		Container:        2,
		SharedCodebook:   true,
	}
	keys := map[string]bool{}
	for _, k := range WireKeys {
		keys[k] = true
	}
	for k := range p.Values() {
		if !keys[k] {
			t.Errorf("Values emits key %q missing from WireKeys (header fallback would ignore it)", k)
		}
	}
}

func TestParamsFromValuesRejectsBad(t *testing.T) {
	for _, bad := range []url.Values{
		{"mode": {"sideways"}},
		{"dims": {"0,4"}},
		{"dtype": {"f16"}},
		{"abs": {"-1"}},
		{"layers": {"x"}},
		{"streams": {"-2"}},
		{"container": {"v9"}},
		{"sharedcb": {"maybe"}},
	} {
		if _, err := ParamsFromValues(bad); err == nil {
			t.Errorf("ParamsFromValues(%v) accepted", bad)
		}
	}
}

// FuzzParamsFromValues: the parser every szd request's query goes
// through never panics, and any Params it accepts comes back unchanged
// through Values and a second parse.
func FuzzParamsFromValues(f *testing.F) {
	for _, seed := range []string{
		"",
		"codec=blocked&abs=1e-3&dims=25,125,125&dtype=f32&slab=5",
		"mode=rel&rel=1e-4&layers=2&m=10&hitrate=0.9&dtype=float64",
		"mode=absrel&abs=1&rel=0.5&streams=4&container=v3&sharedcb=true",
		"zfprate=8&workers=2&container=2&dims=4x4x4&sharedcb=0",
		"abs=NaN", "rel=nan", "hitrate=NaN", "zfprate=-NaN",
		"abs=Inf", "abs=-0", "abs=0x1p-4", "rel=1e-400", "dims=1,%202",
		"layers=+3", "m=-1", "streams=99999999999999999999", "sharedcb=maybe",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, query string) {
		v, err := url.ParseQuery(query)
		if err != nil {
			return
		}
		p, err := ParamsFromValues(v)
		if err != nil {
			return
		}
		back, err := ParamsFromValues(p.Values())
		if err != nil {
			t.Fatalf("%q parsed to %+v, whose Values %q are refused: %v", query, p, p.Values().Encode(), err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("%q: Params %+v came back through Values as %+v", query, p, back)
		}
	})
}
