package codec

// Wire form of Params: the szd daemon and its clients exchange codec
// parameters as URL query values (also accepted as X-Sz-* headers). The
// keys deliberately match the `sz` CLI flag names.

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/grid"
)

// WireKeys is every parameter name the wire form uses, including the
// codec selector. The szd daemon accepts each as a query value or,
// prefixed X-Sz-, as a header; keep this list in sync with Values and
// ParamsFromValues below so the header fallback never drifts.
var WireKeys = []string{"codec", "mode", "dims", "dtype", "abs", "rel",
	"layers", "m", "hitrate", "slab", "workers", "zfprate",
	"streams", "container", "sharedcb"}

// ParseDims parses a dimension list, "100,500,500" or "100x500x500",
// slowest-varying first. Empty input yields nil dims.
func ParseDims(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	sep := ","
	if strings.Contains(s, "x") {
		sep = "x"
	}
	parts := strings.Split(s, sep)
	dims := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad dimension %q", p)
		}
		dims[i] = v
	}
	return dims, nil
}

// FormatDims renders dims in the comma form ParseDims accepts.
func FormatDims(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, ",")
}

// ParseDType parses a raw element type token (f32/float32/f64/float64).
func ParseDType(s string) (grid.DType, error) {
	switch s {
	case "f32", "float32":
		return grid.Float32, nil
	case "f64", "float64":
		return grid.Float64, nil
	}
	return 0, fmt.Errorf("bad dtype %q (f32|f64)", s)
}

// modeTokens maps the wire form of an explicit bound mode.
var modeTokens = map[core.BoundMode]string{
	core.BoundAbs:       "abs",
	core.BoundRel:       "rel",
	core.BoundAbsAndRel: "absrel",
}

// Values encodes p as the szd wire parameter set. Zero-valued knobs are
// omitted; the receiver's defaults apply.
func (p Params) Values() url.Values {
	v := url.Values{}
	set := func(key, val string) { v.Set(key, val) }
	if tok, ok := modeTokens[p.Mode]; ok {
		// An explicitly-set mode must travel: with both bounds present
		// the receiver's default would derive BoundAbsAndRel and the
		// remote stream would diverge from the local one.
		set("mode", tok)
	}
	if len(p.Dims) > 0 {
		set("dims", FormatDims(p.Dims))
	}
	switch p.DType {
	case grid.Float32:
		set("dtype", "f32")
	case grid.Float64:
		set("dtype", "f64")
	}
	if p.AbsBound > 0 {
		set("abs", strconv.FormatFloat(p.AbsBound, 'g', -1, 64))
	}
	if p.RelBound > 0 {
		set("rel", strconv.FormatFloat(p.RelBound, 'g', -1, 64))
	}
	if p.Layers > 0 {
		set("layers", strconv.Itoa(p.Layers))
	}
	if p.IntervalBits > 0 {
		set("m", strconv.Itoa(p.IntervalBits))
	}
	if p.HitRateThreshold > 0 {
		set("hitrate", strconv.FormatFloat(p.HitRateThreshold, 'g', -1, 64))
	}
	if p.SlabRows > 0 {
		set("slab", strconv.Itoa(p.SlabRows))
	}
	if p.Workers > 0 {
		set("workers", strconv.Itoa(p.Workers))
	}
	if p.Rate > 0 {
		set("zfprate", strconv.FormatFloat(p.Rate, 'g', -1, 64))
	}
	if p.Streams > 0 {
		set("streams", strconv.Itoa(p.Streams))
	}
	if p.Container > 0 {
		set("container", "v"+strconv.Itoa(p.Container))
	}
	if p.SharedCodebook {
		set("sharedcb", "1")
	}
	return v
}

// ParamsFromValues decodes the szd wire parameter set. Unknown keys are
// ignored so clients and servers can evolve independently; malformed
// values for known keys are errors. The bound mode is derived from which
// bounds are set (Params.mode), exactly as the CLI does.
func ParamsFromValues(v url.Values) (Params, error) {
	var p Params
	var err error
	getF := func(key string) (float64, error) {
		s := v.Get(key)
		if s == "" {
			return 0, nil
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || !(f >= 0) { // negative or NaN
			return 0, fmt.Errorf("bad %s %q", key, s)
		}
		return f, nil
	}
	getI := func(key string) (int, error) {
		s := v.Get(key)
		if s == "" {
			return 0, nil
		}
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("bad %s %q", key, s)
		}
		return n, nil
	}
	if s := v.Get("mode"); s != "" {
		found := false
		for mode, tok := range modeTokens {
			if s == tok {
				p.Mode, found = mode, true
				break
			}
		}
		if !found {
			return Params{}, fmt.Errorf("bad mode %q (abs|rel|absrel)", s)
		}
	}
	if p.Dims, err = ParseDims(v.Get("dims")); err != nil {
		return Params{}, err
	}
	if s := v.Get("dtype"); s != "" {
		if p.DType, err = ParseDType(s); err != nil {
			return Params{}, err
		}
	}
	if p.AbsBound, err = getF("abs"); err != nil {
		return Params{}, err
	}
	if p.RelBound, err = getF("rel"); err != nil {
		return Params{}, err
	}
	if p.HitRateThreshold, err = getF("hitrate"); err != nil {
		return Params{}, err
	}
	if p.Rate, err = getF("zfprate"); err != nil {
		return Params{}, err
	}
	if p.Layers, err = getI("layers"); err != nil {
		return Params{}, err
	}
	if p.IntervalBits, err = getI("m"); err != nil {
		return Params{}, err
	}
	if p.SlabRows, err = getI("slab"); err != nil {
		return Params{}, err
	}
	if p.Workers, err = getI("workers"); err != nil {
		return Params{}, err
	}
	if p.Streams, err = getI("streams"); err != nil {
		return Params{}, err
	}
	if s := v.Get("container"); s != "" {
		switch s {
		case "v2", "2":
			p.Container = 2
		case "v3", "3":
			p.Container = 3
		default:
			return Params{}, fmt.Errorf("bad container %q (v2|v3)", s)
		}
	}
	if s := v.Get("sharedcb"); s != "" {
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Params{}, fmt.Errorf("bad sharedcb %q", s)
		}
		p.SharedCodebook = b
	}
	return p, nil
}
