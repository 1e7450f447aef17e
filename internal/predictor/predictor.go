// Package predictor implements the multilayer multidimensional prediction
// model of the SZ-1.4 paper (Section III).
//
// For a d-dimensional data set and a chosen layer count n, the value at
// point x is predicted from the n-layer data subset S^n_x of already
// processed neighbours (Eq. 11):
//
//	f(x1,…,xd) = Σ_{0≤k1,…,kd≤n, k≠0}  −∏_{j=1}^{d} (−1)^{kj} C(n,kj) · V(x1−k1, …, xd−kd)
//
// Theorem 1 of the paper shows this is the value at x of the unique
// polynomial surface of total degree ≤ 2n−1 through the data subset T^n_x;
// consequently the predictor is exact on polynomial data of total degree
// ≤ 2n−1 (degree ≤ n−1 in the one-dimensional case). The n=1 case is the
// Lorenzo predictor of Ibarria et al.
//
// Border handling: the formula needs the full (n+1)^d−1 neighbourhood. For
// points near the low boundary the layer count is reduced per dimension to
// what is available (n_j = min(n, x_j)); dimensions with no processed
// neighbour drop out of the product entirely. The first point of the array
// has no neighbours and is predicted as 0. This mirrors how the original SZ
// falls back to lower-dimensional Lorenzo prediction at array borders while
// preserving the error-bound guarantee (the bound never depends on
// prediction quality, only on the quantizer).
//
// The stencil construction lives in stencil.go; fused fast-path kernels in
// internal/core consume stencils through the FlatStencil form, which
// preserves Predict's accumulation order so specialized loops stay
// bit-identical to the generic path.
package predictor

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/grid"
)

// MaxLayers bounds the supported layer count. Beyond 8 layers the binomial
// weights exceed any practically useful setting (the paper evaluates 1–4).
const MaxLayers = 8

// Predictor evaluates the n-layer prediction for a fixed array geometry.
// Predictors are immutable after construction (the border-stencil memo is
// internally locked) and may be shared freely across goroutines — New
// returns one cached instance per (dims, layers) geometry.
type Predictor struct {
	dims    []int
	strides []int
	n       int
	// interior is the precomputed full stencil used when every dimension
	// has at least n processed layers available.
	interior []Term
	// flat is the interior stencil in kernel (structure-of-arrays) form,
	// built once so the per-slab hot path never re-flattens.
	flat FlatStencil
	// borderCache memoizes reduced stencils keyed by the per-dimension
	// effective layer vector. Guarded by borderMu: a cached Predictor is
	// shared by concurrent slab workers.
	borderMu    sync.RWMutex
	borderCache map[string][]Term
}

// predCache memoizes Predictors by geometry: a blocked container
// compresses hundreds of identically-shaped slabs, and rebuilding the
// stencil per slab was a top allocation site. The cache is cleared
// wholesale if an unusual workload accumulates too many geometries.
var predCache struct {
	sync.RWMutex
	m map[string]*Predictor
}

const maxCachedPredictors = 512

func predKey(dims []int, n int) string {
	var b [1 + MaxLayers + 4*binary.MaxVarintLen64]byte
	b[0] = byte(n)
	off := 1
	for _, d := range dims {
		off += binary.PutUvarint(b[off:], uint64(d))
	}
	return string(b[:off])
}

// New returns the Predictor for a row-major array with the given
// dimensions (slowest first) and layer count n in [1, MaxLayers].
// Instances are cached per geometry and shared.
func New(dims []int, n int) (*Predictor, error) {
	if n < 1 || n > MaxLayers {
		return nil, fmt.Errorf("predictor: layers %d out of range [1,%d]", n, MaxLayers)
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("predictor: no dimensions")
	}
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("predictor: non-positive dimension in %v", dims)
		}
	}
	key := predKey(dims, n)
	predCache.RLock()
	p := predCache.m[key]
	predCache.RUnlock()
	if p != nil {
		return p, nil
	}

	p = &Predictor{
		dims:        append([]int(nil), dims...),
		n:           n,
		borderCache: make(map[string][]Term),
	}
	p.strides = make([]int, len(dims))
	s := 1
	for i := len(dims) - 1; i >= 0; i-- {
		p.strides[i] = s
		s *= dims[i]
	}
	layers := make([]int, len(dims))
	for i := range layers {
		layers[i] = n
	}
	p.interior = buildStencil(layers, p.strides)
	p.flat = flatten(p.interior)

	predCache.Lock()
	if predCache.m == nil || len(predCache.m) >= maxCachedPredictors {
		predCache.m = make(map[string]*Predictor)
	}
	if prev := predCache.m[key]; prev != nil {
		p = prev // lost a build race; converge on one shared instance
	} else {
		predCache.m[key] = p
	}
	predCache.Unlock()
	return p, nil
}

// Layers returns the configured layer count n.
func (p *Predictor) Layers() int { return p.n }

// NumTerms returns the interior stencil size, (n+1)^d − 1.
func (p *Predictor) NumTerms() int { return len(p.interior) }

// InteriorStencil returns a copy of the interior stencil terms.
func (p *Predictor) InteriorStencil() []Term {
	out := make([]Term, len(p.interior))
	copy(out, p.interior)
	for i := range out {
		out[i].Offsets = append([]int(nil), p.interior[i].Offsets...)
	}
	return out
}

// IsInterior reports whether the point at coord has the full n-layer
// neighbourhood available.
func (p *Predictor) IsInterior(coord []int) bool {
	for _, c := range coord {
		if c < p.n {
			return false
		}
	}
	return true
}

// Predict returns the predicted value for the point at the given coordinate
// and flat index, reading neighbours from data. data must contain the
// (already reconstructed) values of all preceding points in scan order.
func (p *Predictor) Predict(data []float64, idx int, coord []int) float64 {
	return Predict(p, data, idx, coord)
}

// Predict is p.Predict over samples of either width: each neighbour is
// widened on load, so the sum is float64 and in the same order for both.
func Predict[F grid.Sample](p *Predictor, data []F, idx int, coord []int) float64 {
	stencil := p.interior
	if !p.IsInterior(coord) {
		stencil = p.borderStencil(coord)
		if stencil == nil {
			return 0 // the very first point: no processed neighbours at all
		}
	}
	var f float64
	for i := range stencil {
		f += stencil[i].Coef * float64(data[idx+stencil[i].Delta])
	}
	return f
}

// borderStencil returns the reduced stencil for a border point, memoized by
// the effective per-dimension layer vector. A memoized stencil costs no
// allocation: the key is built on the stack and converted only to index
// the map.
func (p *Predictor) borderStencil(coord []int) []Term {
	allZero := true
	var key [MaxLayers * 4]byte // up to 4 dims, layer fits a byte
	for j, c := range coord {
		l := min(p.n, c)
		if l > 0 {
			allZero = false
		}
		key[j] = byte(l)
	}
	if allZero {
		return nil
	}
	p.borderMu.RLock()
	s, ok := p.borderCache[string(key[:len(coord)])]
	p.borderMu.RUnlock()
	if ok {
		return s
	}
	layers := make([]int, len(coord))
	for j := range layers {
		layers[j] = int(key[j])
	}
	k := string(key[:len(coord)])
	s = buildStencil(layers, p.strides)
	p.borderMu.Lock()
	if prev, ok := p.borderCache[k]; ok {
		s = prev // lost a build race; keep one canonical stencil
	} else {
		p.borderCache[k] = s
	}
	p.borderMu.Unlock()
	return s
}
