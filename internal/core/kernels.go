package core

import (
	"math/bits"

	"repro/internal/binrep"
	"repro/internal/bitstream"
	"repro/internal/grid"
	"repro/internal/huffman"
	"repro/internal/predictor"
	"repro/internal/quant"
	"repro/internal/scratch"
)

// This file holds the fused fast-path kernels for the dominant geometries:
// 1D/2D/3D arrays with Layers=1 (the Lorenzo predictor) and 2D/3D arrays
// with Layers=2. Each kernel inlines predict + quantize + reconstruct +
// histogram into a single scan with hoisted strides and explicit border
// rows, instead of paying the generic per-point cost (coordinate odometer,
// interior test, []Term stencil walk, quantizer method call).
//
// The kernels are pure hot-path specializations: they MUST produce the
// exact stream bytes and Stats the generic path produces. Two properties
// make that hold:
//
//   - every hand-written prediction expression accumulates its terms in
//     the same order predictor.Predict enumerates them (the buildStencil
//     odometer order, last dimension fastest), so float additions round
//     identically; the 3D Layers=2 kernel walks the FlatStencil, which
//     preserves that order by construction;
//   - the fused quantize in (*compressState).point mirrors quant.Quantize
//     operation for operation (see the comment there), rounding through
//     the same quant.Round.
//
// Each point's prediction starts from the reconstruction just before it,
// so a row is one serial dependency chain (a divide, a round and the f32
// snap per point), and the term order cannot be changed to shorten it.
// The round is quant.Round, which inlines to one ROUNDSD and a compare
// that only a tie takes, where math.Round branches on the exponent of its
// argument (README, "Fast-path kernels", has the measurements).
// But the Lorenzo stencil never reads a point right of the current column
// in an earlier row: (j−1, k+1) is not among its terms. So row j+1 can
// run one column behind row j, and the 2D and 3D Layers=1 kernels scan a
// plane's rows after the first in pairs, point (j, k) beside point
// (j+1, k−1), keeping two independent chains in flight. Border columns,
// a plane's first row and an odd trailing row go through point.
//
// A pair visits escapes out of scan order, so outlier I/O stays out of
// every scan: compression reconstructs an escape with binrep's Value (or
// its float32 twin, outlierValue) and marks its 64-code block, and
// writeOutliers writes the bits afterwards, in scan order; decompression
// reads every outlier into the reconstruction before the scan
// (readOutliers), and the scan leaves escapes alone. Both walk only the
// marked blocks (forEachMarkedBlock): the compress side's marks come from
// the scan's escape path, the decode side's from the Huffman decode.
//
// kernels_test.go asserts byte-for-byte equivalence on randomized
// geometries and on the pair loop's edge geometries; the golden-stream
// tests pin the bytes themselves.

// qparams holds the hoisted quantizer and output-precision parameters
// shared by the compress and decompress kernels.
type qparams struct {
	eb      float64 // absolute error bound
	twoEB   float64 // interval width 2·eb
	lim     float64 // radius + 0.5: interval-index cutoff
	fradius float64 // radius as a float, for the post-round check
	radius  int     // max |interval offset|, 2^(m-1) − 1
	center  int     // code of offset 0, 2^(m-1)
	f32     bool    // snap reconstructions to float32
	dtype   grid.DType
}

func newQParams(q *quant.Quantizer, t grid.DType) qparams {
	c := q.CenterCode()
	return qparams{
		eb:      q.ErrorBound(),
		twoEB:   2 * q.ErrorBound(),
		lim:     float64(c-1) + 0.5,
		fradius: float64(c - 1),
		radius:  c - 1,
		center:  c,
		f32:     t == grid.Float32,
		dtype:   t,
	}
}

// --- compression ------------------------------------------------------------

// compressState is the per-run scan state shared by the generic path and
// the fused kernels.
type compressState struct {
	qparams
	data  []float64
	recon []float64
	codes []int
	hist  []uint64

	// enc reconstructs escapes during the scan (Value); writeOutliers
	// writes their bits through it afterwards.
	enc *binrep.Encoder
	// marks flags each huffman.MarkBlock-code block holding an escape
	// (huffman.Mark); it must start zeroed and hold
	// huffman.MarkWords(len(codes)) words.
	marks []uint64
}

// point quantizes the value at idx against prediction pv, mirroring the
// generic quant.Quantize + snap + bound-recheck sequence decision for
// decision: escape on non-finite residual (a NaN/Inf residual yields a
// NaN/Inf interval index, which the range compares reject — no separate
// IsNaN/IsInf tests needed), round to the nearest interval (quant.Round,
// ties away from zero), reject rounding that lands outside the radius or
// the bound, snap to the output precision, and re-reject if the snap
// pushed the reconstruction across the bound.
// The f64 path skips the post-snap recheck: the snap is the identity there,
// so the check can never fire.
func (s *compressState) point(idx int, pv float64) {
	x := s.data[idx]
	fi := (x - pv) / s.twoEB
	if fi <= s.lim && fi >= -s.lim {
		ri := quant.Round(fi)
		if ri <= s.fradius && ri >= -s.fradius {
			rv := pv + s.twoEB*ri
			if d := x - rv; d <= s.eb && d >= -s.eb {
				if s.f32 {
					rv = float64(float32(rv))
					if d := x - rv; !(d <= s.eb && d >= -s.eb) {
						s.escape(idx, x)
						return
					}
				}
				code := s.center + int(ri)
				s.codes[idx] = code
				s.recon[idx] = rv
				s.hist[code]++
				return
			}
		}
	}
	s.escape(idx, x)
}

// escape routes the value at idx through the unpredictable-point path: it
// sets the reconstruction the decoder will read back and marks idx's
// block. The bits are written after the scan, by writeOutliers.
func (s *compressState) escape(idx int, x float64) {
	s.codes[idx] = quant.UnpredictableCode
	s.recon[idx] = outlierValue(s.enc, x, s.eb, s.dtype)
	s.hist[quant.UnpredictableCode]++
	huffman.Mark(s.marks, idx)
}

// writeOutliers writes the escapes' bits into w in scan order, visiting
// only the blocks the scan marked. It reads only the codes and the data,
// so the reconstruction may be gone by then.
func (s *compressState) writeOutliers(w *bitstream.Writer) {
	s.enc.W = w
	_ = forEachMarkedBlock(s.marks, len(s.codes), func(lo, hi int) error { // never fails
		for idx := lo; idx < hi; idx++ {
			if s.codes[idx] == quant.UnpredictableCode {
				encodeOutlier(s.enc, s.data[idx], s.eb, s.dtype)
			}
		}
		return nil
	})
}

// forEachMarkedBlock calls f with the code range [lo, hi) of every block
// marks flags, for n codes, in code order, and returns f's first error.
// A caller whose marks cover every escape finds them all in those ranges.
// The walk and a caller's f inline into the caller; a callback per escape
// instead of per block did not, and cost a compress with half its points
// escaping about 4%.
func forEachMarkedBlock(marks []uint64, n int, f func(lo, hi int) error) error {
	for w, word := range marks {
		for ; word != 0; word &= word - 1 {
			lo := (w*64 + bits.TrailingZeros64(word)) * huffman.MarkBlock
			if err := f(lo, min(lo+huffman.MarkBlock, n)); err != nil {
				return err
			}
		}
	}
	return nil
}

// escapeMarks is the bitmap array a scan of up to 2^20 codes keeps on
// its caller's stack (2 KiB). Drawn from the pools the bitmap is one more
// buffer per slab in flight, and sync.Pool rebuilds a per-P chain for it
// after every GC: 1–4 more allocations per blocked compress or
// decompress.
type escapeMarks [256]uint64

// get returns a zeroed bitmap for n codes. It is a prefix of a, which
// must be zero, when it fits; else it comes from the pools, and pooled
// holds it for scratch.PutUint64s (which drops a nil slice).
func (a *escapeMarks) get(n int) (marks, pooled []uint64) {
	w := huffman.MarkWords(n)
	if w <= len(a) {
		return a[:w], nil
	}
	pooled = scratch.Uint64sZeroed(w)
	return pooled, pooled
}

// scanGeneric is the reference path: per-point coordinate odometer and
// generic predictor, for geometries without a specialized kernel.
func (s *compressState) scanGeneric(dims []int, pred *predictor.Predictor) {
	coord := make([]int, len(dims))
	for idx := range s.data {
		s.point(idx, pred.Predict(s.recon, idx, coord))
		advanceCoord(coord, dims)
	}
}

// scan runs the fused kernel for the geometry if one exists (and kernels
// are enabled), else the generic path. It reports which path ran.
func (s *compressState) scan(dims []int, layers int, pred *predictor.Predictor, kernels bool) bool {
	if kernels {
		switch {
		case layers == 1 && len(dims) == 1:
			s.compress1DL1(dims[0])
			return true
		case layers == 1 && len(dims) == 2:
			s.compress2DL1(dims[0], dims[1])
			return true
		case layers == 1 && len(dims) == 3:
			s.compress3DL1(dims[0], dims[1], dims[2])
			return true
		case layers == 2 && len(dims) == 2:
			s.compress2DL2(dims[0], dims[1])
			return true
		case layers == 2 && len(dims) == 3:
			s.compress3DL2(dims[0], dims[1], dims[2], pred)
			return true
		}
	}
	s.scanGeneric(dims, pred)
	return false
}

// lorenzo2 is the 2D Lorenzo prediction at idx for row stride w, and
// lorenzo3 the 3D one for plane stride sp, each summed in the order
// predictor.Predict enumerates the terms.
func lorenzo2(recon []float64, idx, w int) float64 {
	return recon[idx-1] + recon[idx-w] - recon[idx-w-1]
}

func lorenzo3(recon []float64, idx, w, sp int) float64 {
	return recon[idx-1] + recon[idx-w] - recon[idx-w-1] +
		recon[idx-sp] - recon[idx-sp-1] - recon[idx-sp-w] + recon[idx-sp-w-1]
}

// compress1DL1: pv = previous reconstruction (1D Lorenzo).
func (s *compressState) compress1DL1(n int) {
	recon := s.recon
	s.point(0, 0)
	for i := 1; i < n; i++ {
		s.point(i, recon[i-1])
	}
}

// compress2DL1: 2D Lorenzo with an explicit first row and first column.
// Rows after the first run in pairs (see the file comment); the interior
// quantize of both points is spelled out in the loop (same operations as
// point, see the comment there) so the whole hit path runs without a call
// and the hoisted parameters stay in registers.
func (s *compressState) compress2DL1(h, w int) {
	data, recon, codes, hist := s.data, s.recon, s.codes, s.hist
	twoEB, eb, lim, fradius := s.twoEB, s.eb, s.lim, s.fradius
	center, f32 := s.center, s.f32
	s.point(0, 0)
	for k := 1; k < w; k++ {
		s.point(k, recon[k-1])
	}
	j := 1
	for ; j+1 < h; j += 2 {
		ra, rb := j*w, (j+1)*w
		s.point(ra, recon[ra-w])
		if w > 1 {
			s.point(ra+1, lorenzo2(recon, ra+1, w))
		}
		s.point(rb, recon[rb-w])
		for k := 2; k < w; k++ {
			ia, ib := ra+k, rb+k-1
			pa, pb := lorenzo2(recon, ia, w), lorenzo2(recon, ib, w)
			xa, xb := data[ia], data[ib]
			hit := false
			if fi := (xa - pa) / twoEB; fi <= lim && fi >= -lim {
				ri := quant.Round(fi)
				if ri <= fradius && ri >= -fradius {
					rv := pa + twoEB*ri
					if d := xa - rv; d <= eb && d >= -eb {
						if f32 {
							rv = float64(float32(rv))
							d = xa - rv
						}
						if hit = d <= eb && d >= -eb; hit {
							code := center + int(ri)
							codes[ia] = code
							recon[ia] = rv
							hist[code]++
						}
					}
				}
			}
			if !hit {
				s.escape(ia, xa)
			}
			if fi := (xb - pb) / twoEB; fi <= lim && fi >= -lim {
				ri := quant.Round(fi)
				if ri <= fradius && ri >= -fradius {
					rv := pb + twoEB*ri
					if d := xb - rv; d <= eb && d >= -eb {
						if f32 {
							rv = float64(float32(rv))
							d = xb - rv
						}
						if d <= eb && d >= -eb {
							code := center + int(ri)
							codes[ib] = code
							recon[ib] = rv
							hist[code]++
							continue
						}
					}
				}
			}
			s.escape(ib, xb)
		}
		if w > 1 {
			s.point(rb+w-1, lorenzo2(recon, rb+w-1, w))
		}
	}
	if j < h {
		row := j * w
		s.point(row, recon[row-w])
		for idx := row + 1; idx < row+w; idx++ {
			s.point(idx, lorenzo2(recon, idx, w))
		}
	}
}

// compress3DL1: 3D Lorenzo. Plane 0 degenerates to the 2D kernel; each
// later plane has an explicit first row and first column, and its other
// rows run in pairs with the quantize spelled out as in compress2DL1.
// sp is the plane stride, w the row stride.
func (s *compressState) compress3DL1(d, h, w int) {
	s.compress2DL1(h, w)
	data, recon, codes, hist := s.data, s.recon, s.codes, s.hist
	twoEB, eb, lim, fradius := s.twoEB, s.eb, s.lim, s.fradius
	center, f32 := s.center, s.f32
	sp := h * w
	for i := 1; i < d; i++ {
		base := i * sp
		// Row (i,0,·): Lorenzo in the (i,k) plane.
		s.point(base, recon[base-sp])
		for idx := base + 1; idx < base+w; idx++ {
			s.point(idx, recon[idx-1]+recon[idx-sp]-recon[idx-sp-1])
		}
		j := 1
		for ; j+1 < h; j += 2 {
			ra, rb := base+j*w, base+(j+1)*w
			// Column (i,j,0): Lorenzo in the (i,j) plane.
			s.point(ra, recon[ra-w]+recon[ra-sp]-recon[ra-sp-w])
			if w > 1 {
				s.point(ra+1, lorenzo3(recon, ra+1, w, sp))
			}
			s.point(rb, recon[rb-w]+recon[rb-sp]-recon[rb-sp-w])
			for k := 2; k < w; k++ {
				ia, ib := ra+k, rb+k-1
				pa, pb := lorenzo3(recon, ia, w, sp), lorenzo3(recon, ib, w, sp)
				xa, xb := data[ia], data[ib]
				hit := false
				if fi := (xa - pa) / twoEB; fi <= lim && fi >= -lim {
					ri := quant.Round(fi)
					if ri <= fradius && ri >= -fradius {
						rv := pa + twoEB*ri
						if d := xa - rv; d <= eb && d >= -eb {
							if f32 {
								rv = float64(float32(rv))
								d = xa - rv
							}
							if hit = d <= eb && d >= -eb; hit {
								code := center + int(ri)
								codes[ia] = code
								recon[ia] = rv
								hist[code]++
							}
						}
					}
				}
				if !hit {
					s.escape(ia, xa)
				}
				if fi := (xb - pb) / twoEB; fi <= lim && fi >= -lim {
					ri := quant.Round(fi)
					if ri <= fradius && ri >= -fradius {
						rv := pb + twoEB*ri
						if d := xb - rv; d <= eb && d >= -eb {
							if f32 {
								rv = float64(float32(rv))
								d = xb - rv
							}
							if d <= eb && d >= -eb {
								code := center + int(ri)
								codes[ib] = code
								recon[ib] = rv
								hist[code]++
								continue
							}
						}
					}
				}
				s.escape(ib, xb)
			}
			if w > 1 {
				s.point(rb+w-1, lorenzo3(recon, rb+w-1, w, sp))
			}
		}
		if j < h {
			row := base + j*w
			s.point(row, recon[row-w]+recon[row-sp]-recon[row-sp-w])
			for idx := row + 1; idx < row+w; idx++ {
				s.point(idx, lorenzo3(recon, idx, w, sp))
			}
		}
	}
}

// compress2DL2: two-layer 2D stencil (8 interior terms) with explicit
// reduced stencils for the first two rows and columns.
func (s *compressState) compress2DL2(h, w int) {
	recon := s.recon
	w2 := 2 * w
	// Row 0: pure 1D two-layer prediction along the row.
	s.point(0, 0)
	if w > 1 {
		s.point(1, recon[0])
	}
	for j := 2; j < w; j++ {
		s.point(j, 2*recon[j-1]-recon[j-2])
	}
	// Row 1: one layer available vertically.
	if h > 1 {
		s.point(w, recon[0])
		if w > 1 {
			s.point(w+1, recon[w]+recon[1]-recon[0])
		}
		for idx := w + 2; idx < w2; idx++ {
			s.point(idx, 2*recon[idx-1]-recon[idx-2]+
				recon[idx-w]-2*recon[idx-w-1]+recon[idx-w-2])
		}
	}
	for i := 2; i < h; i++ {
		row := i * w
		s.point(row, 2*recon[row-w]-recon[row-w2])
		if w > 1 {
			idx := row + 1
			s.point(idx, recon[idx-1]+2*recon[idx-w]-2*recon[idx-w-1]-
				recon[idx-w2]+recon[idx-w2-1])
		}
		for idx := row + 2; idx < row+w; idx++ {
			s.point(idx, 2*recon[idx-1]-recon[idx-2]+
				2*recon[idx-w]-4*recon[idx-w-1]+2*recon[idx-w-2]-
				recon[idx-w2]+2*recon[idx-w2-1]-recon[idx-w2-2])
		}
	}
}

// compress3DL2: the 26-term interior stencil is walked in flat form
// (hoisted deltas and coefficients, no Term structs); points within two
// layers of a low border take the generic reduced-stencil path.
func (s *compressState) compress3DL2(d, h, w int, pred *predictor.Predictor) {
	recon := s.recon
	fs := pred.Flat()
	deltas, coefs := fs.Deltas, fs.Coefs
	sp := h * w
	coord := make([]int, 3)
	for i := 0; i < d; i++ {
		coord[0] = i
		for j := 0; j < h; j++ {
			coord[1] = j
			row := i*sp + j*w
			lead := w
			if i >= 2 && j >= 2 {
				lead = 2
				if lead > w {
					lead = w
				}
			}
			for k := 0; k < lead; k++ {
				coord[2] = k
				s.point(row+k, pred.Predict(recon, row+k, coord))
			}
			for idx := row + lead; idx < row+w; idx++ {
				var f float64
				for t, dt := range deltas {
					f += coefs[t] * recon[idx+dt]
				}
				s.point(idx, f)
			}
		}
	}
}

// --- decompression ----------------------------------------------------------

// decompressState mirrors compressState for the reconstruction scan.
type decompressState struct {
	qparams
	recon []float64
	codes []int
}

// point reconstructs the value at idx from its quantization code and the
// prediction pv. Escapes were reconstructed by readOutliers before the
// scan and are left as they are.
func (s *decompressState) point(idx int, pv float64) {
	if code := s.codes[idx]; code != quant.UnpredictableCode {
		rv := pv + s.twoEB*float64(code-s.center)
		if s.f32 {
			rv = float64(float32(rv))
		}
		s.recon[idx] = rv
	}
}

// scanGeneric is the reference reconstruction path.
func (s *decompressState) scanGeneric(dims []int, pred *predictor.Predictor) {
	coord := make([]int, len(dims))
	for idx := range s.recon {
		// The prediction is only needed for coded points, but computing it
		// unconditionally costs nothing extra on this path.
		s.point(idx, pred.Predict(s.recon, idx, coord))
		advanceCoord(coord, dims)
	}
}

// scan mirrors (*compressState).scan for decompression.
func (s *decompressState) scan(dims []int, layers int, pred *predictor.Predictor, kernels bool) bool {
	if kernels {
		switch {
		case layers == 1 && len(dims) == 1:
			s.decompress1DL1(dims[0])
			return true
		case layers == 1 && len(dims) == 2:
			s.decompress2DL1(dims[0], dims[1])
			return true
		case layers == 1 && len(dims) == 3:
			s.decompress3DL1(dims[0], dims[1], dims[2])
			return true
		case layers == 2 && len(dims) == 2:
			s.decompress2DL2(dims[0], dims[1])
			return true
		case layers == 2 && len(dims) == 3:
			s.decompress3DL2(dims[0], dims[1], dims[2], pred)
			return true
		}
	}
	s.scanGeneric(dims, pred)
	return false
}

func (s *decompressState) decompress1DL1(n int) {
	recon := s.recon
	s.point(0, 0)
	for i := 1; i < n; i++ {
		s.point(i, recon[i-1])
	}
}

// decompress2DL1 walks compress2DL1's rows, pairs included, with the
// reconstruction of both points spelled out in the pair loop.
func (s *decompressState) decompress2DL1(h, w int) {
	recon, codes := s.recon, s.codes
	twoEB, center, f32 := s.twoEB, s.center, s.f32
	s.point(0, 0)
	for k := 1; k < w; k++ {
		s.point(k, recon[k-1])
	}
	j := 1
	for ; j+1 < h; j += 2 {
		ra, rb := j*w, (j+1)*w
		s.point(ra, recon[ra-w])
		if w > 1 {
			s.point(ra+1, lorenzo2(recon, ra+1, w))
		}
		s.point(rb, recon[rb-w])
		for k := 2; k < w; k++ {
			ia, ib := ra+k, rb+k-1
			if c := codes[ia]; c != quant.UnpredictableCode {
				rv := lorenzo2(recon, ia, w) + twoEB*float64(c-center)
				if f32 {
					rv = float64(float32(rv))
				}
				recon[ia] = rv
			}
			if c := codes[ib]; c != quant.UnpredictableCode {
				rv := lorenzo2(recon, ib, w) + twoEB*float64(c-center)
				if f32 {
					rv = float64(float32(rv))
				}
				recon[ib] = rv
			}
		}
		if w > 1 {
			s.point(rb+w-1, lorenzo2(recon, rb+w-1, w))
		}
	}
	if j < h {
		row := j * w
		s.point(row, recon[row-w])
		for idx := row + 1; idx < row+w; idx++ {
			s.point(idx, lorenzo2(recon, idx, w))
		}
	}
}

// decompress3DL1 walks compress3DL1's planes and rows, pairs included.
func (s *decompressState) decompress3DL1(d, h, w int) {
	s.decompress2DL1(h, w)
	recon, codes := s.recon, s.codes
	twoEB, center, f32 := s.twoEB, s.center, s.f32
	sp := h * w
	for i := 1; i < d; i++ {
		base := i * sp
		s.point(base, recon[base-sp])
		for idx := base + 1; idx < base+w; idx++ {
			s.point(idx, recon[idx-1]+recon[idx-sp]-recon[idx-sp-1])
		}
		j := 1
		for ; j+1 < h; j += 2 {
			ra, rb := base+j*w, base+(j+1)*w
			s.point(ra, recon[ra-w]+recon[ra-sp]-recon[ra-sp-w])
			if w > 1 {
				s.point(ra+1, lorenzo3(recon, ra+1, w, sp))
			}
			s.point(rb, recon[rb-w]+recon[rb-sp]-recon[rb-sp-w])
			for k := 2; k < w; k++ {
				ia, ib := ra+k, rb+k-1
				if c := codes[ia]; c != quant.UnpredictableCode {
					rv := lorenzo3(recon, ia, w, sp) + twoEB*float64(c-center)
					if f32 {
						rv = float64(float32(rv))
					}
					recon[ia] = rv
				}
				if c := codes[ib]; c != quant.UnpredictableCode {
					rv := lorenzo3(recon, ib, w, sp) + twoEB*float64(c-center)
					if f32 {
						rv = float64(float32(rv))
					}
					recon[ib] = rv
				}
			}
			if w > 1 {
				s.point(rb+w-1, lorenzo3(recon, rb+w-1, w, sp))
			}
		}
		if j < h {
			row := base + j*w
			s.point(row, recon[row-w]+recon[row-sp]-recon[row-sp-w])
			for idx := row + 1; idx < row+w; idx++ {
				s.point(idx, lorenzo3(recon, idx, w, sp))
			}
		}
	}
}

func (s *decompressState) decompress2DL2(h, w int) {
	recon := s.recon
	w2 := 2 * w
	s.point(0, 0)
	if w > 1 {
		s.point(1, recon[0])
	}
	for j := 2; j < w; j++ {
		s.point(j, 2*recon[j-1]-recon[j-2])
	}
	if h > 1 {
		s.point(w, recon[0])
		if w > 1 {
			s.point(w+1, recon[w]+recon[1]-recon[0])
		}
		for idx := w + 2; idx < w2; idx++ {
			s.point(idx, 2*recon[idx-1]-recon[idx-2]+
				recon[idx-w]-2*recon[idx-w-1]+recon[idx-w-2])
		}
	}
	for i := 2; i < h; i++ {
		row := i * w
		s.point(row, 2*recon[row-w]-recon[row-w2])
		if w > 1 {
			idx := row + 1
			s.point(idx, recon[idx-1]+2*recon[idx-w]-2*recon[idx-w-1]-
				recon[idx-w2]+recon[idx-w2-1])
		}
		for idx := row + 2; idx < row+w; idx++ {
			s.point(idx, 2*recon[idx-1]-recon[idx-2]+
				2*recon[idx-w]-4*recon[idx-w-1]+2*recon[idx-w-2]-
				recon[idx-w2]+2*recon[idx-w2-1]-recon[idx-w2-2])
		}
	}
}

func (s *decompressState) decompress3DL2(d, h, w int, pred *predictor.Predictor) {
	recon := s.recon
	fs := pred.Flat()
	deltas, coefs := fs.Deltas, fs.Coefs
	sp := h * w
	coord := make([]int, 3)
	for i := 0; i < d; i++ {
		coord[0] = i
		for j := 0; j < h; j++ {
			coord[1] = j
			row := i*sp + j*w
			lead := w
			if i >= 2 && j >= 2 {
				lead = 2
				if lead > w {
					lead = w
				}
			}
			for k := 0; k < lead; k++ {
				coord[2] = k
				s.point(row+k, pred.Predict(recon, row+k, coord))
			}
			for idx := row + lead; idx < row+w; idx++ {
				var f float64
				for t, dt := range deltas {
					f += coefs[t] * recon[idx+dt]
				}
				s.point(idx, f)
			}
		}
	}
}
