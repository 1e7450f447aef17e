package core

import (
	"math/bits"
	"unsafe"

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
// The scans take the sample type F (grid.Sample) as a type parameter:
// data and recon are []F, so a float32 field is read and reconstructed
// in its own width, and Go compiles the float32 and float64 shapes
// separately. Every load is widened, so the stencil sums, the divide, the
// round, the snap and the bound checks stay float64 and in the same order
// in both shapes, which therefore write the same bytes. The float32
// shape runs only with a float32 output type, whose snap makes every
// reconstruction float32-exact, so storing one narrows nothing.
//
// Each point's prediction starts from the reconstruction just before it,
// so a row is one serial dependency chain (a divide, a round and the f32
// snap per point), and the term order cannot be changed to shorten it.
// The round is quant.Round, which inlines to one ROUNDSD and a compare
// that only a tie takes, where math.Round branches on the exponent of its
// argument (README, "Fast-path kernels", has the measurements). The chain
// does not go through memory: point returns the reconstruction it
// stored, and the 1D scan and every row of the Layers=1 kernels carry it
// to the next point in a float64 register instead of reloading
// recon[idx−1], a store-to-load round trip that in the float32 shape
// also adds a conversion to each step. A row pair (below) likewise
// carries the terms each point's stencil shares with its predecessor's,
// so a step loads only the new column: one neighbour of the pair's four
// in 2D, four of twelve in 3D.
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
// geometries, on the pair loop's edge geometries and between the two
// shapes; the golden-stream tests pin the bytes themselves.

// sampleType is the element type F holds.
func sampleType[F grid.Sample]() grid.DType {
	var z F
	if unsafe.Sizeof(z) == 4 {
		return grid.Float32
	}
	return grid.Float64
}

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

// stored returns what a reconstruction rv is stored as, snapped to
// float32 when f32 (always so in the float32 shape), and that sample
// widened for the chain and the bound checks. In the float32 shape one
// narrowing serves both the snap and the store.
func stored[F grid.Sample](rv float64, f32 bool) (F, float64) {
	st := F(rv)
	if f32 {
		st = F(float32(rv))
	}
	return st, float64(st)
}

// --- compression ------------------------------------------------------------

// compressState is the per-run scan state shared by the generic path and
// the fused kernels.
type compressState[F grid.Sample] struct {
	qparams
	data  []F
	recon []F
	codes []uint16
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
// so the check can never fire. point returns the reconstruction it stored,
// widened, for the row's chain to carry.
func (s *compressState[F]) point(idx int, pv float64) float64 {
	x := float64(s.data[idx])
	fi := (x - pv) / s.twoEB
	if fi <= s.lim && fi >= -s.lim {
		ri := quant.Round(fi)
		if ri <= s.fradius && ri >= -s.fradius {
			rv := pv + s.twoEB*ri
			if d := x - rv; d <= s.eb && d >= -s.eb {
				st, rv := stored[F](rv, s.f32)
				if s.f32 {
					if d := x - rv; !(d <= s.eb && d >= -s.eb) {
						return s.escape(idx, x)
					}
				}
				code := s.center + int(ri)
				s.codes[idx] = uint16(code)
				s.recon[idx] = st
				s.hist[code]++
				return rv
			}
		}
	}
	return s.escape(idx, x)
}

// escape routes the value x at idx through the unpredictable-point path:
// it sets the reconstruction the decoder will read back, marks idx's
// block and returns the reconstruction, widened. The bits are written
// after the scan, by writeOutliers.
func (s *compressState[F]) escape(idx int, x float64) float64 {
	s.codes[idx] = quant.UnpredictableCode
	v := F(outlierValue(s.enc, x, s.eb, s.dtype))
	s.recon[idx] = v
	s.hist[quant.UnpredictableCode]++
	huffman.Mark(s.marks, idx)
	return float64(v)
}

// writeOutliers writes the escapes' bits into w in scan order, visiting
// only the blocks the scan marked. It reads only the codes and the data,
// so the reconstruction may be gone by then.
func (s *compressState[F]) writeOutliers(w *bitstream.Writer) {
	s.enc.W = w
	_ = forEachMarkedBlock(s.marks, len(s.codes), func(lo, hi int) error { // never fails
		for idx := lo; idx < hi; idx++ {
			if s.codes[idx] == quant.UnpredictableCode {
				encodeOutlier(s.enc, float64(s.data[idx]), s.eb, s.dtype)
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
func (s *compressState[F]) scanGeneric(dims []int, pred *predictor.Predictor) {
	coord := make([]int, len(dims))
	for idx := range s.data {
		s.point(idx, predictor.Predict(pred, s.recon, idx, coord))
		advanceCoord(coord, dims)
	}
}

// scan runs the fused kernel for the geometry if one exists (and kernels
// are enabled), else the generic path. It reports which path ran.
func (s *compressState[F]) scan(dims []int, layers int, pred *predictor.Predictor, kernels bool) bool {
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
// lorenzo3 the 3D one for plane stride sp, each from prev, the
// reconstruction at idx−1 that the row's chain carries, and each summed
// in the order predictor.Predict enumerates the terms.
func lorenzo2[F grid.Sample](prev float64, recon []F, idx, w int) float64 {
	return prev + float64(recon[idx-w]) - float64(recon[idx-w-1])
}

func lorenzo3[F grid.Sample](prev float64, recon []F, idx, w, sp int) float64 {
	return prev + float64(recon[idx-w]) - float64(recon[idx-w-1]) +
		float64(recon[idx-sp]) - float64(recon[idx-sp-1]) -
		float64(recon[idx-sp-w]) + float64(recon[idx-sp-w-1])
}

// compress1DL1: pv = previous reconstruction (1D Lorenzo), carried.
func (s *compressState[F]) compress1DL1(n int) {
	prev := s.point(0, 0)
	for i := 1; i < n; i++ {
		prev = s.point(i, prev)
	}
}

// compress2DL1: 2D Lorenzo; row 0 is the 1D scan, and each later row has
// an explicit first column. Rows after the first run in pairs (see the
// file comment); the interior quantize of both points is spelled out in
// the loop (same operations as point, see the comment there) so the whole
// hit path runs without a call and the hoisted parameters stay in
// registers. prevA and prevB carry the two rows' chains.
func (s *compressState[F]) compress2DL1(h, w int) {
	data, recon, codes, hist := s.data, s.recon, s.codes, s.hist
	twoEB, eb, lim, fradius := s.twoEB, s.eb, s.lim, s.fradius
	center, f32 := s.center, s.f32
	s.compress1DL1(w)
	j := 1
	for ; j+1 < h; j += 2 {
		ra, rb := j*w, (j+1)*w
		a0 := s.point(ra, float64(recon[ra-w]))
		prevA := a0
		if w > 1 {
			prevA = s.point(ra+1, lorenzo2(prevA, recon, ra+1, w))
		}
		prevB := s.point(rb, a0)
		// upA and upB carry the term each row's next point shares with
		// its predecessor, recon[idx−w−1]; row b's other term is row a's
		// previous point, prevA.
		upA, upB := float64(recon[ra+1-w]), a0
		for k := 2; k < w; k++ {
			ia, ib := ra+k, rb+k-1
			u := float64(recon[ia-w])
			pa, pb := prevA+u-upA, prevB+prevA-upB
			upA, upB = u, prevA
			xa, xb := float64(data[ia]), float64(data[ib])
			hit := false
			if fi := (xa - pa) / twoEB; fi <= lim && fi >= -lim {
				ri := quant.Round(fi)
				if ri <= fradius && ri >= -fradius {
					rv := pa + twoEB*ri
					if d := xa - rv; d <= eb && d >= -eb {
						st, rv := stored[F](rv, f32)
						if f32 {
							d = xa - rv
						}
						if hit = d <= eb && d >= -eb; hit {
							code := center + int(ri)
							codes[ia] = uint16(code)
							recon[ia] = st
							hist[code]++
							prevA = rv
						}
					}
				}
			}
			if !hit {
				prevA = s.escape(ia, xa)
			}
			if fi := (xb - pb) / twoEB; fi <= lim && fi >= -lim {
				ri := quant.Round(fi)
				if ri <= fradius && ri >= -fradius {
					rv := pb + twoEB*ri
					if d := xb - rv; d <= eb && d >= -eb {
						st, rv := stored[F](rv, f32)
						if f32 {
							d = xb - rv
						}
						if d <= eb && d >= -eb {
							code := center + int(ri)
							codes[ib] = uint16(code)
							recon[ib] = st
							hist[code]++
							prevB = rv
							continue
						}
					}
				}
			}
			prevB = s.escape(ib, xb)
		}
		if w > 1 {
			s.point(rb+w-1, lorenzo2(prevB, recon, rb+w-1, w))
		}
	}
	if j < h {
		row := j * w
		prev := s.point(row, float64(recon[row-w]))
		for idx := row + 1; idx < row+w; idx++ {
			prev = s.point(idx, lorenzo2(prev, recon, idx, w))
		}
	}
}

// compress3DL1: 3D Lorenzo. Plane 0 degenerates to the 2D kernel; each
// later plane has an explicit first row and first column, and its other
// rows run in pairs with the quantize spelled out as in compress2DL1.
// sp is the plane stride, w the row stride.
func (s *compressState[F]) compress3DL1(d, h, w int) {
	s.compress2DL1(h, w)
	data, recon, codes, hist := s.data, s.recon, s.codes, s.hist
	twoEB, eb, lim, fradius := s.twoEB, s.eb, s.lim, s.fradius
	center, f32 := s.center, s.f32
	sp := h * w
	for i := 1; i < d; i++ {
		base := i * sp
		// Row (i,0,·): Lorenzo in the (i,k) plane.
		prev := s.point(base, float64(recon[base-sp]))
		for idx := base + 1; idx < base+w; idx++ {
			prev = s.point(idx, prev+float64(recon[idx-sp])-float64(recon[idx-sp-1]))
		}
		j := 1
		for ; j+1 < h; j += 2 {
			ra, rb := base+j*w, base+(j+1)*w
			// Column (i,j,0): Lorenzo in the (i,j) plane.
			a0 := s.point(ra, float64(recon[ra-w])+float64(recon[ra-sp])-float64(recon[ra-sp-w]))
			prevA := a0
			if w > 1 {
				prevA = s.point(ra+1, lorenzo3(prevA, recon, ra+1, w, sp))
			}
			prevB := s.point(rb, a0+float64(recon[rb-sp])-float64(recon[ra-sp]))
			// Each row carries the three terms its next point shares with
			// its predecessor (up: recon[idx−w−1], bk: recon[idx−sp−1],
			// bu: recon[idx−sp−w−1]); row b's in-plane term and one of its
			// back terms are row a's previous point and back term.
			upA, bkA, buA := float64(recon[ra+1-w]), float64(recon[ra+1-sp]), float64(recon[ra+1-sp-w])
			upB, bkB, buB := a0, float64(recon[rb-sp]), float64(recon[ra-sp])
			for k := 2; k < w; k++ {
				ia, ib := ra+k, rb+k-1
				u, bk, bu, bkb := float64(recon[ia-w]), float64(recon[ia-sp]), float64(recon[ia-sp-w]), float64(recon[ib-sp])
				pa := prevA + u - upA + bk - bkA - bu + buA
				pb := prevB + prevA - upB + bkb - bkB - bkA + buB
				upA, bkA, buA, upB, bkB, buB = u, bk, bu, prevA, bkb, bkA
				xa, xb := float64(data[ia]), float64(data[ib])
				hit := false
				if fi := (xa - pa) / twoEB; fi <= lim && fi >= -lim {
					ri := quant.Round(fi)
					if ri <= fradius && ri >= -fradius {
						rv := pa + twoEB*ri
						if d := xa - rv; d <= eb && d >= -eb {
							st, rv := stored[F](rv, f32)
							if f32 {
								d = xa - rv
							}
							if hit = d <= eb && d >= -eb; hit {
								code := center + int(ri)
								codes[ia] = uint16(code)
								recon[ia] = st
								hist[code]++
								prevA = rv
							}
						}
					}
				}
				if !hit {
					prevA = s.escape(ia, xa)
				}
				if fi := (xb - pb) / twoEB; fi <= lim && fi >= -lim {
					ri := quant.Round(fi)
					if ri <= fradius && ri >= -fradius {
						rv := pb + twoEB*ri
						if d := xb - rv; d <= eb && d >= -eb {
							st, rv := stored[F](rv, f32)
							if f32 {
								d = xb - rv
							}
							if d <= eb && d >= -eb {
								code := center + int(ri)
								codes[ib] = uint16(code)
								recon[ib] = st
								hist[code]++
								prevB = rv
								continue
							}
						}
					}
				}
				prevB = s.escape(ib, xb)
			}
			if w > 1 {
				s.point(rb+w-1, lorenzo3(prevB, recon, rb+w-1, w, sp))
			}
		}
		if j < h {
			row := base + j*w
			prev := s.point(row, float64(recon[row-w])+float64(recon[row-sp])-float64(recon[row-sp-w]))
			for idx := row + 1; idx < row+w; idx++ {
				prev = s.point(idx, lorenzo3(prev, recon, idx, w, sp))
			}
		}
	}
}

// compress2DL2: two-layer 2D stencil (8 interior terms) with explicit
// reduced stencils for the first two rows and columns.
func (s *compressState[F]) compress2DL2(h, w int) {
	recon := s.recon
	w2 := 2 * w
	// Row 0: pure 1D two-layer prediction along the row.
	s.point(0, 0)
	if w > 1 {
		s.point(1, float64(recon[0]))
	}
	for j := 2; j < w; j++ {
		s.point(j, 2*float64(recon[j-1])-float64(recon[j-2]))
	}
	// Row 1: one layer available vertically.
	if h > 1 {
		s.point(w, float64(recon[0]))
		if w > 1 {
			s.point(w+1, float64(recon[w])+float64(recon[1])-float64(recon[0]))
		}
		for idx := w + 2; idx < w2; idx++ {
			s.point(idx, 2*float64(recon[idx-1])-float64(recon[idx-2])+
				float64(recon[idx-w])-2*float64(recon[idx-w-1])+float64(recon[idx-w-2]))
		}
	}
	for i := 2; i < h; i++ {
		row := i * w
		s.point(row, 2*float64(recon[row-w])-float64(recon[row-w2]))
		if w > 1 {
			idx := row + 1
			s.point(idx, float64(recon[idx-1])+2*float64(recon[idx-w])-2*float64(recon[idx-w-1])-
				float64(recon[idx-w2])+float64(recon[idx-w2-1]))
		}
		for idx := row + 2; idx < row+w; idx++ {
			s.point(idx, 2*float64(recon[idx-1])-float64(recon[idx-2])+
				2*float64(recon[idx-w])-4*float64(recon[idx-w-1])+2*float64(recon[idx-w-2])-
				float64(recon[idx-w2])+2*float64(recon[idx-w2-1])-float64(recon[idx-w2-2]))
		}
	}
}

// compress3DL2: the 26-term interior stencil is walked in flat form
// (hoisted deltas and coefficients, no Term structs); points within two
// layers of a low border take the generic reduced-stencil path.
func (s *compressState[F]) compress3DL2(d, h, w int, pred *predictor.Predictor) {
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
				s.point(row+k, predictor.Predict(pred, recon, row+k, coord))
			}
			for idx := row + lead; idx < row+w; idx++ {
				var f float64
				for t, dt := range deltas {
					f += coefs[t] * float64(recon[idx+dt])
				}
				s.point(idx, f)
			}
		}
	}
}

// --- decompression ----------------------------------------------------------

// decompressState mirrors compressState for the reconstruction scan.
type decompressState[F grid.Sample] struct {
	qparams
	recon []F
	codes []uint16
}

// point reconstructs the value at idx from its quantization code and the
// prediction pv, and returns the reconstruction, widened, for the row's
// chain to carry. Escapes were reconstructed by readOutliers before the
// scan and are left as they are.
func (s *decompressState[F]) point(idx int, pv float64) float64 {
	if code := s.codes[idx]; code != quant.UnpredictableCode {
		st, rv := stored[F](pv+s.twoEB*float64(int(code)-s.center), s.f32)
		s.recon[idx] = st
		return rv
	}
	return float64(s.recon[idx])
}

// scanGeneric is the reference reconstruction path.
func (s *decompressState[F]) scanGeneric(dims []int, pred *predictor.Predictor) {
	coord := make([]int, len(dims))
	for idx := range s.recon {
		// The prediction is only needed for coded points, but computing it
		// unconditionally costs nothing extra on this path.
		s.point(idx, predictor.Predict(pred, s.recon, idx, coord))
		advanceCoord(coord, dims)
	}
}

// scan mirrors (*compressState).scan for decompression.
func (s *decompressState[F]) scan(dims []int, layers int, pred *predictor.Predictor, kernels bool) bool {
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

func (s *decompressState[F]) decompress1DL1(n int) {
	prev := s.point(0, 0)
	for i := 1; i < n; i++ {
		prev = s.point(i, prev)
	}
}

// decompress2DL1 walks compress2DL1's rows, pairs included, with the
// reconstruction of both points spelled out in the pair loop and each
// row's chain carried.
func (s *decompressState[F]) decompress2DL1(h, w int) {
	recon, codes := s.recon, s.codes
	twoEB, center, f32 := s.twoEB, s.center, s.f32
	s.decompress1DL1(w)
	j := 1
	for ; j+1 < h; j += 2 {
		ra, rb := j*w, (j+1)*w
		a0 := s.point(ra, float64(recon[ra-w]))
		prevA := a0
		if w > 1 {
			prevA = s.point(ra+1, lorenzo2(prevA, recon, ra+1, w))
		}
		prevB := s.point(rb, a0)
		upA, upB := float64(recon[ra+1-w]), a0
		for k := 2; k < w; k++ {
			ia, ib := ra+k, rb+k-1
			u := float64(recon[ia-w])
			pa, pb := prevA+u-upA, prevB+prevA-upB
			upA, upB = u, prevA
			if c := codes[ia]; c != quant.UnpredictableCode {
				st, rv := stored[F](pa+twoEB*float64(int(c)-center), f32)
				recon[ia] = st
				prevA = rv
			} else {
				prevA = float64(recon[ia])
			}
			if c := codes[ib]; c != quant.UnpredictableCode {
				st, rv := stored[F](pb+twoEB*float64(int(c)-center), f32)
				recon[ib] = st
				prevB = rv
			} else {
				prevB = float64(recon[ib])
			}
		}
		if w > 1 {
			s.point(rb+w-1, lorenzo2(prevB, recon, rb+w-1, w))
		}
	}
	if j < h {
		row := j * w
		prev := s.point(row, float64(recon[row-w]))
		for idx := row + 1; idx < row+w; idx++ {
			prev = s.point(idx, lorenzo2(prev, recon, idx, w))
		}
	}
}

// decompress3DL1 walks compress3DL1's planes and rows, pairs included.
func (s *decompressState[F]) decompress3DL1(d, h, w int) {
	s.decompress2DL1(h, w)
	recon, codes := s.recon, s.codes
	twoEB, center, f32 := s.twoEB, s.center, s.f32
	sp := h * w
	for i := 1; i < d; i++ {
		base := i * sp
		prev := s.point(base, float64(recon[base-sp]))
		for idx := base + 1; idx < base+w; idx++ {
			prev = s.point(idx, prev+float64(recon[idx-sp])-float64(recon[idx-sp-1]))
		}
		j := 1
		for ; j+1 < h; j += 2 {
			ra, rb := base+j*w, base+(j+1)*w
			a0 := s.point(ra, float64(recon[ra-w])+float64(recon[ra-sp])-float64(recon[ra-sp-w]))
			prevA := a0
			if w > 1 {
				prevA = s.point(ra+1, lorenzo3(prevA, recon, ra+1, w, sp))
			}
			prevB := s.point(rb, a0+float64(recon[rb-sp])-float64(recon[ra-sp]))
			upA, bkA, buA := float64(recon[ra+1-w]), float64(recon[ra+1-sp]), float64(recon[ra+1-sp-w])
			upB, bkB, buB := a0, float64(recon[rb-sp]), float64(recon[ra-sp])
			for k := 2; k < w; k++ {
				ia, ib := ra+k, rb+k-1
				u, bk, bu, bkb := float64(recon[ia-w]), float64(recon[ia-sp]), float64(recon[ia-sp-w]), float64(recon[ib-sp])
				pa := prevA + u - upA + bk - bkA - bu + buA
				pb := prevB + prevA - upB + bkb - bkB - bkA + buB
				upA, bkA, buA, upB, bkB, buB = u, bk, bu, prevA, bkb, bkA
				if c := codes[ia]; c != quant.UnpredictableCode {
					st, rv := stored[F](pa+twoEB*float64(int(c)-center), f32)
					recon[ia] = st
					prevA = rv
				} else {
					prevA = float64(recon[ia])
				}
				if c := codes[ib]; c != quant.UnpredictableCode {
					st, rv := stored[F](pb+twoEB*float64(int(c)-center), f32)
					recon[ib] = st
					prevB = rv
				} else {
					prevB = float64(recon[ib])
				}
			}
			if w > 1 {
				s.point(rb+w-1, lorenzo3(prevB, recon, rb+w-1, w, sp))
			}
		}
		if j < h {
			row := base + j*w
			prev := s.point(row, float64(recon[row-w])+float64(recon[row-sp])-float64(recon[row-sp-w]))
			for idx := row + 1; idx < row+w; idx++ {
				prev = s.point(idx, lorenzo3(prev, recon, idx, w, sp))
			}
		}
	}
}

func (s *decompressState[F]) decompress2DL2(h, w int) {
	recon := s.recon
	w2 := 2 * w
	s.point(0, 0)
	if w > 1 {
		s.point(1, float64(recon[0]))
	}
	for j := 2; j < w; j++ {
		s.point(j, 2*float64(recon[j-1])-float64(recon[j-2]))
	}
	if h > 1 {
		s.point(w, float64(recon[0]))
		if w > 1 {
			s.point(w+1, float64(recon[w])+float64(recon[1])-float64(recon[0]))
		}
		for idx := w + 2; idx < w2; idx++ {
			s.point(idx, 2*float64(recon[idx-1])-float64(recon[idx-2])+
				float64(recon[idx-w])-2*float64(recon[idx-w-1])+float64(recon[idx-w-2]))
		}
	}
	for i := 2; i < h; i++ {
		row := i * w
		s.point(row, 2*float64(recon[row-w])-float64(recon[row-w2]))
		if w > 1 {
			idx := row + 1
			s.point(idx, float64(recon[idx-1])+2*float64(recon[idx-w])-2*float64(recon[idx-w-1])-
				float64(recon[idx-w2])+float64(recon[idx-w2-1]))
		}
		for idx := row + 2; idx < row+w; idx++ {
			s.point(idx, 2*float64(recon[idx-1])-float64(recon[idx-2])+
				2*float64(recon[idx-w])-4*float64(recon[idx-w-1])+2*float64(recon[idx-w-2])-
				float64(recon[idx-w2])+2*float64(recon[idx-w2-1])-float64(recon[idx-w2-2]))
		}
	}
}

func (s *decompressState[F]) decompress3DL2(d, h, w int, pred *predictor.Predictor) {
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
				s.point(row+k, predictor.Predict(pred, recon, row+k, coord))
			}
			for idx := row + lead; idx < row+w; idx++ {
				var f float64
				for t, dt := range deltas {
					f += coefs[t] * float64(recon[idx+dt])
				}
				s.point(idx, f)
			}
		}
	}
}
