package server

// Admission-charge calibration. The in-flight byte budget is only as
// good as its per-request memory estimates; these constants replace the
// original guesswork multipliers with numbers measured from allocation
// profiles (TestAdmissionChargeCalibration re-measures and fails if the
// estimates drift outside 2x of reality).
//
// Measured 2026-10-17 on linux/amd64 (2 CPUs) with the scratch-pooled
// hot path, each op on one P
// (`go test -run TestAdmissionChargeCalibration -v ./internal/server`),
// a 32x192x192 Hurricane-shaped float32 field, 8-row slabs:
//
//	compress  sz14     measured 11.7x the raw body   (charged 11x = 1+40/4)
//	compress  gzip     measured 0.78 MiB             (charged 1 MiB)
//	compress  blocked  measured 29.0-29.5 B/cell of workers+2 slabs (charged 32)
//	          blocked, every point escaping (float32 noise, abs 1e-9):
//	                   measured 36.5-40.0 B/cell (charged 32)
//	decompress sz14    measured 27.9 B/element       (charged 24+esz)
//	decompress gzip    measured 0.10 MiB             (charged 0.19 MiB)
//	shared codebook    2^8 symbols:  39.2 KB (charged 44.3 KB)
//	                   2^16 symbols: 887.9 KB (charged 892.9 KB)
//	decompress blocked 1 worker:  10.7 MB, one slab decode's working set
//	                              (charged 28.3 MB = 2 slabs x 48 B/cell;
//	                              what szd runs)
//	                   2 workers: 12.9 or 21.4 MB, as the decodes happen
//	                              to overlap on the one P (charged 42.5 MB
//	                              = 3 slabs, against 32.2 MB for three
//	                              10.7 MB working sets at once)
import (
	"runtime"

	"repro/internal/blocked"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/huffman"
)

const (
	// gzipCompressCharge covers the flate window and hash tables
	// (measured ~0.81 MiB; the stream itself never buffers).
	gzipCompressCharge = 1 << 20
	// gzipDecompressCharge covers the inflate window and dictionaries
	// (measured ~0.11 MiB).
	gzipDecompressCharge = 192 << 10

	// bufferedCompressOverheadPerElem is what a buffered compress pins
	// per element beyond the raw body: the widened float64 array (8),
	// the quantization-code array (8), the reconstruction array (8),
	// and the bitstream/output buffering tail (measured ~16 together).
	bufferedCompressOverheadPerElem = 40

	// blockedSlabOverheadPerCell is what each in-flight slab of the
	// streaming blocked writer pins per cell beyond the raw parse
	// buffer: the float64 slab (8), codes (8), reconstruction (8), and
	// payload/stream buffering (~4).
	blockedSlabOverheadPerCell = 28

	// bufferedDecompressOverheadPerElem is what an sz14 decompress pins
	// per reconstructed element: the code array (8), the output array
	// (8), and raw-output serialization buffering (~8 + element size).
	bufferedDecompressOverheadPerElem = 24

	// bufferedDecompressFallbackMult stands in for buffered codecs whose
	// headers do not reveal the element count (fpzip, zfp, sz11,
	// isabela, pwrel): compressed stream plus a several-times-larger
	// reconstruction.
	bufferedDecompressFallbackMult = 5

	// blockedDecompressBytesPerCell is the streaming reader's
	// *adversarial* per-cell bound for one slab in its decode window.
	// While a slab decodes it holds its compressed stream, which the
	// reader tolerates up to maxSlabStream = 4x raw (32 B/cell for f64)
	// before calling a container hostile, plus the float64
	// reconstruction (8) and the quantization codes (8); the compressed
	// stream and codes are released before the raw output (<= 8) is
	// written. Deliberately above the well-formed peak, so it is
	// asserted one-sided in the calibration test.
	blockedDecompressBytesPerCell = 48

	// A v3 shared codebook is held for the life of a decode: its packed
	// decode table (2^12 entries, 32 KiB, at most), the per-length
	// canonical arrays and the codebook itself (3.1 KB measured, 8 KiB
	// allowed), and per declared symbol its code length (1 B), canonical
	// code (8 B) and decode slot (4 B). See sharedCodebookCharge.
	sharedCodebookFixedBytes     = 40 << 10
	sharedCodebookBytesPerSymbol = 13

	// blockedStreamStateBytes covers one interleaved sub-stream's decode
	// state per slab (reader cursor plus framing slack) — tiny, charged
	// per declared stream so a hostile streams byte still costs.
	blockedStreamStateBytes = 4 << 10
)

// compressCharge estimates the peak memory a compress request pins,
// which is what the in-flight byte budget meters. The second return
// reports whether the path streams (memory independent of body size) —
// streaming requests are not metered per body byte.
//
//   - gzip streams with O(window) memory: flat gzipCompressCharge.
//   - blocked with an absolute bound streams slab-at-a-time: charge the
//     pipeline depth (workers+2 slabs in flight) times the calibrated
//     slab footprint, independent of the total request size — this is
//     what keeps a saturated daemon's memory bounded even while
//     petabyte-scale fields flow through.
//   - every other (buffered) codec holds the raw input plus the
//     calibrated per-element working set. With no declared length at
//     all, the flat unknown-length charge stands in for the worst case
//     (no multiplier on top: it already equals the per-request cap).
func (s *Server) compressCharge(name string, declared int64, p codec.Params) (int64, bool) {
	unknown := declared < 0
	if unknown {
		declared = s.unknownCharge()
	}
	esz := dtypeSize(p)
	// The streaming-vs-buffered split comes from the codec layer (the
	// same predicate the adapters act on), so admission never drifts
	// from the writers' actual memory behavior.
	if codec.StreamingWriter(name, p) {
		if name == "blocked" && len(p.Dims) > 0 {
			rowCells := int64(1)
			for _, d := range p.Dims[1:] {
				rowCells = satMul(rowCells, int64(d))
			}
			slabRows := int64(blocked.SlabRowsFor(p.Dims[0], p.SlabRows))
			workers := int64(wantWorkers(name, p))
			est := satMul(satMul(workers+2, satMul(slabRows, rowCells)), esz+blockedSlabOverheadPerCell)
			if est < 1<<20 {
				est = 1 << 20
			}
			// Small fields cost less than a full pipeline: cap by the
			// whole-array footprint, computed from dims — never from
			// the client-declared length, which a false hint could
			// shrink to zero and defeat the budget with.
			if full := satMul(rawBytesFor(p.Dims, esz), 1+bufferedCompressOverheadPerElem/esz); est > full {
				est = full
			}
			return est, true
		}
		return gzipCompressCharge, true
	}
	if unknown {
		return declared, false
	}
	return satMul(declared, 1+bufferedCompressOverheadPerElem/esz), false
}

// wantWorkers is the blocked container's slab parallelism (p.Workers,
// 0 = GOMAXPROCS) and 1 for every other codec: the worker tokens a
// compress asks for, and the decode window a blocked decompress charge
// covers.
func wantWorkers(name string, p codec.Params) int {
	if name != "blocked" {
		return 1
	}
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// decompressCharge estimates the peak memory a decompress request pins.
// gzip streams with O(window). The blocked reader keeps p.Workers slab
// decodes in flight (0 = GOMAXPROCS) plus the slab it is serving, so it
// is charged min(workers+1, slab count) slab footprints, each from the
// slab geometry in the container header (peeked, attacker-supplied,
// hence validated and saturated) — a single-slab container is charged
// its whole footprint once. handleDecompress runs the reader at one
// worker, so a request pays at most two slabs. An sz14
// stream's header reveals its element count, so its buffered decode is
// charged per element regardless of compression factor; the remaining
// buffered decoders fall back to a flat multiple of the declared size.
func (s *Server) decompressCharge(name string, declared int64, header []byte, p codec.Params) (int64, bool) {
	if codec.StreamingReader(name) {
		charge := int64(1 << 20) // gzip O(window); blocked floor
		if name == "gzip" {
			return gzipDecompressCharge, true
		}
		if name == "blocked" {
			if ci, err := blocked.ParseContainerHeader(header); err == nil {
				rowCells := int64(1)
				for _, d := range ci.Dims[1:] {
					rowCells = satMul(rowCells, int64(d))
				}
				slab := satMul(satMul(int64(ci.SlabRows), rowCells), blockedDecompressBytesPerCell)
				// v3: each slab keeps one cursor per sub-stream (v2's
				// single cursor is already inside the per-cell bound).
				if ci.Version >= 3 {
					slab += satMul(int64(ci.Streams), blockedStreamStateBytes)
				}
				slabs := int64(wantWorkers(name, p)) + 1
				if n := int64((ci.Dims[0] + ci.SlabRows - 1) / ci.SlabRows); slabs > n {
					slabs = n
				}
				c := satMul(slabs, slab)
				// The shared codebook lives for the whole decode.
				if ci.CodebookLen > 0 {
					c += sharedCodebookCharge(header[ci.HeaderLen:])
				}
				if c > charge {
					charge = c
				}
			}
		}
		return charge, true
	}
	if name == "sz14" && len(header) > 0 {
		if h, _, err := core.ParseHeaderPrefix(header); err == nil {
			elems := int64(1)
			for _, d := range h.Dims {
				elems = satMul(elems, int64(d))
			}
			perElem := int64(bufferedDecompressOverheadPerElem + h.DType.Size())
			base := declared
			if base < 0 {
				base = 0
			}
			return base + satMul(elems, perElem), false
		}
	}
	if declared < 0 {
		return s.unknownCharge(), false
	}
	return satMul(declared, bufferedDecompressFallbackMult), false
}

// containerPeekLen is how much of a blocked container admission peeks:
// the longest fixed header and the first field of a shared codebook
// section behind it, whose gamma code is up to 33 bits.
const containerPeekLen = blocked.MaxHeaderLen + 5

// sharedCodebookCharge is what a v3 container's shared codebook holds
// for the life of a decode, from the alphabet its section declares (the
// section's first field). A section too short to declare one, or one
// Deserialize would refuse, is charged the largest alphabet.
func sharedCodebookCharge(section []byte) int64 {
	n, err := huffman.AlphabetSize(section)
	if err != nil {
		n = huffman.MaxSymbols
	}
	return sharedCodebookFixedBytes + int64(n)*sharedCodebookBytesPerSymbol
}
