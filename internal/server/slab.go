package server

// Slab range serving: the paper's random-access decompression pattern
// over HTTP. A blocked container carries a seekable footer index, so a
// client can ask the daemon for any contiguous slab range without
// paying for a full decode:
//
//	GET|POST /v1/slabs         container in, footer index out (JSON)
//	GET|POST /v1/slab/{i}      container in, slab i's raw samples out
//	GET|POST /v1/slab/{lo-hi}  inclusive slab range, concatenated
//
// The container travels as the request body, or stays on the daemon's
// disk and is named by ?digest= (see store.go); either way the same
// handler serves it. What the endpoints save is decode work and
// response bytes — only the requested rows are reconstructed and
// returned, or, with Accept: application/x-sz-slab, none at all.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/api"
	"repro/internal/blocked"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/scratch"
	"repro/internal/store"
)

// slabCharge estimates the memory a container read pins: base (the
// buffered upload, or mmapReadCharge for a store entry, which pins page
// cache rather than heap) plus the decoded slabs lo..hi — one float64
// working copy and the raw output per cell, with headroom for the
// per-worker slab reconstructions (24 B/cell total) — plus a shared
// codebook, which every decode of its container deserializes. An empty
// range (hi < lo) or a compressed-extent read decodes nothing, unless
// the container shares one codebook and so has no self-contained
// extent. The geometry comes from the attacker-supplied header, so
// every product saturates.
func slabCharge(base int64, header []byte, lo, hi int, extent bool) int64 {
	ci, err := blocked.ParseContainerHeader(header)
	if err != nil || hi < lo || (extent && ci.CodebookLen == 0) {
		return base
	}
	rowCells := int64(1)
	for _, d := range ci.Dims[1:] {
		rowCells = satMul(rowCells, int64(d))
	}
	rows := satMul(int64(hi-lo+1), int64(ci.SlabRows))
	if rows > int64(ci.Dims[0]) {
		rows = int64(ci.Dims[0])
	}
	c := base + satMul(satMul(rows, rowCells), 24)
	if ci.CodebookLen > 0 {
		c += sharedCodebookCharge(header[ci.HeaderLen:])
	}
	return c
}

// container is a resolved container read: the bytes — a buffered,
// CRC-verified upload or an mmap'd store entry — their footer index,
// and the admission grant the read holds until release.
type container struct {
	stream []byte
	ix     *blocked.Index
	gr     *grant
	ent    *store.Entry // nil for an upload
}

func (c *container) release() {
	c.gr.release()
	if c.ent != nil {
		c.ent.Release()
	} else {
		scratch.PutBytes(c.stream)
	}
}

// openContainer does everything a slab read needs before serving: it
// resolves the source (a ?digest= store entry, else the request body),
// admits the request at slabCharge, answers If-None-Match, and parses
// the footer index — Inspect for an upload, InspectNoVerify for an
// entry, whose digest vouched for its bytes when it was written. An
// upload whose index verifies is persisted, so the next read can name
// it by digest. lo..hi and extent size the charge (see slabCharge). On
// !ok the response has been written.
func (s *Server) openContainer(w http.ResponseWriter, r *http.Request, lo, hi int, extent bool) (*container, bool) {
	ent, done := s.openStoreEntry(w, r)
	if done && ent == nil {
		return nil, false
	}
	c := &container{ent: ent}
	if ent != nil {
		c.stream = ent.Bytes()
		gr, status, err := s.admit(r.Context(), slabCharge(mmapReadCharge, c.stream, lo, hi, extent), 1)
		if err != nil {
			ent.Release()
			s.writeError(w, status, err)
			return nil, false
		}
		c.gr = gr
	} else {
		declared := declaredLength(r)
		if s.cfg.MaxRequestBytes > 0 && declared > s.cfg.MaxRequestBytes {
			s.writeError(w, http.StatusRequestEntityTooLarge, errTooLarge)
			return nil, false
		}
		base := declared
		if base < 0 {
			base = s.unknownCharge()
		}
		br := newPeekReader(r.Body)
		header, _ := br.Peek(containerPeekLen)
		charge := slabCharge(base, header, lo, hi, extent)
		gr, status, err := s.admit(r.Context(), charge, 1)
		if err != nil {
			s.writeError(w, status, err)
			return nil, false
		}
		body := newMeteredReader(br, gr, declared, charge, s.cfg.MaxRequestBytes, 1, false)
		stream, err := readAllScratch(body, declared)
		c.stream, c.gr = stream, gr
		if err != nil {
			c.release()
			s.writeError(w, streamErrStatus(err), err)
			return nil, false
		}
		// The body's digest is the response's ETag: a repeat reader
		// that still holds the answer gets a 304 before any footer walk
		// or decode (an error response drops the header again).
		etag := etagFor(bodyDigest(stream))
		if api.IfNoneMatchHas(r.Header.Get("If-None-Match"), etag) {
			c.release()
			notModified(w, etag)
			return nil, false
		}
		w.Header().Set("Etag", etag)
	}
	ix, err := containerIndex(c.stream, ent == nil)
	if err != nil {
		c.release()
		s.writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	obs.SetCodec(r.Context(), "blocked")
	c.ix = ix
	if ent == nil && s.cfg.Store != nil {
		// Best effort: a full store or failing disk must never fail the
		// read being served.
		_, _ = s.cfg.Store.Put(c.stream)
	}
	return c, true
}

// containerIndex parses a blocked container's footer index, naming the
// codec of any other stream as codec.SlabIndexOf does. verify selects
// the whole-container CRC walk.
func containerIndex(stream []byte, verify bool) (*blocked.Index, error) {
	c, err := codec.Detect(stream)
	if err != nil {
		return nil, err
	}
	if c.Name() != "blocked" {
		return nil, fmt.Errorf("codec %s has no slab index (random access needs a blocked container)", c.Name())
	}
	if verify {
		return blocked.Inspect(stream)
	}
	return blocked.InspectNoVerify(stream)
}

func (s *Server) handleSlabs(w http.ResponseWriter, r *http.Request) {
	c, ok := s.openContainer(w, r, 0, -1, false)
	if !ok {
		return
	}
	defer c.release()
	resp, err := json.Marshal(codec.SlabIndexFrom(c.stream, c.ix))
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp = append(resp, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(resp)
}

func (s *Server) handleSlab(w http.ResponseWriter, r *http.Request) {
	lo, hi, err := codec.ParseSlabSpec(strings.TrimPrefix(r.URL.Path, api.PathSlabPrefix))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	extent := wantsCompressedSlab(r)
	c, ok := s.openContainer(w, r, lo, hi, extent)
	if !ok {
		return
	}
	defer c.release()
	tr := obs.FromContext(r.Context())
	// Shared-codebook containers have no self-contained extent; they
	// answer with decoded samples instead.
	if extent && !c.ix.SharedCodebook() {
		s.serveSlabExtent(w, tr, c, lo, hi)
		return
	}
	sp := tr.StartSpan("decode")
	arr, dt, err := blocked.DecompressSlabRangeIndexed(c.stream, c.ix, lo, hi)
	sp.End()
	if err != nil {
		s.rejectSlabErr(w, err)
		return
	}
	s.writeSlabRaw(w, arr, dt, lo, hi)
}

// wantsCompressedSlab reports whether the client asked for the raw
// compressed extent rather than decoded samples.
func wantsCompressedSlab(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		if mt, _, _ := strings.Cut(strings.TrimSpace(part), ";"); mt == SlabContentType {
			return true
		}
	}
	return false
}

// serveSlabExtent writes the compressed byte extent of slabs lo..hi —
// a pure slice of the container, the zero-copy fast path.
func (s *Server) serveSlabExtent(w http.ResponseWriter, tr *obs.Trace, c *container, lo, hi int) {
	off, end, err := c.ix.SlabExtent(lo, hi)
	if err != nil {
		s.rejectSlabErr(w, err)
		return
	}
	rowLo, _ := c.ix.SlabBounds(lo)
	_, rowHi := c.ix.SlabBounds(hi)
	dims := append([]int(nil), c.ix.Dims...)
	dims[0] = rowHi - rowLo
	w.Header().Set("Content-Type", SlabContentType)
	w.Header().Set(api.HeaderCodec, "blocked")
	w.Header().Set(api.HeaderDims, codec.FormatDims(dims))
	w.Header().Set(api.HeaderSlabs, codec.FormatSlabSpec(lo, hi))
	w.Header().Set(api.HeaderSlabLengths, formatSlabLengths(c.ix, lo, hi))
	out := &respWriter{ResponseWriter: w}
	sp := tr.StartSpan("mmap_serve")
	_, err = out.Write(c.stream[off:end])
	sp.End()
	s.finishStream(w, out, err)
}

// formatSlabLengths renders the per-slab stream lengths of lo..hi as a
// comma list so an extent's receiver can split it without re-fetching
// the index.
func formatSlabLengths(ix *blocked.Index, lo, hi int) string {
	var b strings.Builder
	for i := lo; i <= hi; i++ {
		if i > lo {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", ix.Offsets[i+1]-ix.Offsets[i])
	}
	return b.String()
}

// rejectSlabErr maps slab decode errors to their status (416 for a
// well-formed range beyond the container, 400 otherwise).
func (s *Server) rejectSlabErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, blocked.ErrSlabRange) {
		// A well-formed spec beyond the container's extent is the
		// range version of a seek past EOF, not a malformed request.
		status = http.StatusRequestedRangeNotSatisfiable
	}
	s.writeError(w, status, err)
}

// writeSlabRaw streams a decoded slab range as raw samples.
func (s *Server) writeSlabRaw(w http.ResponseWriter, arr *grid.Array, dt grid.DType, lo, hi int) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(api.HeaderCodec, "blocked")
	w.Header().Set(api.HeaderDtype, dt.String())
	w.Header().Set(api.HeaderDims, codec.FormatDims(arr.Dims))
	w.Header().Set(api.HeaderSlabs, codec.FormatSlabSpec(lo, hi))
	out := &respWriter{ResponseWriter: w}
	err := arr.WriteRaw(out, dt)
	s.finishStream(w, out, err)
}
