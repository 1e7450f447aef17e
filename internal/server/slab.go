package server

// Slab range serving: the paper's random-access decompression pattern
// over HTTP. A blocked v2 container carries a seekable footer index, so
// a client holding the compressed stream can ask the daemon for any
// contiguous slab range without paying for a full decode:
//
//	GET|POST /v1/slabs       container in, footer index out (JSON)
//	GET|POST /v1/slab/{i}    container in, slab i's raw samples out
//	GET|POST /v1/slab/{lo-hi}  inclusive slab range, concatenated
//
// The container body still travels with the request (szd stores
// nothing); what the endpoint saves is decode work and response bytes —
// only the requested rows are reconstructed and returned.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/blocked"
	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/scratch"
)

// slabCharge estimates the memory a slab-range request pins: the whole
// container (buffered for footer access) plus the decoded range — one
// float64 working copy and the raw output per cell, with headroom for
// the per-worker slab reconstructions (24 B/cell total). The range
// geometry comes from the peeked, attacker-supplied header, so every
// product saturates.
func (s *Server) slabCharge(declared int64, header []byte, lo, hi int) int64 {
	base := declared
	if base < 0 {
		base = s.unknownCharge()
	}
	ci, err := blocked.ParseContainerHeader(header)
	if err != nil {
		return satMul(base, 2)
	}
	rowCells := int64(1)
	for _, d := range ci.Dims[1:] {
		rowCells = satMul(rowCells, int64(d))
	}
	rows := satMul(int64(hi-lo+1), int64(ci.SlabRows))
	if rows > int64(ci.Dims[0]) {
		rows = int64(ci.Dims[0])
	}
	return base + satMul(satMul(rows, rowCells), 24)
}

func (s *Server) handleSlabs(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		w.Header().Set("Allow", "GET, POST")
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET or POST"))
		return
	}
	// Digest-referenced: serve the index off the store's mmap'd entry.
	if ent, done := s.openStoreEntry(w, r, "slabs", start); done {
		if ent != nil {
			s.serveSlabsFromStore(w, r, ent, start)
		}
		return
	}
	stream, gr, ok := s.readContainer(w, r, "slabs", nil, start)
	if !ok {
		return
	}
	defer gr.release()
	defer scratch.PutBytes(stream)
	// The body's digest is this response's ETag: a repeat reader that
	// still holds the index answers in a header round-trip, before any
	// footer walk happens.
	etag := etagFor(bodyDigest(stream))
	if api.IfNoneMatchHas(r.Header.Get("If-None-Match"), etag) {
		s.notModified(w, "slabs", "blocked", etag, start)
		return
	}
	si, err := codec.SlabIndexOf(stream)
	if err != nil {
		s.reject(w, "slabs", "", http.StatusBadRequest, err, start)
		return
	}
	// A validated container is worth keeping: persist it so the next
	// read can reference the digest instead of re-uploading (tier-2
	// fill through the body path).
	s.storePut(stream)
	w.Header().Set("Etag", etag)
	resp, err := json.Marshal(si)
	if err != nil {
		s.reject(w, "slabs", "blocked", http.StatusInternalServerError, err, start)
		return
	}
	resp = append(resp, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(resp)
	s.met.record("slabs", "blocked", http.StatusOK, int64(len(stream)), int64(len(resp)), time.Since(start))
}

func (s *Server) handleSlab(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		w.Header().Set("Allow", "GET, POST")
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET or POST"))
		return
	}
	spec := strings.TrimPrefix(r.URL.Path, api.PathSlabPrefix)
	lo, hi, err := codec.ParseSlabSpec(spec)
	if err != nil {
		s.reject(w, "slab", "", http.StatusBadRequest, err, start)
		return
	}
	// Digest-referenced: mmap'd entry, no upload, no CRC walk, and the
	// compressed extent zero-copy when the client accepts it.
	if ent, done := s.openStoreEntry(w, r, "slab", start); done {
		if ent != nil {
			s.serveSlabFromStore(w, r, ent, lo, hi, start)
		}
		return
	}
	rng := [2]int{lo, hi}
	stream, gr, ok := s.readContainer(w, r, "slab", &rng, start)
	if !ok {
		return
	}
	defer gr.release()
	defer scratch.PutBytes(stream)
	// Conditional check before any decode: the body just traveled, but
	// the decode work (the expensive part) is still skippable.
	etag := etagFor(bodyDigest(stream))
	if api.IfNoneMatchHas(r.Header.Get("If-None-Match"), etag) {
		s.notModified(w, "slab", "blocked", etag, start)
		return
	}
	if wantsCompressedSlab(r) {
		// One pass: Inspect parses and CRC-verifies the container (the
		// bytes are untrusted on the body path), then the extent is a
		// pure slice.
		ix, err := blocked.Inspect(stream)
		if err != nil {
			s.reject(w, "slab", "blocked", http.StatusBadRequest, err, start)
			return
		}
		if !ix.SharedCodebook() {
			s.storePut(stream)
			w.Header().Set("Etag", etag)
			s.serveSlabExtent(w, obs.FromContext(r.Context()), stream, ix, lo, hi, int64(len(stream)), start)
			return
		}
		// Shared-codebook containers have no self-contained extent;
		// fall through to decoded samples.
	}
	// One pass: DecompressSlabRange parses and CRC-verifies the
	// container itself, so no separate index parse runs first (on large
	// containers the footer walk and checksum dominate non-decode cost).
	sp := obs.FromContext(r.Context()).StartSpan("decode")
	arr, dt, err := blocked.DecompressSlabRange(stream, lo, hi)
	sp.End()
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, blocked.ErrSlabRange) {
			// A well-formed spec beyond the container's extent is the
			// range version of a seek past EOF, not a malformed request.
			status = http.StatusRequestedRangeNotSatisfiable
		}
		s.reject(w, "slab", "blocked", status, err, start)
		return
	}
	s.storePut(stream)
	w.Header().Set("Etag", etag)
	s.writeSlabRaw(w, arr, dt, lo, hi, int64(len(stream)), start)
}

// readContainer admits and buffers the request body for the slab
// endpoints. rng, when set, lets the admission charge cover the decode
// footprint of that slab range (peeked from the container header); nil
// charges the buffered body alone. On ok the caller owns the returned
// grant (release it when the decode is done); on !ok the response has
// already been written.
func (s *Server) readContainer(w http.ResponseWriter, r *http.Request, endpoint string, rng *[2]int, start time.Time) ([]byte, *grant, bool) {
	declared := declaredLength(r)
	if s.cfg.MaxRequestBytes > 0 && declared > s.cfg.MaxRequestBytes {
		s.reject(w, endpoint, "", http.StatusRequestEntityTooLarge, errTooLarge, start)
		return nil, nil, false
	}
	br := newPeekReader(r.Body)
	charge := declared
	if charge < 0 {
		charge = s.unknownCharge()
	}
	if rng != nil {
		header, _ := br.Peek(blocked.MaxHeaderLen)
		charge = s.slabCharge(declared, header, rng[0], rng[1])
	}
	gr, status, err := s.admit(r.Context(), obs.FromContext(r.Context()), charge, 1)
	if err != nil {
		s.reject(w, endpoint, "", status, err, start)
		return nil, nil, false
	}
	body := newMeteredReader(br, gr, declared, charge, s.cfg.MaxRequestBytes, 1, false)
	stream, err := readAllScratch(body, declared)
	if err != nil {
		scratch.PutBytes(stream)
		gr.release()
		s.reject(w, endpoint, "", streamErrStatus(err), err, start)
		return nil, nil, false
	}
	return stream, gr, true
}
