package server

// Content-addressed serving: the glue between the HTTP surface and
// internal/store that turns repeat reads into a read-mostly path.
//
// Every finished container szd produces (compress responses) or fully
// consumes (decompress/slab bodies) is persisted in the store under its
// payload SHA-256, and the digest travels back as the response ETag —
// as a trailer on streaming responses, a header on buffered ones. From
// then on a client can reference the container by digest alone
// (?digest= or X-Sz-Digest) and the daemon serves slab reads straight
// off the mmap'd entry: no upload, no whole-container CRC (the digest
// vouched for the bytes at write time), no decode when the client
// accepts compressed slab bytes (Accept: application/x-sz-slab), and an
// admission charge that reflects the near-zero heap such a read pins.
// If-None-Match against a content-addressed ETag is answered 304
// unconditionally — identical digest means identical bytes, stored or
// not.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/blocked"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/scratch"
	"repro/internal/store"
)

// SlabContentType is the media type for compressed slab extents: the
// concatenated core streams of the requested slab range, exactly as
// they sit in the container body.
const SlabContentType = api.MediaTypeSlabExtent

const (
	// mmapReadCharge is the admission charge for responses served as
	// slices of an mmap'd store entry: the copy buffer and response
	// plumbing, not the payload (which pins page cache, not heap).
	mmapReadCharge = 256 << 10
	// storePutCharge covers the streaming disk write of a PUT
	// /v1/container body: one copy buffer; the payload goes to disk.
	storePutCharge = 512 << 10
)

// requestDigest extracts a content-address reference from the request
// (?digest= query value or X-Sz-Digest header), validating its shape.
func requestDigest(r *http.Request) (string, error) {
	d := r.URL.Query().Get(api.QueryDigest)
	if d == "" {
		d = r.Header.Get(api.HeaderDigest)
	}
	if d == "" {
		return "", nil
	}
	if !store.ValidDigest(d) {
		return "", fmt.Errorf("malformed digest %q (want 64 lowercase hex chars)", d)
	}
	return d, nil
}

// etagFor renders a container digest as a strong ETag.
func etagFor(digest string) string { return `"` + digest + `"` }

// notModified answers a conditional request whose ETag matched.
func (s *Server) notModified(w http.ResponseWriter, endpoint, codecName, etag string, start time.Time) {
	w.Header().Set("Etag", etag)
	w.WriteHeader(http.StatusNotModified)
	s.met.record(endpoint, codecName, http.StatusNotModified, 0, 0, time.Since(start))
}

// storePut persists payload best-effort (a full store or failing disk
// must never fail the request being served) and returns the digest
// ("" when the store is absent or the write failed).
func (s *Server) storePut(payload []byte) string {
	if s.cfg.Store == nil {
		return ""
	}
	d, err := s.cfg.Store.Put(payload)
	if err != nil {
		return ""
	}
	return d
}

// bestEffortPut tees a response stream into a store putter without ever
// failing the response: the first write error abandons the put and the
// tee degrades to a no-op.
type bestEffortPut struct {
	p      *store.Putter
	t      *obs.Trace // when set, store writes aggregate as "store_write"
	failed bool
}

func (b *bestEffortPut) Write(d []byte) (int, error) {
	if !b.failed {
		var t0 time.Time
		if b.t != nil {
			t0 = time.Now()
		}
		if _, err := b.p.Write(d); err != nil {
			b.failed = true
			b.p.Abort()
		}
		if b.t != nil {
			b.t.Observe("store_write", time.Since(t0))
		}
	}
	return len(d), nil
}

// commit finalizes the tee'd put and returns the digest ("" on any
// earlier failure). abort discards it.
func (b *bestEffortPut) commit() string {
	if b.failed {
		return ""
	}
	var t0 time.Time
	if b.t != nil {
		t0 = time.Now()
	}
	d, err := b.p.Commit("")
	if b.t != nil {
		b.t.Observe("store_write", time.Since(t0))
	}
	if err != nil {
		return ""
	}
	return d
}

func (b *bestEffortPut) abort() {
	if !b.failed {
		b.failed = true
		b.p.Abort()
	}
}

// openStoreEntry resolves a digest-referenced request against the
// store: (nil, true) when the request was fully answered (304, 404, or
// a malformed digest), (entry, true) with the response still to write
// on a hit. The X-Sz-Store header tells routers and tests whether the
// tier-2 disk store answered. A 304 needs no store access at all — the
// digest names the bytes, so a matching If-None-Match is decisive even
// for an entry that was evicted.
func (s *Server) openStoreEntry(w http.ResponseWriter, r *http.Request, endpoint string, start time.Time) (*store.Entry, bool) {
	digest, err := requestDigest(r)
	if err != nil {
		s.reject(w, endpoint, "", http.StatusBadRequest, err, start)
		return nil, true
	}
	if digest == "" {
		return nil, false // body-carrying request
	}
	etag := etagFor(digest)
	if api.IfNoneMatchHas(r.Header.Get("If-None-Match"), etag) {
		s.notModified(w, endpoint, "", etag, start)
		return nil, true
	}
	if s.cfg.Store == nil {
		s.reject(w, endpoint, "", http.StatusNotFound,
			fmt.Errorf("digest-referenced reads need a store (-store-dir)"), start)
		return nil, true
	}
	sp := obs.FromContext(r.Context()).StartSpan("store_read")
	ent, err := s.cfg.Store.Get(digest)
	sp.End()
	if err != nil {
		w.Header().Set(api.HeaderStore, "miss")
		status := http.StatusNotFound
		if !errors.Is(err, store.ErrNotFound) {
			status = http.StatusInternalServerError
		}
		s.reject(w, endpoint, "", status, fmt.Errorf("container %s not in store", digest), start)
		return nil, true
	}
	w.Header().Set(api.HeaderStore, "hit")
	w.Header().Set("Etag", etag)
	return ent, true
}

// serveDecompressFromStore answers a digest-referenced decompress off
// the mmap'd entry: no upload, no buffered container copy for the
// streaming codecs — the charge is the decode window alone.
func (s *Server) serveDecompressFromStore(w http.ResponseWriter, r *http.Request, tr *obs.Trace, ent *store.Entry, p codec.Params, forced string, start time.Time) {
	defer ent.Release()
	stream := ent.Bytes()
	var c codec.Codec
	var err error
	if forced != "" {
		c, err = codec.Lookup(forced)
	} else {
		c, err = codec.Detect(stream)
	}
	if err != nil {
		s.reject(w, "decompress", forced, http.StatusBadRequest, err, start)
		return
	}
	name := c.Name()
	// The header parsers read a bounded prefix; handing them the whole
	// mapped stream skips the peek-reader dance of the body path.
	charge, _ := s.decompressCharge(name, int64(len(stream)), stream)
	gr, status, err := s.admit(r.Context(), tr, charge, 1)
	if err != nil {
		s.reject(w, "decompress", name, status, err, start)
		return
	}
	defer gr.release()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(api.HeaderCodec, name)
	out := &respWriter{ResponseWriter: w}
	zr, err := c.NewReader(bytes.NewReader(stream), p)
	if err != nil {
		s.reject(w, "decompress", name, streamErrStatus(err), err, start)
		return
	}
	cbuf := scratch.Bytes(streamCopyBuffer)
	defer scratch.PutBytes(cbuf)
	sp := tr.StartSpan("decode")
	_, err = io.CopyBuffer(out, zr, cbuf)
	if cerr := zr.Close(); err == nil {
		err = cerr
	}
	sp.End()
	s.finishStream(w, out, "decompress", name, 0, err, start)
}

// serveSlabsFromStore answers /v1/slabs for a digest-referenced
// container: footer-index JSON from the mmap'd entry, no CRC walk.
func (s *Server) serveSlabsFromStore(w http.ResponseWriter, r *http.Request, ent *store.Entry, start time.Time) {
	defer ent.Release()
	gr, status, err := s.admit(r.Context(), obs.FromContext(r.Context()), mmapReadCharge, 1)
	if err != nil {
		s.reject(w, "slabs", "", status, err, start)
		return
	}
	defer gr.release()
	ix, err := s.storedIndex(ent)
	if err != nil {
		s.reject(w, "slabs", "", http.StatusBadRequest, err, start)
		return
	}
	resp, err := json.Marshal(codec.SlabIndexFrom(ent.Bytes(), ix))
	if err != nil {
		s.reject(w, "slabs", "blocked", http.StatusInternalServerError, err, start)
		return
	}
	resp = append(resp, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(resp)
	s.met.record("slabs", "blocked", http.StatusOK, 0, int64(len(resp)), time.Since(start))
}

// storedIndex parses a store entry's container index. The entry's
// integrity was digest-verified when it was written, so the
// O(container) CRC pass is skipped — this is most of the non-decode
// saving on the warm path.
func (s *Server) storedIndex(ent *store.Entry) (*blocked.Index, error) {
	if _, err := codec.Detect(ent.Bytes()); err != nil {
		return nil, err
	}
	ix, err := blocked.InspectNoVerify(ent.Bytes())
	if err != nil {
		return nil, err
	}
	return ix, nil
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

// serveSlabFromStore answers /v1/slab/{spec} for a digest-referenced
// container off the mmap'd entry: the compressed extent zero-copy when
// the client accepts it, decoded samples otherwise.
func (s *Server) serveSlabFromStore(w http.ResponseWriter, r *http.Request, ent *store.Entry, lo, hi int, start time.Time) {
	defer ent.Release()
	ix, err := s.storedIndex(ent)
	if err != nil {
		s.reject(w, "slab", "", http.StatusBadRequest, err, start)
		return
	}
	tr := obs.FromContext(r.Context())
	if wantsCompressedSlab(r) && !ix.SharedCodebook() {
		gr, status, err := s.admit(r.Context(), tr, mmapReadCharge, 1)
		if err != nil {
			s.reject(w, "slab", "blocked", status, err, start)
			return
		}
		defer gr.release()
		s.serveSlabExtent(w, tr, ent.Bytes(), ix, lo, hi, 0, start)
		return
	}
	// Raw samples: charge the decode footprint only — the container
	// itself is mmap'd, so unlike the body path no buffered copy pins
	// the budget.
	gr, status, err := s.admit(r.Context(), tr, s.slabDecodeCharge(ix, lo, hi), 1)
	if err != nil {
		s.reject(w, "slab", "blocked", status, err, start)
		return
	}
	defer gr.release()
	sp := tr.StartSpan("decode")
	arr, dt, err := blocked.DecompressSlabRangeIndexed(ent.Bytes(), ix, lo, hi)
	sp.End()
	if err != nil {
		s.rejectSlabErr(w, err, start)
		return
	}
	s.writeSlabRaw(w, arr, dt, lo, hi, 0, start)
}

// serveSlabExtent writes the compressed byte extent of slabs lo..hi —
// a pure slice of the container, the zero-copy fast path. The caller
// holds the admission grant.
func (s *Server) serveSlabExtent(w http.ResponseWriter, tr *obs.Trace, stream []byte, ix *blocked.Index, lo, hi int, bytesIn int64, start time.Time) {
	off, end, err := ix.SlabExtent(lo, hi)
	if err != nil {
		s.rejectSlabErr(w, err, start)
		return
	}
	rowLo, _ := ix.SlabBounds(lo)
	_, rowHi := ix.SlabBounds(hi)
	dims := append([]int(nil), ix.Dims...)
	dims[0] = rowHi - rowLo
	w.Header().Set("Content-Type", SlabContentType)
	w.Header().Set(api.HeaderCodec, "blocked")
	w.Header().Set(api.HeaderDims, codec.FormatDims(dims))
	w.Header().Set(api.HeaderSlabs, codec.FormatSlabSpec(lo, hi))
	w.Header().Set(api.HeaderSlabLengths, formatSlabLengths(ix, lo, hi))
	out := &respWriter{ResponseWriter: w}
	sp := tr.StartSpan("mmap_serve")
	_, err = out.Write(stream[off:end])
	sp.End()
	s.finishStream(w, out, "slab", "blocked", bytesIn, err, start)
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

// slabDecodeCharge is the decode-only admission charge for a slab range
// (the calibrated 24 B/cell of slabCharge without the buffered-body
// base).
func (s *Server) slabDecodeCharge(ix *blocked.Index, lo, hi int) int64 {
	rowCells := int64(1)
	for _, d := range ix.Dims[1:] {
		rowCells = satMul(rowCells, int64(d))
	}
	rows := satMul(int64(hi-lo+1), int64(ix.SlabRows))
	if rows > int64(ix.Dims[0]) {
		rows = int64(ix.Dims[0])
	}
	c := satMul(satMul(rows, rowCells), 24)
	if c < mmapReadCharge {
		c = mmapReadCharge
	}
	return c
}

// rejectSlabErr maps slab decode errors to their status (416 for a
// well-formed range beyond the container, 400 otherwise).
func (s *Server) rejectSlabErr(w http.ResponseWriter, err error, start time.Time) {
	status := http.StatusBadRequest
	if errors.Is(err, blocked.ErrSlabRange) {
		status = http.StatusRequestedRangeNotSatisfiable
	}
	s.reject(w, "slab", "blocked", status, err, start)
}

// writeSlabRaw streams a decoded slab range as raw samples.
func (s *Server) writeSlabRaw(w http.ResponseWriter, arr *grid.Array, dt grid.DType, lo, hi int, bytesIn int64, start time.Time) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(api.HeaderCodec, "blocked")
	w.Header().Set(api.HeaderDtype, dt.String())
	w.Header().Set(api.HeaderDims, codec.FormatDims(arr.Dims))
	w.Header().Set(api.HeaderSlabs, codec.FormatSlabSpec(lo, hi))
	out := &respWriter{ResponseWriter: w}
	err := arr.WriteRaw(out, dt)
	s.finishStream(w, out, "slab", "blocked", bytesIn, err, start)
}

// handleContainer is the peer-fill/admin surface of the store:
//
//	GET  /v1/container/{digest}  the stored container bytes, or 404
//	HEAD /v1/container/{digest}  204 if stored, 404 otherwise
//	PUT  /v1/container/{digest}  store the body under digest (digest-verified)
//
// Routers use it to migrate entries between backends when ring affinity
// moves, so a slab read on a freshly-assigned owner can be answered
// from a peer's disk instead of recomputing. HEAD is the replicator's
// existence probe: a GET answers 304 on If-None-Match whether or not
// the entry is stored (the digest names the bytes), so only HEAD tells
// a copier whether the target actually holds them.
func (s *Server) handleContainer(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	digest := strings.TrimPrefix(r.URL.Path, api.PathContainerPrefix)
	if !store.ValidDigest(digest) {
		s.reject(w, "container", "", http.StatusBadRequest,
			fmt.Errorf("malformed digest %q", digest), start)
		return
	}
	if s.cfg.Store == nil {
		s.reject(w, "container", "", http.StatusNotFound,
			fmt.Errorf("no store configured (-store-dir)"), start)
		return
	}
	switch r.Method {
	case http.MethodHead:
		if !s.cfg.Store.Contains(digest) {
			w.Header().Set(api.HeaderStore, "miss")
			w.WriteHeader(http.StatusNotFound)
			s.met.record("container", "", http.StatusNotFound, 0, 0, time.Since(start))
			return
		}
		w.Header().Set(api.HeaderStore, "hit")
		w.Header().Set("Etag", etagFor(digest))
		w.WriteHeader(http.StatusNoContent)
		s.met.record("container", "", http.StatusNoContent, 0, 0, time.Since(start))
	case http.MethodGet:
		etag := etagFor(digest)
		if api.IfNoneMatchHas(r.Header.Get("If-None-Match"), etag) {
			s.notModified(w, "container", "", etag, start)
			return
		}
		sp := obs.FromContext(r.Context()).StartSpan("store_read")
		ent, err := s.cfg.Store.Get(digest)
		sp.End()
		if err != nil {
			w.Header().Set(api.HeaderStore, "miss")
			s.reject(w, "container", "", http.StatusNotFound, fmt.Errorf("container %s not in store", digest), start)
			return
		}
		defer ent.Release()
		gr, status, err := s.admit(r.Context(), obs.FromContext(r.Context()), mmapReadCharge, 1)
		if err != nil {
			s.reject(w, "container", "", status, err, start)
			return
		}
		defer gr.release()
		w.Header().Set(api.HeaderStore, "hit")
		w.Header().Set("Etag", etag)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", fmt.Sprintf("%d", ent.Size()))
		out := &respWriter{ResponseWriter: w}
		_, err = out.Write(ent.Bytes())
		s.finishStream(w, out, "container", "", 0, err, start)
	case http.MethodPut:
		declared := declaredLength(r)
		if s.cfg.MaxRequestBytes > 0 && declared > s.cfg.MaxRequestBytes {
			s.reject(w, "container", "", http.StatusRequestEntityTooLarge, errTooLarge, start)
			return
		}
		gr, status, err := s.admit(r.Context(), obs.FromContext(r.Context()), storePutCharge, 1)
		if err != nil {
			s.reject(w, "container", "", status, err, start)
			return
		}
		defer gr.release()
		if s.cfg.Store.Contains(digest) {
			w.WriteHeader(http.StatusNoContent)
			s.met.record("container", "", http.StatusNoContent, 0, 0, time.Since(start))
			return
		}
		put, err := s.cfg.Store.NewPut()
		if err != nil {
			s.reject(w, "container", "", http.StatusInternalServerError, err, start)
			return
		}
		body := newMeteredReader(r.Body, gr, declared, storePutCharge, s.cfg.MaxRequestBytes, 1, true)
		cbuf := scratch.Bytes(streamCopyBuffer)
		sp := obs.FromContext(r.Context()).StartSpan("store_write")
		n, err := io.CopyBuffer(put, body, cbuf)
		sp.End()
		scratch.PutBytes(cbuf)
		if err != nil {
			put.Abort()
			s.reject(w, "container", "", streamErrStatus(err), err, start)
			return
		}
		if _, err := put.Commit(digest); err != nil {
			// The body hashed to something else: the upload is corrupt
			// (or mislabeled) and was not stored.
			s.reject(w, "container", "", http.StatusBadRequest, err, start)
			return
		}
		w.WriteHeader(http.StatusNoContent)
		s.met.record("container", "", http.StatusNoContent, n, 0, time.Since(start))
	default:
		w.Header().Set("Allow", "GET, HEAD, PUT")
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET, HEAD, or PUT"))
	}
}

// handleContainers lists the store's inventory:
//
//	GET /v1/containers  {"digests": ["...", ...]}
//
// It is the anti-entropy sweep's read side: the router lists every
// backend, computes which digests are under-replicated for the current
// ring, and copies them where they belong. The listing is a snapshot —
// entries may be evicted between the list and a later read — so
// consumers must treat a subsequent 404 as normal, not as corruption.
func (s *Server) handleContainers(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.cfg.Store == nil {
		s.reject(w, "containers", "", http.StatusNotFound,
			fmt.Errorf("no store configured (-store-dir)"), start)
		return
	}
	resp, err := json.Marshal(struct {
		Digests []string `json:"digests"`
	}{Digests: s.cfg.Store.Digests()})
	if err != nil {
		s.reject(w, "containers", "", http.StatusInternalServerError, err, start)
		return
	}
	resp = append(resp, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(resp)
	s.met.record("containers", "", http.StatusOK, 0, int64(len(resp)), time.Since(start))
}

// bodyDigest hashes a buffered container body — the same digest the
// router computed for ring placement and the client can compute
// locally, so the three tiers agree on the name for these bytes.
func bodyDigest(stream []byte) string {
	sum := sha256.Sum256(stream)
	return hex.EncodeToString(sum[:])
}
