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
	// plumbing, not the payload, which pins page cache, not heap, and
	// only while the read holds the entry (its last Release unmaps it).
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
func notModified(w http.ResponseWriter, etag string) {
	w.Header().Set("Etag", etag)
	w.WriteHeader(http.StatusNotModified)
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
func (s *Server) openStoreEntry(w http.ResponseWriter, r *http.Request) (*store.Entry, bool) {
	digest, err := requestDigest(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return nil, true
	}
	if digest == "" {
		return nil, false // body-carrying request
	}
	etag := etagFor(digest)
	if api.IfNoneMatchHas(r.Header.Get("If-None-Match"), etag) {
		notModified(w, etag)
		return nil, true
	}
	if s.cfg.Store == nil {
		s.writeError(w, http.StatusNotFound,
			fmt.Errorf("digest-referenced reads need a store (-store-dir)"))
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
		s.writeError(w, status, fmt.Errorf("container %s not in store", digest))
		return nil, true
	}
	w.Header().Set(api.HeaderStore, "hit")
	w.Header().Set("Etag", etag)
	return ent, true
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
	digest := strings.TrimPrefix(r.URL.Path, api.PathContainerPrefix)
	if !store.ValidDigest(digest) {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("malformed digest %q", digest))
		return
	}
	if s.cfg.Store == nil {
		s.writeError(w, http.StatusNotFound,
			fmt.Errorf("no store configured (-store-dir)"))
		return
	}
	switch r.Method {
	case http.MethodHead:
		if !s.cfg.Store.Contains(digest) {
			w.Header().Set(api.HeaderStore, "miss")
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.Header().Set(api.HeaderStore, "hit")
		w.Header().Set("Etag", etagFor(digest))
		w.WriteHeader(http.StatusNoContent)
	case http.MethodGet:
		etag := etagFor(digest)
		if api.IfNoneMatchHas(r.Header.Get("If-None-Match"), etag) {
			notModified(w, etag)
			return
		}
		sp := obs.FromContext(r.Context()).StartSpan("store_read")
		ent, err := s.cfg.Store.Get(digest)
		sp.End()
		if err != nil {
			w.Header().Set(api.HeaderStore, "miss")
			s.writeError(w, http.StatusNotFound, fmt.Errorf("container %s not in store", digest))
			return
		}
		defer ent.Release()
		gr, status, err := s.admit(r.Context(), mmapReadCharge, 1)
		if err != nil {
			s.writeError(w, status, err)
			return
		}
		defer gr.release()
		w.Header().Set(api.HeaderStore, "hit")
		w.Header().Set("Etag", etag)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", fmt.Sprintf("%d", ent.Size()))
		out := &respWriter{ResponseWriter: w}
		_, err = out.Write(ent.Bytes())
		s.finishStream(w, out, err)
	case http.MethodPut:
		declared := declaredLength(r)
		if s.cfg.MaxRequestBytes > 0 && declared > s.cfg.MaxRequestBytes {
			s.writeError(w, http.StatusRequestEntityTooLarge, errTooLarge)
			return
		}
		gr, status, err := s.admit(r.Context(), storePutCharge, 1)
		if err != nil {
			s.writeError(w, status, err)
			return
		}
		defer gr.release()
		if s.cfg.Store.Contains(digest) {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		put, err := s.cfg.Store.NewPut()
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
		body := newMeteredReader(r.Body, gr, declared, storePutCharge, s.cfg.MaxRequestBytes, 1, true)
		cbuf := scratch.Bytes(streamCopyBuffer)
		sp := obs.FromContext(r.Context()).StartSpan("store_write")
		_, err = io.CopyBuffer(put, body, cbuf)
		sp.End()
		scratch.PutBytes(cbuf)
		if err != nil {
			put.Abort()
			s.writeError(w, streamErrStatus(err), err)
			return
		}
		if _, err := put.Commit(digest); err != nil {
			// The body hashed to something else: the upload is corrupt
			// (or mislabeled) and was not stored.
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
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
	if s.cfg.Store == nil {
		s.writeError(w, http.StatusNotFound,
			fmt.Errorf("no store configured (-store-dir)"))
		return
	}
	resp, err := json.Marshal(struct {
		Digests []string `json:"digests"`
	}{Digests: s.cfg.Store.Digests()})
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp = append(resp, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(resp)
}

// bodyDigest hashes a buffered container body — the same digest the
// router computed for ring placement and the client can compute
// locally, so the three tiers agree on the name for these bytes.
func bodyDigest(stream []byte) string {
	sum := sha256.Sum256(stream)
	return hex.EncodeToString(sum[:])
}
