package fleet

// The request path: replayable requests take the cache (decode side);
// then every request, a stream with a single candidate included, takes
// one attempt loop, forward, which ends in relay, the one streaming copy.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/store"
)

// relayErrBodyLimit bounds how much of a rejection body is kept for
// relaying after every candidate failed.
const relayErrBodyLimit = 4 << 10

// cacheableEndpoint marks the endpoints whose responses are pure
// functions of (input bytes, parameters) and cheap to replay: the
// decode-side family. Compression is deterministic too, but its inputs
// are raw fields — large, rarely repeated — so caching it would only
// churn the budget.
var cacheableEndpoint = map[string]bool{
	"decompress": true,
	"inspect":    true,
	"slabs":      true,
	"slab":       true,
}

// hopByHop are the connection-scoped headers a proxy must not forward.
var hopByHop = map[string]bool{
	"Connection": true, "Keep-Alive": true, "Proxy-Authenticate": true,
	"Proxy-Authorization": true, "Te": true, "Trailer": true,
	"Transfer-Encoding": true, "Upgrade": true,
	// Trace-owned headers are re-derived per hop, never copied: the
	// router sets its own request ID and renders its own Server-Timing
	// (the backend's is merged under "be-", not relayed verbatim).
	"Server-Timing": true, api.HeaderRequestID: true,
}

func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		if hopByHop[k] {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// candidates orders the key's node sequence by health: routable nodes
// that are not actively shedding first, then routable-but-shedding, then
// everything else (draining/dead — still tried last, because poller
// state may be stale and a request in hand beats a guaranteed 503).
// Sequence order is preserved within each tier so the owner stays first.
// Joining backends not yet in the ring trail the sequence: they cannot
// own keys, but when the whole ring is down a booting node is the last
// resort that may still answer. That closes the router-start race: a
// backend still booting at the first poll reads dead and joining, and
// once it listens it takes requests before the next poll puts it in the
// ring. The tiers come from the same read of the table as the sequence,
// so a concurrent probe cannot flip a state mid-sort.
func (rt *Router) candidates(key string) []string {
	ring, serving := rt.poller.view()
	seq := ring.Sequence(key, len(serving))
	var joining []string
	for b, h := range serving {
		if h.joining {
			joining = append(joining, b)
		}
	}
	sort.Strings(joining)
	seq = append(seq, joining...)
	tier := func(b string) int {
		switch h := serving[b]; {
		case !h.State.routable():
			return 2
		case h.ShedRecently:
			return 1
		}
		return 0
	}
	sort.SliceStable(seq, func(i, j int) bool { return tier(seq[i]) < tier(seq[j]) })
	return seq
}

// ringOwner is the in-ring owner for key ("" on an empty ring).
func (rt *Router) ringOwner(key string) string {
	ring, _ := rt.poller.view()
	return ring.Lookup(key)
}

// keepRejection drains (bounded) and closes a response the loop moves
// past, so its connection is reusable and it can be relayed if no
// later candidate answers.
func keepRejection(resp *http.Response, backend string) *cacheEntry {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, relayErrBodyLimit))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	h := make(http.Header, 4)
	copyHeaders(h, resp.Header)
	// The kept body is truncated to the relay limit; the backend's
	// Content-Length would then overstate what gets written and corrupt
	// the relayed response mid-stream.
	h.Del("Content-Length")
	return &cacheEntry{status: resp.StatusCode, header: h, body: body, backend: backend}
}

// retryable reports whether a backend status means "try the next node":
// the daemon shed (429) or is draining (503). Anything else — success or
// a request-shaped error like 400/413 — is the client's answer.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// requestDigestParam extracts a content-address reference from the
// request: the ?digest= query value, the X-Sz-Digest header, or (for
// the container endpoint) the path element. The backend validates the
// shape; the router only needs it as a ring key.
func requestDigestParam(r *http.Request, endpoint string) string {
	if d := r.URL.Query().Get(api.QueryDigest); d != "" {
		return d
	}
	if d := r.Header.Get(api.HeaderDigest); d != "" {
		return d
	}
	if endpoint == "container" {
		return strings.TrimPrefix(r.URL.Path, api.PathContainerPrefix)
	}
	return ""
}

// proxyBody handles the body-carrying endpoints. Bodies within the
// buffer limit are hashed and routed with failover, answered from the
// response cache when the endpoint is decode-side and the identity is
// cached. Larger bodies stream to one candidate: a container PUT to its
// digest's owner, so the write-path fan-out reaches its replicas, and
// any other stream to a rotating pick, as bodyless requests are. A
// declared Content-Length over the limit is a stream from its first
// byte, forwarded unread with that length; only a body of unknown
// length is read up to the limit to learn which kind it is.
// Digest-referenced requests (no body, content address in the query,
// header, or container path) ring-route by the digest itself, which is
// exactly where earlier body-carrying reads of the same container
// landed: the backend that stored it on disk.
func (rt *Router) proxyBody(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr := obs.FromContext(r.Context())
		stream := r.ContentLength > int64(rt.bufferLimit)
		var head []byte
		if !stream {
			rd := tr.StartSpan("read_body")
			var err error
			head, err = io.ReadAll(io.LimitReader(r.Body, int64(rt.bufferLimit)+1))
			rd.End()
			if err != nil {
				api.WriteError(w, api.Wrap(http.StatusBadRequest, fmt.Errorf("reading request body: %w", err)))
				return
			}
			stream = len(head) > rt.bufferLimit
		}
		key, fillDigest, id := requestDigestParam(r, endpoint), "", ""
		switch {
		case stream && endpoint == "container" && r.Method == http.MethodPut:
			key = strings.TrimPrefix(r.URL.Path, api.PathContainerPrefix)
		case stream:
			key = strconv.FormatUint(rt.rr.Add(1), 10)
		case key != "" && len(head) == 0:
			fillDigest = key
		default:
			// Body path: the body hash IS the container digest for the
			// decode-side endpoints, so both paths share ring affinity.
			sum := sha256.Sum256(head)
			key = hex.EncodeToString(sum[:])
		}
		if cacheableEndpoint[endpoint] && !stream {
			id = requestIdentity(endpoint, r, key)
			if rt.serveCached(w, r, id) {
				return
			}
		}
		sp := tr.StartSpan("ring")
		cands := rt.candidates(key)
		if stream {
			// The client may still be uploading while the backend's
			// response streams back; without full duplex Go's HTTP/1
			// server discards still-unread request bytes at the first
			// response flush. With it, the handler must close the body
			// itself: net/http closing a partly read full-duplex body
			// after the handler returns races its own next read and
			// panics.
			http.NewResponseController(w).EnableFullDuplex()
			defer r.Body.Close()
			cands = cands[:1]
		}
		sp.End()
		rt.forward(w, r, endpoint, cands, fillDigest, id, head, stream)
	}
}

// identityExempt marks X-Sz-* headers that do not parameterize the
// response bytes: the admission hint and the tenant identity trio.
// Including them would split the cache per caller for byte-identical
// responses (and hand a flooding tenant a cache-eviction lever).
var identityExempt = map[string]bool{
	api.HeaderContentLength: true,
	api.HeaderAPIKey:        true,
	api.HeaderPriority:      true,
	api.HeaderTenant:        true,
}

// requestIdentity builds the cache key: the method, endpoint, path,
// canonicalized query, the X-Sz-* parameter headers, Accept, and the
// body digest. Two requests with equal identity are guaranteed the same
// response bytes (the decode endpoints are pure functions of input and
// parameters; Accept picks between a slab's compressed extent and its
// decoded samples; szd refuses methods other than GET and POST on them
// with 405). identityExempt headers are skipped — they shape admission
// and accounting, never the payload.
func requestIdentity(endpoint string, r *http.Request, digest string) string {
	var b strings.Builder
	b.WriteString(r.Method)
	b.WriteByte('|')
	b.WriteString(endpoint)
	b.WriteByte('|')
	b.WriteString(r.URL.Path)
	b.WriteByte('|')
	b.WriteString(r.URL.Query().Encode()) // Encode sorts keys
	b.WriteByte('|')
	hkeys := make([]string, 0, 4)
	for k := range r.Header {
		if strings.HasPrefix(k, api.ParamHeaderPrefix) && !identityExempt[k] {
			hkeys = append(hkeys, k)
		}
	}
	sort.Strings(hkeys)
	for _, k := range hkeys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strings.Join(r.Header.Values(k), ","))
		b.WriteByte('&')
	}
	b.WriteByte('|')
	b.WriteString(strings.Join(r.Header.Values("Accept"), ","))
	b.WriteByte('|')
	b.WriteString(digest)
	return b.String()
}

// serveCached answers a decode-side request from the response cache,
// reporting whether it did. Content-addressed responses are immutable,
// so an If-None-Match covering the entry's ETag is answered 304 — no
// backend, no body bytes.
func (rt *Router) serveCached(w http.ResponseWriter, r *http.Request, id string) bool {
	sp := obs.FromContext(r.Context()).StartSpan("cache")
	e := rt.cache.get(id)
	sp.End()
	if e == nil {
		return false
	}
	w.Header().Set(api.HeaderCache, "hit")
	if etag := e.header.Get("Etag"); etag != "" && api.IfNoneMatchHas(r.Header.Get("If-None-Match"), etag) {
		w.Header().Set("Etag", etag)
		w.Header().Set(api.HeaderBackend, e.backend)
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	rt.met.hitBytes.Add(float64(len(e.body)))
	e.writeTo(w)
	return true
}

// proxyBodyless handles GET endpoints with no body (the codec listing):
// any backend can answer, so each request is keyed by a rotating
// counter, which spreads them across the ring, and fails over through
// the same health tiers as every other read.
func (rt *Router) proxyBodyless(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := strconv.FormatUint(rt.rr.Add(1), 10)
		rt.forward(w, r, endpoint, rt.candidates(key), "", "", nil, false)
	}
}

// forward is the attempt loop: candidates in order, a fresh copy of
// body per attempt. For a stream, body is the prefix read so far (none
// when the length was declared) and the rest of the client body
// follows it, so the caller passes exactly one candidate; a declared
// length goes out as the backend request's Content-Length, an unknown
// one chunked.
//
//   - A transport error or a shed status (429/503) fails over to the
//     next candidate.
//   - A digest read (fillDigest set) that misses a backend's store
//     peer-fills that backend, once per request; after a successful
//     fill the loop retries the same backend as an ordinary attempt.
//   - Any other answer is relayed, and cached under id when id is set.
//
// When no candidate answers, the last rejection is relayed (a digest
// 404 from every candidate becomes no_replica), or a 502 if none.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, endpoint string, cands []string, fillDigest, id string, body []byte, stream bool) {
	tr := obs.FromContext(r.Context())
	var last *cacheEntry
	fillTried := false
	owner := ""
	if fillDigest != "" {
		owner = rt.ringOwner(fillDigest)
	}
	for i := 0; i < len(cands); i++ {
		backend := cands[i]
		if r.Context().Err() != nil {
			return // client went away; stop burning backends
		}
		attempt := time.Now()
		var rd io.Reader = bytes.NewReader(body)
		if stream {
			rd = io.MultiReader(rd, r.Body)
		}
		req, err := rt.buildRequest(r, backend, rd)
		if err != nil {
			api.WriteError(w, api.Wrap(http.StatusInternalServerError, err))
			return
		}
		if stream {
			req.ContentLength = r.ContentLength // -1 (unknown) goes chunked
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			if r.Context().Err() != nil {
				return // the client aborted; the backend is not at fault
			}
			rt.poller.MarkDead(backend)
			rt.met.failovers.Inc(backend)
			tr.Observe("failover", time.Since(attempt))
			continue
		}
		// Request send + backend time-to-first-header. The relay span picks
		// up from here, so upstream+relay brackets the whole backend call.
		tr.Observe("upstream", time.Since(attempt))
		rt.met.forwards.Inc(backend, endpoint)
		if retryable(resp.StatusCode) {
			last = keepRejection(resp, backend)
			rt.met.failovers.Inc(backend)
			tr.Observe("failover", time.Since(attempt))
			continue
		}
		if fillDigest != "" && resp.StatusCode == http.StatusNotFound {
			// A digest-referenced read missed this backend's store: a
			// ring-affinity miss (the container was compressed or first
			// read elsewhere, or the node restarted with an empty disk).
			// Copy the container over from a peer that has it and try this
			// backend again; if no peer has it either, the remaining
			// candidates' own stores are still probed directly.
			last = keepRejection(resp, backend)
			if !fillTried {
				fillTried = true
				fill := tr.StartSpan("peer_fill")
				filled := rt.peerFill(r, fillDigest, backend, cands)
				fill.End()
				if filled {
					i--
				}
			}
			continue
		}
		if fillDigest != "" && resp.StatusCode == http.StatusOK && owner != "" && backend != owner {
			// A digest read answered by a non-owner: the replica (or ring
			// walk) covered for a dead or missing owner.
			rt.met.replFailovers.Inc(backend)
		}
		if endpoint == "container" && r.Method == http.MethodPut &&
			resp.StatusCode == http.StatusNoContent {
			// A client-uploaded container landed: fan it out to the
			// digest's R-1 successors in the background.
			if d := strings.TrimPrefix(r.URL.Path, api.PathContainerPrefix); store.ValidDigest(d) {
				rt.noteContainer(d, backend)
			}
		}
		rt.relay(w, tr, resp, backend, id)
		return
	}
	if last != nil {
		if fillDigest != "" && last.status == http.StatusNotFound {
			// Every candidate — owner, replicas, the full ring walk — came
			// up empty: the digest is not just misplaced, it is gone.
			// no_replica tells the client re-uploading is the only remedy.
			copyHeaders(w.Header(), last.header)
			w.Header().Set(api.HeaderBackend, last.backend)
			api.WriteError(w, api.Wrap(http.StatusNotFound, &api.Error{
				Code:    api.CodeNoReplica,
				Message: fmt.Sprintf("container %s on no ring node", fillDigest),
			}))
			return
		}
		// Retry-After travels in the kept headers verbatim: the backend's
		// own backoff hint must reach the client unchanged.
		last.writeTo(w)
		return
	}
	api.WriteError(w, api.Wrap(http.StatusBadGateway,
		&api.Error{Code: api.CodeNoBackend, Message: "no reachable backend"}))
}

// buildRequest clones the inbound request toward a backend. A
// bytes.Reader body sets the outbound Content-Length.
func (rt *Router) buildRequest(r *http.Request, backend string, body io.Reader) (*http.Request, error) {
	u := backendURL(backend) + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, body)
	if err != nil {
		return nil, err
	}
	copyHeaders(req.Header, r.Header)
	req.Header.Del("Host")
	if t := obs.FromContext(r.Context()); t != nil {
		// Propagate the router's trace so the backend's spans join it,
		// and its logs/ring carry the same request ID.
		req.Header.Set("Traceparent", t.Traceparent())
		req.Header.Set(api.HeaderRequestID, t.RequestID)
	}
	// The resolved tenant rides along for symmetry and logs; the backend
	// strips it and re-derives its own from the API key.
	req.Header.Set(api.HeaderTenant, obs.IdentityFrom(r.Context()).Tenant)
	return req, nil
}

// relay streams a backend response to the client verbatim (headers,
// status, body), tagged with the serving backend. Announced backend
// trailers — the ETag a streaming compress/decompress response settles
// on after its last body byte — are re-announced and forwarded as
// trailers once the copy finishes.
//
// With id set, a 200 within the entry cap is also copied aside as it
// streams; once the copy is complete it is cached under id, with the
// trailers stored as headers. If the backend body fails after the
// headers are out, the client response is aborted — the client sees a
// broken transfer, never a clean short 200 — the trace is sealed as a
// 502 before the abort, so the request counts as one, and nothing is
// cached.
func (rt *Router) relay(w http.ResponseWriter, tr *obs.Trace, resp *http.Response, backend, id string) {
	defer resp.Body.Close()
	tr.MergeServerTiming("be-", resp.Header.Get("Server-Timing"))
	copyHeaders(w.Header(), resp.Header)
	w.Header().Set(api.HeaderBackend, backend)
	tkeys := make([]string, 0, len(resp.Trailer))
	for k := range resp.Trailer {
		// Trace-owned trailers are merged into the router's own trace,
		// not relayed verbatim (see hopByHop).
		if !hopByHop[k] {
			tkeys = append(tkeys, k)
		}
	}
	if len(tkeys) > 0 {
		sort.Strings(tkeys)
		// Add, not Set: the request wrapper may declare its own
		// Server-Timing trailer beside these.
		w.Header().Add("Trailer", strings.Join(tkeys, ", "))
	}
	w.WriteHeader(resp.StatusCode)

	keep := id != "" && resp.StatusCode == http.StatusOK && resp.ContentLength <= rt.entryLimit
	var kept []byte
	if keep && resp.ContentLength > 0 {
		kept = make([]byte, 0, resp.ContentLength)
	}
	sp := tr.StartSpan("relay")
	buf := make([]byte, 256<<10)
	var upstreamErr error
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if keep && int64(len(kept)+n) > rt.entryLimit {
				keep, kept = false, nil // too large to cache: stream only
			}
			if keep {
				kept = append(kept, buf[:n]...)
			}
			if _, werr := w.Write(buf[:n]); werr != nil {
				keep = false // the client went away mid-body
				break
			}
		}
		if err != nil {
			if err != io.EOF {
				upstreamErr = err
			}
			break
		}
	}
	sp.End()
	if upstreamErr != nil {
		tr.Finish(http.StatusBadGateway)
		panic(http.ErrAbortHandler)
	}
	// resp.Trailer is populated now that the body is drained.
	tr.MergeServerTiming("be-", resp.Trailer.Get("Server-Timing"))
	for _, k := range tkeys {
		for _, v := range resp.Trailer.Values(k) {
			w.Header().Add(k, v)
		}
	}
	if resp.StatusCode == http.StatusOK {
		if d := etagDigest(resp); d != "" {
			// The backend settled (or confirmed) a container digest: make
			// sure its replicas exist.
			rt.noteContainer(d, backend)
		}
	}
	if keep {
		h := make(http.Header, len(resp.Header)+len(resp.Trailer))
		copyHeaders(h, resp.Header)
		copyHeaders(h, resp.Trailer)
		rt.cache.put(id, &cacheEntry{status: resp.StatusCode, header: h, body: kept, backend: backend})
	}
}
