package fleet

// Container placement: the write-path replica fan-out, peer fill on a
// ring-affinity miss, and the anti-entropy sweep. All three move
// containers backend to backend through the content-addressed
// /v1/container surface; the router never buffers one.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/store"
)

const (
	// replDedupTTL suppresses repeat replication kicks for the same
	// digest: every read of a popular container re-announces its ETag,
	// and one HEAD probe per replica per TTL is plenty.
	replDedupTTL = time.Minute
	// replDedupMax bounds the dedup map; beyond it, expired entries are
	// pruned (and if none expired, the map is reset — re-probing is
	// cheap, unbounded growth is not).
	replDedupMax = 4096
	// replCopyTimeout bounds one background replica copy.
	replCopyTimeout = 60 * time.Second
)

// ringSequence is the key's first n ring owners.
func (rt *Router) ringSequence(key string, n int) []string {
	ring, _ := rt.poller.view()
	return ring.Sequence(key, n)
}

// peerFill repairs a ring-affinity miss: when target's store lacks a
// container some other node holds, the router copies it over through
// the content-addressed surface. Peers that fail — unreachable, reset
// mid-transfer, or simply without the container — are skipped, never
// fatal: the caller keeps walking candidates either way.
func (rt *Router) peerFill(r *http.Request, digest, target string, cands []string) bool {
	for _, peer := range cands {
		if peer == target || r.Context().Err() != nil {
			continue
		}
		if rt.copyContainer(r.Context(), digest, peer, target) {
			rt.met.fills.Inc(target)
			return true
		}
	}
	return false
}

// copyContainer moves one container between backends through the
// content-addressed surface: GET /v1/container from src, PUT to dst,
// digest-verified on arrival. The copy streams through — the router
// never buffers the container. Any failure (src lacks it, either side
// unreachable, digest mismatch) is false. A transport error marks that
// side dead, as it does in forward (unless ctx ended, which is no fault
// of the backend's), so even an outage shorter than a poll interval
// ends in a recovery the poller sees, and the sweep that recovery kicks
// lands the copy that failed here.
func (rt *Router) copyContainer(ctx context.Context, digest, src, dst string) bool {
	greq, err := http.NewRequestWithContext(ctx, http.MethodGet,
		backendURL(src)+api.PathContainerPrefix+digest, nil)
	if err != nil {
		return false
	}
	gresp, err := rt.client.Do(greq)
	if err != nil {
		if ctx.Err() == nil {
			rt.poller.MarkDead(src)
		}
		return false
	}
	if gresp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, gresp.Body)
		gresp.Body.Close()
		return false
	}
	preq, err := http.NewRequestWithContext(ctx, http.MethodPut,
		backendURL(dst)+api.PathContainerPrefix+digest, gresp.Body)
	if err != nil {
		gresp.Body.Close()
		return false
	}
	if gresp.ContentLength >= 0 {
		preq.ContentLength = gresp.ContentLength
	}
	presp, err := rt.client.Do(preq)
	gresp.Body.Close()
	if err != nil {
		if ctx.Err() == nil {
			rt.poller.MarkDead(dst)
		}
		return false
	}
	io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	return presp.StatusCode == http.StatusNoContent
}

// containerAt probes dst for digest with a HEAD — the cheap existence
// check replication uses to skip copies a node already holds.
func (rt *Router) containerAt(ctx context.Context, dst, digest string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodHead,
		backendURL(dst)+api.PathContainerPrefix+digest, nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusNoContent
}

// recentDigests remembers which digests were kicked for replication
// within replDedupTTL.
type recentDigests struct {
	mu   sync.Mutex
	seen map[string]time.Time
}

// first records digest and reports whether it was not already kicked
// within replDedupTTL.
func (rd *recentDigests) first(digest string) bool {
	now := time.Now()
	rd.mu.Lock()
	defer rd.mu.Unlock()
	if t, ok := rd.seen[digest]; ok && now.Sub(t) < replDedupTTL {
		return false
	}
	if len(rd.seen) >= replDedupMax {
		for d, t := range rd.seen {
			if now.Sub(t) >= replDedupTTL {
				delete(rd.seen, d)
			}
		}
	}
	if rd.seen == nil || len(rd.seen) >= replDedupMax {
		rd.seen = map[string]time.Time{}
	}
	rd.seen[digest] = now
	return true
}

// noteContainer records that src holds digest and, with replication
// on, kicks an async fan-out to the digest's ring owner and R-1
// successors. Calls dedup per digest for replDedupTTL: every read of a
// popular container re-announces its ETag, and one probe round per TTL
// suffices.
func (rt *Router) noteContainer(digest, src string) {
	if rt.replication <= 1 || !rt.replSeen.first(digest) {
		return
	}
	rt.replWG.Add(1)
	go func() {
		defer rt.replWG.Done()
		ctx, cancel := context.WithTimeout(context.Background(), replCopyTimeout)
		defer cancel()
		rt.replicate(ctx, digest, src)
	}()
}

// replicate copies digest from src to every one of its R ring targets
// that lacks it, counting each landed copy as a replication write.
func (rt *Router) replicate(ctx context.Context, digest, src string) {
	for _, target := range rt.ringSequence(digest, rt.replication) {
		if target == src || ctx.Err() != nil {
			continue
		}
		if rt.containerAt(ctx, target, digest) {
			continue
		}
		if rt.copyContainer(ctx, digest, src, target) {
			rt.met.replWrites.Inc(target)
		}
	}
}

// kickSweep requests an anti-entropy sweep without blocking; a kick
// while one is pending coalesces into it.
func (rt *Router) kickSweep() {
	select {
	case rt.sweepKick <- struct{}{}:
	default:
	}
}

// sweepLoop runs anti-entropy sweeps on kicks (a membership change, a
// backend turning healthy) and, when an interval is configured, on a
// timer.
func (rt *Router) sweepLoop() {
	defer close(rt.sweepDone)
	var tick <-chan time.Time
	if rt.aeInterval > 0 {
		t := time.NewTicker(rt.aeInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-rt.sweepStop:
			return
		case <-rt.sweepKick:
		case <-tick:
		}
		rt.SweepOnce(context.Background())
	}
}

// SweepOnce runs one anti-entropy pass: it lists every tracked
// backend's container inventory — including leaving nodes, whose drain
// grace exists exactly so their data can be pulled before they vanish —
// and copies each under-replicated digest to the ring targets that lack
// it. Safe to call directly (tests, debugging); the sweep loop calls it
// on every kick.
func (rt *Router) SweepOnce(ctx context.Context) {
	holders := map[string][]string{}
	for _, src := range rt.poller.Backends() {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			backendURL(src)+api.PathContainers, nil)
		if err != nil {
			continue
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusOK {
			eachListed(resp.Body, func(d string) { holders[d] = append(holders[d], src) })
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	for digest, srcs := range holders {
		if ctx.Err() != nil {
			return
		}
		has := make(map[string]bool, len(srcs))
		for _, s := range srcs {
			has[s] = true
		}
		for _, target := range rt.ringSequence(digest, rt.replication) {
			if has[target] {
				continue
			}
			for _, src := range srcs {
				if rt.copyContainer(ctx, digest, src, target) {
					rt.met.replRepairs.Inc(target)
					break
				}
			}
		}
	}
}

// eachListed reads a GET /v1/containers answer, {"digests": [...]}, one
// array element at a time, so the listing's size never caps the sweep,
// and calls fn with each entry that is a valid digest. A malformed
// document ends the walk: the entries before it still count.
func eachListed(r io.Reader, fn func(digest string)) {
	dec := json.NewDecoder(r)
	for _, want := range []json.Token{json.Delim('{'), "digests", json.Delim('[')} {
		if t, err := dec.Token(); err != nil || t != want {
			return
		}
	}
	for dec.More() {
		var d string
		if dec.Decode(&d) != nil {
			return
		}
		if store.ValidDigest(d) {
			fn(d)
		}
	}
}

// etagDigest extracts the container digest a response's ETag announces
// (header on buffered responses, trailer on streamed ones; the body is
// drained by the time callers ask). "" when absent or not a digest.
func etagDigest(resp *http.Response) string {
	etag := resp.Header.Get("Etag")
	if etag == "" {
		etag = resp.Trailer.Get("Etag")
	}
	d := strings.Trim(etag, `"`)
	if store.ValidDigest(d) {
		return d
	}
	return ""
}
