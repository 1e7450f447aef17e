package client

// Content-addressed reads against szd's container store. Once a
// compress (or any body-carrying read) has seeded the daemon's store,
// the container's digest — returned as the response ETag — replaces
// the body entirely: slab and decompress requests travel as bodyless
// GETs, repeat reads ride If-None-Match/304 off a small client-side
// cache, and slab ranges can come back as compressed extents decoded
// locally instead of on the backend.

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/api"
	"repro/internal/codec"
	"repro/internal/core"
)

// CodecsInfo is the /v1/codecs response: the registered codec names
// plus the daemon's preferred interleaved stream count for blocked v3
// containers (what `sz c -streams auto` should adopt).
type CodecsInfo struct {
	Codecs           []string `json:"codecs"`
	PreferredStreams int      `json:"preferred_streams"`
}

// CodecsInfo fetches the daemon's codec listing and tuning hints.
func (c *Client) CodecsInfo(ctx context.Context) (*CodecsInfo, error) {
	resp, err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.url(api.PathCodecs, nil), nil)
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	info := &CodecsInfo{}
	if err := json.NewDecoder(resp.Body).Decode(info); err != nil {
		return nil, fmt.Errorf("client: decoding codec list: %w", err)
	}
	c.reportTiming("codecs", resp)
	return info, nil
}

// Digester is implemented by the writer NewWriter returns: after a
// successful Close, Digest reports the served container's content
// address (the response ETag), or "" when the daemon has no store.
type Digester interface {
	Digest() string
}

// etagOf extracts the bare digest from a response's ETag, wherever the
// daemon put it: a trailer on streaming responses, a header on buffered
// ones (and on anything that crossed a caching router).
func etagOf(resp *http.Response) string {
	et := resp.Trailer.Get("Etag")
	if et == "" {
		et = resp.Header.Get("Etag")
	}
	return strings.Trim(et, `"`)
}

// DecompressAt opens a digest-referenced decompress: no body travels;
// the daemon serves the reconstruction off its stored container.
// forceCodec and p mirror NewReader.
func (c *Client) DecompressAt(ctx context.Context, digest, forceCodec string, p codec.Params) (io.ReadCloser, error) {
	q := p.Values()
	if forceCodec != "" {
		q.Set("codec", forceCodec)
	}
	q.Set(api.QueryDigest, digest)
	resp, err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.url(api.PathDecompress, q), nil)
	})
	if err != nil {
		return nil, err
	}
	return c.wrapTiming("decompress", resp), nil
}

// ReadSlabAt reads slabs lo..hi of a stored container by digest. The
// client keeps a bounded cache of previous slab responses keyed by
// (digest, range) and revalidates with If-None-Match, so a repeat read
// of an unevicted entry costs a header round-trip (304) and no body
// bytes.
func (c *Client) ReadSlabAt(ctx context.Context, digest string, lo, hi int) (io.ReadCloser, error) {
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("client: bad slab range %d-%d", lo, hi)
	}
	spec := codec.FormatSlabSpec(lo, hi)
	key := digest + "|" + spec
	cached := c.slabCache.get(key)
	q := url.Values{api.QueryDigest: {digest}}
	resp, err := c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(api.PathSlabPrefix+spec, q), nil)
		if err != nil {
			return nil, err
		}
		if cached != nil {
			req.Header.Set("If-None-Match", cached.etag)
		}
		return req, nil
	})
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusNotModified && cached != nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		c.reportTiming("slab", resp)
		return io.NopCloser(bytes.NewReader(cached.body)), nil
	}
	etag := etagOf(resp)
	if etag == "" {
		return c.wrapTiming("slab", resp), nil
	}
	// Buffer cacheable-sized bodies so the next read can revalidate.
	body, err := io.ReadAll(io.LimitReader(resp.Body, slabCacheEntryLimit+1))
	if err != nil {
		resp.Body.Close()
		return nil, err
	}
	if int64(len(body)) > slabCacheEntryLimit {
		return struct {
			io.Reader
			io.Closer
		}{io.MultiReader(bytes.NewReader(body), resp.Body), resp.Body}, nil
	}
	resp.Body.Close()
	c.reportTiming("slab", resp)
	c.slabCache.put(key, `"`+etag+`"`, body)
	return io.NopCloser(bytes.NewReader(body)), nil
}

// SlabExtent is a compressed slab range fetched by digest: Data holds
// the container's own bytes for that range — one self-delimiting core
// stream per slab, split by Lengths. Raw marks the daemon's fallback
// for containers whose extents are not self-contained (shared
// codebook): Data is already the decoded samples.
type SlabExtent struct {
	Data    []byte
	Lengths []int
	Raw     bool
}

// ReadSlabExtent fetches slabs lo..hi of a stored container as
// compressed bytes (Accept: application/x-sz-slab): the backend does
// no decode work and the wire carries compressed sizes. Decode the
// result locally with Decode.
func (c *Client) ReadSlabExtent(ctx context.Context, digest string, lo, hi int) (*SlabExtent, error) {
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("client: bad slab range %d-%d", lo, hi)
	}
	q := url.Values{api.QueryDigest: {digest}}
	resp, err := c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			c.url(api.PathSlabPrefix+codec.FormatSlabSpec(lo, hi), q), nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Accept", api.MediaTypeSlabExtent)
		return req, nil
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	c.reportTiming("slab", resp)
	if resp.Header.Get("Content-Type") != api.MediaTypeSlabExtent {
		return &SlabExtent{Data: data, Raw: true}, nil
	}
	var lengths []int
	total := 0
	for _, f := range strings.Split(resp.Header.Get(api.HeaderSlabLengths), ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("client: bad %s %q", api.HeaderSlabLengths, resp.Header.Get(api.HeaderSlabLengths))
		}
		lengths = append(lengths, n)
		total += n
	}
	if total != len(data) {
		return nil, fmt.Errorf("client: slab lengths cover %d bytes, extent is %d", total, len(data))
	}
	return &SlabExtent{Data: data, Lengths: lengths}, nil
}

// Decode reconstructs the extent's raw little-endian samples locally,
// walking the per-slab core streams. Every slab must continue the first
// one: the same element type and the same dims after the slowest, or the
// extent is corrupt. For a Raw extent the daemon already decoded; Data
// passes through.
func (e *SlabExtent) Decode() ([]byte, error) {
	if e.Raw {
		return e.Data, nil
	}
	var out bytes.Buffer
	var first *core.Header
	off := 0
	for i, n := range e.Lengths {
		arr, h, err := core.Decompress(e.Data[off : off+n])
		if err != nil {
			return nil, fmt.Errorf("client: decoding slab stream %d: %w", i, err)
		}
		if first == nil {
			first = h
		} else if h.DType != first.DType || !slices.Equal(h.Dims[1:], first.Dims[1:]) {
			return nil, fmt.Errorf("client: slab stream %d (%v %v) does not continue stream 0 (%v %v): %w",
				i, h.DType, h.Dims, first.DType, first.Dims, core.ErrCorrupt)
		}
		if err := arr.WriteRaw(&out, h.DType); err != nil {
			return nil, err
		}
		off += n
	}
	return out.Bytes(), nil
}

const (
	// slabCacheBytes bounds the client's revalidation cache.
	slabCacheBytes = 64 << 20
	// slabCacheEntryLimit caps one cached slab response; bigger bodies
	// stream through uncached.
	slabCacheEntryLimit = int64(8 << 20)
)

// slabCacheEntry pairs a response body with the ETag that revalidates
// it.
type slabCacheEntry struct {
	key  string
	etag string
	body []byte
}

// slabCache is a small LRU of slab responses keyed by (digest, range).
type slabCache struct {
	mu    sync.Mutex
	bytes int64
	ll    *list.List
	items map[string]*list.Element
}

func newSlabCache() *slabCache {
	return &slabCache{ll: list.New(), items: map[string]*list.Element{}}
}

func (sc *slabCache) get(key string) *slabCacheEntry {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	el, ok := sc.items[key]
	if !ok {
		return nil
	}
	sc.ll.MoveToFront(el)
	return el.Value.(*slabCacheEntry)
}

func (sc *slabCache) put(key, etag string, body []byte) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if el, ok := sc.items[key]; ok {
		e := el.Value.(*slabCacheEntry)
		sc.bytes += int64(len(body)) - int64(len(e.body))
		e.etag, e.body = etag, body
		sc.ll.MoveToFront(el)
	} else {
		sc.items[key] = sc.ll.PushFront(&slabCacheEntry{key: key, etag: etag, body: body})
		sc.bytes += int64(len(body))
	}
	for sc.bytes > slabCacheBytes {
		el := sc.ll.Back()
		if el == nil {
			break
		}
		e := el.Value.(*slabCacheEntry)
		sc.ll.Remove(el)
		delete(sc.items, e.key)
		sc.bytes -= int64(len(e.body))
	}
}
