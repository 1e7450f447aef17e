package fleet

// Per-node response caching.
//
// The router hashes replayable bodies and pins each digest to one ring
// node, so identical requests always land here with identical answers:
// decompress, slab, slabs, and inspect responses are pure functions of
// (input bytes, endpoint, parameters, Accept). That makes the router
// itself the natural cache seat — a hit answers without touching any
// backend, and the consistent-hash affinity means each router-fronted
// node set only ever caches its own key range. The cache holds complete
// buffered 200s only, each at most a quarter of the byte budget.

import (
	"container/list"
	"net/http"
	"sync"

	"repro/internal/api"
)

// cacheEntry is a complete buffered backend response: a cached 200, or
// a rejection kept for relaying when every candidate fails.
type cacheEntry struct {
	status  int
	header  http.Header
	body    []byte
	backend string
}

func (e *cacheEntry) size() int64 { return int64(len(e.body)) + 256 /* headers, bookkeeping */ }

// writeTo replays the entry, tagged with the backend that produced it.
func (e *cacheEntry) writeTo(w http.ResponseWriter) {
	copyHeaders(w.Header(), e.header)
	w.Header().Set(api.HeaderBackend, e.backend)
	w.WriteHeader(e.status)
	w.Write(e.body)
}

// respCache is a bounded LRU over cacheEntry keyed by the request
// identity (endpoint, path, parameters, Accept, body digest).
type respCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	hits, misses, evictions int64
}

type cacheItem struct {
	key   string
	entry *cacheEntry
}

func newRespCache(maxBytes int64) *respCache {
	return &respCache{maxBytes: maxBytes, ll: list.New(), items: map[string]*list.Element{}}
}

// get returns the cached entry for key, promoting it, or nil.
func (c *respCache) get(key string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).entry
}

// put stores an entry, evicting from the LRU tail until the byte budget
// holds. Entries larger than the whole budget are rejected.
func (c *respCache) put(key string, e *cacheEntry) {
	if e.size() > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		// Identical identity implies identical response; keep the one
		// already resident and just promote it.
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheItem{key: key, entry: e})
	c.bytes += e.size()
	for c.bytes > c.maxBytes {
		el := c.ll.Back()
		if el == nil {
			break
		}
		it := el.Value.(*cacheItem)
		c.ll.Remove(el)
		delete(c.items, it.key)
		c.bytes -= it.entry.size()
		c.evictions++
	}
}

// stats snapshots the counters for /metrics.
func (c *respCache) stats() (bytes, entries, hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, int64(c.ll.Len()), c.hits, c.misses, c.evictions
}
