// Package fleet routes szd traffic across a set of daemon backends:
// rendezvous hashing assigns replayable requests to nodes by stream
// identity (so repeated compressions of the same input land on the same
// daemon, which keeps per-node caches and stores hot), a health poller
// reads each backend's typed GET /v1/limits once per poll, and the
// Router proxies /v1/* with automatic failover to the next node in the
// key's order when a backend sheds (429), drains (503), or is
// unreachable.
//
// The admission budget stays authoritative on each node: the router
// never queues work it cannot place, it only moves it to the next
// candidate or relays the backend's rejection (Retry-After intact) to
// the client.
package fleet

import (
	"hash/fnv"
	"sort"
)

// Ring places keys on nodes by rendezvous (highest-random-weight)
// hashing: every node weighs every key with hash64(node, key), and the
// heaviest node owns it. A Ring is immutable, so any number of
// goroutines may share one; membership changes build a new one over the
// nodes that own keys. Adding or removing one of N nodes remaps only
// the keys that node wins or loses, ~1/N of them (asserted by
// TestRingStability and the router's churn tests).
type Ring struct {
	nodes []string
}

// NewRing builds a ring over distinct nodes.
func NewRing(nodes ...string) *Ring {
	return &Ring{nodes: append([]string(nil), nodes...)}
}

// Lookup returns the node owning key, "" on an empty ring.
func (r *Ring) Lookup(key string) string {
	seq := r.Sequence(key, 1)
	if len(seq) == 0 {
		return ""
	}
	return seq[0]
}

// Sequence returns up to n distinct nodes in descending hash64(node,
// key) order, ties broken by name — the failover order for a request
// with this identity: index 0 is the owner, each later entry is the next
// node a router should try when the previous one sheds or is
// unreachable.
func (r *Ring) Sequence(key string, n int) []string {
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	if n <= 0 {
		return nil
	}
	type weighted struct {
		w    uint64
		node string
	}
	all := make([]weighted, 0, len(r.nodes))
	for _, node := range r.nodes {
		all = append(all, weighted{hash64(node, key), node})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w > all[j].w
		}
		return all[i].node < all[j].node
	})
	out := make([]string, n)
	for i := range out {
		out[i] = all[i].node
	}
	return out
}

// hash64 is node's weight for key: FNV-1a over node, a NUL separator
// and key, with a murmur-style finalizer. Raw FNV avalanches poorly on
// short, similar strings (node addresses often differ only in their
// last digit), which skews node shares; the finalizer restores uniform
// spread.
func hash64(node, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	h.Write([]byte{0})
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
