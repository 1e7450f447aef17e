package main

import (
	"fmt"
	"math"
	"strconv"
)

func parseFloat(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// fleetLayers turns the window's counter deltas, scraped from the
// router's and backends' /metrics, into per-layer metrics.
func fleetLayers(d counters, layers map[string]float64) {
	hits, misses := d["szrouter_cache_hits_total"], d["szrouter_cache_misses_total"]
	layers["fleet.cache_hit_ratio"] = ratio(hits, hits+misses)
	layers["fleet.cache_hits"] = hits
	layers["fleet.cache_hit_bytes"] = d["szrouter_cache_hit_bytes_total"]
	layers["fleet.cache_evictions"] = d["szrouter_cache_evictions_total"]
	layers["fleet.coalesced"] = d["szrouter_coalesced_total"]
	layers["fleet.failovers"] = d["szrouter_failovers_total"] + d["szrouter_replication_failovers_total"]
	layers["fleet.peer_fills"] = d["szrouter_peer_fills_total"]
	layers["fleet.replication_repairs"] = d["szrouter_replication_repairs_total"]
	sh, sm := d["szd_store_hits_total"], d["szd_store_misses_total"]
	layers["store.hit_ratio"] = ratio(sh, sh+sm)
	layers["store.hits"] = sh
	layers["store.misses"] = sm
	layers["store.evictions"] = d["szd_store_evictions_total"]
	layers["server.sheds"] = d["szd_qos_sheds_total"]
	layers["server.shed_ratio"] = ratio(d["szd_qos_sheds_total"], d["szd_requests_total"])
}

// fromTrace fills the per-layer metrics the trace file carries: self
// times, handler and stage durations, hop costs, and the client-side
// header counts. It returns a note when the router's cache counter and
// the X-Sz-Cache answers the clients saw disagree.
func fromTrace(bd *breakdown, tr *tracer, layers map[string]float64) []string {
	layers["unattributed_ratio"] = bd.unattributed()
	layers["fleet.self_ms"] = bd.meanSelf("fleet.router")
	layers["client.self_ms"] = bd.meanSelf("client.call")
	layers["client.extent_decode_ms"] = bd.meanDur("client.decode", "")
	layers["wire.hop_ms"] = bd.meanSelf("wire.client", "wire.backend")
	layers["wire.conn_wait_ms"] = bd.meanDur("wire.conn_wait", "")
	layers["server.compress_ms"] = bd.meanDur("server.handler", "compress")
	layers["server.slab_ms"] = bd.meanDur("server.handler", "slab")
	layers["server.decompress_ms"] = bd.meanDur("server.handler", "decompress")
	for _, st := range []string{"admission", "encode", "store_write", "store_read", "decode", "mmap_serve"} {
		layers["server."+st+"_ms"] = bd.meanStage("server.handler", "server."+st)
	}

	// Router attempts per forwarded request, and the bytes a slab read
	// moves over the client's hop.
	var attempts, forwarded int
	for _, r := range bd.inOps("fleet.router") {
		n := 0
		for _, k := range bd.kids[r.ID] {
			if k.Name == "wire.backend" {
				n++
			}
		}
		if n > 0 {
			attempts += n
			forwarded++
		}
	}
	layers["fleet.attempts_per_request"] = ratio(float64(attempts), float64(forwarded))
	var slabBytesRead float64
	var slabReads int
	for _, w := range bd.inOps("wire.client") {
		if w.Attr["endpoint"] == "slab" {
			slabBytesRead += parseFloat(w.Attr["bytes"])
			slabReads++
		}
	}
	layers["wire.bytes_per_slab_read"] = ratio(slabBytesRead, float64(slabReads))

	tr.hdrMu.Lock()
	defer tr.hdrMu.Unlock()
	seen := ratio(float64(tr.cacheHit), float64(tr.cacheable))
	layers["fleet.cache_hit_ratio_seen"] = seen
	layers["client.revalidated_ratio"] = ratio(float64(tr.revalidated), float64(tr.rawReads))
	if counted := layers["fleet.cache_hit_ratio"]; math.Abs(counted-seen) > 0.01 {
		return []string{fmt.Sprintf("router cache hit ratio %.4f by its counters, %.4f by the X-Sz-Cache headers clients saw", counted, seen)}
	}
	return nil
}
