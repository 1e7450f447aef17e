package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strconv"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("stream-digest-%d", i)
	}
	return keys
}

func TestRingDistribution(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1", "d:1"}
	r := NewRing(nodes...)
	counts := map[string]int{}
	keys := ringKeys(20000)
	for _, k := range keys {
		counts[r.Lookup(k)]++
	}
	for _, n := range nodes {
		frac := float64(counts[n]) / float64(len(keys))
		// Perfect balance is 0.25; rendezvous hashing should hold every
		// node within a factor of ~1.5 of fair share.
		if frac < 0.15 || frac > 0.40 {
			t.Errorf("node %s owns %.1f%% of keys, want ~25%%", n, 100*frac)
		}
	}
}

// TestRingStability is the consistent-hashing contract: removing one of
// N nodes relocates only that node's keys (~1/N of the space), and
// adding it back restores the exact original assignment.
func TestRingStability(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1", "d:1", "e:1"}
	r := NewRing(nodes...)
	without := NewRing("a:1", "b:1", "d:1", "e:1")
	keys := ringKeys(10000)
	before := map[string]string{}
	for _, k := range keys {
		before[k] = r.Lookup(k)
	}

	moved := 0
	for _, k := range keys {
		owner := without.Lookup(k)
		if owner == "c:1" {
			t.Fatalf("key %s still maps to the removed node", k)
		}
		if before[k] == "c:1" {
			moved++ // had to move
			continue
		}
		if owner != before[k] {
			t.Fatalf("key %s moved %s -> %s though its node stayed", k, before[k], owner)
		}
	}
	frac := float64(moved) / float64(len(keys))
	if frac < 0.10 || frac > 0.35 {
		t.Errorf("removal moved %.1f%% of keys, want ~20%% (1/N)", 100*frac)
	}

	readded := NewRing("a:1", "b:1", "d:1", "e:1", "c:1")
	for _, k := range keys {
		if got := readded.Lookup(k); got != before[k] {
			t.Fatalf("after re-adding, key %s maps to %s, want %s", k, got, before[k])
		}
	}
}

func TestRingSequence(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1"}
	r := NewRing(nodes...)
	seq := r.Sequence("some-key", 10)
	if len(seq) != len(nodes) {
		t.Fatalf("sequence has %d nodes, want %d", len(seq), len(nodes))
	}
	seen := map[string]bool{}
	for _, n := range seq {
		if seen[n] {
			t.Fatalf("sequence repeats node %s", n)
		}
		seen[n] = true
	}
	if seq[0] != r.Lookup("some-key") {
		t.Errorf("sequence head %s differs from Lookup %s", seq[0], r.Lookup("some-key"))
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing()
	if got := r.Lookup("k"); got != "" {
		t.Errorf("empty ring lookup = %q, want empty", got)
	}
	if seq := r.Sequence("k", 3); len(seq) != 0 {
		t.Errorf("empty ring sequence = %v, want none", seq)
	}
}

// TestRingPlacementPinned pins where keys land: owners are state shared
// by every router and the backends' stores, so a change to hash64 would
// move keys on upgrade. These are the counts README's "Hashing and
// identity" quotes.
func TestRingPlacementPinned(t *testing.T) {
	r := NewRing("127.0.0.1:7181", "127.0.0.1:7182", "127.0.0.1:7183")
	counts := map[string]int{}
	for i := 0; i < 20000; i++ {
		sum := sha256.Sum256([]byte(strconv.Itoa(i)))
		counts[r.Lookup(hex.EncodeToString(sum[:]))]++
	}
	want := map[string]int{"127.0.0.1:7181": 6709, "127.0.0.1:7182": 6708, "127.0.0.1:7183": 6583}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("owners of 20,000 digests = %v, want %v", counts, want)
	}
}
