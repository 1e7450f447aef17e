package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("the quick brown fox jumps over the lazy dog")
	d, err := s.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	if d != digestOf(payload) {
		t.Fatalf("digest %s, want %s", d, digestOf(payload))
	}
	h, err := s.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if !bytes.Equal(h.Bytes(), payload) {
		t.Fatalf("payload mismatch: %q", h.Bytes())
	}
	if h.Size() != int64(len(payload)) || h.Digest() != d {
		t.Fatalf("handle metadata wrong: size=%d digest=%s", h.Size(), h.Digest())
	}
	st := s.Stats()
	if st.Entries != 1 || st.Bytes != int64(len(payload)) || st.Hits != 1 || st.Puts != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDigests(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Digests(); len(got) != 0 {
		t.Fatalf("empty store listed %v", got)
	}
	var want []string
	for _, p := range []string{"alpha", "bravo", "charlie"} {
		d, err := s.Put([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, d)
	}
	sort.Strings(want)
	got := s.Digests()
	if len(got) != len(want) {
		t.Fatalf("listed %d digests, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("digest[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	// Listing must not count as access: recency order (and hit/miss
	// counters) drive eviction, and a sweep that refreshed every entry
	// would defeat the LRU.
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("listing perturbed counters: %+v", st)
	}
}

func TestGetMiss(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(digestOf([]byte("absent"))); err != ErrNotFound {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if _, err := s.Get("not-a-digest"); err == nil {
		t.Fatal("malformed digest must error")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCommitDigestMismatch(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.NewPut()
	if err != nil {
		t.Fatal(err)
	}
	p.Write([]byte("payload"))
	if _, err := p.Commit(digestOf([]byte("something else"))); err == nil {
		t.Fatal("mismatched expectation must fail")
	}
	mustBeEmptyDir(t, s.dir)
}

func TestPutDeduplicates(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("same bytes twice")
	d1, err := s.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digests differ: %s vs %s", d1, d2)
	}
	if st := s.Stats(); st.Entries != 1 || st.Bytes != int64(len(payload)) {
		t.Fatalf("duplicate put must not double-count: %+v", st)
	}
	mustHaveEntryCount(t, s.dir, 1)
}

// TestCrashMidWriteRecovery simulates dying between the temp-file write
// and the rename: recovery must remove the partial and keep the intact
// entries.
func TestCrashMidWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	good := []byte("survived the crash")
	d, err := s.Put(good)
	if err != nil {
		t.Fatal(err)
	}

	// An abandoned putter temp file (crash before Commit's rename).
	p, err := s.NewPut()
	if err != nil {
		t.Fatal(err)
	}
	p.Write([]byte("partial bytes never committed"))
	// ... process dies here: neither Commit nor Abort runs.

	// A renamed-but-torn file: valid name, garbage contents.
	torn := digestOf([]byte("torn"))
	if err := os.WriteFile(filepath.Join(dir, torn), []byte("not a header"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A truncated entry: valid header, missing payload tail.
	full := buildEntryFile(t, []byte("truncated payload body"))
	trunc := digestOf([]byte("truncated payload body"))
	if err := os.WriteFile(filepath.Join(dir, trunc), full[:len(full)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	// A foreign file that is not an entry at all.
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Entries != 1 || st.Bytes != int64(len(good)) {
		t.Fatalf("recovery kept wrong set: %+v", st)
	}
	h, err := s2.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if !bytes.Equal(h.Bytes(), good) {
		t.Fatal("surviving entry corrupted by recovery")
	}
	for _, name := range []string{torn, trunc} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("recovery left corrupt entry %s on disk", name)
		}
	}
	ents, _ := os.ReadDir(dir)
	for _, de := range ents {
		if filepath.Ext(de.Name()) == ".tmp" {
			t.Fatalf("recovery left temp file %s", de.Name())
		}
	}
}

func TestRecoveryRejectsMislabeledEntry(t *testing.T) {
	dir := t.TempDir()
	// A structurally valid entry filed under the wrong name: the header
	// digest disagrees with the filename, so trusting it would serve
	// wrong bytes for a digest. Recovery must drop it.
	body := buildEntryFile(t, []byte("content A"))
	wrongName := digestOf([]byte("content B"))
	if err := os.WriteFile(filepath.Join(dir, wrongName), body, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("mislabeled entry admitted: %+v", st)
	}
}

func TestEvictionLRU(t *testing.T) {
	dir := t.TempDir()
	payloads := [][]byte{
		[]byte("aaaaaaaaaaaaaaaaaaaa"), // 20 bytes each
		[]byte("bbbbbbbbbbbbbbbbbbbb"),
		[]byte("cccccccccccccccccccc"),
	}
	s, err := Open(dir, 45) // room for two entries, not three
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for _, p := range payloads[:2] {
		d, err := s.Put(p)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	// Touch the first so the second is the LRU victim.
	h, err := s.Get(digests[0])
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	d3, err := s.Put(payloads[2])
	if err != nil {
		t.Fatal(err)
	}
	if s.Contains(digests[1]) {
		t.Fatal("LRU victim survived eviction")
	}
	if !s.Contains(digests[0]) || !s.Contains(d3) {
		t.Fatal("wrong entry evicted")
	}
	if st := s.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestEvictionSkipsPinned: an entry being served concurrently cannot be
// unmapped out from under the reader; eviction passes over it and its
// resources go at the final Release, after which the next eviction
// takes it.
func TestEvictionSkipsPinned(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 30)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 25)
	d, err := s.Put(big)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	// A second put overflows the budget while the first entry is pinned.
	if _, err := s.Put(bytes.Repeat([]byte("y"), 25)); err != nil {
		t.Fatal(err)
	}
	// The pinned bytes must still be readable even though the entry was
	// the eviction's first choice.
	if !bytes.Equal(h.Bytes(), big) {
		t.Fatal("pinned entry unreadable after over-budget put")
	}
	h.Release()
	if n := heldEntries(s); n != 0 {
		t.Fatalf("%d entries still hold their bytes after the last Release", n)
	}
	// Unpinned, the stalest entry is the next put's victim.
	if _, err := s.Put(bytes.Repeat([]byte("z"), 25)); err != nil {
		t.Fatal(err)
	}
	if s.Contains(d) {
		t.Fatal("released entry survived the next over-budget put")
	}
	if _, err := os.Stat(filepath.Join(dir, d)); !os.IsNotExist(err) {
		t.Fatalf("evicted entry's file still on disk: %v", err)
	}
}

// TestReleaseDropsMapping: a read maps an entry only while it pins it,
// so after each of many entries is read once, none holds its bytes.
func TestReleaseDropsMapping(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	for i := 0; i < n; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 4096+i)
		d, err := s.Put(payload)
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Get(d)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(h.Bytes(), payload) {
			t.Fatalf("entry %d: payload mismatch", i)
		}
		h.Release()
	}
	if held := heldEntries(s); held != 0 {
		t.Fatalf("%d of %d entries still hold their bytes after Get and Release", held, n)
	}
	if st := s.Stats(); st.Entries != n || st.Hits != n {
		t.Fatalf("stats %+v", st)
	}
}

// TestOverlappingHandles: two readers of one entry share its mapping;
// the first Release leaves the second's bytes readable, and the last
// Release drops the mapping.
func TestOverlappingHandles(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("overlap"), 1000)
	d, err := s.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := s.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := s.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	h1.Release()
	if !bytes.Equal(h2.Bytes(), payload) {
		t.Fatal("second handle unreadable after the first Release")
	}
	if heldEntries(s) != 1 {
		t.Fatal("a pinned entry holds no bytes")
	}
	h2.Release()
	if n := heldEntries(s); n != 0 {
		t.Fatal("the last Release left the mapping in place")
	}
	// A later read maps the entry afresh.
	h3, err := s.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	defer h3.Release()
	if !bytes.Equal(h3.Bytes(), payload) {
		t.Fatal("re-mapped entry differs")
	}
}

func TestLRUOrderSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	old, err := s.Put([]byte("old entry, twenty bys"))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := s.Put([]byte("fresh entry, twenty b"))
	if err != nil {
		t.Fatal(err)
	}
	// Make the on-disk recency unambiguous: "old" accessed long ago.
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(dir, old), past, past); err != nil {
		t.Fatal(err)
	}

	// Reopen with room for only one entry: the stale one must go.
	s2, err := Open(dir, 25)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Contains(old) {
		t.Fatal("stale entry survived budgeted reopen")
	}
	if !s2.Contains(fresh) {
		t.Fatal("fresh entry evicted on reopen")
	}
}

func TestConcurrentGetPutEvict(t *testing.T) {
	s, err := Open(t.TempDir(), 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	payload := func(i, j int) []byte {
		return bytes.Repeat([]byte{byte(i), byte(j)}, 2048)
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var mine []string
			for j := 0; j < 40; j++ {
				p := payload(i, j%5)
				d, err := s.Put(p)
				if err != nil {
					t.Errorf("put: %v", err)
					return
				}
				mine = append(mine, d)
				for _, d := range mine {
					h, err := s.Get(d)
					if err != nil {
						continue // evicted under pressure: fine
					}
					if len(h.Bytes()) != 4096 {
						t.Errorf("short read: %d", len(h.Bytes()))
					}
					_ = h.Bytes()[0]
					h.Release()
				}
			}
		}(i)
	}
	wg.Wait()
	if st := s.Stats(); st.Bytes > 64<<10 {
		t.Fatalf("budget exceeded at rest: %+v", st)
	}
}

// TestConcurrentPinsOfOneEntry: readers of one entry pin and release it
// from several goroutines at once, so its mapping is made and dropped
// many times over while others still read it; every read sees the
// payload, and none holds the mapping afterwards.
func TestConcurrentPinsOfOneEntry(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("shared entry "), 512)
	d, err := s.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				h, err := s.Get(d)
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if !bytes.Equal(h.Bytes(), payload) {
					t.Error("pinned entry read wrong bytes")
				}
				h.Release()
			}
		}()
	}
	wg.Wait()
	if n := heldEntries(s); n != 0 {
		t.Fatalf("%d entries hold their bytes after every reader released", n)
	}
}

func TestEntryHeaderRoundTrip(t *testing.T) {
	var d [sha256.Size]byte
	for i := range d {
		d[i] = byte(i * 7)
	}
	hdr := encodeEntryHeader(d, 123456789)
	got, n, err := ParseEntryHeader(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if got != d || n != 123456789 {
		t.Fatalf("round trip: %x %d", got, n)
	}
	// Each corrupted byte must be caught.
	for i := 0; i < len(hdr); i++ {
		bad := append([]byte(nil), hdr...)
		bad[i] ^= 0x5a
		if _, _, err := ParseEntryHeader(bad); err == nil {
			t.Fatalf("corruption at byte %d not detected", i)
		}
	}
	if _, _, err := ParseEntryHeader(hdr[:HeaderLen-1]); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestValidDigest(t *testing.T) {
	ok := digestOf([]byte("x"))
	if !ValidDigest(ok) {
		t.Fatal("real digest rejected")
	}
	for _, bad := range []string{"", "abc", ok[:63], ok + "0",
		"../../../../etc/passwd0000000000000000000000000000000000000000000",
		"ABCDEF0000000000000000000000000000000000000000000000000000000000"} {
		if ValidDigest(bad) {
			t.Fatalf("accepted %q", bad)
		}
	}
}

// heldEntries counts the entries holding their bytes: a mapping, or the
// heap copy where mmap is unavailable.
func heldEntries(s *Store) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, el := range s.items {
		if el.Value.(*entry).data != nil {
			n++
		}
	}
	return n
}

// buildEntryFile assembles a well-formed entry file image for payload.
func buildEntryFile(t *testing.T, payload []byte) []byte {
	t.Helper()
	sum := sha256.Sum256(payload)
	return append(encodeEntryHeader(sum, int64(len(payload))), payload...)
}

func mustBeEmptyDir(t *testing.T, dir string) {
	t.Helper()
	mustHaveEntryCount(t, dir, 0)
}

func mustHaveEntryCount(t *testing.T, dir string, n int) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != n {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("dir has %d entries, want %d: %v", len(ents), n, names)
	}
}

func BenchmarkGet(b *testing.B) {
	s, err := Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte("0123456789abcdef"), 1<<16) // 1 MiB
	d, err := s.Put(payload)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := s.Get(d)
		if err != nil {
			b.Fatal(err)
		}
		if len(h.Bytes()) != len(payload) {
			b.Fatal("short")
		}
		h.Release()
	}
}
