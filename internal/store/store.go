// Package store is szd's bounded on-disk content-addressed container
// store: finished compressed streams persisted under their payload
// SHA-256 so repeat readers become a read-mostly path. One entry is one
// file named by the digest, written crash-safely (tmp file in the same
// directory, fsync, rename) and served back as a zero-copy mmap that
// lives exactly as long as a handle pins the entry: Get maps an entry
// no reader holds, and the last Release unmaps it. A stored container
// costs the daemon page cache, not heap, and only the reads in flight
// hold mappings, so the daemon's resident set follows its concurrent
// reads rather than every container it has ever served.
//
// # Entry layout
//
//	magic   "SZS1"            4 bytes
//	digest  SHA-256           32 bytes (of the payload)
//	length  uint64le          8 bytes (payload bytes)
//	crc     uint32le          4 bytes (IEEE, over the 44 bytes above)
//	payload                   length bytes
//
// The header is what the startup recovery scan trusts: a file whose
// name, header digest, and size disagree is removed as a torn write.
// Payload integrity is established once at Put time (the putter hashes
// what it writes and refuses to commit under the wrong digest), so Get
// never re-hashes.
//
// Eviction is LRU by access time against a byte budget, and never takes
// the most recent entry, so a Put always holds what it just committed.
// Hits touch the file's timestamps, so the recency order survives a
// restart. An entry pinned by in-flight readers is evicted like any
// other: its file goes at once, its mapping at the last Release.
package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	magic = "SZS1"
	// HeaderLen is the fixed per-entry header length.
	HeaderLen = 4 + sha256.Size + 8 + 4
)

// ErrNotFound is returned by Get for a digest the store does not hold.
var ErrNotFound = errors.New("store: not found")

// ErrCorrupt marks an entry header that does not parse.
var ErrCorrupt = errors.New("store: corrupt entry")

// ErrDigestMismatch is returned by Putter.Commit when the payload
// hashed to something other than the digest the caller expected.
var ErrDigestMismatch = errors.New("store: payload digest mismatch")

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Bytes     int64 // payload bytes currently stored
	Entries   int64
	Hits      int64
	Misses    int64
	Puts      int64
	Evictions int64
}

// Store is the bounded content-addressed store. All methods are safe
// for concurrent use.
type Store struct {
	dir      string
	maxBytes int64 // <= 0 means unbounded

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	bytes int64

	hits, misses, puts, evictions int64
}

// entry is one stored container. refs, data and mapped are guarded by
// the store mutex; the bytes data holds are read-only.
type entry struct {
	digest string
	path   string
	size   int64 // payload bytes
	refs   int
	data   []byte // whole file while refs > 0, nil otherwise
	mapped bool   // data came from mmap (vs heap fallback)
}

// Entry is a pinned handle on a stored payload. Bytes stays valid until
// Release; callers must Release exactly once.
type Entry struct {
	s *Store
	e *entry
}

// Bytes returns the payload as a read-only view of the mapped file.
func (h *Entry) Bytes() []byte { return h.e.data[HeaderLen : HeaderLen+int(h.e.size)] }

// Size returns the payload length.
func (h *Entry) Size() int64 { return h.e.size }

// Digest returns the payload's hex SHA-256.
func (h *Entry) Digest() string { return h.e.digest }

// Release unpins the entry. The last release drops its mapping (or
// heap copy), so Bytes must not be read after Release.
func (h *Entry) Release() {
	s, e := h.s, h.e
	if s == nil {
		return
	}
	h.s, h.e = nil, nil
	s.mu.Lock()
	e.refs--
	if e.refs == 0 {
		unmapEntry(e)
	}
	s.mu.Unlock()
}

// ValidDigest reports whether s is a well-formed entry name: 64
// lowercase hex characters.
func ValidDigest(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ParseEntryHeader validates an entry header prefix and returns the
// payload digest and length. It is the recovery scan's trust anchor:
// anything that fails here is a torn or foreign file, not an entry.
func ParseEntryHeader(b []byte) (digest [sha256.Size]byte, length int64, err error) {
	if len(b) < HeaderLen {
		return digest, 0, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if string(b[:4]) != magic {
		return digest, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if crc32.ChecksumIEEE(b[:HeaderLen-4]) != binary.LittleEndian.Uint32(b[HeaderLen-4:HeaderLen]) {
		return digest, 0, fmt.Errorf("%w: header CRC mismatch", ErrCorrupt)
	}
	copy(digest[:], b[4:4+sha256.Size])
	n := binary.LittleEndian.Uint64(b[4+sha256.Size : HeaderLen-4])
	if n > 1<<62 {
		return digest, 0, fmt.Errorf("%w: absurd payload length", ErrCorrupt)
	}
	return digest, int64(n), nil
}

func encodeEntryHeader(digest [sha256.Size]byte, length int64) []byte {
	b := make([]byte, HeaderLen)
	copy(b, magic)
	copy(b[4:], digest[:])
	binary.LittleEndian.PutUint64(b[4+sha256.Size:], uint64(length))
	binary.LittleEndian.PutUint32(b[HeaderLen-4:], crc32.ChecksumIEEE(b[:HeaderLen-4]))
	return b
}

// Open loads (or creates) the store rooted at dir with the given byte
// budget (<= 0 means unbounded). Leftover temp files and entries whose
// header, name, or size disagree — the residue of a crash mid-write —
// are removed; surviving entries are ordered for eviction by their
// recorded access times.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    map[string]*list.Element{},
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	type found struct {
		e     *entry
		atime time.Time
	}
	var scan []found
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		path := filepath.Join(dir, name)
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(path) // a write the crash interrupted before rename
			continue
		}
		e, atime, err := loadEntry(path, name)
		if err != nil {
			os.Remove(path)
			continue
		}
		scan = append(scan, found{e, atime})
	}
	// Oldest first, so pushing to the front leaves the most recently
	// used entry at the head and eviction starts with the stalest.
	sort.Slice(scan, func(i, j int) bool { return scan[i].atime.Before(scan[j].atime) })
	for _, f := range scan {
		s.items[f.e.digest] = s.ll.PushFront(f.e)
		s.bytes += f.e.size
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return s, nil
}

// loadEntry validates one directory entry during the recovery scan.
func loadEntry(path, name string) (*entry, time.Time, error) {
	if !ValidDigest(name) {
		return nil, time.Time{}, fmt.Errorf("%w: bad name", ErrCorrupt)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, time.Time{}, err
	}
	defer f.Close()
	// Stat before reading: our own header read refreshes the atime, and
	// capturing it afterwards would replace the real recency order with
	// the directory scan order.
	fi, err := f.Stat()
	if err != nil {
		return nil, time.Time{}, err
	}
	atime := atimeOf(fi)
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, time.Time{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	digest, length, err := ParseEntryHeader(hdr[:])
	if err != nil {
		return nil, time.Time{}, err
	}
	if hex.EncodeToString(digest[:]) != name {
		return nil, time.Time{}, fmt.Errorf("%w: name does not match header digest", ErrCorrupt)
	}
	if fi.Size() != HeaderLen+length {
		return nil, time.Time{}, fmt.Errorf("%w: size %d, header claims %d", ErrCorrupt, fi.Size(), HeaderLen+length)
	}
	return &entry{digest: name, path: path, size: length}, atime, nil
}

// Get pins and returns the entry for digest, mapping it unless another
// reader already holds it. The handle must be Released. A hit refreshes
// the entry's recency in memory and on disk (so LRU order survives
// restarts).
func (s *Store) Get(digest string) (*Entry, error) {
	if !ValidDigest(digest) {
		return nil, fmt.Errorf("store: bad digest %q", digest)
	}
	s.mu.Lock()
	el, ok := s.items[digest]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	e := el.Value.(*entry)
	if e.refs == 0 {
		if err := mapEntry(e); err != nil {
			// The file vanished or cannot map: drop the entry so the
			// index stays truthful.
			s.removeLocked(el, e)
			s.misses++
			s.mu.Unlock()
			return nil, fmt.Errorf("store: mapping %s: %w", digest, err)
		}
	}
	s.hits++
	s.ll.MoveToFront(el)
	e.refs++
	s.mu.Unlock()
	now := time.Now()
	os.Chtimes(e.path, now, now) // best-effort durable recency
	return &Entry{s: s, e: e}, nil
}

// Contains reports whether digest is resident without pinning it or
// counting a hit/miss.
func (s *Store) Contains(digest string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.items[digest]
	return ok
}

// Digests returns the digests of every stored entry, sorted, without
// touching recency. It exists for anti-entropy sweeps: a repairer
// lists each node's inventory and re-replicates what is missing, so
// the listing must not perturb the LRU order the way Get does.
func (s *Store) Digests() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.items))
	for d := range s.items {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Put stores payload under its own SHA-256 and returns the hex digest.
func (s *Store) Put(payload []byte) (string, error) {
	p, err := s.NewPut()
	if err != nil {
		return "", err
	}
	if _, err := p.Write(payload); err != nil {
		p.Abort()
		return "", err
	}
	return p.Commit("")
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Bytes:     s.bytes,
		Entries:   int64(s.ll.Len()),
		Hits:      s.hits,
		Misses:    s.misses,
		Puts:      s.puts,
		Evictions: s.evictions,
	}
}

// removeLocked drops an entry from the index and disk. A pinned entry
// keeps its mapping (or heap copy) for its readers until the last
// Release drops it.
func (s *Store) removeLocked(el *list.Element, e *entry) {
	s.ll.Remove(el)
	delete(s.items, e.digest)
	s.bytes -= e.size
	os.Remove(e.path)
}

// evictLocked trims least-recently-used entries until the byte budget
// holds, stopping before the list head: the entry a Put has just
// committed stays, even when it alone is over the budget.
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes && s.ll.Len() > 1 {
		el := s.ll.Back()
		s.removeLocked(el, el.Value.(*entry))
		s.evictions++
	}
}

// Putter streams one payload into the store. Writes go to a temp file
// in the store directory while a running SHA-256 accumulates; Commit
// fsyncs, stamps the header, and atomically renames the file into
// place. Either Commit or Abort must be called.
type Putter struct {
	s    *Store
	f    *os.File
	h    hash.Hash
	n    int64
	done bool
}

// NewPut opens a streaming put.
func (s *Store) NewPut() (*Putter, error) {
	f, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// Reserve the header slot; it is rewritten with real contents at
	// Commit, and a crash before then leaves a .tmp the recovery scan
	// removes.
	if _, err := f.Write(make([]byte, HeaderLen)); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Putter{s: s, f: f, h: sha256.New()}, nil
}

func (p *Putter) Write(b []byte) (int, error) {
	if p.done {
		return 0, errors.New("store: write after Commit/Abort")
	}
	n, err := p.f.Write(b)
	p.h.Write(b[:n])
	p.n += int64(n)
	return n, err
}

// Abort discards the put and its temp file. Safe after Commit (no-op).
func (p *Putter) Abort() {
	if p.done {
		return
	}
	p.done = true
	p.f.Close()
	os.Remove(p.f.Name())
}

// Commit finalizes the entry and returns its hex digest. A non-empty
// expect pins the digest the payload must hash to (ErrDigestMismatch
// aborts the put otherwise) — callers receiving a digest over the wire
// use it so a corrupted body can never be filed under a clean name.
// Committing a digest that is already resident is a cheap no-op.
func (p *Putter) Commit(expect string) (string, error) {
	if p.done {
		return "", errors.New("store: commit after Commit/Abort")
	}
	p.done = true
	var sum [sha256.Size]byte
	p.h.Sum(sum[:0])
	digest := hex.EncodeToString(sum[:])
	if expect != "" && expect != digest {
		p.f.Close()
		os.Remove(p.f.Name())
		return "", fmt.Errorf("%w: payload is %s, expected %s", ErrDigestMismatch, digest, expect)
	}
	commit := func() error {
		if _, err := p.f.WriteAt(encodeEntryHeader(sum, p.n), 0); err != nil {
			return err
		}
		if err := p.f.Sync(); err != nil {
			return err
		}
		if err := p.f.Close(); err != nil {
			return err
		}
		path := filepath.Join(p.s.dir, digest)
		if err := os.Rename(p.f.Name(), path); err != nil {
			return err
		}
		syncDir(p.s.dir)
		return nil
	}

	s := p.s
	s.mu.Lock()
	if el, ok := s.items[digest]; ok {
		// Already stored: identical content by construction. Refresh
		// recency and drop the duplicate bytes.
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		p.f.Close()
		os.Remove(p.f.Name())
		return digest, nil
	}
	s.mu.Unlock()

	if err := commit(); err != nil {
		p.f.Close()
		os.Remove(p.f.Name())
		return "", fmt.Errorf("store: %w", err)
	}

	e := &entry{digest: digest, path: filepath.Join(s.dir, digest), size: p.n}
	s.mu.Lock()
	if el, ok := s.items[digest]; ok {
		// A concurrent put of the same content won the rename race; both
		// files were identical, so just adopt the resident entry.
		s.ll.MoveToFront(el)
	} else {
		s.items[digest] = s.ll.PushFront(e)
		s.bytes += e.size
		s.puts++
		s.evictLocked()
	}
	s.mu.Unlock()
	return digest, nil
}

// Size reports the put's payload bytes written so far.
func (p *Putter) Size() int64 { return p.n }

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss. Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
