// Package membership drives the fleet's backend set from a watched
// config file, so topology changes (add a node, drain a node) happen
// by editing a file and HUPping the router instead of restarting it.
//
// The file format is deliberately trivial: one backend per line
// (host:port or a full URL), '#' comments, blank lines ignored;
// commas also separate entries so the same string accepted by
// `-backends` pastes into a file unchanged. The watcher polls the
// file's mtime+size (fsnotify without the dependency) and calls
// OnChange with the new set only when the parsed set actually
// differs — touching the file without editing it is a no-op. Reload
// forces a re-read regardless of mtime, which is what the SIGHUP
// handler calls.
//
// The package only detects and parses; lifecycle (joining until a new
// node's first healthy answer gives it ring ownership, drain before a
// removed one stops serving) belongs to the router, which owns the
// health state.
package membership

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// ParseList parses a backend list: one entry per line, '#' starts a
// comment, commas also separate entries. Duplicates collapse to the
// first occurrence; order is preserved.
func ParseList(data string) []string {
	var out []string
	seen := map[string]bool{}
	for _, line := range strings.Split(data, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for _, f := range strings.Split(line, ",") {
			if f = strings.TrimSpace(f); f != "" && !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		}
	}
	return out
}

// Config configures a Watcher.
type Config struct {
	// Path is the membership file. Empty means static membership: the
	// watcher serves Seed forever and Start is a no-op.
	Path string
	// Seed is the boot-time backend list, used when Path is empty or
	// unreadable at construction.
	Seed []string
	// Interval is the mtime poll cadence (0 = 2s, <0 = polling off;
	// Reload still works).
	Interval time.Duration
	// OnChange is called with the new backend set after each detected
	// change, from the watcher goroutine (or the Reload caller). Never
	// called concurrently with itself.
	OnChange func(nodes []string)
}

// Watcher tracks the live backend set.
type Watcher struct {
	cfg Config

	// reloadMu serializes whole reloads (poll tick vs SIGHUP), which
	// is what keeps the OnChange no-self-concurrency promise.
	reloadMu sync.Mutex

	mu    sync.Mutex
	nodes []string
	mtime time.Time
	size  int64

	stopc chan struct{}
	done  chan struct{}
}

// NewWatcher builds a watcher. When cfg.Path exists and is readable
// its contents win over cfg.Seed as the initial set; an unreadable
// path falls back to the seed (the file may simply not exist yet) —
// but a path that exists and fails to parse to at least one backend
// while the seed is also empty is an error, because a router with no
// backends can serve nothing.
func NewWatcher(cfg Config) (*Watcher, error) {
	if cfg.Interval == 0 {
		cfg.Interval = 2 * time.Second
	}
	w := &Watcher{cfg: cfg, nodes: append([]string(nil), cfg.Seed...)}
	if cfg.Path != "" {
		if data, err := os.ReadFile(cfg.Path); err == nil {
			w.nodes = ParseList(string(data))
			if fi, err := os.Stat(cfg.Path); err == nil {
				w.mtime, w.size = fi.ModTime(), fi.Size()
			}
		}
	}
	if len(w.nodes) == 0 {
		return nil, fmt.Errorf("membership: no backends (empty seed and no usable %q)", cfg.Path)
	}
	return w, nil
}

// Nodes returns the current backend set (a copy).
func (w *Watcher) Nodes() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.nodes...)
}

// Start begins mtime polling. No-op without a path or with polling
// disabled. Stop ends it.
func (w *Watcher) Start() {
	if w.cfg.Path == "" || w.cfg.Interval < 0 || w.stopc != nil {
		return
	}
	w.stopc = make(chan struct{})
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		tick := time.NewTicker(w.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-w.stopc:
				return
			case <-tick.C:
				w.poll()
			}
		}
	}()
}

// Stop halts polling (idempotent; safe if Start was never called).
func (w *Watcher) Stop() {
	if w.stopc == nil {
		return
	}
	close(w.stopc)
	<-w.done
	w.stopc = nil
}

// poll re-reads the file only when its mtime or size moved.
func (w *Watcher) poll() {
	fi, err := os.Stat(w.cfg.Path)
	if err != nil {
		return // missing file: keep the current set
	}
	w.mu.Lock()
	unchanged := fi.ModTime().Equal(w.mtime) && fi.Size() == w.size
	w.mu.Unlock()
	if unchanged {
		return
	}
	w.Reload()
}

// Reload force-re-reads the membership file and fires OnChange if the
// set changed. It is the SIGHUP entry point: mtime is bypassed, so a
// HUP always takes effect even on filesystems with coarse timestamps.
// Returns an error when the file is missing or parses to zero
// backends (the current set is kept either way).
func (w *Watcher) Reload() error {
	if w.cfg.Path == "" {
		return nil
	}
	w.reloadMu.Lock()
	defer w.reloadMu.Unlock()
	data, err := os.ReadFile(w.cfg.Path)
	if err != nil {
		return fmt.Errorf("membership: %w", err)
	}
	nodes := ParseList(string(data))
	if len(nodes) == 0 {
		return fmt.Errorf("membership: %s parses to zero backends; keeping current set", w.cfg.Path)
	}
	w.mu.Lock()
	if fi, err := os.Stat(w.cfg.Path); err == nil {
		w.mtime, w.size = fi.ModTime(), fi.Size()
	}
	changed := !equal(w.nodes, nodes)
	if changed {
		w.nodes = nodes
	}
	cb := w.cfg.OnChange
	w.mu.Unlock()
	if changed && cb != nil {
		cb(nodes)
	}
	return nil
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	// Order-insensitive: reordering lines is not a topology change.
	in := make(map[string]bool, len(a))
	for _, s := range a {
		in[s] = true
	}
	for _, s := range b {
		if !in[s] {
			return false
		}
	}
	return true
}
