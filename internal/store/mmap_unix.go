//go:build unix

package store

import (
	"fmt"
	"io"
	"os"
	"syscall"
)

// mapEntry maps the whole entry file read-only for the pin Get is about
// to take. The mapping is the serving path's only copy of the payload:
// responses slice straight into it, so a store hit pins page cache
// rather than heap, and only until the last Release unmaps it.
func mapEntry(e *entry) error {
	f, err := os.Open(e.path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if fi.Size() != HeaderLen+e.size {
		return fmt.Errorf("%w: size changed under us", ErrCorrupt)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(fi.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		// Some filesystems cannot mmap; fall back to reading into heap
		// so the store still works, just without the zero-copy win.
		if _, serr := f.Seek(0, io.SeekStart); serr != nil {
			return serr
		}
		buf := make([]byte, fi.Size())
		if _, rerr := io.ReadFull(f, buf); rerr != nil {
			return rerr
		}
		e.data = buf
		return nil
	}
	e.data = data
	e.mapped = true
	return nil
}

func unmapEntry(e *entry) {
	if e.mapped && e.data != nil {
		syscall.Munmap(e.data)
	}
	e.data = nil
	e.mapped = false
}
