//go:build !unix

package store

import (
	"fmt"
	"io"
	"os"
)

// mapEntry reads the whole entry file into heap on platforms without a
// usable mmap. The store still works; only the zero-copy win is lost,
// and the copy lives only until the last Release drops it.
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
	buf := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, buf); err != nil {
		return err
	}
	e.data = buf
	return nil
}

func unmapEntry(e *entry) {
	e.data = nil
	e.mapped = false
}
