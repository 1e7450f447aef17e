package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/api"
	"repro/internal/metrics"
)

// Failure kinds. Every attempted operation ends as exactly one of ok,
// wrong (the program answered with bytes that fail a check), refused (a
// 429/503 shed), errored (any other error) or missing (an acknowledged
// result the fleet cannot produce afterwards). Nothing is retried: a
// failed operation stays failed.
const (
	kindWrong   = "wrong"
	kindRefused = "refused"
	kindError   = "error"
	kindMissing = "missing"
)

// checker counts outcomes and keeps the first few failure details for
// the run record.
type checker struct {
	mu       sync.Mutex
	ok       int64
	failures map[string]int64
	details  []string
}

func newChecker() *checker { return &checker{failures: map[string]int64{}} }

func (c *checker) pass() {
	c.mu.Lock()
	c.ok++
	c.mu.Unlock()
}

func (c *checker) fail(kind, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures[kind]++
	if len(c.details) < 8 {
		c.details = append(c.details, kind+": "+fmt.Sprintf(format, args...))
	}
}

// failErr files a failed call under refused or errored.
func (c *checker) failErr(op string, err error) {
	var ae *api.Error
	if errors.As(err, &ae) && ae.Temporary() {
		c.fail(kindRefused, "%s: %v", op, err)
		return
	}
	c.fail(kindError, "%s: %v", op, err)
}

// counts returns attempted, failed and wrong totals.
func (c *checker) counts() (attempted, failed, wrong int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.failures {
		failed += n
	}
	return c.ok + failed, failed, c.failures[kindWrong]
}

// sameBytes checks a remote read against the local decode of the same
// container.
func (c *checker) sameBytes(op string, got, want []byte) bool {
	if bytes.Equal(got, want) {
		c.pass()
		return true
	}
	c.fail(kindWrong, "%s: %d bytes differ from the %d-byte local decode", op, len(got), len(want))
	return false
}

// boundErr decodes little-endian float32 samples into scratch (a fresh
// slice when scratch is shorter than ref) and returns their largest
// pointwise error against ref, or +Inf when the sample counts differ. A
// caller checking in a loop passes one scratch slice, so the check adds
// no garbage for the collector to chase during the next timed operation.
func boundErr(raw []byte, ref, scratch []float64) float64 {
	if len(raw) != 4*len(ref) {
		return math.Inf(1)
	}
	if len(scratch) < len(ref) {
		scratch = make([]float64, len(ref))
	}
	got := scratch[:len(ref)]
	for i := range got {
		got[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:])))
	}
	return metrics.MaxAbsError(got, ref)
}

// withinBound checks a decode against its input: the paper's one
// promise, |x_i - x'_i| <= eb at every point.
func (c *checker) withinBound(op string, raw []byte, ref, scratch []float64, eb float64) bool {
	if e := boundErr(raw, ref, scratch); e > eb {
		c.fail(kindWrong, "%s: max |err| %g exceeds the bound %g", op, e, eb)
		return false
	}
	c.pass()
	return true
}

// selfTest proves the checker before any measurement: for each check,
// one good and one corrupted output must count exactly one failure, and
// it must be a wrong result.
func selfTest() error {
	ref := []float64{1, 2, 3, 4}
	good := make([]byte, 16)
	for i, v := range ref {
		binary.LittleEndian.PutUint32(good[4*i:], math.Float32bits(float32(v)))
	}
	bad := append([]byte(nil), good...)
	bad[5] ^= 0x40 // 2.0 becomes 2.0039: past the bound
	checks := map[string]func(c *checker, out []byte){
		"bound":   func(c *checker, out []byte) { c.withinBound("decode", out, ref, nil, 1e-3) },
		"compare": func(c *checker, out []byte) { c.sameBytes("read", out, good) },
	}
	for name, check := range checks {
		c := newChecker()
		check(c, good)
		check(c, bad)
		if attempted, failed, wrong := c.counts(); attempted != 2 || failed != 1 || wrong != 1 {
			return fmt.Errorf("checker self-test (%s): attempted %d failed %d wrong %d, want 2/1/1", name, attempted, failed, wrong)
		}
	}
	return nil
}
