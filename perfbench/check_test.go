package main

import (
	"errors"
	"net/http"
	"testing"

	"repro/internal/api"
)

func TestCheckerSelfTest(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerClassifiesFailures(t *testing.T) {
	c := newChecker()
	c.failErr("read", &api.Error{Status: http.StatusTooManyRequests})
	c.failErr("read", errors.New("connection reset"))
	c.fail(kindMissing, "gone")
	c.pass()
	attempted, failed, wrong := c.counts()
	if attempted != 4 || failed != 3 || wrong != 0 {
		t.Fatalf("attempted %d failed %d wrong %d, want 4/3/0", attempted, failed, wrong)
	}
	if c.failures[kindRefused] != 1 || c.failures[kindError] != 1 || c.failures[kindMissing] != 1 {
		t.Fatalf("failures by kind %v", c.failures)
	}
}
