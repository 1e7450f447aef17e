package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Error codes carried in the envelope's "code" field. They are the
// stable, machine-readable half of the error contract: messages may
// change, codes may not.
const (
	CodeOverloaded      = "overloaded"        // 429: admission budget exhausted
	CodeTenantOverShare = "tenant_over_share" // 429: tenant exceeded its weighted-fair share
	CodeDraining        = "draining"          // 503: daemon is shutting down
	CodeNoBackend       = "no_backend"        // 503: router found no routable backend
	CodeTooLarge        = "too_large"         // 413: request exceeds the per-request byte cap
	CodeBadRequest      = "bad_request"       // 400: malformed parameters or body
	CodeBadTenant       = "bad_tenant"        // 400: malformed or oversized API key / priority
	CodeNotFound        = "not_found"         // 404: unknown path or missing digest
	CodeNoReplica       = "no_replica"        // 404: digest found on no ring node (owner, replicas, full walk)
	CodeTLSRequired     = "tls_required"      // 400: plaintext request hit a TLS listener
	CodeInternal        = "internal"          // 5xx: unexpected server-side failure
)

// Error is the one JSON error envelope every tier emits and the
// client decodes. Status is the HTTP status it traveled under (not
// serialized; the transport already carries it).
type Error struct {
	Status       int    `json:"-"`
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	RequestID    string `json:"request_id,omitempty"`
}

func (e *Error) Error() string {
	if e.Code == "" {
		return fmt.Sprintf("server returned %d: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("server returned %d (%s): %s", e.Status, e.Code, e.Message)
}

// Temporary reports whether backing off and retrying can succeed.
func (e *Error) Temporary() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// RetryAfter is the server's backoff hint, zero when absent.
func (e *Error) RetryAfter() time.Duration {
	return time.Duration(e.RetryAfterMS) * time.Millisecond
}

// defaultCode maps a status to an envelope code for callers that
// pass a bare error with no code of its own.
func defaultCode(status int) string {
	switch status {
	case http.StatusTooManyRequests:
		return CodeOverloaded
	case http.StatusServiceUnavailable:
		return CodeDraining
	case http.StatusRequestEntityTooLarge:
		return CodeTooLarge
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	}
	if status >= 500 {
		return CodeInternal
	}
	return CodeBadRequest
}

// Wrap lifts any error into an *Error at the given status. An err
// that already is an *Error keeps its code and hints; otherwise the
// code is derived from the status.
func Wrap(status int, err error) *Error {
	var ae *Error
	if errors.As(err, &ae) {
		cp := *ae
		cp.Status = status
		return &cp
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	return &Error{Status: status, Code: defaultCode(status), Message: msg}
}

// WriteError emits the envelope on w. It sets Retry-After (seconds,
// ceiling) alongside retry_after_ms so plain HTTP clients and
// proxies see the standard hint too, and fills a missing request_id
// from the response's HeaderRequestID, which both tiers set on every
// traced request. The envelope is best-effort: if the handler already
// started streaming a body, the caller must not call this.
func WriteError(w http.ResponseWriter, e *Error) {
	h := w.Header()
	if e.RequestID == "" {
		e.RequestID = h.Get(HeaderRequestID)
	}
	h.Set("Content-Type", "application/json")
	h.Del("Etag")
	if e.RetryAfterMS > 0 {
		secs := (e.RetryAfterMS + 999) / 1000
		h.Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(e.Status)
	json.NewEncoder(w).Encode(e)
}

// ReadError decodes a non-2xx response body into an *Error. It is
// tolerant of history: the current envelope, the legacy
// {"error": "..."} shape, and bare text all decode, so a new client
// against an old daemon still gets a useful message. The body is
// consumed but not closed.
func ReadError(resp *http.Response) *Error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 8<<10))
	e := &Error{Status: resp.StatusCode}
	var probe struct {
		Code         string `json:"code"`
		Message      string `json:"message"`
		RetryAfterMS int64  `json:"retry_after_ms"`
		RequestID    string `json:"request_id"`
		Legacy       string `json:"error"`
	}
	if err := json.Unmarshal(body, &probe); err == nil && (probe.Code != "" || probe.Message != "" || probe.Legacy != "") {
		e.Code = probe.Code
		e.Message = probe.Message
		e.RetryAfterMS = probe.RetryAfterMS
		e.RequestID = probe.RequestID
		if e.Message == "" {
			e.Message = probe.Legacy
		}
	} else {
		e.Message = strings.TrimSpace(string(body))
	}
	if e.Message == "" {
		e.Message = http.StatusText(resp.StatusCode)
	}
	if e.Code == "" {
		e.Code = defaultCode(resp.StatusCode)
	}
	// A Go TLS listener answers plaintext HTTP with this fixed 400 body.
	// Surface it as its own code so callers fail fast (no retry, clear
	// remedy: configure client TLS) instead of treating it as a generic
	// bad request.
	if resp.StatusCode == http.StatusBadRequest &&
		strings.Contains(e.Message, "HTTP request to an HTTPS server") {
		e.Code = CodeTLSRequired
	}
	if e.RetryAfterMS == 0 {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
				e.RetryAfterMS = int64(secs) * 1000
			}
		}
	}
	if e.RequestID == "" {
		e.RequestID = resp.Header.Get(HeaderRequestID)
	}
	return e
}
