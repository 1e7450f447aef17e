package api

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestTenantFromKey(t *testing.T) {
	cases := []struct {
		key    string
		tenant string
		ok     bool
	}{
		{"", DefaultTenant, true},
		{"acme", "acme", true},
		{"acme.key-1", "acme", true},
		{"acme.team.key", "acme", true},
		{"A-Z_0.9", "A-Z_0", true},
		{".leading-dot", "", false},
		{"bad key", "", false},
		{"bad\x00key", "", false},
		{"bad;key", "", false},
		{"\xc3\xa9clair", "", false},
		{strings.Repeat("k", MaxAPIKeyLen), strings.Repeat("k", MaxAPIKeyLen), true},
		{strings.Repeat("k", MaxAPIKeyLen+1), "", false},
	}
	for _, c := range cases {
		tenant, err := TenantFromKey(c.key)
		if c.ok && (err != nil || tenant != c.tenant) {
			t.Errorf("TenantFromKey(%q) = %q, %v; want %q", c.key, tenant, err, c.tenant)
		}
		if !c.ok && err == nil {
			t.Errorf("TenantFromKey(%q) accepted; want error", c.key)
		}
	}
}

func TestParsePriority(t *testing.T) {
	for s, want := range map[string]Priority{
		"": Interactive, "interactive": Interactive, "Batch": Batch, " batch ": Batch,
	} {
		got, err := ParsePriority(s)
		if err != nil || got != want {
			t.Errorf("ParsePriority(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParsePriority("urgent"); err == nil {
		t.Error("ParsePriority(urgent) accepted; want error")
	}
}

func TestIfNoneMatchHas(t *testing.T) {
	const etag = `"ab12"`
	cases := []struct {
		inm  string
		want bool
	}{
		{"", false},
		{"*", true},
		{`"ab12"`, true},
		{`W/"ab12"`, true},
		{`"ff00", "ab12"`, true},
		{`"ff00",W/"ab12"`, true},
		{` * `, true},
		{`"ff00"`, false},
		{`"ff00", W/"ff01"`, false},
		{`ab12`, false},
		{`"AB12"`, false},
	}
	for _, c := range cases {
		if got := IfNoneMatchHas(c.inm, etag); got != c.want {
			t.Errorf("IfNoneMatchHas(%q, %q) = %v, want %v", c.inm, etag, got, c.want)
		}
	}
}

// TestErrorRoundTrip writes an envelope and reads it back through the
// client-side decoder, checking both JSON fields and the standard
// Retry-After header.
func TestErrorRoundTrip(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, &Error{
		Status: http.StatusTooManyRequests, Code: CodeTenantOverShare,
		Message: "tenant acme over share", RetryAfterMS: 1500, RequestID: "abc123",
	})
	resp := rec.Result()
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want 2 (1500ms rounded up)", got)
	}
	e := ReadError(resp)
	if e.Status != http.StatusTooManyRequests || e.Code != CodeTenantOverShare ||
		e.Message != "tenant acme over share" || e.RetryAfterMS != 1500 || e.RequestID != "abc123" {
		t.Errorf("round-tripped envelope mismatch: %+v", e)
	}
	if !e.Temporary() {
		t.Error("429 envelope should be Temporary")
	}
	if e.RetryAfter().Milliseconds() != 1500 {
		t.Errorf("RetryAfter = %v, want 1.5s", e.RetryAfter())
	}
}

// TestReadErrorLegacy decodes the pre-envelope {"error": ...} shape
// and bare text bodies.
func TestReadErrorLegacy(t *testing.T) {
	legacy := &http.Response{
		StatusCode: http.StatusBadRequest,
		Header:     http.Header{},
		Body:       io.NopCloser(strings.NewReader(`{"error":"unknown codec"}`)),
	}
	e := ReadError(legacy)
	if e.Message != "unknown codec" || e.Code != CodeBadRequest {
		t.Errorf("legacy decode = %+v", e)
	}

	plain := &http.Response{
		StatusCode: http.StatusServiceUnavailable,
		Header:     http.Header{"Retry-After": {"3"}},
		Body:       io.NopCloser(strings.NewReader("shutting down\n")),
	}
	e = ReadError(plain)
	if e.Message != "shutting down" || e.Code != CodeDraining || e.RetryAfterMS != 3000 {
		t.Errorf("plain decode = %+v", e)
	}

	empty := &http.Response{
		StatusCode: http.StatusNotFound,
		Header:     http.Header{},
		Body:       io.NopCloser(strings.NewReader("")),
	}
	e = ReadError(empty)
	if e.Message != "Not Found" || e.Code != CodeNotFound {
		t.Errorf("empty decode = %+v", e)
	}
}

// TestErrorEnvelopeShape pins the serialized field names: they are
// wire contract, documented in API.md.
func TestErrorEnvelopeShape(t *testing.T) {
	b, err := json.Marshal(&Error{Status: 429, Code: CodeOverloaded, Message: "m", RetryAfterMS: 7, RequestID: "r"})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"code"`, `"message"`, `"retry_after_ms"`, `"request_id"`} {
		if !strings.Contains(string(b), field) {
			t.Errorf("envelope %s missing field %s", b, field)
		}
	}
	if strings.Contains(string(b), `"Status"`) || strings.Contains(string(b), `"status"`) {
		t.Errorf("envelope %s must not serialize Status", b)
	}
}

func TestWrapKeepsEnvelope(t *testing.T) {
	inner := &Error{Status: 429, Code: CodeTenantOverShare, Message: "m", RetryAfterMS: 250}
	w := Wrap(http.StatusTooManyRequests, inner)
	if w.Code != CodeTenantOverShare || w.RetryAfterMS != 250 {
		t.Errorf("Wrap lost envelope fields: %+v", w)
	}
	plain := Wrap(http.StatusRequestEntityTooLarge, io.ErrUnexpectedEOF)
	if plain.Code != CodeTooLarge || plain.Message != io.ErrUnexpectedEOF.Error() {
		t.Errorf("Wrap(plain) = %+v", plain)
	}
}
