// Package api is the single source of truth for szd's wire surface:
// every endpoint path, X-Sz-* header, and query key the daemon, the
// router, the client, and the CLI exchange lives here as a typed
// constant, together with the tenant identity rules and the JSON
// error envelope all tiers emit and decode. The package is a leaf —
// stdlib only — so every other layer can import it without cycles. A
// drift test (drift_test.go) greps the tree for raw "X-Sz- literals
// outside this package, so new headers cannot sneak in as strings.
package api

import (
	"fmt"
	"net/http"
	"strings"
)

// Endpoint paths. Prefix constants end in "/" and are registered as
// subtree matches; the rest are exact.
const (
	PathCompress        = "/v1/compress"
	PathDecompress      = "/v1/decompress"
	PathCodecs          = "/v1/codecs"
	PathInspect         = "/v1/inspect"
	PathSlabs           = "/v1/slabs"
	PathSlabPrefix      = "/v1/slab/"
	PathContainerPrefix = "/v1/container/"
	PathContainers      = "/v1/containers"
	PathLimits          = "/v1/limits"
	PathHealthz         = "/healthz"
	PathMetrics         = "/metrics"
	PathDebugTraces     = "/debug/traces"
	PathDebugQOS        = "/debug/qos"
)

// Wire headers. ParamHeaderPrefix is the namespace every codec query
// key can ride under (X-Sz-Codec, X-Sz-Abs, ...) when a caller prefers
// headers over the query string; the named constants below are the
// headers with fixed, non-parameter meaning.
const (
	ParamHeaderPrefix = "X-Sz-"

	HeaderCodec         = "X-Sz-Codec"
	HeaderDims          = "X-Sz-Dims"
	HeaderDtype         = "X-Sz-Dtype"
	HeaderSlabs         = "X-Sz-Slabs"
	HeaderSlabLengths   = "X-Sz-Slab-Lengths"
	HeaderDigest        = "X-Sz-Digest"
	HeaderStore         = "X-Sz-Store"
	HeaderCache         = "X-Sz-Cache"
	HeaderBackend       = "X-Sz-Backend"
	HeaderRequestID     = "X-Sz-Request-Id"
	HeaderContentLength = "X-Sz-Content-Length"

	// HeaderAPIKey carries the caller's tenant credential. The tenant
	// name is the key's prefix up to the first '.' (or the whole key);
	// absent means DefaultTenant.
	HeaderAPIKey = "X-Sz-Api-Key"
	// HeaderPriority selects the admission class: "interactive"
	// (default) or "batch".
	HeaderPriority = "X-Sz-Priority"
	// HeaderTenant is the resolved tenant name a tier attaches for the
	// next hop. It is derived, never trusted: szd and szrouter both
	// strip inbound values and re-derive from HeaderAPIKey, so a
	// client cannot spoof another tenant's share by setting it.
	HeaderTenant = "X-Sz-Tenant"
)

// Query keys with fixed meaning outside codec.Params.
const (
	QueryDigest = "digest"
	QueryLimit  = "limit"
	QueryTrace  = "trace_id"
)

// MediaTypeSlabExtent is the Accept/Content-Type for compressed slab
// extents served without a backend decode.
const MediaTypeSlabExtent = "application/x-sz-slab"

// DefaultTenant is the identity of requests that carry no API key.
const DefaultTenant = "default"

// MaxAPIKeyLen bounds HeaderAPIKey; longer keys are rejected with
// CodeBadTenant before any admission work.
const MaxAPIKeyLen = 128

// Priority is a request's admission class.
type Priority int

const (
	// Interactive requests may use the full admission budget.
	Interactive Priority = iota
	// Batch requests are admitted only while the daemon has headroom;
	// under pressure they shed first.
	Batch
)

func (p Priority) String() string {
	if p == Batch {
		return "batch"
	}
	return "interactive"
}

// ParsePriority maps a HeaderPriority value to a Priority. Empty means
// Interactive; anything else unrecognized is an error.
func ParsePriority(s string) (Priority, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "interactive":
		return Interactive, nil
	case "batch":
		return Batch, nil
	}
	return Interactive, fmt.Errorf("unknown priority %q (want interactive or batch)", s)
}

// validKeyByte reports whether c may appear in an API key: the
// unreserved URL set, so keys survive logs, headers, and shells.
func validKeyByte(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	case c == '.' || c == '_' || c == '-':
		return true
	}
	return false
}

// TenantFromKey validates an API key and resolves its tenant name.
// The empty key is the default tenant. The tenant is the key's prefix
// up to the first '.', so "acme.k1" and "acme.k2" share one bucket
// while remaining distinct credentials.
func TenantFromKey(key string) (string, error) {
	if key == "" {
		return DefaultTenant, nil
	}
	if len(key) > MaxAPIKeyLen {
		return "", fmt.Errorf("api key exceeds %d bytes", MaxAPIKeyLen)
	}
	for i := 0; i < len(key); i++ {
		if !validKeyByte(key[i]) {
			return "", fmt.Errorf("api key contains invalid byte %q", key[i])
		}
	}
	tenant := key
	if i := strings.IndexByte(key, '.'); i > 0 {
		tenant = key[:i]
	} else if i == 0 {
		return "", fmt.Errorf("api key has empty tenant prefix")
	}
	return tenant, nil
}

// Identity is a request's resolved admission identity.
type Identity struct {
	Tenant   string
	Priority Priority
}

// ResolveIdentity resolves the tenant and priority a request's
// HeaderAPIKey and HeaderPriority name. A malformed value is a 400
// CodeBadTenant *Error, which both tiers answer before any other work,
// so oversized or hostile keys cost nothing.
func ResolveIdentity(h http.Header) (Identity, error) {
	tenant, err := TenantFromKey(h.Get(HeaderAPIKey))
	if err != nil {
		return Identity{}, badTenant(HeaderAPIKey, err)
	}
	pri, err := ParsePriority(h.Get(HeaderPriority))
	if err != nil {
		return Identity{}, badTenant(HeaderPriority, err)
	}
	return Identity{Tenant: tenant, Priority: pri}, nil
}

func badTenant(header string, err error) *Error {
	return &Error{Status: http.StatusBadRequest, Code: CodeBadTenant,
		Message: "invalid " + header + ": " + err.Error()}
}

// IfNoneMatchHas reports whether the If-None-Match field value inm
// covers etag: "*", the tag itself, or its weak form W/"...", anywhere
// in a comma-separated list. Content-addressed responses are immutable,
// so every tier answers a match with 304 — the client already holds
// these exact bytes.
func IfNoneMatchHas(inm, etag string) bool {
	if inm == "" {
		return false
	}
	for _, part := range strings.Split(inm, ",") {
		part = strings.TrimSpace(part)
		if part == "*" || part == etag || strings.TrimPrefix(part, "W/") == etag {
			return true
		}
	}
	return false
}
