package api

import (
	"net/http"
	"testing"
)

// FuzzResolveIdentity throws arbitrary API keys and priorities at the
// resolver both tiers run on every request: it must not panic, and an
// accepted tenant is non-empty, at most MaxAPIKeyLen bytes, and made
// only of valid key bytes, so it is safe as a metric label and a
// governor key.
func FuzzResolveIdentity(f *testing.F) {
	f.Add("acme.k1", "batch")
	f.Add("", "")
	f.Add(".hidden", "interactive")
	f.Add("acme key\t", "urgent")
	f.Fuzz(func(t *testing.T, key, priority string) {
		h := http.Header{}
		h.Set(HeaderAPIKey, key)
		h.Set(HeaderPriority, priority)
		id, err := ResolveIdentity(h)
		if err != nil {
			return
		}
		if id.Tenant == "" || len(id.Tenant) > MaxAPIKeyLen {
			t.Fatalf("key %q resolved to tenant %q", key, id.Tenant)
		}
		for i := 0; i < len(id.Tenant); i++ {
			if !validKeyByte(id.Tenant[i]) {
				t.Fatalf("key %q resolved to tenant %q with invalid byte %q", key, id.Tenant, id.Tenant[i])
			}
		}
	})
}
