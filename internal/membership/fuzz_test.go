package membership

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseList throws arbitrary file contents at the backend-list
// parser the router runs on every SIGHUP and mtime poll: it must not
// panic; every entry is non-empty, trimmed, and free of the separators
// (',', '#', newline); no entry repeats; and the list written back one
// entry per line parses to itself.
func FuzzParseList(f *testing.F) {
	f.Add("a:1\nb:2\n")
	f.Add("a:1,b:2, c:3")
	f.Add("# fleet\na:1 # owner\n\n  b:2  \n")
	f.Add("a:1\na:1\nb:2,a:1")
	f.Add("https://10.0.0.1:7071/\r\n\t,,#\n x ")
	f.Fuzz(func(t *testing.T, data string) {
		out := ParseList(data)
		seen := map[string]bool{}
		for _, e := range out {
			if e == "" || strings.TrimSpace(e) != e || strings.ContainsAny(e, ",#\n") {
				t.Fatalf("ParseList(%q) produced entry %q", data, e)
			}
			if seen[e] {
				t.Fatalf("ParseList(%q) repeats %q", data, e)
			}
			seen[e] = true
		}
		if again := ParseList(strings.Join(out, "\n")); !reflect.DeepEqual(again, out) {
			t.Fatalf("ParseList(%q) = %q, but re-parsing it gives %q", data, out, again)
		}
	})
}
