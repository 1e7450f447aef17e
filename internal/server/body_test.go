package server

// The body rule: every intake reads its body through one capped reader
// whose limit admission has already fixed (bodyLimit). A buffered body
// may not pass its declared length; a streaming one is held only to the
// per-request cap.

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/store"
)

// chunked sends body to url with no Content-Length and, when hint >= 0,
// an X-Sz-Content-Length hint of hint bytes.
func chunked(t *testing.T, method, url string, body []byte, hint int) (*http.Response, error) {
	t.Helper()
	// A plain io.Reader hides the length, so the body goes out chunked.
	req, err := http.NewRequest(method, url, struct{ io.Reader }{bytes.NewReader(body)})
	if err != nil {
		t.Fatal(err)
	}
	if hint >= 0 {
		req.Header.Set(api.HeaderContentLength, strconv.Itoa(hint))
	}
	return http.DefaultClient.Do(req)
}

// inflightBytes reads /v1/limits until its inflight_bytes is 0, or for
// a second, and returns the last reading.
func inflightBytes(t *testing.T, base string) int64 {
	t.Helper()
	var lim api.Limits
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(base + api.PathLimits)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&lim)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if lim.InflightBytes == 0 || time.Now().After(deadline) {
			return lim.InflightBytes
		}
	}
}

// TestBufferedBodyPastDeclaredLength: on each buffered intake, a chunked
// body longer than its X-Sz-Content-Length hint is a 413 too_large
// before any response byte, naming the declared length, and leaves no
// reservation, store entry or temp file behind. With a large unread
// rest the 413 still arrives, every time, on a connection that then
// closes: a client that reused it would find it reset.
func TestBufferedBodyPastDeclaredLength(t *testing.T) {
	raw, _ := makeRaw(t, grid.Float32, 16, 20, 12)
	sz14 := localStream(t, "sz14", raw, codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 20, 12}})
	container, _ := slabContainer(t)
	pad := make([]byte, 1<<20)
	const hint = 4096
	for _, tc := range []struct {
		name, path string
		body       []byte
	}{
		{"compress-sz14", "/v1/compress?codec=sz14&abs=1e-3&dtype=f32&dims=64,64,64", make([]byte, 64*64*64*4)},
		{"decompress-sz14", "/v1/decompress", append(sz14, pad...)},
		{"inspect", "/v1/inspect", append(container, pad...)},
		{"slab", "/v1/slab/0", append(container, pad...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, ts := newTestDaemon(t, Config{Store: st})
			for i := 0; i < 10; i++ {
				resp, err := chunked(t, http.MethodPost, ts.URL+tc.path, tc.body, hint)
				if err != nil {
					t.Fatalf("try %d: %v", i, err)
				}
				e := api.ReadError(resp)
				resp.Body.Close()
				if e.Status != http.StatusRequestEntityTooLarge || e.Code != api.CodeTooLarge || !resp.Close {
					t.Fatalf("try %d: got %d %q (%s), Connection: close %v; want 413 %q on a closing connection",
						i, e.Status, e.Code, e.Message, resp.Close, api.CodeTooLarge)
				}
				if want := "declared length of " + strconv.Itoa(hint) + " bytes"; !strings.Contains(e.Message, want) {
					t.Fatalf("message %q does not name the declared length (%q)", e.Message, want)
				}
			}
			if n := inflightBytes(t, ts.URL); n != 0 {
				t.Errorf("inflight_bytes %d after the rejections, want 0", n)
			}
			if n := st.Stats().Entries; n != 0 {
				t.Errorf("the store holds %d entries after the rejections, want 0", n)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, de := range ents {
				t.Errorf("the store directory holds %s after the rejections", de.Name())
			}
		})
	}
}

// TestStreamingBodyIgnoresUnderstatedHint: a streaming path pins the
// same window however long its body runs, so the same understated hint
// still succeeds there.
func TestStreamingBodyIgnoresUnderstatedHint(t *testing.T) {
	_, base, st := newStoreDaemon(t, 0)
	raw, _ := makeRaw(t, grid.Float32, 16, 20, 12)
	p := codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{16, 20, 12}}
	want := localStream(t, "blocked", raw, p)

	resp, err := chunked(t, http.MethodPost, base+"/v1/compress?codec=blocked&abs=1e-3&dtype=f32&dims=16,20,12", raw, len(raw)/2)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAllClose(t, resp); resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("blocked compress: status %d, %d bytes; want 200 and the local %d-byte stream", resp.StatusCode, len(got), len(want))
	}

	container, _ := slabContainer(t)
	digest := bodyDigest(container)
	resp, err = chunked(t, http.MethodPut, base+api.PathContainerPrefix+digest, container, len(container)/2)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAllClose(t, resp); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("container PUT: status %d: %s", resp.StatusCode, got)
	}
	if !st.Contains(digest) {
		t.Fatal("the streamed container PUT was not stored")
	}
}

// TestUndeclaredBodyPastCap: a body with no declared length that passes
// MaxRequestBytes is a 413 while no response byte is out, and an
// aborted response after.
func TestUndeclaredBodyPastCap(t *testing.T) {
	_, ts := newTestDaemon(t, Config{MaxRequestBytes: 1024})
	body := bytes.Repeat([]byte{7}, 4096)
	for _, path := range []string{
		"/v1/inspect",
		"/v1/compress?codec=sz14&abs=1e-3&dtype=f32&dims=16,16",
	} {
		resp, err := chunked(t, http.MethodPost, ts.URL+path, body, -1)
		if err != nil {
			t.Fatal(err)
		}
		e := api.ReadError(resp)
		resp.Body.Close()
		if e.Status != http.StatusRequestEntityTooLarge || e.Code != api.CodeTooLarge {
			t.Errorf("%s: got %d %q (%s), want 413 %q", path, e.Status, e.Code, e.Message, api.CodeTooLarge)
		}
	}
	// gzip streams: its header is out before the body passes the cap,
	// so the response can only be cut short.
	resp, err := chunked(t, http.MethodPost, ts.URL+"/v1/compress?codec=gzip", body, -1)
	if err == nil {
		var out []byte
		out, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("gzip compress past the cap: status %d and %d whole bytes, want 413 or an aborted response", resp.StatusCode, len(out))
		}
	}
	if n := inflightBytes(t, ts.URL); n != 0 {
		t.Errorf("inflight_bytes %d after the rejections, want 0", n)
	}
}

// TestUndeclaredSZ14DecompressHeldToCharge: an sz14 decompress with no
// declared length is charged by the element count its header declares,
// so its body may not run past that charge: a small stream padded with
// junk cannot pin more than it was admitted at.
func TestUndeclaredSZ14DecompressHeldToCharge(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	raw, _ := makeRaw(t, grid.Float32, 8, 8)
	stream := localStream(t, "sz14", raw, codec.Params{AbsBound: 1e-3, DType: grid.Float32, Dims: []int{8, 8}})
	resp, err := chunked(t, http.MethodPost, ts.URL+"/v1/decompress", stream, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAllClose(t, resp); resp.StatusCode != http.StatusOK || len(got) != len(raw) {
		t.Fatalf("undeclared sz14 decompress: status %d, %d bytes", resp.StatusCode, len(got))
	}
	padded := append(stream, make([]byte, 64<<10)...)
	resp, err = chunked(t, http.MethodPost, ts.URL+"/v1/decompress", padded, -1)
	if err != nil {
		t.Fatal(err)
	}
	e := api.ReadError(resp)
	resp.Body.Close()
	if e.Status != http.StatusRequestEntityTooLarge || e.Code != api.CodeTooLarge {
		t.Fatalf("padded undeclared sz14 decompress: got %d %q (%s), want 413", e.Status, e.Code, e.Message)
	}
}

// syncBuffer is a bytes.Buffer the server's error log can write while
// the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

// TestUnreadBodyDoesNotPanic: the full-duplex intakes (compress and
// decompress) may answer with the body unread — a 413 past its
// declared length, a 400 for a stream that does not parse. net/http
// then panics on the connection unless the handler closed the body
// ("invalid concurrent Body.Read call" in the server's error log).
func TestUnreadBodyDoesNotPanic(t *testing.T) {
	ts := httptest.NewUnstartedServer(New(Config{}).Handler())
	var logs syncBuffer
	ts.Config.ErrorLog = log.New(&logs, "", 0)
	ts.Start()
	t.Cleanup(ts.Close)
	raw, _ := makeRaw(t, grid.Float32, 16, 20, 12)
	for _, tc := range []struct {
		path string
		body []byte
		hint int
	}{
		{"/v1/compress?codec=sz14&abs=1e-3&dtype=f32&dims=16,20,12", raw, 4096},
		{"/v1/decompress", append([]byte("SZB2"), make([]byte, 64<<10)...), -1},
	} {
		resp, err := chunked(t, http.MethodPost, ts.URL+tc.path, tc.body, tc.hint)
		if err != nil {
			t.Fatal(err)
		}
		readAllClose(t, resp)
		if resp.StatusCode < 400 {
			t.Fatalf("%s: status %d, want a rejection", tc.path, resp.StatusCode)
		}
	}
	ts.Close() // waits for the connections, and so for any panic's log line
	if strings.Contains(logs.String(), "panic") {
		t.Fatalf("the server panicked on an unread body:\n%s", logs.String())
	}
}

// TestBodyLimit maps (declared, charge, streaming, cap) to the reader's
// limit.
func TestBodyLimit(t *testing.T) {
	const maxReq = 1 << 20
	for _, tc := range []struct {
		name              string
		declared, charge  int64
		streaming         bool
		maxRequest, limit int64
	}{
		{"streaming declared", 4096, gzipCompressCharge, true, maxReq, maxReq},
		{"streaming undeclared", -1, gzipCompressCharge, true, maxReq, maxReq},
		{"streaming uncapped", 4096, gzipCompressCharge, true, -1, math.MaxInt64},
		{"buffered declared", 4096, 11 * 4096, false, maxReq, 4096},
		{"buffered declared 0", 0, 0, false, maxReq, 0},
		{"buffered declared uncapped", 4096, 11 * 4096, false, -1, 4096},
		{"buffered undeclared", -1, maxReq, false, maxReq, maxReq},
		{"buffered undeclared uncapped", -1, unknownLengthCharge, false, -1, unknownLengthCharge},
		{"buffered undeclared, charge over the flat one", -1, maxReq + 24*64, false, maxReq, maxReq},
		{"sz14 decompress undeclared", -1, 28 * 64, false, maxReq, 28 * 64},
	} {
		s := &Server{cfg: Config{MaxRequestBytes: tc.maxRequest}}
		if got := s.bodyLimit(tc.declared, tc.charge, tc.streaming); got != tc.limit {
			t.Errorf("%s: bodyLimit(%d, %d, %v) with cap %d = %d, want %d",
				tc.name, tc.declared, tc.charge, tc.streaming, tc.maxRequest, got, tc.limit)
		}
	}
}
