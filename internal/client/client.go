// Package client is the Go client for szd, the compression daemon in
// internal/server. It mirrors the library's streaming facade — NewWriter
// and NewReader hand back io.WriteCloser/io.ReadCloser that behave like
// sz.NewWriter/sz.NewReader but run the codec on a remote daemon — plus
// wrappers for the daemon's metadata endpoints.
//
// Overload handling: szd sheds load with 429 (budget, worker pool, or
// tenant fair share exhausted) and 503 (draining). Every non-2xx
// response decodes into the shared *api.Error envelope — status, stable
// code, message, and the server's retry_after_ms hint. Requests whose
// bodies fit the client's buffer limit are replayable and are retried
// with exponential backoff that honors the server hint; larger bodies
// stream in one attempt and surface the error instead, so the caller
// decides whether re-generating the stream is worth it. A body whose
// declared length is over the limit streams from its first byte; only
// a body of unknown length is buffered up to the limit to find out
// which kind it is.
package client

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/codec"
	"repro/internal/obs"
)

// Client talks to one szd daemon (or a szrouter fronting several).
type Client struct {
	base        string
	http        *http.Client
	tls         *tls.Config
	retry       RetryPolicy
	bufferLimit int
	apiKey      string
	priority    api.Priority
	slabCache   *slabCache // ReadSlabAt revalidation cache
	timing      func(endpoint string, entries []obs.TimingEntry)
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (default http.DefaultClient).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.http = h } }

// WithTLS dials the daemon over TLS with cfg: its RootCAs anchor server
// verification and its Certificates (when set) present a client
// certificate to an mTLS listener — internal/tlsconf builds both
// shapes. A bare host:port address upgrades to https://; an explicit
// http:// address is left alone (and will fail fast against a TLS
// listener with a tls_required error).
func WithTLS(cfg *tls.Config) Option { return func(c *Client) { c.tls = cfg } }

// RetryPolicy shapes the shed-retry loop for replayable requests.
type RetryPolicy struct {
	// MaxAttempts bounds tries per logical request (min 1).
	MaxAttempts int
	// Backoff is the first retry delay; it doubles per attempt.
	Backoff time.Duration
	// MaxBackoff caps a single wait, including server Retry-After
	// hints. 0 means no cap.
	MaxBackoff time.Duration
	// IgnoreRetryAfter disables stretching a wait to the server's
	// retry_after_ms hint. The default (false) honors the hint: the
	// QoS controller raises it under pressure precisely so clients
	// arrive after the squeeze, not during it.
	IgnoreRetryAfter bool
}

// WithRetryPolicy replaces the whole retry policy. The default is 4
// attempts with a 100 ms first backoff, uncapped, honoring Retry-After.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *Client) { c.retry = p }
}

// WithTenant attaches an API key to every request. The daemon resolves
// the tenant as the key's prefix up to the first '.', and holds each
// tenant to its weighted-fair share of the admission budget under
// contention. No key means the shared "default" tenant.
func WithTenant(apiKey string) Option { return func(c *Client) { c.apiKey = apiKey } }

// WithPriority sets the admission class for every request. Batch
// requests shed first under pressure; Interactive (the default) may use
// the full budget.
func WithPriority(p api.Priority) Option { return func(c *Client) { c.priority = p } }

// WithBufferLimit sets how many body bytes the client will buffer to
// keep a request replayable for retry (default 4 MiB). Bodies beyond it
// stream in a single attempt, from the first byte when their length is
// declared.
func WithBufferLimit(n int) Option { return func(c *Client) { c.bufferLimit = n } }

// WithTiming installs a callback receiving each response's Server-Timing
// breakdown — the daemon's stage spans, plus any backend stages a router
// merged under "be-". For streamed responses (decompress, slab reads)
// the breakdown travels as an HTTP trailer, so the callback fires when
// the caller drains or closes the body, not when it is opened.
func WithTiming(fn func(endpoint string, entries []obs.TimingEntry)) Option {
	return func(c *Client) { c.timing = fn }
}

// New returns a client for the daemon at addr ("host:port" or a full
// http:// / https:// URL).
func New(addr string, opts ...Option) (*Client, error) {
	if addr == "" {
		return nil, errors.New("client: empty daemon address")
	}
	bare := !strings.Contains(addr, "://")
	if bare {
		addr = "http://" + addr
	}
	u, err := url.Parse(addr)
	if err != nil {
		return nil, fmt.Errorf("client: bad daemon address: %w", err)
	}
	c := &Client{
		base:        strings.TrimRight(u.String(), "/"),
		http:        http.DefaultClient,
		retry:       RetryPolicy{MaxAttempts: 4, Backoff: 100 * time.Millisecond},
		bufferLimit: 4 << 20,
		slabCache:   newSlabCache(),
	}
	for _, o := range opts {
		o(c)
	}
	if c.tls != nil {
		if bare {
			c.base = "https://" + strings.TrimPrefix(c.base, "http://")
		}
		switch {
		case c.http == http.DefaultClient:
			c.http = &http.Client{Transport: &http.Transport{TLSClientConfig: c.tls}}
		case c.http.Transport == nil:
			hc := *c.http
			hc.Transport = &http.Transport{TLSClientConfig: c.tls}
			c.http = &hc
		default:
			if tr, ok := c.http.Transport.(*http.Transport); ok {
				hc := *c.http
				tr = tr.Clone()
				tr.TLSClientConfig = c.tls
				hc.Transport = tr
				c.http = &hc
			}
			// A custom non-Transport RoundTripper is left alone: the
			// caller owns its TLS behavior.
		}
	}
	if c.retry.MaxAttempts < 1 {
		c.retry.MaxAttempts = 1
	}
	return c, nil
}

// applyHeaders stamps the tenant identity on an outbound request. Every
// request-building site calls it, so the daemon accounts streamed and
// replayable traffic to the same tenant.
func (c *Client) applyHeaders(h http.Header) {
	if c.apiKey != "" {
		h.Set(api.HeaderAPIKey, c.apiKey)
	}
	if c.priority != api.Interactive {
		h.Set(api.HeaderPriority, c.priority.String())
	}
}

func (c *Client) url(path string, q url.Values) string {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	return u
}

// statusError turns a non-2xx response into an *api.Error, consuming
// and closing the body.
func statusError(resp *http.Response) error {
	defer resp.Body.Close()
	e := api.ReadError(resp)
	io.Copy(io.Discard, resp.Body)
	return e
}

// do runs build-request/execute with retry-on-shed. build is called per
// attempt so the body is fresh each time. All attempts share one minted
// traceparent: retries of a logical request belong to one trace. A wait
// stretches to the server's retry_after_ms hint unless the policy says
// otherwise — the hint tracks the daemon's live congestion state.
func (c *Client) do(ctx context.Context, build func() (*http.Request, error)) (*http.Response, error) {
	backoff := c.retry.Backoff
	tp := obs.NewTraceparent()
	for attempt := 1; ; attempt++ {
		req, err := build()
		if err != nil {
			return nil, err
		}
		req.Header.Set("Traceparent", tp)
		c.applyHeaders(req.Header)
		resp, err := c.http.Do(req)
		if err != nil {
			return nil, err
		}
		// 304 is a successful revalidation, not a failure: the caller
		// sent If-None-Match and owns the matching bytes already.
		if resp.StatusCode < 300 || resp.StatusCode == http.StatusNotModified {
			return resp, nil
		}
		serr := statusError(resp)
		var ae *api.Error
		if attempt >= c.retry.MaxAttempts || !errors.As(serr, &ae) || !ae.Temporary() {
			return nil, serr
		}
		wait := backoff
		if !c.retry.IgnoreRetryAfter {
			if hint := ae.RetryAfter(); hint > wait {
				wait = hint
			}
		}
		if c.retry.MaxBackoff > 0 && wait > c.retry.MaxBackoff {
			wait = c.retry.MaxBackoff
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(wait):
		}
		backoff *= 2
	}
}

// reportTiming delivers a response's Server-Timing breakdown to the
// WithTiming callback: the trailer wins (streaming responses settle it
// after the last body byte), the header covers buffered responses.
func (c *Client) reportTiming(endpoint string, resp *http.Response) {
	if c.timing == nil {
		return
	}
	st := resp.Trailer.Get("Server-Timing")
	if st == "" {
		st = resp.Header.Get("Server-Timing")
	}
	if st == "" {
		return
	}
	c.timing(endpoint, obs.ParseServerTiming(st))
}

// wrapTiming defers timing delivery until the caller drains or closes a
// streamed body — the Server-Timing trailer exists only then.
func (c *Client) wrapTiming(endpoint string, resp *http.Response) io.ReadCloser {
	if c.timing == nil {
		return resp.Body
	}
	return &timingBody{ReadCloser: resp.Body, c: c, endpoint: endpoint, resp: resp}
}

type timingBody struct {
	io.ReadCloser
	c        *Client
	endpoint string
	resp     *http.Response
	once     sync.Once
}

func (tb *timingBody) report() {
	tb.once.Do(func() { tb.c.reportTiming(tb.endpoint, tb.resp) })
}

func (tb *timingBody) Read(p []byte) (int, error) {
	n, err := tb.ReadCloser.Read(p)
	if err == io.EOF {
		tb.report()
	}
	return n, err
}

func (tb *timingBody) Close() error {
	err := tb.ReadCloser.Close()
	tb.report()
	return err
}

// Codecs lists the codec names registered on the daemon.
func (c *Client) Codecs(ctx context.Context) ([]string, error) {
	info, err := c.CodecsInfo(ctx)
	if err != nil {
		return nil, err
	}
	return info.Codecs, nil
}

// Health checks /healthz; nil means the daemon is accepting work.
func (c *Client) Health(ctx context.Context) error {
	resp, err := c.http.Do(mustRequest(ctx, http.MethodGet, c.url(api.PathHealthz, nil), nil))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return api.ReadError(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// Limits fetches the daemon's live QoS state: the adaptive admission
// budget, worker clamp, backoff hint, and the per-tenant shares. A
// batch caller can read it before deciding how hard to push.
func (c *Client) Limits(ctx context.Context) (*api.Limits, error) {
	resp, err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.url(api.PathLimits, nil), nil)
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	lim := &api.Limits{}
	if err := json.NewDecoder(resp.Body).Decode(lim); err != nil {
		return nil, fmt.Errorf("client: decoding limits: %w", err)
	}
	return lim, nil
}

func mustRequest(ctx context.Context, method, url string, body io.Reader) *http.Request {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		panic(err) // static method+URL, cannot fail
	}
	return req
}

// Inspect sends a compressed stream and returns the daemon's parsed
// metadata (codec, geometry, bounds, slab layout). size is the stream
// length when known (it becomes the admission hint for streams too big
// to buffer), -1 otherwise.
func (c *Client) Inspect(ctx context.Context, stream io.Reader, size int64) (*codec.StreamInfo, error) {
	resp, err := c.bodyRequest(ctx, api.PathInspect, nil, stream, size)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	si := &codec.StreamInfo{}
	if err := json.NewDecoder(resp.Body).Decode(si); err != nil {
		return nil, fmt.Errorf("client: decoding inspect response: %w", err)
	}
	c.reportTiming("inspect", resp)
	return si, nil
}

// bodyRequest POSTs src as the body of path. Bodies within the buffer
// limit go replayable-with-retry; larger ones stream chunked once, with
// size (when >= 0) forwarded as the X-Sz-Content-Length admission hint.
// A size over the limit streams from the first byte; an unknown size
// (-1) reads up to the limit first to learn which kind the body is.
func (c *Client) bodyRequest(ctx context.Context, path string, q url.Values, src io.Reader, size int64) (*http.Response, error) {
	u := c.url(path, q)
	body := src
	if size <= int64(c.bufferLimit) {
		head, err := io.ReadAll(io.LimitReader(src, int64(c.bufferLimit)+1))
		if err != nil {
			return nil, err
		}
		if len(head) <= c.bufferLimit {
			return c.do(ctx, func() (*http.Request, error) {
				return http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(head))
			})
		}
		body = io.MultiReader(bytes.NewReader(head), src)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Traceparent", obs.NewTraceparent())
	c.applyHeaders(req.Header)
	if size >= 0 {
		req.Header.Set(api.HeaderContentLength, fmt.Sprint(size))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		return nil, statusError(resp)
	}
	return resp, nil
}

// SlabIndex sends a blocked container and returns its footer index —
// the random-access map a caller needs to plan ReadSlab requests. size
// is the container length when known, -1 otherwise.
func (c *Client) SlabIndex(ctx context.Context, stream io.Reader, size int64) (*codec.SlabIndex, error) {
	resp, err := c.bodyRequest(ctx, api.PathSlabs, nil, stream, size)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	si := &codec.SlabIndex{}
	if err := json.NewDecoder(resp.Body).Decode(si); err != nil {
		return nil, fmt.Errorf("client: decoding slab index: %w", err)
	}
	c.reportTiming("slabs", resp)
	return si, nil
}

// ReadSlab asks the daemon to random-access decode slabs lo..hi
// (inclusive) of the blocked container supplied by src, returning the
// reconstructed raw little-endian samples of just that row span. size is
// the container length when known, -1 otherwise. lo == hi reads a
// single slab.
func (c *Client) ReadSlab(ctx context.Context, src io.Reader, size int64, lo, hi int) (io.ReadCloser, error) {
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("client: bad slab range %d-%d", lo, hi)
	}
	resp, err := c.bodyRequest(ctx, api.PathSlabPrefix+codec.FormatSlabSpec(lo, hi), nil, src, size)
	if err != nil {
		return nil, err
	}
	return c.wrapTiming("slab", resp), nil
}

// NewReader opens a remote decompressor: src supplies a compressed
// stream and the returned reader yields raw little-endian samples. The
// daemon auto-detects the codec from the stream magic unless forceCodec
// names one explicitly (required for gzip, whose streams carry no
// shape). size is the compressed size when known (improves admission
// accuracy for chunked sends), -1 otherwise.
func (c *Client) NewReader(ctx context.Context, src io.Reader, size int64, forceCodec string, p codec.Params) (io.ReadCloser, error) {
	q := p.Values()
	if forceCodec != "" {
		q.Set("codec", forceCodec)
	}
	resp, err := c.bodyRequest(ctx, api.PathDecompress, q, src, size)
	if err != nil {
		return nil, err
	}
	return c.wrapTiming("decompress", resp), nil
}

// NewWriter opens a remote compressor mirroring sz.NewWriter: raw
// little-endian p.DType samples written to it stream to the daemon, and
// the compressed stream lands in dst. The stream is complete only after
// Close returns nil. p.Dims is required for every codec but gzip.
//
// The returned writer additionally implements interface{ Abort() error }:
// a caller whose input failed mid-way should Abort instead of Close, so
// the buffered partial payload is dropped (Close would send it to the
// daemon as a real request, retries and all) and any in-flight
// streaming request is cancelled.
func (c *Client) NewWriter(ctx context.Context, dst io.Writer, codecName string, p codec.Params) (io.WriteCloser, error) {
	if codecName == "" {
		codecName = "sz14"
	}
	q := p.Values()
	q.Set("codec", codecName)
	rawSize := int64(-1)
	if len(p.Dims) > 0 {
		rawSize = 1
		for _, d := range p.Dims {
			rawSize *= int64(d)
		}
		sz := int64(8)
		if p.DType != 0 {
			sz = int64(p.DType.Size())
		}
		rawSize *= sz
	}
	rw := &remoteWriter{
		c:       c,
		ctx:     ctx,
		dst:     dst,
		url:     c.url(api.PathCompress, q),
		rawSize: rawSize,
	}
	if rawSize <= int64(c.bufferLimit) {
		rw.buf = &bytes.Buffer{}
	}
	return rw, nil
}

// remoteWriter buffers raw samples up to the client's buffer limit so
// small requests stay replayable (retry on 429/503); beyond the limit
// it flips into a single streaming request whose response is copied to
// dst concurrently. When the dims declare a raw size over the limit,
// the request starts at the first Write with nothing buffered.
type remoteWriter struct {
	c       *Client
	ctx     context.Context
	dst     io.Writer
	url     string
	rawSize int64 // expected total raw bytes from dims/dtype; -1 unknown

	buf    *bytes.Buffer  // replayable prefix; nil for a declared stream
	pw     *io.PipeWriter // set once streaming
	done   chan error
	closed bool
	digest string // container content address from the response ETag
}

// Digest returns the content address the daemon assigned the finished
// container (the response ETag trailer), or "" before a successful
// Close or when the daemon runs without a store. Later reads can
// reference the container by this digest alone (DecompressAt,
// ReadSlabAt) instead of re-uploading it.
func (rw *remoteWriter) Digest() string { return rw.digest }

func (rw *remoteWriter) Write(b []byte) (int, error) {
	if rw.closed {
		return 0, errors.New("client: write after Close")
	}
	if rw.pw == nil {
		if rw.buf != nil && rw.buf.Len()+len(b) <= rw.c.bufferLimit {
			rw.buf.Write(b)
			return len(b), nil
		}
		if err := rw.startStreaming(); err != nil {
			return 0, err
		}
	}
	return rw.pw.Write(b)
}

// startStreaming launches the streaming request, seeded with anything
// buffered so far; this and every later write feed the pipe.
func (rw *remoteWriter) startStreaming() error {
	pr, pw := io.Pipe()
	var body io.Reader = pr
	if rw.buf != nil {
		body = io.MultiReader(bytes.NewReader(rw.buf.Bytes()), pr)
	}
	req, err := http.NewRequestWithContext(rw.ctx, http.MethodPost, rw.url, body)
	if err != nil {
		pw.Close()
		return err
	}
	req.Header.Set("Traceparent", obs.NewTraceparent())
	rw.c.applyHeaders(req.Header)
	if rw.rawSize >= 0 {
		req.ContentLength = rw.rawSize
	}
	rw.buf = nil
	rw.pw = pw
	rw.done = make(chan error, 1)
	go func() {
		resp, err := rw.c.http.Do(req)
		if err != nil {
			pr.CloseWithError(err)
			rw.done <- err
			return
		}
		if resp.StatusCode >= 300 {
			err := statusError(resp)
			pr.CloseWithError(err)
			rw.done <- err
			return
		}
		_, err = io.Copy(rw.dst, resp.Body)
		resp.Body.Close()
		if err != nil {
			pr.CloseWithError(err)
		} else {
			rw.digest = etagOf(resp) // trailer, populated once the body drained
			rw.c.reportTiming("compress", resp)
		}
		rw.done <- err
	}()
	return nil
}

// Abort discards the writer without completing the request: buffered
// state is dropped unsent; an in-flight streaming request is cancelled
// and awaited. Idempotent, and a later Close is a no-op.
func (rw *remoteWriter) Abort() error {
	if rw.closed {
		return nil
	}
	rw.closed = true
	if rw.pw == nil {
		rw.buf = nil
		return nil
	}
	rw.pw.CloseWithError(errors.New("client: request aborted"))
	<-rw.done
	return nil
}

func (rw *remoteWriter) Close() error {
	if rw.closed {
		return nil
	}
	rw.closed = true
	if rw.pw == nil {
		// Replayable one-shot with retry (empty when a declared stream
		// got no Write: the daemon answers the size mismatch).
		var payload []byte
		if rw.buf != nil {
			payload = rw.buf.Bytes()
		}
		resp, err := rw.c.do(rw.ctx, func() (*http.Request, error) {
			return http.NewRequestWithContext(rw.ctx, http.MethodPost, rw.url, bytes.NewReader(payload))
		})
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err = io.Copy(rw.dst, resp.Body); err != nil {
			return err
		}
		rw.digest = etagOf(resp)
		rw.c.reportTiming("compress", resp)
		return nil
	}
	rw.pw.Close()
	return <-rw.done
}
