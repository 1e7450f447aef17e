package obs

// The request wrapper szd and szrouter put in front of every traced
// route. Handlers decide what to answer and name the codec they
// resolved; the wrapper settles everything else once, so the trace, the
// ring, the slow log and each tier's counters read one outcome.

import (
	"context"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/api"
)

// Outcome is a finished request as the wrapper settled it.
type Outcome struct {
	Endpoint string
	Codec    string // the codec the handler named with SetCodec; "" if none
	// Tenant is the resolved tenant; "" when the request's API key or
	// priority was malformed.
	Tenant   string
	Status   int
	BytesIn  int64 // request body bytes the handler read
	BytesOut int64 // response body bytes written
	Total    time.Duration
}

// Wrapper is one tier's request wrapper: its trace recorder, its
// per-stage histogram (labeled endpoint, stage) and its Done hook, the
// only place the tier writes its request counters.
type Wrapper struct {
	Rec    *Recorder
	Stages *HistVec
	Done   func(Outcome)
}

// Wrap returns h behind the wrapper, traced as endpoint. Before h runs,
// the wrapper continues the inbound traceparent (or mints a trace),
// echoes X-Sz-Request-Id, strips any inbound X-Sz-Tenant and answers a
// malformed API key or priority with 400 bad_tenant. While h runs it
// captures the status and the body bytes each way, and sends
// Server-Timing as a header when the body length is known as the
// status is written (a Content-Length, a 204, a 304 or a HEAD) and as
// a trailer otherwise. A handler that aborts a started response by
// panicking is recorded with the status it sealed on the trace before
// panicking, else 500, and the panic goes on to net/http.
func (wr *Wrapper) Wrap(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t := StartTrace(endpoint, r.Header.Get("Traceparent"), r.Header.Get(api.HeaderRequestID))
		w.Header().Set(api.HeaderRequestID, t.RequestID)
		ex := &exchange{ResponseWriter: w, t: t, head: r.Method == http.MethodHead}
		ex.body.ReadCloser = r.Body
		defer wr.finish(ex)
		// Identity derives from the API key alone: an inbound tenant
		// header could claim another tenant's share.
		r.Header.Del(api.HeaderTenant)
		id, err := api.ResolveIdentity(r.Header)
		if err != nil {
			api.WriteError(ex, api.Wrap(http.StatusBadRequest, err))
			return
		}
		ex.id = id
		// Only the handler's copy of the request reads through the
		// counting body: net/http looks at its own request's body to
		// close a connection whose body was left unread, lingering so the
		// client still reads the answer, rather than reuse it.
		r = r.WithContext(context.WithValue(r.Context(), ctxKey{}, ex))
		r.Body = &ex.body
		h(ex, r)
	}
}

// finish is deferred, so an aborted response is recorded on its way
// out.
func (wr *Wrapper) finish(ex *exchange) {
	aborted := recover()
	t := ex.t
	status := t.Status() // sealed by a handler before it aborted
	switch {
	case status != 0:
	case aborted != nil:
		status = http.StatusInternalServerError
	case ex.status != 0:
		status = ex.status
	default:
		status = http.StatusOK
	}
	t.Finish(status)
	// The declared trailer goes out now; after a header it only updates
	// the map an in-process caller of the handler reads.
	ex.Header().Set("Server-Timing", t.ServerTiming())
	// A same-named span observes its summed duration once: the
	// histogram answers how long a stage took per request.
	for _, sp := range t.Spans() {
		wr.Stages.ObserveDuration(sp.Dur, t.Endpoint, sp.Name)
	}
	wr.Rec.Done(t)
	wr.Done(Outcome{
		Endpoint: t.Endpoint,
		Codec:    ex.codec,
		Tenant:   ex.id.Tenant,
		Status:   status,
		BytesIn:  ex.body.n.Load(),
		BytesOut: ex.out,
		Total:    t.Total(),
	})
	if aborted != nil {
		panic(aborted)
	}
}

// exchange is one request inside the wrapper. It stands in for the
// handler's response writer and request body, and the context carries
// it to FromContext, IdentityFrom and SetCodec.
type exchange struct {
	http.ResponseWriter
	t      *Trace
	id     api.Identity
	codec  string
	status int
	out    int64
	head   bool // a HEAD request: no body follows the status
	body   countingBody
}

func (ex *exchange) WriteHeader(code int) {
	if ex.status == 0 {
		ex.status = code
		h := ex.Header()
		if h.Get("Content-Length") != "" || code == http.StatusNoContent || code == http.StatusNotModified || ex.head {
			if v := ex.t.ServerTiming(); v != "" {
				h.Set("Server-Timing", v)
			}
		} else {
			h.Add("Trailer", "Server-Timing")
		}
	}
	ex.ResponseWriter.WriteHeader(code)
}

func (ex *exchange) Write(b []byte) (int, error) {
	if ex.status == 0 {
		ex.WriteHeader(http.StatusOK)
	}
	n, err := ex.ResponseWriter.Write(b)
	ex.out += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the underlying writer
// (handlers enable full duplex through the wrapper).
func (ex *exchange) Unwrap() http.ResponseWriter { return ex.ResponseWriter }

// countingBody counts the request body bytes read, atomically: the
// router hands a streamed body to its transport's own goroutine.
type countingBody struct {
	io.ReadCloser
	n atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

type ctxKey struct{}

func exchangeFrom(ctx context.Context) *exchange {
	ex, _ := ctx.Value(ctxKey{}).(*exchange)
	return ex
}

// FromContext returns the trace of the wrapped request ctx belongs to,
// or nil — and since all *Trace methods are nil-safe, callers never
// need to check.
func FromContext(ctx context.Context) *Trace {
	if ex := exchangeFrom(ctx); ex != nil {
		return ex.t
	}
	return nil
}

// IdentityFrom returns the identity the wrapper resolved for the
// request; outside the wrapper, the default tenant at interactive
// priority.
func IdentityFrom(ctx context.Context) api.Identity {
	if ex := exchangeFrom(ctx); ex != nil {
		return ex.id
	}
	return api.Identity{Tenant: api.DefaultTenant}
}

// SetCodec names the codec the request resolved, for its tier's
// counters. Handlers call it only once codec.Lookup or codec.Detect has
// succeeded, so a made-up name never becomes a metric label.
func SetCodec(ctx context.Context, name string) {
	if ex := exchangeFrom(ctx); ex != nil {
		ex.codec = name
	}
}
