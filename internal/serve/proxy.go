package serve

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"l3/internal/overload"
)

// proxyHandler is the data-plane HTTP handler: pick a backend, forward,
// record the outcome, retry transport errors that never reached the client,
// hedge slow idempotent requests, and enforce the request's latency budget.
// Every request of every method takes one path — exchange.try on the shared
// transport. Pick, breaker, budget, deadline math and metric recording are
// allocation-free; what forwarding allocates (two contexts, the outbound
// request, its URL and header map) is this package's own cost, itemized in
// DESIGN.md § Serving mode.
type proxyHandler struct {
	router  *Router
	nowFn   func() time.Duration
	budget  *retryBudget
	hedge   *hedgeTracker
	retries atomic.Int64
	hedges  atomic.Int64
	panics  atomic.Int64

	// transport carries every upstream attempt (and is the tests' fault seam).
	transport http.RoundTripper

	// admitter gates every request before backend pick (nil = overload
	// control off). Shed requests answer 429/503 + Retry-After without
	// touching the retry budget, the router or any upstream socket.
	admitter *overload.WallAdmitter

	maxAttempts    int
	requestTimeout time.Duration
	perTryTimeout  time.Duration

	inflight atomic.Int64
	draining atomic.Bool
}

func newProxyHandler(router *Router, nowFn func() time.Duration, cfg Config, transport http.RoundTripper, admitter *overload.WallAdmitter) *proxyHandler {
	return &proxyHandler{
		router:         router,
		nowFn:          nowFn,
		budget:         newRetryBudget(cfg.RetryBudgetRatio),
		hedge:          newHedgeTracker(cfg.HedgePercentile, cfg.HedgeMinDelay),
		transport:      transport,
		admitter:       admitter,
		maxAttempts:    cfg.MaxAttempts,
		requestTimeout: cfg.RequestTimeout,
		perTryTimeout:  cfg.PerTryTimeout,
	}
}

func (p *proxyHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if p.draining.Load() {
		// Connections that were mid-request at drain start finish normally
		// (Shutdown waits for them); fresh requests on lingering keep-alive
		// connections are turned away.
		w.Header().Set("Connection", "close")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	p.inflight.Add(1)
	defer p.inflight.Add(-1)

	x := exchange{p: p, in: req, ctx: req.Context(), start: p.nowFn(), budget: deadlineBudget(req, p.requestTimeout)}
	if x.budget > 0 {
		var cancel context.CancelFunc
		x.ctx, cancel = context.WithTimeout(x.ctx, x.budget)
		defer cancel()
	}

	// Admission runs before the retry-budget deposit and before any backend
	// pick: a shed request must cost nothing downstream. A queued request
	// parks inside Admit (bounded by the drop law's MaxWait flush and its
	// own deadline above); its wait spends the request budget, which each
	// attempt's remaining-time math then propagates downstream. The
	// admitted fast path is allocation-free.
	if p.admitter != nil {
		v := p.admitter.Admit(x.ctx, time.Now(), overload.ParseTier(req.Header.Get(HeaderCriticality)))
		if v.Shed() {
			shedResponse(w, v)
			return
		}
		defer p.admitter.Release()
	}

	p.budget.deposit()
	// A handler bug must not kill the proxy process: answer 500 while the
	// client has seen nothing. http.ErrAbortHandler passes through — it is
	// net/http's control flow for tearing a response down, which deliver
	// uses when an answer breaks off mid-body.
	wrote := false
	defer func() {
		if r := recover(); r == http.ErrAbortHandler {
			panic(r)
		} else if r != nil {
			p.panics.Add(1)
			if !wrote {
				http.Error(w, "internal proxy error", http.StatusInternalServerError)
			}
		}
	}()

	// Per-try bound: explicit config, else an even share of the budget so
	// a stalled first attempt leaves time to retry.
	x.perTry = p.perTryTimeout
	if x.perTry <= 0 && x.budget > 0 {
		x.perTry = x.budget / time.Duration(p.maxAttempts)
	}
	// A consumed body cannot be replayed to a second backend: body-carrying
	// requests neither retry nor hedge. Bodyless GET/HEAD (idempotent) hedge
	// once the tracker has a distribution; a zero delay is the same path
	// unhedged.
	canRetry := req.Body == nil || req.Body == http.NoBody
	var hedgeDelay time.Duration
	if canRetry && (req.Method == http.MethodGet || req.Method == http.MethodHead) {
		hedgeDelay = p.hedge.hedgeAfter()
	}

	var b *Backend // the backend that just failed; nil before the first attempt
	for launched := 0; ; {
		if x.ctx.Err() != nil {
			http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
			return
		}
		if launched > 0 {
			// Retry only a transport error the client saw nothing of, within
			// the attempt cap, paid for from the budget.
			if !canRetry || launched >= p.maxAttempts || !p.budget.withdraw() {
				http.Error(w, "upstream unreachable", http.StatusBadGateway)
				return
			}
			p.retries.Add(1)
		}
		if b = p.router.PickAvoiding(p.nowFn(), b); b == nil {
			http.Error(w, "no backends", http.StatusServiceUnavailable)
			return
		}
		a, n := x.try(b, hedgeDelay)
		launched += n  // a hedge spends one of the request's attempts
		hedgeDelay = 0 // and there is at most one per request
		if a.err == nil {
			// A whole response, 5xx included, is final once it streams.
			wrote = true
			x.deliver(w, a)
			return
		}
		p.finish(a, nil)
		b = a.b
	}
}

// exchange is one client request's forwarding state, passed by value to the
// attempts made for it (a hedge runs on its own goroutine with its own copy).
type exchange struct {
	p      *proxyHandler
	in     *http.Request   // the inbound request; never modified
	ctx    context.Context // in's context under the request's latency budget
	start  time.Duration   // handler entry on the proxy clock
	budget time.Duration   // 0 = unbounded
	perTry time.Duration   // 0 = unbounded
}

// attempt is one upstream round trip. Whoever holds it last passes it to
// finish exactly once (deliver does, after the body).
type attempt struct {
	b      *Backend
	start  time.Duration // launch instant on the proxy clock
	cancel context.CancelFunc
	resp   *http.Response
	err    error
}

// ok reports an answer the client should get without looking further.
func (a attempt) ok() bool {
	return a.err == nil && a.resp.StatusCode < http.StatusInternalServerError
}

// try makes one attempt against b on the calling goroutine and returns when
// its response headers or its failure are in, with the number of attempts
// launched. With hedgeDelay > 0 a timer runs beside it; only if the timer
// fires does a second attempt, to a different backend, start on a goroutine
// of its own — then the first acceptable answer wins and cancels the other,
// and try waits for both, so no attempt outlives it. The returned attempt
// is the caller's to finish; the other is finished here.
func (x exchange) try(b *Backend, hedgeDelay time.Duration) (attempt, int) {
	ctx, cancel := x.tryContext()
	if hedgeDelay <= 0 {
		return x.launch(ctx, cancel, b), 1
	}
	r := &hedgeRace{cancelPrimary: cancel, result: make(chan attempt, 1)}
	timer := time.AfterFunc(hedgeDelay, func() { r.result <- x.hedge(r, b) })
	a := x.launch(ctx, cancel, b)
	if timer.Stop() {
		return a, 1
	}
	r.mu.Lock()
	won := a.ok() && !r.won
	if won {
		r.won = true
		if r.cancelHedge != nil {
			r.cancelHedge()
		}
	}
	r.mu.Unlock()
	h := <-r.result // prompt after a cancel; bounded by its per-try context
	switch {
	case h.b == nil: // no second backend, or no budget for one
		return a, 1
	case won && h.err != nil:
		// Cut short by our cancel: the speculative extra is not the
		// backend's failure and records nothing.
		h.b.inflight.Dec()
		h.cancel()
		return a, 2
	case won || !h.ok() && a.err == nil:
		a, h = h, a // the primary stands: it won, or its whole 5xx beats a failed hedge
	}
	// h stands (an acceptable hedge, or the later of two failures so that a
	// retry avoids it) and the other is finished as what it was: a primary
	// its rescuer had to cancel was at least the learned delay slower, and
	// without that failure on record a stalled backend whose every request
	// a hedge saves would never trip its breaker.
	x.p.finish(a, nil)
	return h, 2
}

// hedgeRace is what a primary attempt and its hedge share.
type hedgeRace struct {
	mu sync.Mutex
	// won is set by the first attempt to bring an acceptable answer, which
	// then cancels the other.
	won           bool
	cancelPrimary context.CancelFunc
	cancelHedge   context.CancelFunc // nil until the hedge launches
	// result carries the hedge goroutine's one send; the zero attempt means
	// no hedge was launched.
	result chan attempt
}

// hedge runs on the hedge timer's goroutine: a second attempt to a backend
// other than primary, paid from the shared retry budget so hedging cannot
// storm either.
func (x exchange) hedge(r *hedgeRace, primary *Backend) attempt {
	p := x.p
	r.mu.Lock()
	nb := p.router.PickAvoiding(p.nowFn(), primary)
	if r.won || nb == nil || nb == primary || !p.budget.withdraw() {
		r.mu.Unlock()
		return attempt{}
	}
	ctx, cancel := x.tryContext()
	r.cancelHedge = cancel
	r.mu.Unlock()
	p.hedges.Add(1)
	h := x.launch(ctx, cancel, nb)
	r.mu.Lock()
	if !r.won && h.ok() {
		r.won = true
		r.cancelPrimary()
	}
	r.mu.Unlock()
	return h
}

// tryContext bounds one attempt by the per-try timeout (the request budget
// already bounds x.ctx) and makes it cancellable on its own.
func (x exchange) tryContext() (context.Context, context.CancelFunc) {
	if x.perTry > 0 {
		return context.WithTimeout(x.ctx, x.perTry)
	}
	return context.WithCancel(x.ctx)
}

// launch round-trips the request to b under ctx. A panicking RoundTripper
// surfaces as a counted transport error, on a hedge's goroutine as on the
// handler's.
func (x exchange) launch(ctx context.Context, cancel context.CancelFunc, b *Backend) (a attempt) {
	a = attempt{b: b, start: x.p.nowFn(), cancel: cancel}
	b.inflight.Inc()
	defer func() {
		if r := recover(); r != nil {
			x.p.panics.Add(1)
			a.resp, a.err = nil, fmt.Errorf("transport panic: %v", r)
		}
	}()
	a.resp, a.err = x.p.transport.RoundTrip(x.outbound(ctx, b, a.start))
	return a
}

// outbound builds the request an attempt sends, the one place the inbound
// request is translated: URL rewritten onto the backend, hop-by-hop headers
// dropped, the client appended to X-Forwarded-For, the remaining latency
// budget restamped (budgets shrink hop by hop), the body bounded.
func (x exchange) outbound(ctx context.Context, b *Backend, now time.Duration) *http.Request {
	in := x.in
	out := in.WithContext(ctx) // shallow copy; Host stays the client's
	out.URL = b.target(in.URL)
	out.RequestURI = "" // client-side only; must be empty on a transport request
	out.Close = false
	switch {
	case in.ContentLength == 0:
		out.Body = nil
	case in.ContentLength > 0:
		// After the declared length the transport probes the body for
		// excess bytes. net/http's server closes the inbound body once the
		// handler starts answering, so a probe that reached it would fail,
		// tear the upstream connection down and truncate the answer still
		// streaming from it. Bounded here, the probe reads io.EOF. (A
		// chunked body has no length to bound and passes through as is.)
		out.Body = &boundedBody{io.LimitedReader{R: in.Body, N: in.ContentLength}}
	}

	// Values are shared with the inbound header (the transport only reads
	// them); the two the proxy writes get one backing array.
	h := make(http.Header, len(in.Header)+3)
	copyEndToEnd(h, in.Header)
	own := new([2]string)
	if ip, _, err := net.SplitHostPort(in.RemoteAddr); err == nil {
		if prior := in.Header["X-Forwarded-For"]; len(prior) > 0 {
			ip = strings.Join(prior, ", ") + ", " + ip
		}
		own[0] = ip
		h["X-Forwarded-For"] = own[0:1:1]
	}
	if x.budget > 0 {
		own[1] = strconv.FormatInt(max(1, (x.budget-(now-x.start)).Milliseconds()), 10)
		h[HeaderDeadline] = own[1:2:2]
	}
	if _, ok := h["User-Agent"]; !ok {
		h["User-Agent"] = noUserAgent // or the transport invents one
	}
	out.Header = h
	return out
}

var noUserAgent = []string{""}

// boundedBody is an outbound request body that ends at the declared length.
// Close is a no-op: the inbound body it reads from is net/http's to close.
type boundedBody struct{ io.LimitedReader }

func (*boundedBody) Close() error { return nil }

// copyEndToEnd copies src's headers into dst, sharing value slices and
// leaving out the hop-by-hop ones (RFC 9110 §7.6.1): the fixed set, anything
// Proxy-*, and whatever src's own Connection header lists.
func copyEndToEnd(dst, src http.Header) {
	connection := src["Connection"]
	for k, vv := range src {
		if !hopByHop(k, connection) {
			dst[k] = vv
		}
	}
}

func hopByHop(key string, connection []string) bool {
	switch key {
	case "Connection", "Keep-Alive", "Te", "Trailer", "Transfer-Encoding", "Upgrade":
		return true
	}
	if strings.HasPrefix(key, "Proxy-") {
		return true
	}
	for _, v := range connection {
		for v != "" {
			var token string
			token, v, _ = strings.Cut(v, ",")
			if strings.EqualFold(strings.TrimSpace(token), key) {
				return true
			}
		}
	}
	return false
}

// deliver streams the chosen answer to the client, stamped with the backend
// that served it (clients such as l3load bucket latency by that header), and
// finishes the attempt when the body ends.
func (x exchange) deliver(w http.ResponseWriter, a attempt) {
	h := w.Header()
	copyEndToEnd(h, a.resp.Header)
	h[HeaderBackend] = a.b.stamp
	w.WriteHeader(a.resp.StatusCode)
	readErr, writeErr := copyBody(w, a.resp.Body, a.resp.ContentLength < 0)
	for k, vv := range a.resp.Trailer {
		h[http.TrailerPrefix+k] = vv
	}
	x.p.finish(a, readErr)
	if readErr != nil || writeErr != nil {
		// The client holds part of an answer; returning normally would end
		// a chunked response as if it were whole.
		panic(http.ErrAbortHandler)
	}
}

// copyBufPool holds the 32 KiB buffers bodies are copied through. The copy
// is an explicit loop because io.Copy(w, body) is not a pooled copy:
// http.response.ReadFrom hands any body past its 512-byte sniff to
// TCPConn.ReadFrom, whose generic fallback allocates 32 KiB of its own.
var copyBufPool = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// copyBody copies an upstream body to the client, flushing after every
// write when flush is set (an upstream of unknown length is a stream).
func copyBody(w http.ResponseWriter, body io.Reader, flush bool) (readErr, writeErr error) {
	buf := copyBufPool.Get().(*[32 << 10]byte)
	defer copyBufPool.Put(buf)
	flusher, _ := w.(http.Flusher)
	for {
		n, err := body.Read(buf[:])
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return nil, werr
			}
			if flush && flusher != nil {
				flusher.Flush()
			}
		}
		if err == io.EOF {
			return nil, nil
		}
		if err != nil {
			return err, nil
		}
	}
}

// finish books and releases an attempt whose answer has ended (bodyErr is
// what cut a delivered body short, if anything) or never came. One latency,
// launch to end of body — Linkerd's response_latency — feeds the backend's
// metrics and breaker, the admitter's limiter (RTT is the Vegas congestion
// signal, a failure the AIMD decrease) and, on success, the hedge tracker.
func (p *proxyHandler) finish(a attempt, bodyErr error) {
	if a.resp != nil {
		a.resp.Body.Close()
	}
	ok := bodyErr == nil && a.ok()
	now := p.nowFn()
	latency := now - a.start
	a.b.inflight.Dec()
	a.b.Record(now, latency, ok)
	if p.admitter != nil {
		p.admitter.Observe(a.b.idx, latency, ok)
	}
	if ok {
		p.hedge.observe(latency)
	}
	a.cancel()
}

// Inflight returns the requests currently inside the handler.
func (p *proxyHandler) Inflight() int64 { return p.inflight.Load() }

// Retries returns proxy-level retry attempts launched.
func (p *proxyHandler) Retries() int64 { return p.retries.Load() }

// Hedges returns hedge attempts launched.
func (p *proxyHandler) Hedges() int64 { return p.hedges.Load() }

// Panics returns panics recovered in the request path.
func (p *proxyHandler) Panics() int64 { return p.panics.Load() }

// retryBudget is a Finagle/Linkerd-style token bucket shared by all
// retries: each logical request deposits ratio tokens, each retry withdraws
// one, bounding the steady-state retry ratio so a dead backend cannot turn
// offered load into a retry storm. Token arithmetic is integer milli-tokens
// on one atomic, CAS-looped, allocation-free.
type retryBudget struct {
	tokens     atomic.Int64 // milli-tokens
	ratioMilli int64
	burstMilli int64
}

func newRetryBudget(ratio float64) *retryBudget {
	b := &retryBudget{ratioMilli: int64(ratio * 1000)}
	burst := 100 * ratio
	if burst < 10 {
		burst = 10
	}
	b.burstMilli = int64(burst * 1000)
	b.tokens.Store(b.burstMilli) // start full so cold starts can retry
	return b
}

func (b *retryBudget) deposit() {
	if b.ratioMilli <= 0 {
		return
	}
	for {
		cur := b.tokens.Load()
		next := cur + b.ratioMilli
		if next > b.burstMilli {
			next = b.burstMilli
		}
		if next == cur || b.tokens.CompareAndSwap(cur, next) {
			return
		}
	}
}

func (b *retryBudget) withdraw() bool {
	if b.ratioMilli <= 0 {
		return false
	}
	for {
		cur := b.tokens.Load()
		if cur < 1000 {
			return false
		}
		if b.tokens.CompareAndSwap(cur, cur-1000) {
			return true
		}
	}
}
