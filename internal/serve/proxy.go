package serve

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"l3/internal/overload"
)

// Headers of the serve-mode request protocol.
const (
	// HeaderDeadline carries the remaining latency budget in integer
	// milliseconds. The proxy honors it inbound (capping its own policy's
	// deadline) and restamps the remainder outbound, so budgets shrink hop
	// by hop instead of resetting.
	HeaderDeadline = "X-L3-Deadline"
	// HeaderBackend names the backend that served the response, stamped by
	// the proxy so clients (l3load) can bucket latency per backend.
	HeaderBackend = "X-L3-Backend"
)

// headerBudget reads a request's X-L3-Deadline budget; 0 means none. A header
// that is not a positive integer of milliseconds a time.Duration can hold is
// ignored. Allocation-free (header lookup by canonical key, integer parse).
func headerBudget(req *http.Request) time.Duration {
	if v := req.Header.Get(HeaderDeadline); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 && ms <= math.MaxInt64/int64(time.Millisecond) {
			return time.Duration(ms) * time.Millisecond
		}
	}
	return 0
}

// proxyHandler is the data-plane HTTP handler: pick a backend, forward,
// record the outcome, retry transport errors that never reached the client,
// hedge slow idempotent requests, and enforce the request's latency budget.
// Every request of every method takes one path — exchange.try on the shared
// transport. Every resilience decision is res's: the shared core's budget,
// breaker, hedge delay and deadline. Pick, those decisions and metric
// recording are allocation-free, and so is arming a hedge (its race is
// pooled). What forwarding allocates is one context per attempt and the
// outbound request's shallow copy — net/http offers no other way to set a
// request's context — and the deadline's decimal text; the URL, header map
// and body an attempt sends come from a pool. DESIGN.md § Serving mode
// itemizes the rest, which is net/http's own.
type proxyHandler struct {
	router *Router
	nowFn  func() time.Duration
	res    *wallResilience
	panics atomic.Int64

	// transport carries every upstream attempt (and is the tests' fault seam).
	transport http.RoundTripper

	// admitter gates every request before backend pick (nil = overload
	// control off). Shed requests answer 429/503 + Retry-After without
	// touching the retry budget, the router or any upstream socket.
	admitter *overload.WallAdmitter

	inflight atomic.Int64
	draining atomic.Bool
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

	now := p.nowFn()
	x := exchange{p: p, in: req, deadline: p.res.deadline(now, headerBudget(req))}

	// Admission runs before the retry-budget deposit and before any backend
	// pick: a shed request must cost nothing downstream. A queued request
	// parks inside Admit (bounded by the drop law's MaxWait flush and by its
	// deadline); its wait spends the request's deadline, whose remainder
	// each attempt then propagates downstream. The admitted fast path is
	// allocation-free.
	if p.admitter != nil {
		v := p.admit(req, now, x.deadline)
		if v.Shed() {
			shedResponse(w, v)
			return
		}
		defer p.admitter.Release()
		now = p.nowFn() // the queue wait spent part of the deadline
	}

	hedgeDelay := p.res.start(now, x.deadline)
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

	// Per-try bound (a wall-only rule): the policy's pertry, else an even
	// share of the remaining deadline so a stalled first attempt leaves time
	// to retry.
	pol := &p.res.policy
	x.perTry = pol.Retry.AttemptTimeout
	if x.perTry <= 0 && x.deadline > 0 {
		x.perTry = (x.deadline - now) / time.Duration(max(1, pol.Retry.MaxAttempts))
	}
	// The other wall-only rule: a consumed body cannot be replayed to a second
	// backend, so body-carrying requests neither retry nor hedge, and only
	// bodyless GET/HEAD (idempotent) hedge. A zero delay — hedging off, or no
	// learned delay yet — is the same path unhedged.
	canRetry := req.Body == nil || req.Body == http.NoBody
	if !canRetry || req.Method != http.MethodGet && req.Method != http.MethodHead {
		hedgeDelay = 0
	}

	var b *Backend // the backend that just failed; nil before the first attempt
	wait := pol.Retry.Backoff
	for launched := 0; ; {
		// The deadline is read off the proxy clock: no context carries it
		// beyond the attempts. A client that went away is answered alike
		// but counts nothing.
		if x.deadline > 0 && p.nowFn() >= x.deadline {
			p.res.core.DeadlineExceeded()
			http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
			return
		}
		if req.Context().Err() != nil {
			http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
			return
		}
		if launched > 0 {
			// Retry only a transport error the client saw nothing of, as the
			// core decides: within the attempt cap, after a jittered backoff
			// that ends before the deadline, paid for from the budget.
			var after time.Duration
			ok := false
			if canRetry {
				after, wait, ok = p.res.retry(p.nowFn(), launched, wait, x.deadline)
			}
			if !ok {
				http.Error(w, "upstream unreachable", http.StatusBadGateway)
				return
			}
			if !x.backoff(after) {
				continue // the request's context ended the wait
			}
			p.res.core.Retried()
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

// admit asks the admitter for a slot. Admit waits under a context, so a
// request with a deadline gets one that ends there, for that wait alone.
func (p *proxyHandler) admit(req *http.Request, now, deadline time.Duration) overload.Verdict {
	ctx := req.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline-now)
		defer cancel()
	}
	return p.admitter.Admit(ctx, time.Now(), overload.ParseTier(req.Header.Get(HeaderCriticality)))
}

// exchange is one client request's forwarding state, passed by value to the
// attempts made for it (a hedge runs on its own goroutine with its own copy).
type exchange struct {
	p        *proxyHandler
	in       *http.Request // the inbound request; never modified. Its context is every attempt's parent
	deadline time.Duration // absolute, on the proxy clock; 0 = none
	perTry   time.Duration // 0 = unbounded
}

// backoff waits out a retry's backoff and reports whether the wait ran to
// its end; the client going away cuts it short. (The retry decision already
// ended the backoff before the deadline.)
func (x exchange) backoff(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-x.in.Context().Done():
		return false
	}
}

// attempt is one upstream round trip. Whoever holds it last passes it to
// finish exactly once (deliver does, after the body).
type attempt struct {
	b       *Backend
	start   time.Duration // launch instant on the proxy clock
	cancel  context.CancelFunc
	scratch *outboundScratch // what the outbound request points at
	resp    *http.Response
	err     error
}

// ok reports an answer the client should get without looking further.
func (a attempt) ok() bool {
	return a.err == nil && a.resp.StatusCode < http.StatusInternalServerError
}

// try makes one attempt against b on the calling goroutine and returns when
// its response headers or its failure are in, with the number of attempts
// launched. With hedgeDelay > 0 a pooled race's timer runs beside it; only
// if the timer fires does a second attempt, to a different backend, start
// on a goroutine of its own — then the first acceptable answer wins and
// cancels the other, and try waits for both, so no attempt outlives it. The
// returned attempt is the caller's to finish; the other is finished here.
func (x exchange) try(b *Backend, hedgeDelay time.Duration) (attempt, int) {
	ctx, cancel := x.tryContext()
	if hedgeDelay <= 0 {
		return x.launch(ctx, cancel, b), 1
	}
	r := hedgeRacePool.Get().(*hedgeRace)
	r.x, r.primary, r.cancelPrimary = x, b, cancel
	r.timer.Reset(hedgeDelay)
	a := x.launch(ctx, cancel, b)
	if r.timer.Stop() {
		r.recycle()
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
	h := <-r.result // prompt after a cancel; bounded by its attempt context
	// The hedge's goroutine is done with the race: its send was the last touch.
	raced := r.won
	r.recycle()
	if h.b == nil { // no second backend, or no budget for one
		return a, 1
	}
	if raced {
		x.p.res.core.Duplicate() // the race's loser
	}
	switch {
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

// hedgeRace is what a primary attempt and its hedge share. Races are pooled
// with their channel and timer, so arming a hedge allocates nothing; one
// goes back zeroed, so the pool holds no request.
type hedgeRace struct {
	mu sync.Mutex
	// won is set by the first attempt to bring an acceptable answer, which
	// then cancels the other.
	won           bool
	cancelPrimary context.CancelFunc
	cancelHedge   context.CancelFunc // nil until the hedge launches
	x             exchange
	primary       *Backend
	// result carries the hedge goroutine's one send; the zero attempt means
	// no hedge was launched.
	result chan attempt
	// timer runs fire after the hedge delay; try arms it with Reset.
	timer *time.Timer
}

var hedgeRacePool = sync.Pool{New: func() any {
	r := &hedgeRace{result: make(chan attempt, 1)}
	r.timer = time.AfterFunc(time.Hour, r.fire)
	r.timer.Stop()
	return r
}}

// fire runs on the hedge timer's goroutine.
func (r *hedgeRace) fire() { r.result <- r.hedge() }

// recycle returns the race to the pool with only its channel and timer.
func (r *hedgeRace) recycle() {
	*r = hedgeRace{result: r.result, timer: r.timer}
	hedgeRacePool.Put(r)
}

// hedge is a second attempt to a backend other than the primary, paid from
// the shared retry budget so hedging cannot storm either.
func (r *hedgeRace) hedge() attempt {
	x := r.x
	p := x.p
	r.mu.Lock()
	nb := p.router.PickAvoiding(p.nowFn(), r.primary)
	if r.won || nb == nil || nb == r.primary || !p.res.hedge() {
		r.mu.Unlock()
		return attempt{}
	}
	ctx, cancel := x.tryContext()
	r.cancelHedge = cancel
	r.mu.Unlock()
	h := x.launch(ctx, cancel, nb)
	r.mu.Lock()
	if !r.won && h.ok() {
		r.won = true
		r.cancelPrimary()
	}
	r.mu.Unlock()
	return h
}

// tryContext is an attempt's one context: the inbound request's, ending at
// the request deadline or the per-try bound, whichever comes first, and
// cancellable on its own.
func (x exchange) tryContext() (context.Context, context.CancelFunc) {
	end := x.deadline
	now := x.p.nowFn()
	if x.perTry > 0 && (end == 0 || x.perTry < end-now) {
		end = now + x.perTry
	}
	if end == 0 {
		return context.WithCancel(x.in.Context())
	}
	return context.WithTimeout(x.in.Context(), end-now)
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
	var out *http.Request
	out, a.scratch = x.outbound(ctx, b, a.start)
	a.resp, a.err = x.p.transport.RoundTrip(out)
	return a
}

// outbound builds the request an attempt sends, the one place the inbound
// request is translated: URL rewritten onto the backend, hop-by-hop headers
// dropped, the client appended to X-Forwarded-For, the time left before the
// deadline restamped (budgets shrink hop by hop), the body bounded. The
// request is a shallow copy under ctx; its URL, header map, the values the
// proxy writes and its body are the returned scratch's.
func (x exchange) outbound(ctx context.Context, b *Backend, now time.Duration) (*http.Request, *outboundScratch) {
	in := x.in
	s := scratchPool.Get().(*outboundScratch)
	s.holds.Store(1)
	out := in.WithContext(ctx) // Host stays the client's
	b.target(&s.url, in.URL)
	out.URL = &s.url
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
		s.holds.Store(2)
		s.body.R, s.body.N, s.body.s = in.Body, in.ContentLength, s
		out.Body = &s.body
	}

	// Values are shared with the inbound header (the transport only reads
	// them); the two the proxy writes live in the scratch.
	h := s.header
	copyEndToEnd(h, in.Header)
	if ip, _, err := net.SplitHostPort(in.RemoteAddr); err == nil {
		if prior := in.Header["X-Forwarded-For"]; len(prior) > 0 {
			ip = strings.Join(prior, ", ") + ", " + ip
		}
		s.own[0] = ip
		h["X-Forwarded-For"] = s.own[0:1:1]
	}
	if x.deadline > 0 {
		s.own[1] = strconv.FormatInt(max(1, (x.deadline-now).Milliseconds()), 10)
		h[HeaderDeadline] = s.own[1:2:2]
	}
	if _, ok := h["User-Agent"]; !ok {
		h["User-Agent"] = noUserAgent // or the transport invents one
	}
	out.Header = h
	return out, s
}

// outboundScratch is what an attempt's outbound request points at besides
// the request itself. Under the RoundTripper contract it may be reused once
// the response body is closed (finish's hold) and, when the request carries
// a body, once the transport has closed that body — on its own goroutine,
// perhaps after the answer (the body's hold). The last hold let go returns
// it, emptied, to the pool. An attempt whose RoundTrip failed never lets go
// of finish's hold, so its scratch is left to the GC.
type outboundScratch struct {
	url    url.URL
	header http.Header
	own    [2]string // the X-Forwarded-For and X-L3-Deadline values
	body   boundedBody
	holds  atomic.Int32
}

var scratchPool = sync.Pool{New: func() any { return &outboundScratch{header: make(http.Header)} }}

// release lets go of one hold.
func (s *outboundScratch) release() {
	if s.holds.Add(-1) != 0 {
		return
	}
	clear(s.header)
	s.url, s.own = url.URL{}, [2]string{}
	s.body.R, s.body.s = nil, nil
	s.body.closed.Store(false)
	scratchPool.Put(s)
}

var noUserAgent = []string{""}

// boundedBody is an outbound request body that ends at the declared length.
// Its first Close lets go of its scratch's body hold; the inbound body it
// reads from is net/http's to close. The transport closes a body more than
// once only on a failed round trip, whose scratch never goes back, so one
// guarded Close per use is enough.
type boundedBody struct {
	io.LimitedReader
	s      *outboundScratch
	closed atomic.Bool
}

func (b *boundedBody) Close() error {
	if b.closed.CompareAndSwap(false, true) {
		b.s.release()
	}
	return nil
}

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
// metrics, the core's breaker and hedge learner (both through Record) and
// the admitter's limiter (RTT is the Vegas congestion signal, a failure the
// AIMD decrease).
func (p *proxyHandler) finish(a attempt, bodyErr error) {
	if a.resp != nil {
		a.resp.Body.Close()
		a.scratch.release()
	}
	ok := bodyErr == nil && a.ok()
	now := p.nowFn()
	latency := now - a.start
	a.b.inflight.Dec()
	a.b.Record(now, latency, ok)
	if p.admitter != nil {
		p.admitter.Observe(a.b.idx, latency, ok)
	}
	a.cancel()
}

// Inflight returns the requests currently inside the handler.
func (p *proxyHandler) Inflight() int64 { return p.inflight.Load() }

// Retries returns proxy-level retry attempts launched — the core's
// resilience_retries_total.
func (p *proxyHandler) Retries() int64 { return p.res.core.Retries() }

// Hedges returns hedge attempts launched — the core's
// resilience_hedges_total.
func (p *proxyHandler) Hedges() int64 { return p.res.core.Hedges() }
