package serve

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"l3/internal/metrics"
	"l3/internal/resilience"
)

// proxyOver boots a proxy over one plain net/http upstream per handler
// (named s0, s1, …; /healthz answered apart from the handler) and tears
// everything down with the test.
func proxyOver(tb testing.TB, mutate func(*Config), handlers ...http.Handler) *Server {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Listen = "127.0.0.1:0"
	cfg.Algo = AlgoRR
	cfg.DrainTimeout = 5 * time.Second
	for i, h := range handlers {
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
		mux.Handle("/", h)
		up := httptest.NewServer(mux)
		tb.Cleanup(up.Close)
		cfg.Backends = append(cfg.Backends, BackendConfig{Name: fmt.Sprintf("s%d", i), URL: up.URL})
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.ShutdownTimeout() })
	return srv
}

// fixedAnswer drains the request and answers n bytes with a Content-Length,
// the benchmark module's stub shape.
func fixedAnswer(n int) http.Handler {
	body := make([]byte, n)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Length", strconv.Itoa(n))
		w.Write(body)
	})
}

// send issues one request through client and returns the status and the
// body length read to the end.
func send(client *http.Client, method, url string, body []byte) (status int, n int64, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	n, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, n, err
}

// gateTripper lets an outbound request's declared Content-Length through
// and parks the transport's next Read of the body — its probe for excess
// bytes — until released.
type gateTripper struct {
	next     http.RoundTripper
	probing  chan struct{} // closed when the probe read begins
	release  chan struct{} // the probe proceeds once this closes
	returned chan error    // the probe's result
}

type gatedBody struct {
	io.ReadCloser
	left int64
	once sync.Once
	g    *gateTripper
}

func (g *gateTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body == nil || req.ContentLength <= 0 {
		return g.next.RoundTrip(req)
	}
	out := *req // a RoundTripper must not modify the request it was given
	out.Body = &gatedBody{ReadCloser: req.Body, left: req.ContentLength, g: g}
	return g.next.RoundTrip(&out)
}

func (b *gatedBody) Read(p []byte) (int, error) {
	if b.left > 0 {
		n, err := b.ReadCloser.Read(p)
		b.left -= int64(n)
		return n, err
	}
	b.once.Do(func() { close(b.g.probing) })
	<-b.g.release
	n, err := b.ReadCloser.Read(p)
	select {
	case b.g.returned <- err:
	default:
	}
	return n, err
}

// TestAnswerSurvivesRequestBodyClose is the truncated-POST regression
// (benchmark/README.md "Why 3 KiB and not 4"), made deterministic. net/http's
// server closes a request body once its handler starts answering; the
// upstream transport's body writer makes one more Read after the declared
// length, probing for excess. When that probe reached the closed inbound
// body it failed, the transport tore the upstream connection down, and an
// answer still arriving on it was cut short. The outbound body now ends at
// its declared length, so the probe reads io.EOF and the answer completes.
func TestAnswerSurvivesRequestBodyClose(t *testing.T) {
	const answer = 8 << 10
	secondHalf := make(chan struct{})
	srv := proxyOver(t, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Length", strconv.Itoa(answer))
		w.Write(make([]byte, answer/2))
		w.(http.Flusher).Flush()
		<-secondHalf
		w.Write(make([]byte, answer/2))
	}))
	gate := &gateTripper{
		next:     srv.Handler().transport,
		probing:  make(chan struct{}),
		release:  make(chan struct{}),
		returned: make(chan error, 1),
	}
	srv.Handler().transport = gate
	wait := func(what string, ch <-chan struct{}) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}

	resp, err := http.Post(srv.URL()+"/", "application/octet-stream", bytes.NewReader(make([]byte, 1<<10)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// One answer byte at the client means the proxy's server has written its
	// header — and closed the inbound request body.
	if _, err := io.ReadFull(resp.Body, make([]byte, 1)); err != nil {
		t.Fatalf("first answer byte: %v", err)
	}
	wait("the transport's probe read", gate.probing)
	close(gate.release)
	select {
	case err := <-gate.returned:
		if err != io.EOF {
			t.Errorf("probe past the declared length read %v, want io.EOF without touching the inbound body", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("probe read never returned")
	}
	close(secondHalf)
	rest, err := io.ReadAll(resp.Body)
	if got := 1 + len(rest); got != answer || err != nil {
		t.Fatalf("got %d of %d bytes, %v", got, answer, err)
	}
}

// TestChunkedRequestBodyPassesThrough covers the body shape the length bound
// does not apply to: no Content-Length, streamed upstream as it arrives.
func TestChunkedRequestBodyPassesThrough(t *testing.T) {
	var got atomic.Int64
	var chunked atomic.Bool
	srv := proxyOver(t, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		chunked.Store(r.ContentLength == -1)
		n, _ := io.Copy(io.Discard, r.Body)
		got.Store(n)
	}))
	// A reader of no known type makes the client send Transfer-Encoding:
	// chunked.
	req, err := http.NewRequest(http.MethodPost, srv.URL()+"/", io.MultiReader(strings.NewReader(strings.Repeat("x", 70<<10))))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || got.Load() != 70<<10 || !chunked.Load() {
		t.Fatalf("status %d, upstream read %d bytes (chunked=%v), want 200, %d, true", resp.StatusCode, got.Load(), chunked.Load(), 70<<10)
	}
}

// TestColdWarmGetAndPostParity pins that there is one forwarding path: the
// first GET of a stream (hedge tracker cold), the eightieth (tracker warm,
// hedge armed) and a POST get the same header treatment in both directions
// and the same per-try bound.
func TestColdWarmGetAndPostParity(t *testing.T) {
	const budget = 5 * time.Second
	var mu sync.Mutex
	var seen http.Header
	upstream := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if r.URL.Path == "/stall" {
			<-r.Context().Done()
			return
		}
		mu.Lock()
		seen = r.Header.Clone()
		mu.Unlock()
		h := w.Header()
		h.Set("Connection", "X-Answer-Hop")
		h.Set("X-Answer-Hop", "1")
		h.Set("Keep-Alive", "timeout=5")
		h.Set("Proxy-Authenticate", "Basic")
		h.Set("Upgrade", "h2c")
		h.Set("X-Answer-Kept", "yes")
		w.Write([]byte("ok"))
	})
	srv := proxyOver(t, func(c *Config) {
		c.Resilience = DefaultResilience + ",deadline=5s,pertry=100ms"
	}, upstream, upstream)

	exchange := func(method, path string) (*http.Response, time.Duration) {
		t.Helper()
		var body io.Reader
		if method == http.MethodPost {
			body = bytes.NewReader(make([]byte, 1<<10))
		}
		req, err := http.NewRequest(method, srv.URL()+path, body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Connection", "X-Request-Hop")
		req.Header.Set("X-Request-Hop", "1")
		req.Header.Set("Keep-Alive", "timeout=5")
		req.Header.Set("Te", "trailers")
		req.Header.Set("Upgrade", "h2c")
		req.Header.Set("Proxy-Authorization", "secret")
		req.Header.Set("X-Forwarded-For", "10.1.2.3")
		req.Header.Set("X-Request-Kept", "yes")
		start := time.Now()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp, time.Since(start)
	}
	check := func(what, method string) {
		t.Helper()
		resp, _ := exchange(method, "/")
		mu.Lock()
		up := seen
		mu.Unlock()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", what, resp.StatusCode)
		}
		if ms, err := strconv.ParseInt(up.Get(HeaderDeadline), 10, 64); err != nil || ms <= 0 || ms > budget.Milliseconds() {
			t.Errorf("%s: backend saw %s=%q, want integer in (0, %d]", what, HeaderDeadline, up.Get(HeaderDeadline), budget.Milliseconds())
		}
		if got := up.Get("X-Forwarded-For"); got != "10.1.2.3, 127.0.0.1" {
			t.Errorf("%s: backend saw X-Forwarded-For=%q, want the client appended", what, got)
		}
		for _, k := range []string{"Connection", "X-Request-Hop", "Keep-Alive", "Te", "Upgrade", "Proxy-Authorization"} {
			if v, ok := up[k]; ok {
				t.Errorf("%s: hop-by-hop request header %s=%q reached the backend", what, k, v)
			}
		}
		if up.Get("X-Request-Kept") != "yes" {
			t.Errorf("%s: end-to-end request header lost", what)
		}
		for _, k := range []string{"Connection", "X-Answer-Hop", "Keep-Alive", "Proxy-Authenticate", "Upgrade"} {
			if v, ok := resp.Header[k]; ok {
				t.Errorf("%s: hop-by-hop answer header %s=%q reached the client", what, k, v)
			}
		}
		if resp.Header.Get("X-Answer-Kept") != "yes" {
			t.Errorf("%s: end-to-end answer header lost", what)
		}
		if b := resp.Header.Get(HeaderBackend); b != "s0" && b != "s1" {
			t.Errorf("%s: %s=%q, want the serving backend", what, HeaderBackend, b)
		}
	}

	check("GET 1 (tracker cold)", http.MethodGet)
	for i := 2; i < 80; i++ {
		exchange(http.MethodGet, "/")
	}
	if srv.res.learnedDelay() == 0 {
		t.Fatal("hedge delay still unlearned after 79 successes")
	}
	check("GET 80 (tracker warm)", http.MethodGet)
	check("POST", http.MethodPost)

	// Every attempt runs under the per-try timeout, hedge-armed or not: a
	// stalled upstream costs tries of 100 ms, never the 5 s budget.
	for _, method := range []string{http.MethodGet, http.MethodPost} {
		resp, took := exchange(method, "/stall")
		if resp.StatusCode != http.StatusBadGateway || took > budget/2 {
			t.Errorf("%s to a stalled upstream: %d after %v, want 502 at about the per-try timeout", method, resp.StatusCode, took)
		}
	}
}

// TestAttemptLatencyEndsWithTheBody pins the one latency definition: launch
// to the end of the answer's body, for a cold GET, a hedge-armed GET and a
// POST alike, in the backend's histogram; and, since Record hands the same
// value to the resilience core, in the learned hedge delay.
func TestAttemptLatencyEndsWithTheBody(t *testing.T) {
	t.Parallel() // its answers mostly sleep
	const gap = 150 * time.Millisecond
	var slow atomic.Bool
	var pause atomic.Int64
	pause.Store(int64(gap))
	srv := proxyOver(t, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte("first"))
		if slow.Load() {
			w.(http.Flusher).Flush()
			time.Sleep(time.Duration(pause.Load()))
		}
		w.Write([]byte("second"))
	}))
	b := srv.backends[0]
	delayed := func(what, method string) {
		t.Helper()
		slow.Store(true)
		defer slow.Store(false)
		sum := b.okLatency.Sum()
		var body []byte
		if method == http.MethodPost {
			body = make([]byte, 1<<10)
		}
		if status, _, err := send(http.DefaultClient, method, srv.URL()+"/", body); err != nil || status != http.StatusOK {
			t.Fatalf("%s: status %d, %v", what, status, err)
		}
		if got := b.okLatency.Sum() - sum; got < gap.Seconds() {
			t.Errorf("%s: recorded %.3fs, want >= %.3fs (headers arrived early; the body ended late)", what, got, gap.Seconds())
		}
	}
	delayed("GET (hedge delay unlearned)", http.MethodGet)
	for i := 0; i < 80; i++ {
		send(http.DefaultClient, http.MethodGet, srv.URL()+"/", nil)
	}
	if srv.res.learnedDelay() == 0 {
		t.Fatal("hedge delay still unlearned after 80 successes")
	}
	delayed("GET (hedge armed)", http.MethodGet)
	delayed("POST", http.MethodPost)

	// Bodies that end 20 ms after their headers teach the learner a 20 ms
	// p95 within its next recompute; header-time latencies would not.
	const tail = 20 * time.Millisecond
	pause.Store(int64(tail))
	slow.Store(true)
	for i := 0; i < 64 && srv.res.learnedDelay() < tail; i++ {
		send(http.DefaultClient, http.MethodGet, srv.URL()+"/", nil)
	}
	slow.Store(false)
	if d := srv.res.learnedDelay(); d < tail {
		t.Errorf("learned hedge delay %v after slow-bodied answers, want >= %v", d, tail)
	}
	if got := b.inflight.Value(); got != 0 {
		t.Errorf("backend in-flight gauge = %v after every answer ended, want 0", got)
	}
}

// TestHedgeRaceBooksEveryAttemptOnce runs concurrent GETs against upstreams
// that are slow on one request in sixteen, so hedges fire and the race goes
// both ways (hedge rescues, primary lands first, loser cancelled): every
// request is answered, every launched attempt leaves the in-flight gauges,
// and the attempts booked lie between the requests sent and sent + hedges.
func TestHedgeRaceBooksEveryAttemptOnce(t *testing.T) {
	var served atomic.Int64
	upstream := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1)%16 == 0 {
			select {
			case <-time.After(20 * time.Millisecond):
			case <-r.Context().Done():
				return
			}
		}
		w.Write([]byte("ok"))
	})
	srv := proxyOver(t, func(c *Config) { c.Resilience = DefaultResilience + ",breaker=0" }, upstream, upstream)
	const clients, each = 4, 200
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if status, _, err := send(http.DefaultClient, http.MethodGet, srv.URL()+"/", nil); err != nil || status != http.StatusOK {
					t.Errorf("request %d: status %d, %v", i, status, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	hedges := srv.Handler().Hedges()
	if hedges == 0 {
		t.Fatal("no hedge fired; the race was not exercised")
	}
	// A cancelled hedge leaves on its own goroutine, just after its winner.
	var inflight, booked float64
	for end := time.Now().Add(2 * time.Second); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		inflight, booked = 0, 0
		for _, b := range srv.backends {
			inflight += b.inflight.Value()
			booked += b.okTotal.Value() + b.failTotal.Value()
		}
		if inflight == 0 {
			break
		}
	}
	if inflight != 0 {
		t.Errorf("in-flight gauges sum to %v after the last answer, want 0", inflight)
	}
	if sent := float64(clients * each); booked < sent || booked > sent+float64(hedges) {
		t.Errorf("booked %v attempts for %v requests and %d hedges", booked, sent, hedges)
	}
	// Every race the pool holds went back empty: no exchange, backend or
	// cancel func pins a finished request, and no stale result waits.
	for i := 0; i < 16; i++ {
		r := hedgeRacePool.Get().(*hedgeRace)
		if r.won || r.x != (exchange{}) || r.primary != nil || r.cancelPrimary != nil || r.cancelHedge != nil || len(r.result) != 0 {
			t.Fatalf("pooled hedge race not empty: won %v, exchange %+v, primary %v, cancels %v/%v, %d results queued",
				r.won, r.x, r.primary, r.cancelPrimary != nil, r.cancelHedge != nil, len(r.result))
		}
		defer hedgeRacePool.Put(r)
	}
}

// failedRequest is what faultTripper saw of a request it failed: the
// request, its header map and URL, and their contents then.
type failedRequest struct {
	req    *http.Request
	header uintptr // the map's identity
	url    *url.URL
	text   string // the URL and header as they were
}

// faultTripper fails every third request — closing its body, as a
// RoundTripper must — and forwards the rest to next. Each request it sees
// is checked against every one it failed: a failed attempt's request,
// header map and URL are never reused, and never change.
type faultTripper struct {
	next http.RoundTripper
	mu   sync.Mutex
	seen int
	bad  []string
	kept []failedRequest
}

func describe(req *http.Request) string {
	return fmt.Sprintf("%s %v", req.URL, req.Header)
}

func (f *faultTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	h := reflect.ValueOf(req.Header).Pointer()
	for _, k := range f.kept {
		if k.req == req || k.header == h || k.url == req.URL {
			f.bad = append(f.bad, "a failed attempt's request, header map or URL was reused by "+describe(req))
		}
		if now := describe(k.req); now != k.text {
			f.bad = append(f.bad, fmt.Sprintf("a failed attempt's request changed from %q to %q", k.text, now))
		}
	}
	f.seen++
	fail := f.seen%3 == 0
	if fail {
		f.kept = append(f.kept, failedRequest{req: req, header: h, url: req.URL, text: describe(req)})
	}
	f.mu.Unlock()
	if fail {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errors.New("injected transport fault")
	}
	return f.next.RoundTrip(req)
}

// TestFailedAttemptScratchIsNeverReused drives GETs and POSTs through a
// transport that fails one attempt in three. An attempt whose RoundTrip
// errored may still be referenced by the transport, so its outbound scratch
// must be left to the GC, while the others return to the pool and are
// reused.
func TestFailedAttemptScratchIsNeverReused(t *testing.T) {
	up := fixedAnswer(2)
	srv := proxyOver(t, nil, up, up)
	ft := &faultTripper{next: srv.Handler().transport}
	srv.Handler().transport = ft
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	body := make([]byte, 1<<10)
	for i := 0; i < 300; i++ {
		method, b := http.MethodGet, []byte(nil)
		if i%2 == 1 {
			method, b = http.MethodPost, body
		}
		if _, _, err := send(client, method, srv.URL()+"/", b); err != nil {
			t.Fatal(err)
		}
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if len(ft.kept) < 50 {
		t.Fatalf("only %d attempts failed; the fault was not exercised", len(ft.kept))
	}
	for i, msg := range ft.bad {
		if i == 5 {
			t.Errorf("… and %d more", len(ft.bad)-i)
			break
		}
		t.Error(msg)
	}
}

// proxyShapes are the request shapes whose allocation cost is pinned: the
// benchmark module's two (GET with a 2-byte answer, POST 1 KiB with a 3 KiB
// answer) and two whose answers pass net/http's 512-byte sniff buffer and so
// reach the copy loop.
var proxyShapes = []struct {
	name   string
	method string
	body   []byte
	answer int
}{
	{"get_2B", http.MethodGet, nil, 2},
	{"get_600B", http.MethodGet, nil, 600},
	{"post_1KiB_3KiB", http.MethodPost, make([]byte, 1<<10), 3 << 10},
	{"post_1KiB_64KiB", http.MethodPost, make([]byte, 1<<10), 64 << 10},
}

// BenchmarkProxyRequest is one request through the live proxy on loopback —
// client, proxy and upstream in this process, so allocs/op is process-wide,
// the number serve_get and serve_post report.
func BenchmarkProxyRequest(b *testing.B) {
	for _, shape := range proxyShapes {
		b.Run(shape.name, func(b *testing.B) {
			srv := proxyOver(b, nil, fixedAnswer(shape.answer))
			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			one := func() {
				if status, n, err := send(client, shape.method, srv.URL()+"/", shape.body); err != nil || status != http.StatusOK || n != int64(shape.answer) {
					b.Fatalf("status %d, %d bytes, %v", status, n, err)
				}
			}
			for i := 0; i < 200; i++ {
				one() // connections pooled, hedge tracker warm
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				one()
			}
		})
	}
}

// perProxiedRequest sends 200 requests of shape through a live proxy to warm
// its pools and connections, then 2 000 more, and returns the process-wide
// bytes and mallocs each of those took (runtime.MemStats, so client, proxy
// and upstream alike — the numbers serve_get and serve_post report).
func perProxiedRequest(t *testing.T, method string, body []byte, answer int) (bytes, mallocs float64) {
	t.Helper()
	srv := proxyOver(t, nil, fixedAnswer(answer))
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	run := func(n int) {
		for i := 0; i < n; i++ {
			if status, got, err := send(client, method, srv.URL()+"/", body); err != nil || status != http.StatusOK || got != int64(answer) {
				t.Fatalf("status %d, %d bytes, %v", status, got, err)
			}
		}
	}
	run(200)
	const n = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(n)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / n, float64(after.Mallocs-before.Mallocs) / n
}

// TestProxiedRequestBytes holds the process-wide bytes one proxied request
// allocates under 24 000 — with a 32 KiB copy buffer allocated per answer
// it reads about 48 000. The GET case guards a trap: io.Copy(w, resp.Body)
// looks pooled and is not (see copyBufPool).
func TestProxiedRequestBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; the pin only holds without it")
	}
	for _, shape := range proxyShapes[1:3] {
		t.Run(shape.name, func(t *testing.T) {
			perOp, mallocs := perProxiedRequest(t, shape.method, shape.body, shape.answer)
			t.Logf("%s: %.0f B and %.1f allocs per proxied request, process-wide", shape.name, perOp, mallocs)
			if perOp >= 24000 {
				t.Errorf("%s: %.0f B per proxied request, want < 24000", shape.name, perOp)
			}
		})
	}
}

// TestProxiedRequestMallocs holds the process-wide mallocs of the benchmark
// module's two request shapes at what they read with one context per
// attempt, a pooled hedge race and pooled outbound scratch, plus 3 %. A
// second context per request costs 7, an unpooled race 5 and unpooled
// scratch 4 or 5.
func TestProxiedRequestMallocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; the pin only holds without it")
	}
	ceiling := map[string]float64{"get_2B": 147.5, "post_1KiB_3KiB": 178.4}
	for _, shape := range []int{0, 2} {
		shape := proxyShapes[shape]
		t.Run(shape.name, func(t *testing.T) {
			_, mallocs := perProxiedRequest(t, shape.method, shape.body, shape.answer)
			t.Logf("%s: %.1f mallocs per proxied request, process-wide (ceiling %.1f)", shape.name, mallocs, ceiling[shape.name])
			if mallocs > ceiling[shape.name] {
				t.Errorf("%s: %.1f mallocs per proxied request, want <= %.1f", shape.name, mallocs, ceiling[shape.name])
			}
		})
	}
}

var soakRequests = flag.Int("soak-requests", 20000, "requests TestServeSoak sends per answer size (make serve-soak: 1000000)")

// TestServeSoak drives POSTs with 4 KiB and 64 KiB answers through a live
// proxy — closed loop, two clients, three plain net/http upstreams, the
// benchmark module's serve_post arrangement at the answer sizes it avoids —
// and fails on any non-200, short body or transport error.
func TestServeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak needs seconds to minutes of wall clock; run make serve-soak")
	}
	t.Parallel() // beside the wall tests that mostly wait
	for _, answer := range []int{4 << 10, 64 << 10} {
		up := fixedAnswer(answer)
		srv := proxyOver(t, func(c *Config) { c.Algo = AlgoL3 }, up, up, up)
		const clients = 2
		var failed atomic.Int64
		var first atomic.Value
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
				defer client.CloseIdleConnections()
				body := make([]byte, 1<<10)
				for i := 0; i < *soakRequests/clients; i++ {
					status, n, err := send(client, http.MethodPost, srv.URL()+"/", body)
					if err != nil || status != http.StatusOK || n != int64(answer) {
						failed.Add(1)
						first.CompareAndSwap(nil, fmt.Sprintf("request %d: status %d, %d of %d bytes, %v", i, status, n, answer, err))
					}
				}
			}()
		}
		wg.Wait()
		t.Logf("%d KiB answers: %d requests in %v, %d failed, %d retries", answer>>10, *soakRequests, time.Since(start).Round(time.Millisecond), failed.Load(), srv.Handler().Retries())
		if failed.Load() != 0 {
			t.Errorf("%d KiB answers: %d of %d requests failed; first: %v", answer>>10, failed.Load(), *soakRequests, first.Load())
		}
	}
}

// FuzzDeadlineBudget feeds X-L3-Deadline arbitrary bytes through the path a
// request's deadline takes — headerBudget, then the core's deadline math
// against the policy's own deadline, at a proxy clock an hour in: it never
// panics, a usable header yields a budget in (0, default] (the header's own
// value, saturated at the clock's end, when the policy has no deadline), and
// anything else — non-numeric, negative, overflowing, padded with whitespace
// — falls back to the default.
func FuzzDeadlineBudget(f *testing.F) {
	for _, v := range []string{"", "250", "0", "-5", " 250", "250 ", "1e3", "0x10", "+7", "９", "9223372036854775807", "9223372036854775808", "9223372036855", "abc"} {
		f.Add(v, int64(10*time.Second))
		f.Add(v, int64(0))
	}
	const now = time.Hour
	f.Fuzz(func(t *testing.T, v string, defNs int64) {
		def := max(time.Duration(defNs), 0)
		res := newWallResilience(resilience.Policy{Deadline: def}, "api", nil, metrics.NewRegistry())
		req := &http.Request{Header: http.Header{HeaderDeadline: {v}}}
		var got time.Duration
		if dl := res.deadline(now, headerBudget(req)); dl > 0 {
			got = dl - now
		}
		ms, err := strconv.ParseInt(v, 10, 64)
		valid := err == nil && ms > 0 && ms <= math.MaxInt64/int64(time.Millisecond)
		switch {
		case !valid && got != def:
			t.Fatalf("budget(%q, %v) = %v, want the default for an unusable header", v, def, got)
		case valid && def > 0 && (got <= 0 || got > def):
			t.Fatalf("budget(%q, %v) = %v, want in (0, %v]", v, def, got, def)
		case valid && def == 0 && got != min(time.Duration(ms)*time.Millisecond, math.MaxInt64-now):
			t.Fatalf("budget(%q, %v) = %v, want the header's %d ms", v, def, got, ms)
		}
	})
}
