package dash

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"sperke/internal/faults"
	"sperke/internal/obs"
)

// faultyServer serves the demo catalog behind a fault injector and
// counts requests reaching the real handler.
func faultyServer(t *testing.T, in *faults.Injector) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	cat := NewCatalog()
	if err := cat.Add(testVideo()); err != nil {
		t.Fatal(err)
	}
	var served atomic.Int64
	inner := http.Handler(NewServer(cat))
	counted := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		inner.ServeHTTP(w, r)
	})
	h := http.Handler(counted)
	if in != nil {
		h = in.Wrap(counted)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, &served
}

// fastClient disables real sleeping so retry tests run instantly,
// recording each backoff it would have waited.
func fastClient(url string, slept *[]time.Duration, opts ...ClientOption) *Client {
	c := NewClient(url, opts...)
	c.sleep = func(ctx context.Context, d time.Duration) error {
		if slept != nil {
			*slept = append(*slept, d)
		}
		return ctx.Err()
	}
	return c
}

func TestClientRetriesThrough5xxBurst(t *testing.T) {
	in := faults.NewInjector(1, faults.Rule{ErrorProb: 1, MaxCount: 2})
	srv, _ := faultyServer(t, in)
	var slept []time.Duration
	c := fastClient(srv.URL, &slept)
	res, err := c.FetchChunk(context.Background(), "demo", 0, 0, 0)
	if err != nil {
		t.Fatalf("fetch through a 2-deep 503 burst failed: %v", err)
	}
	if res.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3 (two 503s, then success)", res.Attempts)
	}
	if len(slept) != 2 {
		t.Fatalf("%d backoffs, want 2", len(slept))
	}
	if slept[1] <= slept[0]/2 {
		t.Fatalf("backoff not growing: %v", slept)
	}
}

func TestClientRefetchesTruncatedSegment(t *testing.T) {
	in := faults.NewInjector(1, faults.Rule{TruncateProb: 1, MaxCount: 1})
	srv, _ := faultyServer(t, in)
	c := fastClient(srv.URL, nil)
	res, err := c.FetchChunk(context.Background(), "demo", 1, 2, 3)
	if err != nil {
		t.Fatalf("fetch with one truncated body failed: %v", err)
	}
	if res.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", res.Attempts)
	}
	if res.Header.Quality != 1 || res.Header.Tile != 2 {
		t.Fatalf("refetched segment decoded wrong: %+v", res.Header)
	}
	if st := in.Stats(); st.Truncations != 1 {
		t.Fatalf("injector stats %+v", st)
	}
}

func TestClientRefetchesCorruptSegment(t *testing.T) {
	// The HTTP layer succeeds but the first body does not decode: valid
	// status, garbage bytes. The decode failure is one more attempt.
	cat := NewCatalog()
	if err := cat.Add(testVideo()); err != nil {
		t.Fatal(err)
	}
	inner := NewServer(cat)
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			w.Write([]byte("this is not a segment"))
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := fastClient(srv.URL, nil)
	res, err := c.FetchChunk(context.Background(), "demo", 0, 0, 0)
	if err != nil {
		t.Fatalf("fetch with one corrupt body failed: %v", err)
	}
	if res.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", res.Attempts)
	}
}

func TestClient404IsFatalAndNotRetried(t *testing.T) {
	srv, served := faultyServer(t, nil)
	c := fastClient(srv.URL, nil)
	_, err := c.FetchChunk(context.Background(), "no-such-video", 0, 0, 0)
	if err == nil {
		t.Fatal("missing video fetched")
	}
	var de *Error
	if !errors.As(err, &de) {
		t.Fatalf("untyped error: %v", err)
	}
	if de.Kind != KindFatal || de.Status != http.StatusNotFound {
		t.Fatalf("error %+v, want fatal 404", de)
	}
	if de.Retryable() {
		t.Fatal("404 classified retryable")
	}
	if got := served.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (no retries on 4xx)", got)
	}
}

func TestClientExhaustsRetriesOnPersistent5xx(t *testing.T) {
	in := faults.NewInjector(1, faults.Rule{ErrorProb: 1})
	srv, served := faultyServer(t, in)
	c := fastClient(srv.URL, nil)
	c.retry.MaxAttempts = 3
	_, err := c.FetchChunk(context.Background(), "demo", 0, 0, 0)
	var de *Error
	if !errors.As(err, &de) {
		t.Fatalf("error %v", err)
	}
	if de.Kind != KindTransient || de.Attempts != 3 {
		t.Fatalf("error %+v, want transient after 3 attempts", de)
	}
	if got := served.Load(); got != 0 {
		t.Fatalf("injected 503s should short-circuit the handler, saw %d", got)
	}
}

func TestClientCancellationStopsRetries(t *testing.T) {
	in := faults.NewInjector(1, faults.Rule{ErrorProb: 1})
	srv, _ := faultyServer(t, in)
	c := NewClient(srv.URL)
	c.retry.BaseDelay = time.Hour // any real backoff would hang the test
	ctx, cancel := context.WithCancel(context.Background())
	c.sleep = func(ctx context.Context, d time.Duration) error {
		cancel()
		return ctx.Err()
	}
	_, err := c.FetchChunk(ctx, "demo", 0, 0, 0)
	var de *Error
	if !errors.As(err, &de) {
		t.Fatalf("error %v", err)
	}
	if de.Kind != KindCanceled {
		t.Fatalf("kind %v, want canceled when ctx dies mid-backoff", de.Kind)
	}
	if de.Attempts != 1 {
		t.Fatalf("Attempts = %d, want 1", de.Attempts)
	}
}

func TestRetryPolicyBackoffBounds(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 400 * time.Millisecond,
		Multiplier: 2, Jitter: -1}.withDefaults()
	for i, want := range []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 400 * time.Millisecond,
	} {
		if got := p.backoff(i + 1); got != want {
			t.Fatalf("backoff(%d) = %v, want %v", i+1, got, want)
		}
	}
	jittered := RetryPolicy{BaseDelay: time.Second, Jitter: 0.2}.withDefaults()
	for i := 0; i < 32; i++ {
		d := jittered.backoff(1)
		if d < 800*time.Millisecond || d > 1200*time.Millisecond {
			t.Fatalf("jittered backoff %v outside ±20%% of 1s", d)
		}
	}
}

func TestClientElapsedFlooredAtMillisecond(t *testing.T) {
	srv, _ := faultyServer(t, nil)
	c := NewClient(srv.URL)
	frozen := time.Unix(1700000000, 0)
	c.now = func() time.Time { return frozen } // zero observed wall time
	res, err := c.FetchChunk(context.Background(), "demo", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed != time.Millisecond {
		t.Fatalf("Elapsed = %v, want the 1ms floor", res.Elapsed)
	}
	if res.ThroughputBPS <= 0 {
		t.Fatal("throughput sample not finite")
	}
}

// TestFetchStalledBodyFailsAtDeadline: the policy's AttemptTimeout
// holds the body's read, not only the headers. A server that sends the
// headers and half a segment and then goes quiet costs the fetch that
// deadline and no more, and the fetch fails typed — transient, ours,
// because the caller's own context is still live.
func TestFetchStalledBodyFailsAtDeadline(t *testing.T) {
	body, err := BuildChunkBody(testVideo(), 0, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body[:len(body)/2])
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	const timeout = 150 * time.Millisecond
	c := NewClient(srv.URL, WithTransport(tr), WithRetry(RetryPolicy{MaxAttempts: -1, AttemptTimeout: timeout}))

	start := time.Now()
	_, err = c.FetchChunk(context.Background(), "demo", 0, 0, 0)
	if held := time.Since(start); held < timeout || held > 5*time.Second {
		t.Fatalf("stalled body held the fetch %v; the deadline is %v", held, timeout)
	}
	var de *Error
	if !errors.As(err, &de) || de.Kind != KindTransient || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v; want a transient *Error over context.DeadlineExceeded", err)
	}
}

// ctxSpy records the context of the last request it carried, and
// whether that context was still live when the response's body was
// closed.
type ctxSpy struct {
	next          http.RoundTripper
	last          context.Context
	liveAtBodyEnd bool
}

func (s *ctxSpy) RoundTrip(req *http.Request) (*http.Response, error) {
	s.last, s.liveAtBodyEnd = req.Context(), false
	resp, err := s.next.RoundTrip(req)
	if err == nil {
		resp.Body = &spiedBody{ReadCloser: resp.Body, spy: s}
	}
	return resp, err
}

type spiedBody struct {
	io.ReadCloser
	spy *ctxSpy
}

func (b *spiedBody) Close() error {
	b.spy.liveAtBodyEnd = b.spy.last.Err() == nil
	return b.ReadCloser.Close()
}

// TestExchangeDeadlineReleased: the deadline lives exactly as long as
// the exchange. It is still running when a healthy body has been read
// and is released once the fetch returns; a non-200 and a failed dial
// release it before the call returns too, the dial as a transient
// failure of one attempt. Nothing is left behind either way — the
// request's context is done (its timer stopped) and no goroutine
// outlives the exchange.
func TestExchangeDeadlineReleased(t *testing.T) {
	srv, _ := faultyServer(t, nil)
	tr := &http.Transport{}
	spy := &ctxSpy{next: tr}
	policy := WithRetry(RetryPolicy{MaxAttempts: -1})
	ctx := context.Background()
	before := runtime.NumGoroutine()

	c := NewClient(srv.URL, WithTransport(spy), policy)
	if _, err := c.FetchChunk(ctx, "demo", 0, 0, 0); err != nil || !spy.liveAtBodyEnd {
		t.Fatalf("healthy body: err %v, exchange live at body end = %v; want nil and true", err, spy.liveAtBodyEnd)
	}
	if spy.last.Err() == nil {
		t.Fatal("healthy body: the exchange's deadline outlived the fetch")
	}

	if _, err := c.FetchChunk(ctx, "no-such-video", 0, 0, 0); err == nil || spy.last.Err() == nil {
		t.Fatalf("non-200: err %v, exchange context %v; want an error and a released deadline", err, spy.last.Err())
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close() // nothing listens here now
	refused := NewClient("http://"+ln.Addr().String(), WithTransport(spy), policy)
	_, err = refused.FetchChunk(ctx, "demo", 0, 0, 0)
	var de *Error
	if !errors.As(err, &de) || de.Kind != KindTransient || de.Attempts != 1 || spy.last.Err() == nil {
		t.Fatalf("dial error: err %v, exchange context %v; want a transient *Error of one attempt and a released deadline", err, spy.last.Err())
	}

	tr.CloseIdleConnections()
	srv.Close()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d -> %d after every exchange ended", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClientRedirectIsFatalNotFollowed: the client speaks to the server
// it was given. A 3xx is an answer it cannot use — fatal, one request,
// and the Location is never visited.
func TestClientRedirectIsFatalNotFollowed(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Redirect(w, r, "/elsewhere", http.StatusFound)
	}))
	defer srv.Close()
	c := fastClient(srv.URL, nil)
	_, err := c.FetchChunk(context.Background(), "demo", 0, 0, 0)
	var de *Error
	if !errors.As(err, &de) || de.Kind != KindFatal || de.Status != http.StatusFound || de.Attempts != 1 {
		t.Fatalf("err = %v, want a fatal 302 *Error after one attempt", err)
	}
	if got := requests.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (redirect followed or retried)", got)
	}
}

// TestClientRetryAfterFloorsBackoff: a 503 carrying Retry-After must
// stretch the next backoff to at least the server's hint — the server
// named its drain time; coming back earlier just re-sheds.
func TestClientRetryAfterFloorsBackoff(t *testing.T) {
	cat := NewCatalog()
	if err := cat.Add(testVideo()); err != nil {
		t.Fatal(err)
	}
	inner := NewServer(cat)
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	var slept []time.Duration
	reg := obs.NewRegistry()
	c := fastClient(srv.URL, &slept, WithClientObs(reg))
	res, err := c.FetchChunk(context.Background(), "demo", 0, 0, 0)
	if err != nil {
		t.Fatalf("fetch through one shed failed: %v", err)
	}
	if res.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", res.Attempts)
	}
	if len(slept) != 1 || slept[0] != 2*time.Second {
		// The default first backoff is ~200ms; the floor must win.
		t.Fatalf("backoffs = %v, want exactly [2s]", slept)
	}
	if got := reg.Counter("dash.client.retry_after_floors").Value(); got != 1 {
		t.Fatalf("retry_after_floors = %d, want 1", got)
	}
}

// TestClientOverloadExhaustionKeepsKind: a persistent shedder exhausts
// the retry budget with KindOverload, Retryable, and the hint attached,
// so callers can tell "drowning but alive" from a plain 5xx.
func TestClientOverloadExhaustionKeepsKind(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)
	reg := obs.NewRegistry()
	c := fastClient(srv.URL, nil, WithClientObs(reg))
	_, err := c.FetchChunk(context.Background(), "demo", 0, 0, 0)
	var derr *Error
	if !errors.As(err, &derr) {
		t.Fatalf("error %v is not *Error", err)
	}
	if derr.Kind != KindOverload || derr.Status != http.StatusServiceUnavailable {
		t.Fatalf("Kind=%v Status=%d, want overload/503", derr.Kind, derr.Status)
	}
	if derr.RetryAfter != time.Second {
		t.Fatalf("RetryAfter = %v, want 1s", derr.RetryAfter)
	}
	if !derr.Retryable() {
		t.Fatal("overload errors must be retryable")
	}
	if got := reg.Counter("dash.client.errors.overload").Value(); got != 1 {
		t.Fatalf("errors.overload = %d, want 1", got)
	}
}

func TestParseRetryAfter(t *testing.T) {
	// RFC 9110 §10.2.3 allows both delay-seconds and an HTTP-date; the
	// date form converts against the caller-supplied clock so the test
	// (and sim-clocked clients) stay deterministic.
	now := time.Date(2015, 10, 21, 7, 28, 0, 0, time.UTC)
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"2", 2 * time.Second},
		{" 3 ", 3 * time.Second},
		{"0", 0},
		{"", 0},
		{"-1", 0},
		{"garbage", 0},
		// Delays past what a time.Duration holds saturate: unchecked,
		// the first wraps negative (hint dropped) and the second wraps
		// to ~0.4s (a bogus floor).
		{"10000000000", math.MaxInt64},
		{"18446744074", math.MaxInt64},
		{"99999999999999999999", math.MaxInt64}, // past int64 itself
		{"-99999999999999999999", 0},
		{"Wed, 21 Oct 2015 07:28:30 GMT", 30 * time.Second}, // HTTP-date, 30s out
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0},                // HTTP-date, exactly now
		{"Wed, 21 Oct 2015 07:20:00 GMT", 0},                // HTTP-date in the past
		{"Wed, 41 Oct 2015 07:28:00 GMT", 0},                // malformed date
	} {
		if got := parseRetryAfter(tc.in, now); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// FuzzParseRetryAfter: the header is outside input. Whatever it holds,
// parsing must not panic and must never yield a negative floor.
func FuzzParseRetryAfter(f *testing.F) {
	for _, s := range []string{"2", " 3 ", "-1", "garbage", "10000000000", "18446744074",
		"99999999999999999999", "Wed, 21 Oct 2015 07:28:30 GMT", "Wed, 41 Oct 2015 07:28:00 GMT", ""} {
		f.Add(s)
	}
	now := time.Date(2015, 10, 21, 7, 28, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, v string) {
		if d := parseRetryAfter(v, now); d < 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, negative", v, d)
		}
	})
}

// TestRetryAfterHTTPDateUpgradesToOverload pins the wire behavior of
// the date form end to end: a 503 whose Retry-After is an HTTP-date
// must classify as overload with the deadline converted against the
// client's clock seam, exactly like the integer form.
func TestRetryAfterHTTPDateUpgradesToOverload(t *testing.T) {
	now := time.Date(2015, 10, 21, 7, 28, 0, 0, time.UTC)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", now.Add(42*time.Second).UTC().Format(http.TimeFormat))
		http.Error(w, "shedding", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := NewClient(srv.URL, WithRetry(RetryPolicy{MaxAttempts: -1}))
	c.now = func() time.Time { return now }
	_, err := c.FetchChunk(context.Background(), "v", 0, 0, 0)
	var derr *Error
	if !errors.As(err, &derr) {
		t.Fatalf("expected *dash.Error, got %v", err)
	}
	if derr.Kind != KindOverload {
		t.Fatalf("Kind = %v, want overload (HTTP-date Retry-After dropped?)", derr.Kind)
	}
	if derr.RetryAfter != 42*time.Second {
		t.Fatalf("RetryAfter = %v, want 42s", derr.RetryAfter)
	}
}

// overloadedSource sheds every chunk request with the given hint.
type overloadedSource struct{ retryAfter time.Duration }

func (o overloadedSource) Chunk(ctx context.Context, videoID string, q, tile, idx int, layer bool) ([]byte, error) {
	return nil, &OverloadError{RetryAfter: o.retryAfter}
}

// downSource fails every chunk request as unavailable (a crashed
// cluster node seen through its HTTP face).
type downSource struct{}

func (downSource) Chunk(ctx context.Context, videoID string, q, tile, idx int, layer bool) ([]byte, error) {
	return nil, fmt.Errorf("node down: %w", ErrUnavailable)
}

func TestServerMapsOverloadTo503WithRetryAfter(t *testing.T) {
	cat := NewCatalog()
	if err := cat.Add(testVideo()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(cat, WithStore(overloadedSource{retryAfter: 1500 * time.Millisecond})))
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + ChunkPath("demo", 0, 0, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		// 1.5s rounds up: the client must never come back early.
		t.Fatalf("Retry-After = %q, want \"2\"", got)
	}
}

func TestServerMapsUnavailableTo503(t *testing.T) {
	cat := NewCatalog()
	if err := cat.Add(testVideo()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(cat, WithStore(downSource{})))
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + ChunkPath("demo", 0, 0, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "" {
		t.Fatalf("down (not overloaded) response carries Retry-After %q", got)
	}
}
