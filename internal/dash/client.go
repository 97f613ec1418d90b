package dash

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"sperke/internal/media"
	"sperke/internal/obs"
)

// DefaultTimeout bounds an exchange whose body outlives the call that
// opened it, the cluster's hop to a wire edge, and a response's write
// (NewHTTPServer's WriteTimeout).
const DefaultTimeout = 15 * time.Second

// drainLimit bounds what the client reads past the bytes it wanted to
// leave a body at EOF, where the transport can reuse the connection.
const drainLimit = 4 << 10

// RetryPolicy controls the client's bounded-retry loop: exponential
// backoff with jitter between attempts, a per-attempt timeout, and a
// cap on attempts. The zero value means defaults everywhere.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt included);
	// 0 defaults to 4, negative disables retries (one attempt).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; 0 defaults to
	// 200ms. Each further attempt multiplies it by Multiplier (default
	// 2) up to MaxDelay (default 5s).
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// Jitter spreads each backoff uniformly over ±Jitter fraction of its
	// value; 0 defaults to 0.2. Negative disables jitter.
	Jitter float64
	// AttemptTimeout bounds each individual attempt, headers to the last
	// body byte; 0 defaults to 10s. The caller's context still applies.
	AttemptTimeout time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 4
	}
	if p.MaxAttempts < 0 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 200 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.Multiplier <= 0 {
		p.Multiplier = 2
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	}
	if p.AttemptTimeout == 0 {
		p.AttemptTimeout = 10 * time.Second
	}
	return p
}

// backoff returns the delay before attempt n+1 (n counts from 1).
// Jitter draws from the process-global stream, which is safe for
// concurrent clients; determinism matters for fault replay, not for
// pause lengths.
func (p RetryPolicy) backoff(n int) time.Duration {
	d := float64(p.BaseDelay)
	for i := 1; i < n; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.Jitter > 0 {
		d *= 1 + p.Jitter*(2*rand.Float64()-1)
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	return time.Duration(d)
}

// FetchResult is one completed segment download with the measurement
// rate adaptation consumes.
type FetchResult struct {
	Header  media.SegmentHeader
	Payload []byte
	// WireBytes is the segment size on the wire (header + payload).
	WireBytes int64
	// Elapsed is the request wall time (floored at 1ms so mocked clocks
	// cannot yield a zero); ThroughputBPS the observed goodput in
	// bits/s. Retried attempts count toward Elapsed: a flaky fetch
	// correctly reads as a slow one.
	Elapsed       time.Duration
	ThroughputBPS float64
	// Attempts is how many tries the download took (1 = clean fetch).
	Attempts int
}

// Client fetches manifests and segments from a Sperke DASH server,
// absorbing transient faults: each exchange runs under one deadline,
// retries are bounded with exponential backoff, and failures carry a
// typed taxonomy (*Error) so callers can degrade instead of crash.
type Client struct {
	// base is the server root, e.g. "http://127.0.0.1:8080", parsed once;
	// baseErr is why it did not parse, and fails every request.
	base    url.URL
	baseErr error
	// rt carries every exchange: http.DefaultTransport, so connections
	// pool across sessions, unless WithTransport replaced it.
	rt    http.RoundTripper
	retry RetryPolicy
	// now and sleep are the client's clock seams, nil outside this
	// package's tests: wall time, and a pause between attempts that
	// returns early when ctx expires.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
	met   clientMetrics
}

// clientMetrics caches the dash.client.* instruments: fetch counts,
// attempts, retry/backoff outcomes, received bytes, error counts by
// kind and a per-segment latency histogram. Nil fields no-op.
type clientMetrics struct {
	attempts, retries, retryAfterFloors *obs.Counter
	mpdFetches, segmentFetches          *obs.Counter
	segmentFetchesRetried, bytesRx      *obs.Counter
	errors                              [KindOverload + 1]*obs.Counter
	fetchMS                             *obs.Histogram
}

// ClientOption configures a Client at construction.
type ClientOption func(*Client)

// WithTransport routes the client's requests through rt — the seam the
// cluster router and tests use to splice in loopback, httptest or
// fault-injecting transports without touching global state. The client
// calls rt.RoundTrip itself: no redirect is followed, no cookie kept.
func WithTransport(rt http.RoundTripper) ClientOption {
	return func(c *Client) {
		if rt != nil {
			c.rt = rt
		}
	}
}

// WithRetry sets the retry policy (zero fields keep the RetryPolicy
// defaults; MaxAttempts < 0 disables retries entirely).
func WithRetry(p RetryPolicy) ClientOption {
	return func(c *Client) { c.retry = p }
}

// WithClientObs wires the client's dash.client.* instruments into a
// registry.
func WithClientObs(r *obs.Registry) ClientOption {
	return func(c *Client) {
		c.met = clientMetrics{
			attempts:              r.Counter("dash.client.attempts"),
			retries:               r.Counter("dash.client.retries"),
			retryAfterFloors:      r.Counter("dash.client.retry_after_floors"),
			mpdFetches:            r.Counter("dash.client.mpd_fetches"),
			segmentFetches:        r.Counter("dash.client.segment_fetches"),
			segmentFetchesRetried: r.Counter("dash.client.segment_fetches_retried"),
			bytesRx:               r.Counter("dash.client.bytes_rx"),
			fetchMS:               r.Histogram("dash.client.fetch_ms"),
		}
		for k := range c.met.errors {
			c.met.errors[k] = r.Counter("dash.client.errors." + ErrorKind(k).String())
		}
	}
}

// NewClient builds a client for a server root URL.
func NewClient(baseURL string, opts ...ClientOption) *Client {
	c := &Client{rt: http.DefaultTransport}
	if u, err := url.Parse(strings.TrimSuffix(baseURL, "/")); err != nil {
		c.baseErr = err
	} else {
		c.base = *u
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

func (c *Client) wallNow() time.Time {
	if c.now != nil {
		return c.now()
	}
	return time.Now()
}

func (c *Client) pause(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// exchange is one attempt in flight: its request's URL, the response
// body and its declared length, and the reader fetchSegment holds the
// body to that length with, kept together so an attempt allocates them
// once.
type exchange struct {
	url    url.URL
	body   io.Reader
	length int64            // Content-Length, -1 when none was declared
	sized  io.LimitedReader // the body up to length, for fetchSegment
}

// attempt is the client's one HTTP exchange: build the request on the
// parsed base (path is as it goes on the wire; the URL carries it
// escaped and decoded, so an escaped video ID survives), send it on the
// transport, classify a non-200 — a redirect included — through
// StatusError, and hand a live 200 to consume, which reads the body.
// timeout is the exchange's one deadline, headers to the last body byte;
// the body is closed and the deadline released before attempt returns.
// An error from consume is a body that broke in transit or did not
// decode, so it classifies like any other failed attempt.
func (c *Client) attempt(ctx context.Context, path string, timeout time.Duration, consume func(*exchange) error) *Error {
	if c.baseErr != nil {
		return &Error{Op: path, Kind: KindFatal, Err: c.baseErr}
	}
	rawPath, query, _ := strings.Cut(path, "?")
	decoded, err := url.PathUnescape(rawPath)
	if err != nil {
		return &Error{Op: path, Kind: KindFatal, Err: err}
	}
	x := &exchange{url: c.base}
	x.url.Path, x.url.RawPath, x.url.RawQuery = c.base.Path+decoded, c.base.EscapedPath()+rawPath, query
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req := (&http.Request{
		Method: http.MethodGet, URL: &x.url, Host: c.base.Host, Header: make(http.Header),
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}).WithContext(actx)
	resp, err := c.rt.RoundTrip(req)
	if err != nil {
		return &Error{Op: path, Kind: classifyCtx(ctx, err), Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return StatusError(path, resp, c.wallNow())
	}
	x.body, x.length = resp.Body, resp.ContentLength
	if err := consume(x); err != nil {
		return &Error{Op: path, Kind: classifyCtx(ctx, err), Err: err}
	}
	return nil
}

// StatusError classifies a non-200 response to GET path into the typed
// taxonomy, consuming up to 256 bytes of the body for the message. 5xx
// and 429 are transient; a Retry-After on a shed response upgrades the
// classification to overload — the server is alive but drowning, and
// told us when to come back. now is the caller's wall time: the
// HTTP-date form of Retry-After is a deadline, and turning it into a
// duration needs a clock. The caller still owns closing resp.Body.
// Client.attempt and the cluster's hop to a wire edge both classify
// through it.
func StatusError(path string, resp *http.Response, now time.Time) *Error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	kind := KindFatal
	var retryAfter time.Duration
	if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
		kind = KindTransient
		if ra := parseRetryAfter(resp.Header.Get("Retry-After"), now); ra > 0 {
			kind, retryAfter = KindOverload, ra
		}
	}
	return &Error{
		Op: path, Kind: kind, Status: resp.StatusCode, RetryAfter: retryAfter,
		Err: fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body)),
	}
}

// do runs the client's one bounded-retry loop around attempt and
// reports how many attempts it took. Every method goes through it, so
// RetryPolicy.MaxAttempts is the total number of requests a call can
// make — whether an attempt died in the dial, on a 5xx or in a body that
// failed its CRC — and the policy's AttemptTimeout bounds each one.
func (c *Client) do(ctx context.Context, path string, consume func(*exchange) error) (int, error) {
	pol := c.retry.withDefaults()
	for attempt := 1; ; attempt++ {
		c.met.attempts.Inc()
		derr := c.attempt(ctx, path, pol.AttemptTimeout, consume)
		if derr == nil {
			return attempt, nil
		}
		derr.Attempts = attempt
		if !derr.Retryable() || attempt >= pol.MaxAttempts {
			c.met.errors[derr.Kind].Inc()
			return attempt, derr
		}
		c.met.retries.Inc()
		delay := pol.backoff(attempt)
		if derr.Kind == KindOverload && derr.RetryAfter > delay {
			// The shedding server named its price; pay it rather than
			// hammering a node that is trying to drain.
			delay = derr.RetryAfter
			c.met.retryAfterFloors.Inc()
		}
		if err := c.pause(ctx, delay); err != nil {
			derr.Kind = KindCanceled
			c.met.errors[KindCanceled].Inc()
			return attempt, derr
		}
	}
}

// parseRetryAfter reads a Retry-After value in either RFC 9110 form:
// delay-seconds ("120") or an HTTP-date deadline, which converts to a
// duration against now (the client's clock seam, so tests and sim
// clocks stay deterministic). A date already past means "come back
// now" and parses as 0, as does garbage — either way the response
// stays a plain transient failure with no overload hint. A delay too
// large for a time.Duration saturates instead of wrapping into a
// negative or a small bogus floor.
func parseRetryAfter(v string, now time.Time) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	// ParseInt clamps an out-of-range value and says so; clamped is what
	// a delay past int64 seconds should be.
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil || errors.Is(err, strconv.ErrRange) {
		if secs < 0 {
			return 0
		}
		if secs > int64(math.MaxInt64/time.Second) {
			return math.MaxInt64
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := at.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// FetchMPD downloads and parses a video's manifest.
func (c *Client) FetchMPD(ctx context.Context, videoID string) (*MPD, error) {
	c.met.mpdFetches.Inc()
	var data []byte
	_, err := c.do(ctx, mpdPath(videoID), func(x *exchange) (err error) {
		data, err = io.ReadAll(x.body)
		return err
	})
	if err != nil {
		return nil, err
	}
	c.met.bytesRx.Add(int64(len(data)))
	return ParseMPD(data)
}

// FetchChunk downloads one AVC chunk C(q, tile, index).
func (c *Client) FetchChunk(ctx context.Context, videoID string, q, tile, idx int) (FetchResult, error) {
	return c.fetchSegment(ctx, ChunkPath(videoID, q, tile, idx, false))
}

// FetchLayer downloads one SVC layer of a chunk — the incremental
// upgrade primitive of §3.1.1.
func (c *Client) FetchLayer(ctx context.Context, videoID string, layer, tile, idx int) (FetchResult, error) {
	return c.fetchSegment(ctx, ChunkPath(videoID, layer, tile, idx, true))
}

// fetchSegment decodes the segment straight off the response body:
// media.ReadSegment sizes the payload from the header once it agrees
// with the response's Content-Length, and CRC-checks it, so the one
// body-sized allocation is the payload the caller keeps. A body that
// arrives short, fails its CRC or is not the length its response
// declared is one more attempt.
func (c *Client) fetchSegment(ctx context.Context, path string) (FetchResult, error) {
	start := c.wallNow()
	var res FetchResult
	attempts, err := c.do(ctx, path, func(x *exchange) error {
		r := x.body
		if x.length >= 0 {
			x.sized = io.LimitedReader{R: x.body, N: x.length}
			r = &x.sized
		}
		var err error
		if res.Header, res.Payload, err = media.ReadSegment(r); err != nil {
			return fmt.Errorf("decoding segment: %w", err)
		}
		// A body under its Content-Length ended where the segment did and
		// reported EOF with its last byte; a chunked one needs this read to
		// see its terminator, and one that runs on past the segment is read
		// to its end if that is near.
		if x.length < 0 {
			io.Copy(io.Discard, io.LimitReader(x.body, drainLimit))
		}
		return nil
	})
	if err != nil {
		return FetchResult{}, err
	}
	res.Attempts = attempts
	res.WireBytes = int64(media.SegmentLen(res.Header.VideoID, len(res.Payload)))
	res.Elapsed = c.wallNow().Sub(start)
	if res.Elapsed < time.Millisecond {
		// Mocked or coarse clocks can observe zero wall time; a zero
		// sample would poison downstream bandwidth estimates.
		res.Elapsed = time.Millisecond
	}
	res.ThroughputBPS = float64(res.WireBytes) * 8 / res.Elapsed.Seconds()
	c.met.bytesRx.Add(res.WireBytes)
	c.met.segmentFetches.Inc()
	if attempts > 1 {
		c.met.segmentFetchesRetried.Inc()
	}
	c.met.fetchMS.Observe(float64(res.Elapsed) / float64(time.Millisecond))
	return res, nil
}
