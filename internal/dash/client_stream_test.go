package dash

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"testing/iotest"
	"time"
)

// handlerTransport dispatches requests straight into an http.Handler —
// the WithTransport seam exercised without sockets.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// flakyTransport fails the first n attempts with a transport error.
type flakyTransport struct {
	next  http.RoundTripper
	fails int
}

func (t *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.fails > 0 {
		t.fails--
		return nil, errors.New("synthetic connection refused")
	}
	return t.next.RoundTrip(req)
}

func instantSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

// TestOpenChunkStreamsThroughTransportSeam pins the two new client
// seams together: a client built over an injected RoundTripper (no
// sockets, no global state) opens a chunk and receives the exact bytes
// and Content-Length the server's writer-first path produced, as a
// stream rather than a materialized slice.
func TestOpenChunkStreamsThroughTransportSeam(t *testing.T) {
	v := testVideo()
	catalog := NewCatalog()
	if err := catalog.Add(v); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(catalog)
	c := NewClient("http://edge.test", WithTransport(handlerTransport{h: srv}))

	st, err := c.OpenChunk(context.Background(), v.ID, 1, 2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	want, err := BuildChunkBody(v, 1, 2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Length != int64(len(want)) {
		t.Fatalf("ChunkStream.Length = %d, want %d", st.Length, len(want))
	}
	got, err := io.ReadAll(st.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed body differs from BuildChunkBody (%d vs %d bytes)", len(got), len(want))
	}
	if st.Attempts != 1 {
		t.Fatalf("clean open took %d attempts", st.Attempts)
	}
}

// TestOpenChunkRetriesToHeaders pins the retry contract: transport
// failures before the response headers are retried under the bounded
// policy, and the eventual stream reports the attempt count.
func TestOpenChunkRetriesToHeaders(t *testing.T) {
	v := testVideo()
	catalog := NewCatalog()
	if err := catalog.Add(v); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(catalog)
	c := NewClient("http://edge.test",
		WithTransport(&flakyTransport{next: handlerTransport{h: srv}, fails: 2}),
		WithRetry(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Nanosecond, MaxDelay: time.Nanosecond}))
	c.sleep = instantSleep

	st, err := c.OpenChunk(context.Background(), v.ID, 0, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	st.Body.Close()
	if st.Attempts != 3 {
		t.Fatalf("open took %d attempts, want 3 (two transport failures, then headers)", st.Attempts)
	}

	// A single-attempt policy surfaces the first failure typed.
	c2 := NewClient("http://edge.test",
		WithTransport(&flakyTransport{next: handlerTransport{h: srv}, fails: 1}),
		WithRetry(RetryPolicy{MaxAttempts: -1}))
	c2.sleep = instantSleep
	if _, err := c2.OpenChunk(context.Background(), v.ID, 0, 0, 0, false); err == nil {
		t.Fatal("single-attempt open over a failing transport succeeded")
	} else {
		var de *Error
		if !errors.As(err, &de) || de.Kind != KindTransient {
			t.Fatalf("transport failure classified as %v, want KindTransient *Error", err)
		}
	}
}

// TestClientPing pins the probe primitive: one attempt, nil on a live
// server, a typed error through a dead transport, and a typed status
// error on a non-200.
func TestClientPing(t *testing.T) {
	v := testVideo()
	catalog := NewCatalog()
	if err := catalog.Add(v); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(catalog)
	live := NewClient("http://edge.test", WithTransport(handlerTransport{h: srv}))
	if err := live.Ping(context.Background()); err != nil {
		t.Fatalf("ping against a live server: %v", err)
	}

	dead := NewClient("http://edge.test", WithTransport(&flakyTransport{fails: 1 << 30}))
	if err := dead.Ping(context.Background()); err == nil {
		t.Fatal("ping through a dead transport returned nil")
	}

	overloaded := NewClient("http://edge.test", WithTransport(handlerTransport{
		h: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "2")
			http.Error(w, "drowning", http.StatusServiceUnavailable)
		}),
	}))
	err := overloaded.Ping(context.Background())
	var de *Error
	if !errors.As(err, &de) || de.Kind != KindOverload {
		t.Fatalf("shed ping classified as %v, want KindOverload", err)
	}
}

// eofBody records whether its reader was taken to io.EOF before Close —
// the transport's condition for returning an HTTP/1 connection to the
// pool instead of tearing it down.
type eofBody struct {
	r              io.Reader
	sawEOF, closed bool
}

func (b *eofBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		b.sawEOF = true
	}
	return n, err
}

func (b *eofBody) Close() error {
	b.closed = true
	return nil
}

// bodyFunc answers every request with a 200 over a fresh body and the
// Content-Length it declares for it (-1 for none).
type bodyFunc func() (io.ReadCloser, int64)

func (f bodyFunc) RoundTrip(req *http.Request) (*http.Response, error) {
	body, length := f()
	return &http.Response{StatusCode: http.StatusOK, Status: "200 OK", Header: make(http.Header),
		Request: req, Body: body, ContentLength: length}, nil
}

// TestFetchLeavesConnectionReusable: decoding straight off the wire
// stops at the segment's last byte, which is short of EOF on a chunked
// body; the fetch must still leave the body at EOF and closed, or every
// fetch would cost a fresh connection.
func TestFetchLeavesConnectionReusable(t *testing.T) {
	v := testVideo()
	body, err := BuildChunkBody(v, 1, 2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for name, reader := range map[string]func() io.Reader{
		// EOF arrives with the last bytes, as under a Content-Length.
		"eof-with-data": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(body)) },
		// EOF takes a read of its own, as after a chunked terminator.
		"eof-after-data": func() io.Reader { return bytes.NewReader(body) },
	} {
		var last *eofBody
		c := NewClient("http://mem.test", WithTransport(bodyFunc(func() (io.ReadCloser, int64) {
			last = &eofBody{r: reader()}
			return last, -1
		})))
		res, err := c.FetchChunk(context.Background(), v.ID, 1, 2, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.WireBytes != int64(len(body)) {
			t.Fatalf("%s: WireBytes = %d, want %d", name, res.WireBytes, len(body))
		}
		if !last.sawEOF || !last.closed {
			t.Fatalf("%s: body left at EOF = %v, closed = %v; want both", name, last.sawEOF, last.closed)
		}
	}
}
