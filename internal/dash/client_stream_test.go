package dash

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"
	"testing/iotest"
)

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
