package dash

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"sperke/internal/media"
	"sperke/internal/obs"
)

// scriptedTransport answers each request with the next step of a
// script and counts what it was asked:
//
//	"200"     the well-formed body
//	"503"     a plain server error
//	"503ra"   a shed: 503 carrying Retry-After: 2
//	"cut"     a 200 whose body breaks off half way, the way net/http
//	          reports a connection lost under a declared length
//	"corrupt" a 200 that arrives whole with a payload byte flipped
//	"refused" no response: the transport fails before any header, as a
//	          refused dial does
type scriptedTransport struct {
	steps []string
	good  []byte
	seen  int
}

type failingReader struct{ err error }

func (r failingReader) Read([]byte) (int, error) { return 0, r.err }

func (s *scriptedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if s.seen >= len(s.steps) {
		return nil, errors.New("scriptedTransport: request past the end of the script")
	}
	step := s.steps[s.seen]
	s.seen++
	if step == "refused" {
		return nil, errors.New("scriptedTransport: connection refused")
	}
	resp := &http.Response{
		StatusCode: http.StatusOK, Status: "200 OK",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header), Request: req,
		ContentLength: int64(len(s.good)),
	}
	switch step {
	case "200":
		resp.Body = io.NopCloser(bytes.NewReader(s.good))
	case "cut":
		resp.Body = io.NopCloser(io.MultiReader(
			bytes.NewReader(s.good[:len(s.good)/2]), failingReader{io.ErrUnexpectedEOF}))
	case "corrupt":
		bad := bytes.Clone(s.good)
		bad[len(bad)-1] ^= 0xff
		resp.Body = io.NopCloser(bytes.NewReader(bad))
	case "503", "503ra":
		resp.StatusCode, resp.Status = http.StatusServiceUnavailable, "503 Service Unavailable"
		if step == "503ra" {
			resp.Header.Set("Retry-After", "2")
		}
		resp.Body = io.NopCloser(bytes.NewReader([]byte("not now")))
		resp.ContentLength = 7
	default:
		return nil, errors.New("scriptedTransport: unknown step " + step)
	}
	return resp, nil
}

// TestOneAttemptBudgetEveryMethod drives the same scripts through every
// client method. RetryPolicy.MaxAttempts is a total: the server never
// sees more requests than that, however the attempts failed — with no
// response at all, refused by status, cut in transit, or whole but
// failing the CRC — and the dash.client.* counters move by the same
// amounts whichever method ran.
func TestOneAttemptBudgetEveryMethod(t *testing.T) {
	v := testVideo()
	chunk, err := BuildChunkBody(v, 1, 2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := BuildMPD(v, false, 0, 0).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	methods := []struct {
		name string
		good []byte
		// bodyFaults are the ways a 200's body can fail this method. A
		// manifest has no checksum, so only transit can break it.
		bodyFaults []string
		call       func(ctx context.Context, c *Client) error
	}{
		{"FetchChunk", chunk, []string{"cut", "corrupt"}, func(ctx context.Context, c *Client) error {
			_, err := c.FetchChunk(ctx, v.ID, 1, 2, 0)
			return err
		}},
		{"FetchMPD", manifest, []string{"cut"}, func(ctx context.Context, c *Client) error {
			_, err := c.FetchMPD(ctx, v.ID)
			return err
		}},
	}
	scripts := []struct {
		name              string
		steps             []string // "bad" stands for each of the method's bodyFaults in turn
		cancelDuringSleep bool
		wantKind          ErrorKind // when wantErr
		wantErr           bool
		requests          int
		counters          map[string]int64
	}{
		{
			name: "503,503,200", steps: []string{"503", "503", "200"},
			requests: 3,
			counters: map[string]int64{"attempts": 3, "retries": 2},
		},
		{
			name: "refused,refused,200", steps: []string{"refused", "refused", "200"},
			requests: 3,
			counters: map[string]int64{"attempts": 3, "retries": 2},
		},
		{
			name: "503+Retry-After", steps: []string{"503ra", "200"},
			requests: 2,
			counters: map[string]int64{"attempts": 2, "retries": 1, "retry_after_floors": 1},
		},
		{
			name: "cancel during backoff", steps: []string{"503", "200"}, cancelDuringSleep: true,
			wantErr: true, wantKind: KindCanceled,
			requests: 1,
			counters: map[string]int64{"attempts": 1, "retries": 1, "errors.canceled": 1},
		},
		{
			name: "bad,503,503,503,bad", steps: []string{"bad", "503", "503", "503", "bad"},
			wantErr: true, wantKind: KindTransient,
			requests: 4,
			counters: map[string]int64{"attempts": 4, "retries": 3, "errors.transient": 1},
		},
	}
	watched := []string{"attempts", "retries", "retry_after_floors",
		"errors.transient", "errors.overload", "errors.canceled", "errors.fatal"}

	for _, sc := range scripts {
		for _, m := range methods {
			faults := []string{""}
			if sc.steps[0] == "bad" {
				faults = m.bodyFaults
			}
			for _, fault := range faults {
				t.Run(sc.name+"/"+m.name+"/"+fault, func(t *testing.T) {
					steps := make([]string, len(sc.steps))
					for i, s := range sc.steps {
						if s == "bad" {
							s = fault
						}
						steps[i] = s
					}
					tr := &scriptedTransport{steps: steps, good: m.good}
					reg := obs.NewRegistry()
					c := NewClient("http://script.test", WithTransport(tr), WithClientObs(reg),
						WithRetry(RetryPolicy{MaxAttempts: 4}))
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					var slept []time.Duration
					c.sleep = func(ctx context.Context, d time.Duration) error {
						slept = append(slept, d)
						if sc.cancelDuringSleep {
							cancel()
						}
						return ctx.Err()
					}

					err := m.call(ctx, c)
					if (err != nil) != sc.wantErr {
						t.Fatalf("err = %v, want failure = %v", err, sc.wantErr)
					}
					if sc.wantErr {
						var de *Error
						if !errors.As(err, &de) || de.Kind != sc.wantKind || de.Attempts != sc.requests {
							t.Fatalf("err = %v, want a %v *Error after %d attempts", err, sc.wantKind, sc.requests)
						}
					}
					if tr.seen != sc.requests {
						t.Fatalf("server saw %d requests, want %d (MaxAttempts is 4)", tr.seen, sc.requests)
					}
					for _, name := range watched {
						if got := reg.Counter("dash.client." + name).Value(); got != sc.counters[name] {
							t.Errorf("dash.client.%s = %d, want %d", name, got, sc.counters[name])
						}
					}
					if sc.counters["retry_after_floors"] > 0 && (len(slept) != 1 || slept[0] != 2*time.Second) {
						t.Errorf("backoffs = %v, want exactly the server's [2s]", slept)
					}
				})
			}
		}
	}
}

// memoryTransport answers every request with the same in-memory body
// under its Content-Length, so memoryFetch measures the client, not a
// socket.
type memoryTransport struct{ body []byte }

func (m memoryTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK, Status: "200 OK",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header), Request: req,
		Body:          io.NopCloser(bytes.NewReader(m.body)),
		ContentLength: int64(len(m.body)),
	}, nil
}

// memoryFetch is the client layer's fixed cost per chunk: one request,
// the segment decoded and CRC-checked straight off the response body.
// TestFetchChunkAllocBudget holds it to its budgets;
// BenchmarkClientFetchChunk times it.
func memoryFetch(tb testing.TB) (fetch func(), bodyLen int) {
	v := testVideo()
	body, err := BuildChunkBody(v, 2, 5, 3, false)
	if err != nil {
		tb.Fatal(err)
	}
	c := NewClient("http://mem.test", WithTransport(memoryTransport{body: body}))
	ctx := context.Background()
	return func() {
		res, err := c.FetchChunk(ctx, v.ID, 2, 5, 3)
		if err != nil {
			tb.Fatal(err)
		}
		if res.WireBytes != int64(len(body)) {
			tb.Fatalf("WireBytes = %d, want %d", res.WireBytes, len(body))
		}
	}, len(body)
}

// TestFetchChunkAllocBudget pins decode-from-stream: fetching an N-byte
// segment allocates the payload the caller keeps plus a fixed
// per-request overhead — never a second copy of the body, let alone the
// several an unsized read-all-then-decode makes on the way to N — in at
// most 14 objects.
func TestFetchChunkAllocBudget(t *testing.T) {
	fetch, bodyLen := memoryFetch(t)
	fetch() // warm pools

	const iters = 32
	const overhead = 16 << 10 // request, response, context, timer, and the allocator rounding N up to whole pages
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		fetch()
	}
	runtime.ReadMemStats(&after)
	perOp := int64(after.TotalAlloc-before.TotalAlloc) / iters
	// Under -race, sync.Pool drops Puts at random, so the block pool
	// refills inside the measured loop and its blocks count as the
	// fetch's bytes. The object count below is not the pool's and runs
	// either way.
	if perOp > int64(bodyLen)+overhead && !obs.RaceEnabled {
		t.Fatalf("FetchChunk allocates %d B for a %d B body; budget is the body + %d B", perOp, bodyLen, overhead)
	}
	n := testing.AllocsPerRun(100, fetch)
	t.Logf("FetchChunk: %.0f allocs, %d B/op for a %d B body", n, perOp, bodyLen)
	if n > 14 {
		t.Fatalf("FetchChunk allocates %.0f objects, want at most 14", n)
	}
}

// TestFetchBelievesNoHeaderPastItsResponse: a segment header's payload
// length is a number off the wire. Thirty bytes whose header declares a
// 64 MiB payload cost the client next to nothing when the response said
// Content-Length: 30 — the two disagree, and the fetch fails transient
// before the payload is allocated — and one bounded block when it
// declared no length; either way never the 64 MiB.
func TestFetchBelievesNoHeaderPastItsResponse(t *testing.T) {
	var lie bytes.Buffer
	if err := media.WriteSegment(&lie, media.SegmentHeader{VideoID: "x"}, nil); err != nil {
		t.Fatal(err)
	}
	reply := append(lie.Bytes(), 1, 2, 3) // 26-byte header, the ID, three bytes of payload
	binary.BigEndian.PutUint32(reply[18:], media.MaxPayloadLen)
	if len(reply) != 30 {
		t.Fatalf("reply is %d bytes, want 30", len(reply))
	}
	for _, tc := range []struct {
		name   string
		length int64
		budget uint64
	}{
		{"Content-Length: 30", 30, 64 << 10},
		{"no Content-Length", -1, 512 << 10},
	} {
		c := NewClient("http://mem.test", WithRetry(RetryPolicy{MaxAttempts: -1}),
			WithTransport(bodyFunc(func() (io.ReadCloser, int64) {
				return io.NopCloser(bytes.NewReader(reply)), tc.length
			})))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := c.FetchChunk(context.Background(), "x", 0, 0, 0)
		runtime.ReadMemStats(&after)
		var de *Error
		if !errors.As(err, &de) || de.Kind != KindTransient {
			t.Fatalf("%s: err = %v, want a transient *Error", tc.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > tc.budget {
			t.Fatalf("%s: a 30-byte reply cost %d B, want at most %d", tc.name, got, tc.budget)
		}
	}
}

func BenchmarkClientFetchChunk(b *testing.B) {
	fetch, bodyLen := memoryFetch(b)
	b.SetBytes(int64(bodyLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch()
	}
}
