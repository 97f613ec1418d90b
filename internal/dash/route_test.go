package dash

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path"
	"strings"
	"testing"

	"sperke/internal/media"
	"sperke/internal/obs"
)

// hangupWriter is a viewer that hangs up mid-body: it takes the first
// limit bytes and fails every write after them.
type hangupWriter struct {
	h     http.Header
	limit int
	n     int
}

func (w *hangupWriter) Header() http.Header { return w.h }
func (w *hangupWriter) WriteHeader(int)     {}
func (w *hangupWriter) Write(p []byte) (int, error) {
	if w.n+len(p) <= w.limit {
		w.n += len(p)
		return len(p), nil
	}
	took := w.limit - w.n
	w.n = w.limit
	return took, errors.New("viewer hung up")
}

// TestServerCountsEveryRoute pins each dash.server.* counter per route:
// for one request of every kind a dash.Server answers, the exact delta
// of requests, chunk_requests, mpd_requests, errors, canceled, bytes_tx,
// list_requests and unrouted. It also checks the two laws the counters
// keep: requests = list_requests + mpd_requests + chunk_requests +
// unrouted, and canceled ≤ chunk_requests. requests = chunk_requests +
// mpd_requests + errors is not one of them: a chunk 404 counts on both
// of its right-hand terms, and a list request on none.
func TestServerCountsEveryRoute(t *testing.T) {
	cat := NewCatalog()
	v := testVideo()
	avc := testVideo()
	avc.ID, avc.Encoding = "avc", media.EncodingAVC
	for _, vid := range []*media.Video{v, avc} {
		if err := cat.Add(vid); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	s := NewServer(cat, WithObs(reg))

	chunkLen, err := ChunkBodyLen(v, 2, 5, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	mpd, err := buildMPD(v).marshal()
	if err != nil {
		t.Fatal(err)
	}
	const hangupAt = 1000
	notFound := int64(len("404 page not found\n"))

	type counts struct{ requests, chunks, mpds, errors, canceled, bytesTx, lists, unrouted int64 }
	read := func() counts {
		return counts{
			reg.Counter("dash.server.requests").Value(),
			reg.Counter("dash.server.chunk_requests").Value(),
			reg.Counter("dash.server.mpd_requests").Value(),
			reg.Counter("dash.server.errors").Value(),
			reg.Counter("dash.server.canceled").Value(),
			reg.Counter("dash.server.bytes_tx").Value(),
			reg.Counter("dash.server.list_requests").Value(),
			reg.Counter("dash.server.unrouted").Value(),
		}
	}
	for _, tc := range []struct {
		name, method, path string
		hangup             bool // the viewer takes hangupAt bytes and leaves
		status             int  // 0: not checked (the viewer left)
		want               counts
	}{
		{"chunk", "GET", "/v/demo/c/2/5/3", false, 200, counts{1, 1, 0, 0, 0, int64(chunkLen), 0, 0}},
		{"chunk HEAD", "HEAD", "/v/demo/c/2/5/3", false, 200, counts{1, 1, 0, 0, 0, 0, 0, 0}},
		{"unknown video", "GET", "/v/nope/c/2/5/3", false, 404, counts{1, 1, 0, 1, 0, notFound, 0, 0}},
		{"bad address", "GET", "/v/demo/c/two/5/3", false, 400, counts{1, 1, 0, 1, 0, int64(len("dash: bad chunk address\n")), 0, 0}},
		{"out of range", "GET", "/v/demo/c/99/5/3", false, 404, counts{1, 1, 0, 1, 0, int64(len("dash: chunk out of range\n")), 0, 0}},
		{"layer on AVC", "GET", "/v/avc/c/2/5/3?layer=1", false, 400, counts{1, 1, 0, 1, 0, int64(len("dash: video is not SVC encoded\n")), 0, 0}},
		{"MPD", "GET", "/v/demo/manifest.mpd", false, 200, counts{1, 0, 1, 0, 0, int64(len(mpd)), 0, 0}},
		{"list", "GET", "/v", false, 200, counts{1, 0, 0, 0, 0, int64(len("avc\ndemo\n")), 1, 0}},
		{"unknown path", "GET", "/x", false, 404, counts{1, 0, 0, 1, 0, notFound, 0, 1}},
		{"DELETE on a chunk", "DELETE", "/v/demo/c/2/5/3", false, 405, counts{1, 0, 0, 1, 0, int64(len("Method Not Allowed\n")), 0, 1}},
		{"hang-up mid-body", "GET", "/v/demo/c/2/5/3", true, 0, counts{1, 1, 0, 0, 1, hangupAt, 0, 0}},
	} {
		before := read()
		req := httptest.NewRequest(tc.method, tc.path, nil)
		if tc.hangup {
			s.ServeHTTP(&hangupWriter{h: http.Header{}, limit: hangupAt}, req)
		} else {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.status)
			}
			if tc.status == http.StatusMethodNotAllowed && rec.Header().Get("Allow") != "GET, HEAD" {
				t.Errorf("%s: Allow %q, want %q", tc.name, rec.Header().Get("Allow"), "GET, HEAD")
			}
		}
		after := read()
		got := counts{
			after.requests - before.requests, after.chunks - before.chunks, after.mpds - before.mpds,
			after.errors - before.errors, after.canceled - before.canceled, after.bytesTx - before.bytesTx,
			after.lists - before.lists, after.unrouted - before.unrouted,
		}
		if got != tc.want {
			t.Errorf("%s: deltas %+v, want %+v", tc.name, got, tc.want)
		}
		if sum := after.lists + after.mpds + after.chunks + after.unrouted; sum != after.requests {
			t.Errorf("after %s: list_requests %d + mpd_requests %d + chunk_requests %d + unrouted %d = %d, requests %d",
				tc.name, after.lists, after.mpds, after.chunks, after.unrouted, sum, after.requests)
		}
		if after.canceled > after.chunks {
			t.Errorf("after %s: canceled %d > chunk_requests %d", tc.name, after.canceled, after.chunks)
		}
	}
}

// unclean reports whether ServeMux would clean an escaped path into
// another: an empty, "." or ".." segment, or no leading slash. A
// trailing slash is clean.
func unclean(p string) bool {
	if p == "" || p[0] != '/' {
		return true
	}
	c := path.Clean(p)
	if strings.HasSuffix(p, "/") && c != "/" {
		c += "/"
	}
	return c != p
}

// slashSegment reports whether a segment of escaped path p decodes to a
// lone slash, which ServeMux's wildcards take for a trailing slash.
func slashSegment(p string) bool {
	for _, seg := range strings.Split(p, "/") {
		if u, err := url.PathUnescape(seg); err == nil && u == "/" {
			return true
		}
	}
	return false
}

// dispatchDivergences are the only requests on which dispatch may answer
// otherwise than the ServeMux it replaced, given the reference's status
// and dispatch's route. Each quotes the DESIGN.md sentence that states
// it.
var dispatchDivergences = []struct {
	design  string
	applies func(r *http.Request, refStatus int, rt route) bool
}{
	{
		"An unclean path (an empty, `.` or `..` segment) is a 404, not a redirect.",
		func(r *http.Request, refStatus int, rt route) bool {
			return rt == route{} && refStatus == http.StatusMovedPermanently && unclean(r.URL.EscapedPath())
		},
	},
	{
		"So is a CONNECT on one, which ServeMux matched as sent.",
		func(r *http.Request, _ int, rt route) bool {
			return rt == route{} && r.Method == http.MethodConnect && unclean(r.URL.EscapedPath())
		},
	},
	{
		"So is the `*` target, not a 400.",
		func(r *http.Request, refStatus int, rt route) bool {
			return rt == route{} && r.RequestURI == "*" && refStatus == http.StatusBadRequest
		},
	},
	{
		"A segment that decodes to `/` fills its field, not a 404.",
		func(r *http.Request, refStatus int, rt route) bool {
			return rt.kind >= routeNotAllowed && refStatus == http.StatusNotFound && slashSegment(r.URL.EscapedPath())
		},
	},
}

// fuzzMethods are the methods FuzzDispatchMatchesServeMux sends: the
// two a route answers, the others net/http knows, and one in the wrong
// case.
var fuzzMethods = []string{"GET", "HEAD", "POST", "PUT", "PATCH", "DELETE", "OPTIONS", "TRACE", "CONNECT", "get"}

// FuzzDispatchMatchesServeMux: for any method and request target,
// dispatch picks the route, and decodes the video, quality, tile and
// index, that the http.ServeMux it replaced picked under the old three
// patterns — or answers the same 404, or the same 405 that allows GET
// and HEAD. Where the two may differ is dispatchDivergences, each entry
// stated in DESIGN.md.
func FuzzDispatchMatchesServeMux(f *testing.F) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		f.Fatal(err)
	}
	prose := strings.Join(strings.Fields(string(design)), " ")
	for _, d := range dispatchDivergences {
		if !strings.Contains(prose, d.design) {
			f.Fatalf("DESIGN.md does not state %q", d.design)
		}
	}

	for _, id := range []string{"demo", "x/y", "50%", "q?layer=1", "h#frag", "a%2Fb", "demo/c/0/0/0", "..", "../demo", "%2e%2e", strings.Repeat("é", 128)} {
		f.Add(uint8(0), ChunkPath(id, 1, 2, 3, false))
		f.Add(uint8(2), ChunkPath(id, 1, 2, 3, true))
		f.Add(uint8(1), mpdPath(id))
	}
	for _, target := range []string{
		"/v", "/v/", "//v", "/v/demo/c/%31/%32/%33", "/%76/demo/%63/1/2/3", "/v/demo/manifest%2Empd",
		"/v/demo/c/1/2/3/", "/v/demo/manifest.mpd/", "/v//manifest.mpd", "/v/demo/c//2/3",
		"/v/./manifest.mpd", "/v/demo/../demo/manifest.mpd", "/v/..", "/v/.", "/v/%2e/manifest.mpd", "/v/%2f/manifest.mpd", "/v/demo/c/%2F/2/3",
		"*", "/", "/V", "/v/demo", "/v/demo/c/1/2/3/4", "/v?x=1", "http://host/v/demo/manifest.mpd", "http://host",
	} {
		for m := range fuzzMethods {
			f.Add(uint8(m), target)
		}
	}

	var got route // what the reference's handler saw
	ref := http.NewServeMux()
	ref.HandleFunc("GET /v", func(http.ResponseWriter, *http.Request) { got = route{kind: routeList} })
	ref.HandleFunc("GET /v/{video}/manifest.mpd", func(_ http.ResponseWriter, r *http.Request) {
		got = route{kind: routeMPD, video: r.PathValue("video")}
	})
	ref.HandleFunc("GET /v/{video}/c/{quality}/{tile}/{index}", func(_ http.ResponseWriter, r *http.Request) {
		got = route{kind: routeChunk, video: r.PathValue("video"), quality: r.PathValue("quality"), tile: r.PathValue("tile"), index: r.PathValue("index")}
	})

	f.Fuzz(func(t *testing.T, m uint8, target string) {
		u, err := url.ParseRequestURI(target)
		if err != nil {
			return // net/http refuses it before any handler
		}
		r := &http.Request{
			Method: fuzzMethods[int(m)%len(fuzzMethods)], URL: u, RequestURI: target,
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: http.Header{}, Host: "edge",
		}
		got = route{}
		rec := httptest.NewRecorder()
		ref.ServeHTTP(rec, r)
		want := got
		switch rec.Code {
		case http.StatusOK:
		case http.StatusNotFound:
			want = route{kind: routeNotFound}
		case http.StatusMethodNotAllowed:
			if allow := rec.Header().Get("Allow"); allow != "GET, HEAD" {
				t.Fatalf("%s %q: the reference allows %q", r.Method, target, allow)
			}
			want = route{kind: routeNotAllowed}
		default:
			want = route{kind: routeKind(255)} // no route of dispatch's
		}
		rt := dispatch(r.Method, r.URL.EscapedPath())
		if rt == want {
			return
		}
		for _, d := range dispatchDivergences {
			if d.applies(r, rec.Code, rt) {
				return
			}
		}
		t.Fatalf("%s %q: dispatch %+v, ServeMux %d %+v", r.Method, target, rt, rec.Code, want)
	})
}
