package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"slices"
	"strconv"

	"sperke/internal/dash"
	"sperke/internal/media"
	"sperke/internal/obs"
	"sperke/internal/serve"
)

// maxBodyLen is the longest body a chunk can have: the largest payload
// under the longest video ID.
var maxBodyLen = int64(media.SegmentLen("", media.MaxPayloadLen) + media.MaxVideoIDLen)

// declare sets a body's headers ahead of its first byte; a negative
// length (an edge that declared none) leaves Content-Length unset.
func declare(w http.ResponseWriter, length int64) {
	dash.SetOctetStream(w.Header())
	if length >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(length, 10))
	}
}

// deliver hands a body that is already whole to the sink: with no
// writer the caller takes the slice itself and nothing is written;
// with one, the body goes out under its exact Content-Length. It
// reports the bytes written to w.
func deliver(w http.ResponseWriter, body []byte) (int64, error) {
	if w == nil {
		return 0, nil
	}
	declare(w, int64(len(body)))
	n, err := w.Write(body)
	if err != nil {
		return int64(n), viewerGone(err)
	}
	return int64(n), nil
}

// viewerGone marks a failed write to the sink: the viewer's
// ResponseWriter broke, not the edge or origin feeding it, so the walk
// ends there — nothing is charged to an edge, nothing fails over — and
// the front door records an abort, not a 5xx.
func viewerGone(err error) error {
	return fmt.Errorf("cluster: writing to the viewer: %w: %w", dash.ErrViewerGone, err)
}

// relay moves one opened edge response to the sink and owns the
// declared-length check. A whole body is needed only when there is no
// writer (the caller wants the slice), the key has other live cold owners
// (replicate — the walk queues it as their replication write), or
// coalesced followers are attached to the leader's flight (it is
// published as their response); a streaming leader with none of these
// commits the flight to the no-tee form first. A needed body is the
// edge's own, the sealed slice open read from its store beside the
// stream, when that is exactly the declared length, so a warm, a follower
// and a writer-less caller share the serving edge's slice and the router
// holds no second copy. Only when the edge holds none does the relay keep
// one (pump).
//
// A body the relay keeps no copy of, under a declared length, from a
// hop over a TCP socket to a sink that implements io.ReaderFrom — the front
// door's net/http response — is handed over (hopBody.handOver): the
// router copies the few bytes that came with the edge's head and splice(2)
// moves the rest between the two sockets. Every other body goes through
// pump's block loop. A stream shorter or longer than the edge's declared
// Content-Length is a wire fault — handing short bytes to the caller, or
// worse a replica's cache, would launder a truncation into a
// valid-looking chunk — so it returns a typed transient error that feeds
// the failure detector instead of posing as a success, returns no body,
// and forwards no byte past the declared length; so is a declared length
// no segment can have, refused before any block is sized by it. A failed
// write is the viewer's (viewerGone). It reports the bytes forwarded and
// the needed body, if any.
func (c *Cluster) relay(w http.ResponseWriter, st chunkStream, edge []byte, replicate bool, key serve.ChunkKey, fl *routeFlight) (int64, []byte, error) {
	defer st.body.Close()
	if st.length > maxBodyLen {
		// Believing it would size a block by a number off the wire.
		return 0, nil, &dash.Error{
			Op: key.String(), Kind: dash.KindTransient,
			Err: fmt.Errorf("cluster: edge declared a %d-byte body, longer than any segment", st.length),
		}
	}
	if int64(len(edge)) != st.length {
		edge = nil
	}
	need := w == nil || replicate || (fl != nil && !c.coal.tryNoTee(fl))
	keep := need && edge == nil
	if w != nil {
		declare(w, st.length)
	}
	var n int64
	var kept []byte
	var err error
	hop, _ := st.body.(*hopBody)
	if rf, ok := w.(io.ReaderFrom); ok && hop != nil && hop.socket() && !keep && st.length >= 0 {
		n, err = hop.handOver(w, rf, st.length)
	} else {
		n, kept, err = pump(w, st, keep, key)
	}
	if err == nil && st.length >= 0 && n != st.length {
		err = lengthMismatch(key, n, st.length)
	}
	switch {
	case err != nil:
		return n, nil, err
	case !need:
		return n, nil, nil
	case !keep:
		return n, edge, nil
	}
	return n, kept, nil
}

// pump is the relay's block loop. It streams: each read takes whatever
// has arrived and is forwarded in one write, so the router never waits
// for the whole body. A kept body's exact-size buffer is the block, each
// read lands in it and that slice is forwarded; it is returned sealed.
// Every other read goes into a pooled block of the declared length's
// class (obs.Blocks: 32 KiB when none was declared, 256 KiB at most), so
// a typical chunk crosses in one turn, the warm-cache fast path stays
// allocation-flat, and the scratch is at most the body's class. A read
// that would pass the declared length fails before its bytes go out; a
// body that ends before it (io.ErrUnexpectedEOF off a hop) returns what
// came, for the relay's length check.
func pump(w http.ResponseWriter, st chunkStream, keep bool, key serve.ChunkKey) (int64, []byte, error) {
	// Reads land in buf[len(buf):cap(buf)]; only a kept body advances len.
	var buf []byte
	if !keep {
		pool := obs.Blocks.For(int(st.length))
		block := pool.Get()
		defer pool.Put(block)
		buf = *block
	} else if st.length >= 0 {
		// The spare byte is where the read reporting EOF lands, and where
		// a body longer than declared shows.
		buf = make([]byte, 0, st.length+1)
	}
	var n int64
	for {
		if len(buf) == cap(buf) {
			// A kept body of undeclared length outgrew its buffer.
			buf = slices.Grow(buf, obs.MinBlockLen)
		}
		m, err := st.body.Read(buf[len(buf):cap(buf)])
		if st.length >= 0 && n+int64(m) > st.length {
			return n, nil, lengthMismatch(key, n+int64(m), st.length)
		}
		if m > 0 {
			if w != nil {
				if _, werr := w.Write(buf[len(buf) : len(buf)+m]); werr != nil {
					return n, nil, viewerGone(werr)
				}
			}
			n += int64(m)
			if keep {
				buf = buf[:len(buf)+m]
			}
		}
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			break
		}
		if err != nil {
			return n, nil, err
		}
	}
	if !keep {
		return n, nil, nil
	}
	// Sealed (len == cap): the body is shared by the caller, followers
	// and a replica's cache, and the spare byte must not let one
	// holder's append write into another's.
	return n, slices.Clip(buf), nil
}

// lengthMismatch is the typed transient error of a relayed body that
// disagrees with the edge's declared length.
func lengthMismatch(key serve.ChunkKey, got, declared int64) error {
	return &dash.Error{
		Op: key.String(), Kind: dash.KindTransient,
		Err: fmt.Errorf("cluster: edge body length mismatch: %d bytes against %d declared", got, declared),
	}
}

// originFallback serves a request no edge could, in the one form both
// sinks share: the origin's body comes back whole, is delivered, and is
// returned for the flight's followers — a herd for one key with every
// edge down costs the origin one fetch. cluster.origin_fetches counts
// only fetches that completed: a failed or canceled fallback
// synthesized nothing a viewer got, and counting it would skew the
// offload ratio, so those land under cluster.origin_errors (no writer)
// or cluster.origin_stream_errors (writer) instead.
func (c *Cluster) originFallback(ctx context.Context, w http.ResponseWriter, key serve.ChunkKey) (int64, []byte, error) {
	c.met.originFallbacks.Inc()
	body, err := c.origin.Chunk(ctx, key.Video, key.Quality, key.Tile, key.Index, key.Layer)
	if err != nil {
		if w != nil {
			c.met.originStreamErrs.Inc()
		} else {
			c.met.originChunkErrs.Inc()
		}
		return 0, nil, err
	}
	c.met.originFetches.Inc()
	c.enqueuePrewarms(key)
	n, err := deliver(w, body)
	return n, body, err
}

// forwardTo is WithTransport's edge handler: each request the edge loop
// reads is proxied through rt to host.
func forwardTo(rt http.RoundTripper, host string) http.Handler {
	return &httputil.ReverseProxy{Transport: rt, Rewrite: func(r *httputil.ProxyRequest) {
		r.Out.URL.Scheme, r.Out.URL.Host, r.Out.Host = "http", host, host
	}}
}
