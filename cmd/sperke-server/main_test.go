package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"sperke/internal/dash"
	"sperke/internal/media"
	"sperke/internal/obs"
)

// start runs the server on a loopback port the kernel picks and returns
// its address, read off the "listening" log line, and the channel run's
// result arrives on. The log goes through a pipe that stands in for
// stderr until run has returned.
func start(t *testing.T, ctx context.Context) (string, <-chan error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	done, result := make(chan error, 1), make(chan error, 1)
	go func() {
		err := run(ctx, []string{"-addr", "127.0.0.1:0"})
		done <- err
		result <- err
	}()
	t.Cleanup(func() {
		<-done
		os.Stderr = stderr
		w.Close()
	})
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			if line := sc.Text(); strings.Contains(line, `msg="sperke-server listening"`) {
				_, a, _ := strings.Cut(line, " addr=")
				addr <- a
			}
		}
		r.Close()
	}()
	select {
	case a := <-addr:
		return a, result
	case err := <-result:
		t.Fatalf("run returned %v before listening", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no listening line in 10s")
	}
	return "", nil
}

// get returns the body of a GET that must answer 200.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s, %v", url, resp.Status, err)
	}
	return body
}

// video returns the catalog's video id.
func video(t *testing.T, id string) *media.Video {
	t.Helper()
	for _, v := range videos() {
		if v.ID == id {
			return v
		}
	}
	t.Fatalf("no video %q", id)
	return nil
}

// TestServesTheCatalog: the demo manifest, an AVC chunk and an SVC layer
// come over the wire as the synthesis builds them, /metrics counts them,
// and run returns nil once its context ends.
func TestServesTheCatalog(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, done := start(t, ctx)
	base := "http://" + addr
	before := obs.Default().Counter("dash.server.chunk_requests").Value()

	mpd, err := dash.NewClient(base).FetchMPD(ctx, "demo")
	if err != nil {
		t.Fatal(err)
	}
	if mpd.Encoding != "SVC" || mpd.Rows*mpd.Cols != 24 || mpd.ChunkMs != 2000 || mpd.DurationMs != 120000 {
		t.Errorf("demo manifest %+v", mpd)
	}
	for _, c := range []struct {
		id      string
		q, tile int
		layer   bool
		what    string
	}{{"concert", 2, 5, false, "AVC chunk"}, {"demo", 3, 7, true, "SVC layer"}} {
		want, err := dash.BuildChunkBody(video(t, c.id), c.q, c.tile, 1, c.layer)
		if err != nil {
			t.Fatal(err)
		}
		if got := get(t, base+dash.ChunkPath(c.id, c.q, c.tile, 1, c.layer)); !bytes.Equal(got, want) {
			t.Errorf("%s %s: %d bytes differ from the %d synthesized", c.id, c.what, len(got), len(want))
		}
	}

	var snap obs.Snapshot
	if err := json.Unmarshal(get(t, base+"/metrics"), &snap); err != nil {
		t.Fatal(err)
	}
	if n := snap.Counters["dash.server.chunk_requests"] - before; n != 2 {
		t.Errorf("/metrics counts %d chunk requests, want 2", n)
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("run = %v after its context ended", err)
	}
}

// TestShutdownWaitsForRequestsInFlight: a signal that arrives while a
// viewer's request is still coming in must not end run. run returns
// only after the response to that request is written, the viewer gets
// it whole, and the connection closes after it. The request is held
// half sent, its header's blank line withheld: a slow reader cannot
// hold a response mid-write, because the sockets take a whole chunk
// body (179 KiB here) into their buffers.
func TestShutdownWaitsForRequestsInFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, done := start(t, ctx)
	want, err := dash.BuildChunkBody(video(t, "demo"), 5, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	written := obs.Default().Counter("dash.server.bytes_tx")
	before := written.Value()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: %s\r\n", dash.ChunkPath("demo", 5, 0, 0, false), addr); err != nil {
		t.Fatal(err)
	}
	// The listener hands connections over in the order they were made,
	// so once a later one is answered the server has taken this one.
	later := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	if resp, err := later.Get("http://" + addr + "/metrics"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	cancel()
	select {
	case err := <-done:
		t.Fatalf("run returned %v while a request was coming in", err)
	case <-time.After(300 * time.Millisecond):
	}
	if _, err := io.WriteString(conn, "\r\n"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run = %v", err)
		}
	case <-time.After(shutdownGrace):
		t.Fatal("run did not return after the response was written")
	}
	if n := written.Value() - before; n != int64(len(want)) {
		t.Errorf("run returned with %d of the response's %d bytes written", n, len(want))
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if body, err := io.ReadAll(resp.Body); err != nil || !bytes.Equal(body, want) {
		t.Fatalf("response: %d of %d bytes, %v", len(body), len(want), err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Errorf("after the response the connection reads %v, want EOF", err)
	}
}

// TestRunRefusesBadFlags: a budget the store would replace with its
// default, and a flag the command does not have, are errors returned
// before anything listens.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, c := range [][2]string{
		{"-store-budget-mb 0", "-store-budget-mb must be at least 1"},
		{"-chunk 1s", "flag provided but not defined: -chunk"},
		{"-store-shards 8", "flag provided but not defined: -store-shards"},
	} {
		err := run(context.Background(), strings.Fields("-addr 127.0.0.1:0 "+c[0]))
		if err == nil || !strings.Contains(err.Error(), c[1]) {
			t.Errorf("run %s = %v, want an error containing %q", c[0], err, c[1])
		}
	}
}
