package main

import (
	"context"
	"net"
	"testing"
	"time"
)

// TestRunFailsWhenFetchesFail: a run whose HTTP leg reached nothing is
// not a successful run, whatever the simulated sessions report. The
// origin is a port just closed; the deadline only cuts short the
// client's retries, which would otherwise take half a minute to give up
// on every chunk.
func TestRunFailsWhenFetchesFail(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := "http://" + ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := run(ctx, []string{"-sessions", "1", "-duration", "4s", "-url", closed}); err == nil {
		t.Fatal("run against a closed port returned nil")
	}
}
