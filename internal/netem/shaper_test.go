package netem

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// testPipe is the two ends of a loopback TCP connection, closed when
// the test ends.
func testPipe(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b
}

func TestRateLimitedConnThrottles(t *testing.T) {
	a, b := testPipe(t)
	// 800 kbps = 100 KB/s; writing 50 KB should take ≈ 0.5s, minus the
	// initial 32 KiB burst → ≥ 150ms.
	shaped := NewRateLimitedConn(a, 800e3, 0)

	var got bytes.Buffer
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		io.CopyN(&got, b, 50<<10)
	}()

	start := time.Now()
	data := make([]byte, 50<<10)
	if _, err := shaped.Write(data); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed < 100*time.Millisecond {
		t.Fatalf("50KB at 100KB/s took only %v", elapsed)
	}
	if got.Len() != 50<<10 {
		t.Fatalf("received %d bytes, want %d", got.Len(), 50<<10)
	}
}

func TestRateLimitedConnUnlimited(t *testing.T) {
	a, b := testPipe(t)
	shaped := NewRateLimitedConn(a, 0, 0) // unlimited
	go io.Copy(io.Discard, b)
	start := time.Now()
	if _, err := shaped.Write(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("unlimited shaper throttled")
	}
}

func TestRateLimitedConnDataIntegrity(t *testing.T) {
	a, b := testPipe(t)
	shaped := NewRateLimitedConn(a, 10e6, 4<<10)
	want := make([]byte, 100<<10)
	for i := range want {
		want[i] = byte(i * 31)
	}
	var got bytes.Buffer
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		io.CopyN(&got, b, int64(len(want)))
	}()
	if _, err := shaped.Write(want); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("shaped write corrupted data")
	}
}
