package experiments_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"strings"
	"testing"

	"sperke/internal/experiments"
	"sperke/internal/obs"
)

// renderAll runs every registered experiment and renders both the text
// and CSV forms into one byte stream.
func renderAll(seed int64) []byte {
	var buf bytes.Buffer
	for _, tbl := range experiments.RunAll(seed) {
		tbl.Render(&buf)
		tbl.RenderCSV(&buf)
	}
	return buf.Bytes()
}

// TestRerunsAreByteIdentical is the determinism regression on every
// platform (TestRunAllGolden pins the bytes themselves, on amd64 only):
// the same seed must render byte-identical output on every run. A
// map-iteration-order leak into a table row, or a read of the global
// rand source or the wall clock, shows up here as a diff.
func TestRerunsAreByteIdentical(t *testing.T) {
	first := renderAll(7)
	if again := renderAll(7); !bytes.Equal(first, again) {
		t.Fatalf("rerun diverged from first run (%d vs %d bytes) near:\n%s",
			len(first), len(again), firstDiff(first, again))
	}
}

// TestRunAllGolden pins "E1–E16 stay byte-reproducible" across commits,
// not just across reruns: the SHA-256 of every table RunAll(7) renders
// (text then CSV) must equal testdata/runall_seed7.sha256. A change that
// claims bit-exactness leaves the file alone; a change that means to move
// an experiment puts the hash this test prints there and says so. amd64
// only — arm64 may fuse multiply-adds and round differently.
func TestRunAllGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden is generated on amd64")
	}
	const golden = "testdata/runall_seed7.sha256"
	out := renderAll(7)
	sum := sha256.Sum256(out)
	got := hex.EncodeToString(sum[:])
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("RunAll(7) renders %d bytes with SHA-256 %s, golden is %s", len(out), got, strings.TrimSpace(string(want)))
	}
}

// TestMetricsAreObservationOnly pins that metrics only observe: wiring
// an obs registry into the suite must not change a single output byte.
func TestMetricsAreObservationOnly(t *testing.T) {
	experiments.SetObs(nil)
	plain := renderAll(7)
	experiments.SetObs(obs.NewRegistry())
	t.Cleanup(func() { experiments.SetObs(nil) })
	instrumented := renderAll(7)
	if !bytes.Equal(plain, instrumented) {
		t.Fatalf("metrics changed experiment output near:\n%s", firstDiff(plain, instrumented))
	}
}

// firstDiff renders a small window around the first diverging byte.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	win := func(s []byte) string {
		hi := i + 80
		if hi > len(s) {
			hi = len(s)
		}
		if lo > len(s) {
			return ""
		}
		return string(s[lo:hi])
	}
	return "a: …" + win(a) + "…\nb: …" + win(b) + "…"
}
