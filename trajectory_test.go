package sperke_bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestTrajectoryFilesAreComplete: every BENCH_*.json at the root is a
// `bench -out` report.json checked in as one point of the trajectory.
// Each must hold every workload BENCHMARK.json declares, each workload
// every end-to-end metric, and no failed operation, so any two points
// can be diffed metric by metric.
func TestTrajectoryFilesAreComplete(t *testing.T) {
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	readJSON(t, "BENCHMARK.json", &decl)
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no BENCH_*.json at the root (%v)", err)
	}
	for _, f := range files {
		var report struct {
			Workloads map[string]struct {
				Attempted, Failed *int64
				EndToEnd          map[string]struct{ Value *float64 } `json:"end_to_end"`
			}
		}
		readJSON(t, f, &report)
		for _, w := range decl.Workloads {
			got, ok := report.Workloads[w.Name]
			switch {
			case !ok:
				t.Errorf("%s: no %s workload", f, w.Name)
				continue
			case got.Failed == nil || got.Attempted == nil:
				t.Errorf("%s: %s reports no attempted or failed count", f, w.Name)
			case *got.Failed != 0:
				t.Errorf("%s: %s failed %d of %d operations", f, w.Name, *got.Failed, *got.Attempted)
			}
			for _, m := range decl.EndToEnd {
				if got.EndToEnd[m.Name].Value == nil {
					t.Errorf("%s: %s has no %s", f, w.Name, m.Name)
				}
			}
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
