package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestSmoke runs every workload, untraced and traced, through the code
// the benchmark runs, at smokeSizes.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			dir := t.TempDir()
			res, err := w.run(params{seed: 7, seconds: 0.5, traced: traced, sz: smokeSizes, outDir: dir})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			// Fixed work: half a second at smokeSizes' rates, whatever the
			// box's speed.
			want := 2000
			if w.name == "viewer_sim" {
				want = 10
			}
			if !traced && res.Attempted != want {
				t.Errorf("%s: %d operations attempted, want the fixed %d", w.name, res.Attempted, want)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || v.Unit == "" {
					t.Errorf("%s traced=%v: metric %s missing or without its unit %q: %+v", w.name, traced, d.Name, d.Unit, v)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, d.Name, v.Value)
				}
			}
			if !traced {
				continue
			}
			if v := res.Metrics["error_share"].Value; v != 0 {
				t.Errorf("%s: error_share %v", w.name, v)
			}
			if v := res.Metrics["trace.residual_share"].Value; v >= 0.25 {
				t.Errorf("%s: trace.residual_share %v, layers do not add up to the end-to-end figure", w.name, v)
			}
			checkSpansFile(t, filepath.Join(dir, w.name+".spans.json"), w.name == "viewer_sim")
			// The workloads separate the layers: HTTP seams only where a
			// request crosses them, cluster seams only on cluster_crowd.
			for name, want := range map[string]bool{
				"client.calls_per_req":                w.name != "viewer_sim",
				"wire.hop.calls_per_req":              w.name == "cluster_crowd",
				"cluster.requests":                    w.name == "cluster_crowd",
				"dash.server.calls_per_req":           w.name == "origin_warm" || w.name == "origin_cold",
				"core.session.calls_per_viewer_s":     w.name == "viewer_sim",
				"transport.submit.calls_per_viewer_s": w.name == "viewer_sim",
			} {
				if got := res.Metrics[name].Value != 0; got != want {
					t.Errorf("%s: %s nonzero is %v, want %v", w.name, name, got, want)
				}
			}
		}
	}
}

// checkSpansFile checks the dumped spans: well-formed, every parent in
// the file (smoke runs stay under the dump's cap, so none is cut off),
// and no HTTP span on viewer_sim.
func checkSpansFile(t *testing.T, path string, sim bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Recorded int    `json:"recorded"`
		Spans    []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Spans) == 0 || dump.Recorded != len(dump.Spans) {
		t.Fatalf("%s: %d spans of %d recorded", path, len(dump.Spans), dump.Recorded)
	}
	if err := checkParents(dump.Spans); err != nil {
		t.Errorf("%s: %v", path, err)
	}
	for _, s := range dump.Spans {
		if s.End < s.Start {
			t.Fatalf("%s: span %+v ends before it starts", path, s)
		}
		if http := s.Name == "wire.front" || s.Name == "dash.server" || s.Name == "wire.hop"; sim && http {
			t.Fatalf("%s: HTTP span %q on viewer_sim", path, s.Name)
		}
	}
}

func TestCrowdReplayDependsOnlyOnSeed(t *testing.T) {
	video := newVideo(20 * time.Second)
	a, err := crowdReplay(3, video, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := crowdReplay(3, video, 6)
	c, _ := crowdReplay(4, video, 6)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Errorf("equal seeds gave different crowd replays (%d and %d requests)", len(a), len(b))
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same crowd replay")
	}
}

func TestSelfTimeSubtractsClippedMergedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "root", Start: 0, End: 100_000},
		{ID: 2, Parent: 1, Req: 1, Name: "kid", Start: 10_000, End: 40_000},
		{ID: 3, Parent: 1, Req: 1, Name: "kid", Start: 30_000, End: 50_000},  // overlaps its sibling
		{ID: 4, Parent: 1, Req: 1, Name: "kid", Start: 90_000, End: 120_000}, // outlives the parent
	}
	an := analyze(spans, "root")
	if got := an.layers["root"].selfP50us; got != 50 {
		t.Errorf("root self time %v us, want 50", got)
	}
	if got := an.layers["kid"].selfByReq[1]; got != 80 {
		t.Errorf("kid self time in request 1 is %v us, want 80", got)
	}
}

func TestDiffVerdicts(t *testing.T) {
	write := func(name string, rps ...float64) string {
		rm := &reportedMetric{}
		for _, v := range rps {
			rm.add(metricValue{Value: v, Unit: "1/s"})
		}
		rep := report{Workloads: map[string]*workloadReport{"origin_warm": {EndToEnd: map[string]*reportedMetric{"goodput_rps": rm}}}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", 1000, 1010)
	devnull, _ := os.Open(os.DevNull)
	defer devnull.Close()
	if err := diffReports(devnull, base, write("ok.json", 950)); err != nil {
		t.Errorf("5%% slower is inside the 25%% bound, got %v", err)
	}
	if err := diffReports(devnull, base, write("worse.json", 600)); err != errWorse {
		t.Errorf("40%% slower must be worse, got %v", err)
	}
	if err := diffReports(devnull, base, write("noisy.json", 400, 700)); err != nil {
		t.Errorf("a side that spreads wider than the bound is unresolved, not worse; got %v", err)
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json, which the
// driver reads, in step with what the harness reports.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("command %q over paths %q: the harness is bench/run.sh in bench", spec.Command, spec.Paths)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, harness default %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, harness has %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d in the harness", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s metric %d is %+v, harness has %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
