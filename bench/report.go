package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"text/tabwriter"
)

// report is the stored outcome of one or more full sets of runs.
type report struct {
	Label     string                     `json:"label,omitempty"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Machine   machine                    `json:"machine"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type machine struct {
	Cores       int    `json:"cores"`
	Connections int    `json:"connections"`
	Go          string `json:"go"`
	Note        string `json:"note"`
}

type workloadReport struct {
	Why       string                     `json:"why"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	EndToEnd  map[string]*reportedMetric `json:"end_to_end"`
	PerLayer  map[string]*reportedMetric `json:"per_layer"`
}

// reportedMetric keeps every set's value; Value is their median.
type reportedMetric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

func (rm *reportedMetric) add(v metricValue) {
	rm.Unit = v.Unit
	rm.Values = append(rm.Values, v.Value)
	rm.Value = median(rm.Values)
}

// runAll runs `repeat` full sets. Every run is a fresh child process of
// this binary, so resident memory, GC state and store residency do not
// leak from one measurement into the next.
func runAll(seed int64, secs float64, repeat int, outDir, label string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rep := &report{
		Label: label, Seed: seed, Seconds: secs,
		Machine: machine{
			Cores: runtime.NumCPU(), Connections: connections(), Go: runtime.Version(),
			Note: "server, cluster and load generator share one process and its cores; traffic crosses the loopback interface, not a real link",
		},
		Workloads: make(map[string]*workloadReport),
	}
	for set := 0; set < repeat; set++ {
		for _, w := range workloads {
			wr := rep.Workloads[w.name]
			if wr == nil {
				wr = &workloadReport{Why: w.why, EndToEnd: map[string]*reportedMetric{}, PerLayer: map[string]*reportedMetric{}}
				rep.Workloads[w.name] = wr
			}
			for traced, into := range []map[string]*reportedMetric{wr.EndToEnd, wr.PerLayer} {
				fmt.Fprintf(logOut, "bench: set %d/%d %s trace=%d\n", set+1, repeat, w.name, traced)
				args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", strconv.Itoa(traced), "-out", outDir}
				res, err := runChild(exe, args)
				if err != nil {
					return fmt.Errorf("bench: %s trace=%d: %w", w.name, traced, err)
				}
				wr.Attempted += res.Attempted
				wr.Failed += res.Failed
				for name, v := range res.Metrics {
					if into[name] == nil {
						into[name] = &reportedMetric{}
					}
					into[name].add(v)
				}
			}
		}
	}
	printReport(os.Stdout, rep)
	paths := []string{filepath.Join(outDir, "report.json")}
	if label != "" {
		paths = append(paths, filepath.Join("results", label+".json"))
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	for _, p := range paths {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(p, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(logOut, "bench: wrote", p)
	}
	if repeat > 1 {
		return checkRepeats(os.Stdout, rep)
	}
	return nil
}

// runChild runs one workload invocation and parses the result line, the
// last line of its standard output.
func runChild(exe string, args []string) (result, error) {
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("parsing result line: %w", err)
	}
	return res, nil
}

func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "seed %d, %g s per run, %d cores, %d closed-loop connections, %s; loopback, in-process server\n",
		rep.Seed, rep.Seconds, rep.Machine.Cores, rep.Machine.Connections, rep.Machine.Go)
	for _, wl := range workloads {
		wr := rep.Workloads[wl.name]
		if wr == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s: %d operations, %d failed (error_share %.6f)\n", wl.name, wr.Attempted, wr.Failed,
			float64(wr.Failed)/float64(max(wr.Attempted, 1)))
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		for _, d := range endToEnd {
			if v := wr.EndToEnd[d.Name]; v != nil {
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s is better, bound %g%%\n", d.Name, v.Value, v.Unit, d.Better, d.Bound*100)
			}
		}
		for _, d := range perLayer {
			// A zero per-layer metric is a layer the workload does not reach.
			if v := wr.PerLayer[d.Name]; v != nil && v.Value != 0 {
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\t\n", d.Name, v.Value, v.Unit)
			}
		}
		tw.Flush()
	}
}

// worsening is how much worse `now` is than `base` as a share of base,
// in the metric's own direction; negative when it improved.
func worsening(d metricDef, base, now float64) float64 {
	if base == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (base - now) / base
	}
	return (now - base) / base
}

// spread is the range of a metric's own values as a share of their
// median: what the metric does on unchanged code.
func spread(rm *reportedMetric) float64 {
	if len(rm.Values) < 2 || rm.Value == 0 {
		return 0
	}
	lo, hi := rm.Values[0], rm.Values[0]
	for _, v := range rm.Values {
		lo, hi = min(lo, v), max(hi, v)
	}
	return (hi - lo) / rm.Value
}

// checkRepeats enforces the repeatability rule: the sets of one report,
// run on unchanged code, must agree on every end-to-end metric within
// the metric's own bound. setup_s is only noted: the benchmark contract
// wants it gated, so it cannot move to the per-layer list, and a
// sub-second set-up caught in one slow second differs by 30-50 % between
// two single runs while its median over ten holds to a few per cent.
func checkRepeats(w io.Writer, rep *report) error {
	bad := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			rm := rep.Workloads[wl.name].EndToEnd[d.Name]
			s := spread(rm)
			if s <= d.Bound {
				continue
			}
			verdict := "unrepeatable"
			if d.Name == "setup_s" {
				verdict = "noted"
			} else {
				bad++
			}
			fmt.Fprintf(w, "%s: %s %s spread %.1f%% over %d sets exceeds its %g%% bound\n",
				verdict, wl.name, d.Name, s*100, len(rm.Values), d.Bound*100)
		}
	}
	if bad > 0 {
		return fmt.Errorf("bench: %d end-to-end metrics do not repeat within their bounds; move them to the per-layer list, do not widen the bound", bad)
	}
	fmt.Fprintln(w, "repeatable: every end-to-end metric agrees across sets within its bound")
	return nil
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// diffReports prints one row per (workload, end-to-end metric): both
// values, the ratio with its base, the bound and a verdict. A metric
// past its bound is `worse`, unless either side's own sets spread wider
// than the bound, which makes the difference `unresolved`.
func diffReports(w io.Writer, pathA, pathB string) error {
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\t%s\t%s\tB/A\tbound\tverdict\n", filepath.Base(pathA), filepath.Base(pathB))
	worse := false
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if ma == nil || mb == nil || ma.Value == 0 {
				continue
			}
			verdict := "ok"
			if worsening(d, ma.Value, mb.Value) > d.Bound {
				verdict = "worse"
				if spread(ma) > d.Bound || spread(mb) > d.Bound {
					verdict = "unresolved"
				} else {
					worse = true
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.3f of %.6g\t%g%%\t%s\n", wl.name, d.Name,
				ma.Value, ma.Unit, mb.Value, mb.Unit, mb.Value/ma.Value, ma.Value, d.Bound*100, verdict)
		}
		if wb.Failed > wa.Failed {
			worse = true
			fmt.Fprintf(tw, "%s\terror_share\t%d of %d\t%d of %d\t\tany rise\tworse\n", wl.name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		}
	}
	tw.Flush()
	if worse {
		return errWorse
	}
	return nil
}
