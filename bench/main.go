// Command bench measures a Sperke chunk request end to end and layer by
// layer on four named workloads. See README.md.
//
//	bench -workload NAME -seed N -seconds S -trace 0|1   one run, one JSON result line
//	bench [-seed N] [-seconds S] [-repeat K] [-label L]  every workload, each run in a fresh process
//	bench -diff A.json B.json                            compare two stored reports
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// runSeconds is how long one run measures unless -seconds says
// otherwise; BENCHMARK.json's run_seconds repeats it.
const runSeconds = 12

// logOut receives diagnostics; standard output carries only results.
var logOut io.Writer = os.Stderr

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

var errWorse = errors.New("bench: at least one end-to-end metric is worse than its bound allows")

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload in this process and print one JSON result line")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	secs := fs.Float64("seconds", runSeconds, "how long one run measures")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	outDir := fs.String("out", "out", "directory for the report and the span dumps")
	label := fs.String("label", "", "also store the report as results/<label>.json")
	repeat := fs.Int("repeat", 1, "run this many full sets; with 2 or more, check that the sets agree within each metric's bound")
	diff := fs.Bool("diff", false, "compare two reports: bench -diff A.json B.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diff {
		if fs.NArg() != 2 {
			return errors.New("bench: -diff takes two report files")
		}
		return diffReports(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("bench: unexpected argument %q", fs.Arg(0))
	}
	if *secs <= 0 || (*traced != 0 && *traced != 1) || *repeat < 1 {
		return errors.New("bench: -seconds must be positive, -trace 0 or 1, -repeat at least 1")
	}
	if *name == "" {
		return runAll(*seed, *secs, *repeat, *outDir, *label)
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("bench: no workload %q", *name)
	}
	res, err := w.run(params{seed: *seed, seconds: *secs, traced: *traced == 1, sz: fullSizes, outDir: *outDir})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("bench: %s: %d of %d operations failed verification", w.name, res.Failed, res.Attempted)
	}
	return nil
}
