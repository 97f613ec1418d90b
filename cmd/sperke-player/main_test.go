package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// play runs sperke-player with args, as its command line would.
func play(args ...string) {
	if err := run(args, os.Stdout); err != nil {
		fmt.Println(err)
	}
}

// TestRunRefusesIgnoredFlags: a flag the chosen network model would
// ignore, and a flag the command does not have, are refused before
// anything runs.
func TestRunRefusesIgnoredFlags(t *testing.T) {
	if err := run([]string{"-bandwidth", "5"}, io.Discard); err == nil || !strings.Contains(err.Error(), "not defined: -bandwidth") {
		t.Errorf("run -bandwidth 5 = %v, want the flag refused", err)
	}
	for _, args := range []string{"-net const -trace 0:8M", "-trace 0:8M", "-net lte -trace 0:8M,30s:1.5M"} {
		err := run(strings.Fields(args), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-trace needs -net spec") {
			t.Errorf("run %s = %v, want an error containing %q", args, err, "-trace needs -net spec")
		}
	}
	if err := run(strings.Fields("-net spec -trace 0:8M -duration 4s"), io.Discard); err != nil {
		t.Errorf("run -net spec -trace 0:8M = %v", err)
	}
}

// TestSpecHeaderNamesTheSchedule: under -net spec the schedule sets the
// link rate, so the header names it and not -mbps, which only the
// multipath LTE path reads.
func TestSpecHeaderNamesTheSchedule(t *testing.T) {
	for _, tc := range []struct{ args, link string }{
		{"-net spec -trace 0:2M -duration 4s", " over spec 0:2M\n"},
		{"-net spec -trace 0:2M -mbps 5 -duration 4s", " over spec 0:2M\n"},
		{"-multipath -net spec -trace 0:2M -mbps 5 -duration 4s", " over wifi+lte (content-aware) @5.0 Mbps\n"},
	} {
		var out strings.Builder
		if err := run(strings.Fields(tc.args), &out); err != nil {
			t.Fatalf("run %s = %v", tc.args, err)
		}
		header, _, _ := strings.Cut(out.String(), "\n")
		if !strings.HasSuffix(header+"\n", tc.link) {
			t.Errorf("run %s header %q, want it to end %q", tc.args, header, tc.link)
		}
	}
}

// The three sessions below pin what the paper's scenarios print: the
// Fig. 4 session at the defaults, §3.1.1's incremental SVC upgrades
// and §3.3's content-aware multipath. A change that moves a number
// edits the block.

func Example() {
	play()
	// Output:
	// session: fov-guided, throughput VRA, AVC, 1m0s over const @12.0 Mbps
	//   startup delay     900ms
	//   play time         1m0s
	//   stalls            1 (100ms)
	//   mean FoV quality  3.38 / 5
	//   quality switches  3
	//   blank time        0s
	//   bytes fetched     34.0 MB
	//   bytes wasted      14.0 MB (41%)
	//   urgent fetches    0
	//   QoE score         65.7 / 100
}

func Example_svcUpgrades() {
	play("-encoding", "SVC", "-upgrades")
	// Output:
	// session: fov-guided, throughput VRA, SVC, 1m0s over const @12.0 Mbps
	//   startup delay     900ms
	//   play time         1m0s
	//   stalls            3 (5.3s)
	//   mean FoV quality  3.41 / 5
	//   quality switches  5
	//   blank time        0s
	//   bytes fetched     42.1 MB
	//   bytes wasted      16.3 MB (39%)
	//   urgent fetches    16
	//   upgrades          100 now, 464 deferred, 173 skipped
	//   QoE score         49.4 / 100
}

func Example_multipathLTE() {
	play("-headspeed", "1.7", "-seed", "5", "-multipath", "-net", "lte")
	// Output:
	// session: fov-guided, throughput VRA, AVC, 1m0s over wifi+lte (content-aware) @12.0 Mbps
	//   startup delay     300ms
	//   play time         1m0s
	//   stalls            2 (200ms)
	//   mean FoV quality  1.07 / 5
	//   quality switches  8
	//   blank time        0s
	//   bytes fetched     5.2 MB
	//   bytes wasted      2.1 MB (40%)
	//   urgent fetches    3
	//   QoE score         16.7 / 100
}
