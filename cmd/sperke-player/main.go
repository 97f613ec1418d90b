// Command sperke-player simulates one full FoV-guided streaming session
// (Fig. 4): a synthetic viewer watches a synthetic 360° title over an
// emulated network, and the tool reports the QoE and bandwidth outcome.
//
// Usage examples:
//
//	sperke-player                                # defaults
//	sperke-player -mode agnostic                 # FoV-agnostic baseline
//	sperke-player -net lte -mbps 6 -algo mpc     # LTE trace, MPC VRA
//	sperke-player -encoding SVC -upgrades        # incremental upgrades
//	sperke-player -multipath -faults "outage:wifi:20s:5s"   # scripted chaos
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sperke/internal/abr"
	"sperke/internal/core"
	"sperke/internal/faults"
	"sperke/internal/media"
	"sperke/internal/multipath"
	"sperke/internal/netem"
	"sperke/internal/obs"
	"sperke/internal/sim"
	"sperke/internal/tiling"
	"sperke/internal/trace"
	"sperke/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run plays one session as args configure it and writes its report to
// w; each call parses its own flag set.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sperke-player", flag.ContinueOnError)
	mode := fs.String("mode", "guided", "streaming mode: guided or agnostic")
	algo := fs.String("algo", "throughput", "VRA algorithm: throughput, buffer, mpc")
	netKind := fs.String("net", "const", "network model: const, lte, wifi, spec")
	traceSpec := fs.String("trace", "", `bandwidth schedule for -net spec, e.g. "0:8M,30s:1.5M"`)
	mbps := fs.Float64("mbps", 12, "mean bandwidth in Mbit/s")
	enc := fs.String("encoding", "AVC", "chunk encoding: AVC or SVC")
	upgrades := fs.Bool("upgrades", false, "enable incremental chunk upgrades (§3.1.1)")
	dur := fs.Duration("duration", time.Minute, "video duration")
	seed := fs.Int64("seed", 1, "simulation seed")
	speed := fs.Float64("headspeed", 1.0, "viewer head-speed scale")
	multi := fs.Bool("multipath", false, "stream over WiFi+LTE with the content-aware scheduler (§3.3)")
	faultPlan := fs.String("faults", "", `fault plan against the network, e.g. "outage:wifi:20s:5s,cliff:lte:30s:10s:500k"`)
	budget := fs.Float64("budget", 0, "user bandwidth budget in Mbit/s (0 = none, §3.1.2)")
	timeline := fs.Bool("timeline", false, "print the session event timeline")
	metricsJSON := fs.String("metrics-json", "", `dump a JSON metrics snapshot after the run ("-" = stdout)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceSpec != "" && *netKind != "spec" {
		return fmt.Errorf("-trace needs -net spec; -net %s ignores it", *netKind)
	}

	encoding := media.EncodingAVC
	switch *enc {
	case "AVC":
	case "SVC":
		encoding = media.EncodingSVC
	default:
		return fmt.Errorf("unknown encoding %q", *enc)
	}
	alg, err := abr.ByName(*algo)
	if err != nil {
		return err
	}
	streamMode := core.FoVGuided
	switch *mode {
	case "guided":
	case "agnostic":
		streamMode = core.FoVAgnostic
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	video := &media.Video{
		ID:             "player-demo",
		Duration:       *dur,
		ChunkDuration:  2 * time.Second,
		Grid:           tiling.GridCellular,
		ProjectionName: "equirectangular",
		Ladder:         media.DefaultLadder,
		Encoding:       encoding,
	}

	clock := sim.NewClock(*seed)
	var tr *netem.BandwidthTrace
	switch *netKind {
	case "const":
		tr = netem.Constant(*mbps * 1e6)
	case "lte":
		tr = netem.LTETrace(clock.RNG("net"), *mbps*1e6, time.Second, *dur+30*time.Second)
	case "wifi":
		tr = netem.WiFiTrace(clock.RNG("net"), *mbps*1e6, time.Second, *dur+30*time.Second)
	case "spec":
		var err error
		tr, err = netem.ParseTrace(*traceSpec)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown network model %q", *netKind)
	}
	var sched transport.Scheduler
	var paths []*netem.Path
	if *multi {
		// The -net model shapes the WiFi path; LTE rides alongside.
		wifi := netem.NewPath(clock, "wifi", tr, 20*time.Millisecond, 0.002)
		lte := netem.NewPath(clock, "lte",
			netem.LTETrace(clock.RNG("lte"), *mbps*0.6*1e6, time.Second, *dur+30*time.Second),
			45*time.Millisecond, 0.015)
		paths = []*netem.Path{wifi, lte}
		sched = multipath.NewContentAware(clock, wifi, lte)
	} else {
		path := netem.NewPath(clock, *netKind, tr, 25*time.Millisecond, 0)
		paths = []*netem.Path{path}
		sched = transport.NewSinglePath(clock, path)
	}
	if *faultPlan != "" {
		plan, err := faults.Parse(*faultPlan)
		if err != nil {
			return err
		}
		if err := plan.Apply(clock, paths...); err != nil {
			return err
		}
	}

	head := trace.Draw(*seed, *seed+1, trace.UserProfile{SpeedScale: *speed}, *dur+10*time.Second)

	cfg := core.Config{
		Video:           video,
		Mode:            streamMode,
		Algorithm:       alg,
		EnableUpgrades:  *upgrades,
		BandwidthBudget: *budget * 1e6,
	}
	var reg *obs.Registry
	if *metricsJSON != "" {
		reg = obs.NewRegistry()
	}
	if *timeline {
		cfg.Observer = func(e core.Event) {
			switch e.Kind {
			case core.EventPlanned, core.EventPlay, core.EventStall,
				core.EventUpgraded, core.EventUrgent, core.EventDropped:
				fmt.Fprintln(w, " ", e)
			}
		}
	}
	session, err := core.NewSession(clock, cfg, head, sched, core.WithObs(reg))
	if err != nil {
		return err
	}
	rep := session.Run()
	m := rep.QoE

	link := fmt.Sprintf("%s @%.1f Mbps", *netKind, *mbps)
	switch {
	case *multi: // -mbps sets the LTE path's rate
		link = fmt.Sprintf("wifi+lte (content-aware) @%.1f Mbps", *mbps)
	case *netKind == "spec": // the schedule sets the rate; -mbps sets nothing
		link = "spec " + *traceSpec
	}
	fmt.Fprintf(w, "session: %s, %s VRA, %s, %s over %s\n",
		streamMode, alg.Name(), encoding, dur, link)
	fmt.Fprintf(w, "  startup delay     %v\n", rep.StartupDelay.Round(time.Millisecond))
	fmt.Fprintf(w, "  play time         %v\n", m.PlayTime.Round(time.Millisecond))
	fmt.Fprintf(w, "  stalls            %d (%v)\n", m.Stalls, m.StallTime.Round(time.Millisecond))
	fmt.Fprintf(w, "  mean FoV quality  %.2f / %d\n", m.MeanQuality(), video.Qualities()-1)
	fmt.Fprintf(w, "  quality switches  %d\n", m.Switches)
	fmt.Fprintf(w, "  blank time        %v\n", m.BlankTime.Round(time.Millisecond))
	fmt.Fprintf(w, "  bytes fetched     %.1f MB\n", float64(rep.BytesFetched)/1e6)
	fmt.Fprintf(w, "  bytes wasted      %.1f MB (%.0f%%)\n", float64(rep.BytesWasted)/1e6, m.WasteRatio()*100)
	fmt.Fprintf(w, "  urgent fetches    %d\n", rep.UrgentFetches)
	if *upgrades {
		fmt.Fprintf(w, "  upgrades          %d now, %d deferred, %d skipped\n",
			rep.Upgrades, rep.UpgradesDeferred, rep.UpgradesSkipped)
	}
	fmt.Fprintf(w, "  QoE score         %.1f / 100\n", m.Score(video.Qualities()-1))
	if reg != nil {
		if err := dumpMetrics(reg, *metricsJSON, w); err != nil {
			return err
		}
	}
	return nil
}

// dumpMetrics writes the registry snapshot as JSON to path ("-" means
// the report's writer).
func dumpMetrics(reg *obs.Registry, path string, w io.Writer) error {
	if path == "-" {
		return reg.WriteJSON(w)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
