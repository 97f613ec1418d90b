package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"sperke/internal/abr"
	"sperke/internal/core"
	"sperke/internal/media"
	"sperke/internal/netem"
	"sperke/internal/sim"
	"sperke/internal/tiling"
	"sperke/internal/trace"
	"sperke/internal/transport"
)

func init() {
	register("E5", SVCUpgrade)
	register("E6", VRAComparison)
	register("A2", AblationHybridSVC)
	register("A4", HybridSession)
	register("A5", PredictionWindowSweep)
}

// SVCUpgrade quantifies §3.1.1: the cost of raising an already-fetched
// chunk to a higher quality under SVC (delta layers) vs AVC (full
// re-fetch), per chunk and at the session level under HMP error.
func SVCUpgrade(seed int64) *Table {
	t := &Table{
		ID:      "E5",
		Title:   "§3.1.1 — incremental upgrade cost: SVC delta vs AVC re-fetch",
		Columns: []string{"upgrade", "SVC delta (KB)", "AVC re-fetch (KB)", "SVC/AVC"},
		Notes: []string{
			"SVC pays its ~10%/layer overhead once at fetch time and then upgrades for the delta only",
		},
	}
	svc := expVideo(media.EncodingSVC)
	avc := expVideo(media.EncodingAVC)
	tile := tiling.TileID(7)
	kb := func(b int64) string { return fmt.Sprintf("%.1f", float64(b)/1e3) }
	for _, up := range [][2]int{{0, 2}, {1, 3}, {2, 4}, {3, 5}, {0, 5}} {
		s := svc.UpgradeBytes(up[0], up[1], tile, 0)
		a := avc.UpgradeBytes(up[0], up[1], tile, 0)
		t.AddRow(fmt.Sprintf("q%d → q%d", up[0], up[1]), kb(s), kb(a), float64(s)/float64(a))
	}

	// Session level: same viewer, same network, upgrades enabled.
	for _, enc := range []media.Encoding{media.EncodingSVC, media.EncodingAVC} {
		rep := runGuidedSession(seed, expVideo(enc), 15e6, abr.OOSPolicy{}, nil, true)
		t.AddRow(fmt.Sprintf("session (%s): fetched MB / wasted MB / upgrades", enc),
			fmt.Sprintf("%.1f", float64(rep.BytesFetched)/1e6),
			fmt.Sprintf("%.1f", float64(rep.BytesWasted)/1e6),
			fmt.Sprintf("%d", rep.Upgrades))
	}
	return t
}

// runGuidedSession is the shared session harness for ABR experiments.
func runGuidedSession(seed int64, v *media.Video, bps float64, oos abr.OOSPolicy,
	alg abr.Algorithm, upgrades bool) core.Report {
	clock := sim.NewClock(seed)
	path := netem.NewPath(clock, "net", netem.Constant(bps), 20*time.Millisecond, 0)
	sched := transport.NewSinglePath(clock, path)
	dur := v.Duration + 10*time.Second
	rng := rand.New(rand.NewSource(seed))
	att := trace.GenerateAttention(rand.New(rand.NewSource(seed+40)), dur)
	head := trace.Generate(rng, trace.UserProfile{ID: "u", SpeedScale: 1}, att, dur)
	s, err := core.NewSession(clock, core.Config{
		Video:          v,
		Mode:           core.FoVGuided,
		Algorithm:      alg,
		OOS:            oos,
		EnableUpgrades: upgrades,
	}, head, sched, core.WithObs(obsReg))
	if err != nil {
		panic(err)
	}
	return s.Run()
}

// runGuidedSessionTrace runs a session on a bandwidth trace.
func runGuidedSessionTrace(seed int64, v *media.Video, tr *netem.BandwidthTrace,
	alg abr.Algorithm) core.Report {
	clock := sim.NewClock(seed)
	path := netem.NewPath(clock, "net", tr, 30*time.Millisecond, 0)
	sched := transport.NewSinglePath(clock, path)
	dur := v.Duration + 20*time.Second
	rng := rand.New(rand.NewSource(seed))
	att := trace.GenerateAttention(rand.New(rand.NewSource(seed+41)), dur)
	head := trace.Generate(rng, trace.UserProfile{ID: "u", SpeedScale: 1}, att, dur)
	s, err := core.NewSession(clock, core.Config{
		Video:     v,
		Mode:      core.FoVGuided,
		Algorithm: alg,
	}, head, sched, core.WithObs(obsReg))
	if err != nil {
		panic(err)
	}
	return s.Run()
}

// VRAComparison runs §3.1.2 part one: classic VRA algorithms applied to
// super chunks on a fluctuating LTE trace, with the short HMP window
// bounding the usable buffer — the condition under which the paper
// argues buffer-based adaptation struggles.
func VRAComparison(seed int64) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "§3.1.2 — VRA algorithms on super chunks (LTE trace, 2s HMP window)",
		Columns: []string{"algorithm", "mean FoV quality", "stalls", "stall time", "switches", "QoE score"},
		Notes: []string{
			"buffer-based VRA is handicapped: the HMP window caps its cushion (§3.1.2)",
		},
	}
	v := expVideo(media.EncodingAVC)
	for _, name := range []string{"throughput", "buffer", "mpc"} {
		alg, err := abr.ByName(name)
		if err != nil {
			panic(err)
		}
		// Fresh trace per algorithm with the same seed → identical
		// network.
		lte := netem.LTETrace(rand.New(rand.NewSource(seed+7)), 8e6, time.Second, v.Duration+30*time.Second)
		rep := runGuidedSessionTrace(seed, v, lte, alg)
		m := rep.QoE
		t.AddRow(name, m.MeanQuality(), m.Stalls, m.StallTime.Round(10*time.Millisecond).String(),
			m.Switches, m.Score(v.Qualities()-1))
	}
	return t
}

// AblationHybridSVC sweeps the §3.1.2 hybrid SVC/AVC split: expected
// delivery bytes per chunk as a function of the upgrade probability,
// for pure AVC, pure SVC, and the hybrid threshold rule.
func AblationHybridSVC(seed int64) *Table {
	t := &Table{
		ID:      "A2",
		Title:   "Ablation — hybrid SVC/AVC: expected bytes per chunk vs upgrade probability",
		Columns: []string{"P(upgrade)", "pure AVC (KB)", "pure SVC (KB)", "hybrid (KB)", "hybrid picks"},
		Notes: []string{
			"crossover where the expected delta savings pay for the SVC fetch overhead (§3.1.2)",
		},
	}
	svc := expVideo(media.EncodingSVC)
	avc := expVideo(media.EncodingAVC)
	tile := tiling.TileID(3)
	const from, to = 2, 4
	fetchAVC := avc.FetchBytes(from, tile, 0)
	fetchSVC := svc.FetchBytes(from, tile, 0)
	upAVC := avc.UpgradeBytes(from, to, tile, 0)
	upSVC := svc.UpgradeBytes(from, to, tile, 0)
	kb := func(x float64) string { return fmt.Sprintf("%.1f", x/1e3) }
	for _, p := range []float64{0, 0.05, 0.1, 0.2, 0.4, 0.8} {
		eAVC := float64(fetchAVC) + p*float64(upAVC)
		eSVC := float64(fetchSVC) + p*float64(upSVC)
		pick := abr.HybridChoice(p, fetchAVC, fetchSVC, upAVC, upSVC)
		var eHyb float64
		if pick == media.EncodingSVC {
			eHyb = eSVC
		} else {
			eHyb = eAVC
		}
		t.AddRow(fmt.Sprintf("%.2f", p), kb(eAVC), kb(eSVC), kb(eHyb), pick.String())
	}
	return t
}

// HybridSession runs the §3.1.2 hybrid extension at session level: the
// same viewer and network under pure AVC, pure SVC, and hybrid
// per-chunk encoding selection.
func HybridSession(seed int64) *Table {
	t := &Table{
		ID:      "A4",
		Title:   "Ablation — session-level hybrid SVC/AVC vs pure encodings",
		Columns: []string{"encoding policy", "fetched (MB)", "wasted (MB)", "upgrades", "AVC/SVC picks"},
		Notes: []string{
			"hybrid fetches low-upgrade-probability chunks as AVC, dodging the SVC overhead (§3.1.2)",
		},
	}
	run := func(enc media.Encoding, hybrid bool) core.Report {
		clock := sim.NewClock(seed)
		path := netem.NewPath(clock, "net", netem.Constant(15e6), 20*time.Millisecond, 0)
		sched := transport.NewSinglePath(clock, path)
		v := expVideo(enc)
		dur := v.Duration + 10*time.Second
		rng := rand.New(rand.NewSource(seed))
		att := trace.GenerateAttention(rand.New(rand.NewSource(seed+44)), dur)
		head := trace.Generate(rng, trace.UserProfile{ID: "u", SpeedScale: 1}, att, dur)
		s, err := core.NewSession(clock, core.Config{
			Video:          v,
			Mode:           core.FoVGuided,
			EnableUpgrades: true,
			HybridSVC:      hybrid,
		}, head, sched, core.WithObs(obsReg))
		if err != nil {
			panic(err)
		}
		return s.Run()
	}
	rows := []struct {
		name   string
		enc    media.Encoding
		hybrid bool
	}{
		{"pure AVC", media.EncodingAVC, false},
		{"pure SVC", media.EncodingSVC, false},
		{"hybrid", media.EncodingSVC, true},
	}
	for _, r := range rows {
		rep := run(r.enc, r.hybrid)
		picks := "—"
		if r.hybrid {
			picks = fmt.Sprintf("%d/%d", rep.HybridAVCFetches, rep.HybridSVCFetches)
		}
		t.AddRow(r.name,
			fmt.Sprintf("%.1f", float64(rep.BytesFetched)/1e6),
			fmt.Sprintf("%.1f", float64(rep.BytesWasted)/1e6),
			rep.Upgrades, picks)
	}
	return t
}

// PredictionWindowSweep quantifies the §3.1.2 observation that the HMP
// window bounds the usable buffer: each VRA algorithm runs with
// prediction windows from 1 to 8 seconds on the same LTE trace.
func PredictionWindowSweep(seed int64) *Table {
	t := &Table{
		ID:      "A5",
		Title:   "Ablation — HMP prediction window vs VRA behaviour (LTE trace)",
		Columns: []string{"window", "algorithm", "mean FoV quality", "stalls", "QoE score"},
		Notes: []string{
			"long windows help buffer-based VRA but fetch blind beyond HMP's reach — waste grows with the window",
			"a longer window prefetches content HMP cannot predict; quality shown is what the viewer saw",
		},
	}
	v := expVideo(media.EncodingAVC)
	for _, window := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second} {
		for _, name := range []string{"throughput", "buffer"} {
			alg, err := abr.ByName(name)
			if err != nil {
				panic(err)
			}
			clock := sim.NewClock(seed)
			lte := netem.LTETrace(rand.New(rand.NewSource(seed+7)), 8e6, time.Second, v.Duration+30*time.Second)
			path := netem.NewPath(clock, "net", lte, 30*time.Millisecond, 0)
			sched := transport.NewSinglePath(clock, path)
			dur := v.Duration + 20*time.Second
			rng := rand.New(rand.NewSource(seed))
			att := trace.GenerateAttention(rand.New(rand.NewSource(seed+41)), dur)
			head := trace.Generate(rng, trace.UserProfile{ID: "u", SpeedScale: 1}, att, dur)
			s, err := core.NewSession(clock, core.Config{
				Video:            v,
				Mode:             core.FoVGuided,
				Algorithm:        alg,
				PredictionWindow: window,
			}, head, sched, core.WithObs(obsReg))
			if err != nil {
				panic(err)
			}
			rep := s.Run()
			m := rep.QoE
			t.AddRow(window.String(), name, m.MeanQuality(), m.Stalls, m.Score(v.Qualities()-1))
		}
	}
	return t
}
