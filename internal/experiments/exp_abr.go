package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"sperke/internal/abr"
	"sperke/internal/core"
	"sperke/internal/media"
	"sperke/internal/netem"
	"sperke/internal/tiling"
)

func init() {
	register("E5", svcUpgrade)
	register("E6", vraComparison)
	register("A2", ablationHybridSVC)
	register("A4", hybridSession)
	register("A5", predictionWindowSweep)
}

// svcUpgrade quantifies §3.1.1: the cost of raising an already-fetched
// chunk to a higher quality under SVC (delta layers) vs AVC (full
// re-fetch), per chunk and at the session level under HMP error.
func svcUpgrade(seed int64) *Table {
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
		s := svc.SpanBytes(media.EncodingSVC, up[0]+1, up[1], tile, 0)
		a := avc.SpanBytes(media.EncodingAVC, up[0]+1, up[1], tile, 0)
		t.addRow(fmt.Sprintf("q%d → q%d", up[0], up[1]), kb(s), kb(a), float64(s)/float64(a))
	}

	// Session level: same viewer, same network, upgrades enabled.
	w := viewer{link: netem.Constant(15e6), prop: 20 * time.Millisecond, tail: 10 * time.Second, attention: 40, speed: 1}
	for _, enc := range []media.Encoding{media.EncodingSVC, media.EncodingAVC} {
		rep := w.run(seed, core.Config{Video: expVideo(enc), Mode: core.FoVGuided, EnableUpgrades: true})
		t.addRow(fmt.Sprintf("session (%s): fetched MB / wasted MB / upgrades", enc),
			fmt.Sprintf("%.1f", float64(rep.BytesFetched)/1e6),
			fmt.Sprintf("%.1f", float64(rep.BytesWasted)/1e6),
			fmt.Sprintf("%d", rep.Upgrades))
	}
	return t
}

// lteViewer is the viewer of the LTE-trace experiments (E6, A5): every
// session of a table plays over the same fluctuating link.
func lteViewer(seed int64, v *media.Video) viewer {
	lte := netem.LTETrace(rand.New(rand.NewSource(seed+7)), 8e6, time.Second, v.Duration+30*time.Second)
	return viewer{link: lte, prop: 30 * time.Millisecond, tail: 20 * time.Second, attention: 41, speed: 1}
}

// vraComparison runs §3.1.2 part one: classic VRA algorithms applied to
// super chunks on a fluctuating LTE trace, with the short HMP window
// bounding the usable buffer — the condition under which the paper
// argues buffer-based adaptation struggles.
func vraComparison(seed int64) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "§3.1.2 — VRA algorithms on super chunks (LTE trace, 2s HMP window)",
		Columns: []string{"algorithm", "mean FoV quality", "stalls", "stall time", "switches", "QoE score"},
		Notes: []string{
			"buffer-based VRA is handicapped: the HMP window caps its cushion (§3.1.2)",
		},
	}
	v := expVideo(media.EncodingAVC)
	w := lteViewer(seed, v)
	for _, name := range []string{"throughput", "buffer", "mpc"} {
		alg, err := abr.ByName(name)
		if err != nil {
			panic(err)
		}
		rep := w.run(seed, core.Config{Video: v, Mode: core.FoVGuided, Algorithm: alg})
		m := rep.QoE
		t.addRow(name, m.MeanQuality(), m.Stalls, m.StallTime.Round(10*time.Millisecond).String(),
			m.Switches, m.Score(v.Qualities()-1))
	}
	return t
}

// ablationHybridSVC sweeps the §3.1.2 hybrid SVC/AVC split: expected
// delivery bytes per chunk as a function of the upgrade probability,
// for pure AVC, pure SVC, and the hybrid threshold rule.
func ablationHybridSVC(seed int64) *Table {
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
	fetchAVC := avc.SpanBytes(media.EncodingAVC, 0, from, tile, 0)
	fetchSVC := svc.SpanBytes(media.EncodingSVC, 0, from, tile, 0)
	upAVC := avc.SpanBytes(media.EncodingAVC, from+1, to, tile, 0)
	upSVC := svc.SpanBytes(media.EncodingSVC, from+1, to, tile, 0)
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
		t.addRow(fmt.Sprintf("%.2f", p), kb(eAVC), kb(eSVC), kb(eHyb), pick.String())
	}
	return t
}

// hybridSession runs the §3.1.2 hybrid extension at session level: the
// same viewer and network under pure AVC, pure SVC, and hybrid
// per-chunk encoding selection.
func hybridSession(seed int64) *Table {
	t := &Table{
		ID:      "A4",
		Title:   "Ablation — session-level hybrid SVC/AVC vs pure encodings",
		Columns: []string{"encoding policy", "fetched (MB)", "wasted (MB)", "upgrades", "AVC/SVC picks"},
		Notes: []string{
			"hybrid fetches low-upgrade-probability chunks as AVC, dodging the SVC overhead (§3.1.2)",
		},
	}
	w := viewer{link: netem.Constant(15e6), prop: 20 * time.Millisecond, tail: 10 * time.Second, attention: 44, speed: 1}
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
		rep := w.run(seed, core.Config{Video: expVideo(r.enc), Mode: core.FoVGuided, EnableUpgrades: true, HybridSVC: r.hybrid})
		picks := "—"
		if r.hybrid {
			picks = fmt.Sprintf("%d/%d", rep.HybridAVCFetches, rep.HybridSVCFetches)
		}
		t.addRow(r.name,
			fmt.Sprintf("%.1f", float64(rep.BytesFetched)/1e6),
			fmt.Sprintf("%.1f", float64(rep.BytesWasted)/1e6),
			rep.Upgrades, picks)
	}
	return t
}

// predictionWindowSweep quantifies the §3.1.2 observation that the HMP
// window bounds the usable buffer: each VRA algorithm runs with
// prediction windows from 1 to 8 seconds on the same LTE trace.
func predictionWindowSweep(seed int64) *Table {
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
	w := lteViewer(seed, v)
	for _, window := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second} {
		for _, name := range []string{"throughput", "buffer"} {
			alg, err := abr.ByName(name)
			if err != nil {
				panic(err)
			}
			rep := w.run(seed, core.Config{
				Video:            v,
				Mode:             core.FoVGuided,
				Algorithm:        alg,
				PredictionWindow: window,
			})
			m := rep.QoE
			t.addRow(window.String(), name, m.MeanQuality(), m.Stalls, m.Score(v.Qualities()-1))
		}
	}
	return t
}
