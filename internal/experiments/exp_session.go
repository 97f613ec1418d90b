package experiments

import (
	"fmt"
	"time"

	"sperke/internal/abr"
	"sperke/internal/core"
	"sperke/internal/media"
	"sperke/internal/netem"
	"sperke/internal/sim"
	"sperke/internal/trace"
	"sperke/internal/transport"
)

func init() {
	register("E3", tilingSavings)
	register("A1", ablationOOSRing)
	register("E16", bandwidthSweep)
}

// viewer is the suite's one simulated viewer: a single-path session
// over link with one-way delay prop, playing the video plus tail while
// the head trace.Draw(seed, seed+attention, ...) moves at speed. The
// values differ between experiments because each table's golden output
// was generated under its own; changing one changes that table.
type viewer struct {
	link       *netem.BandwidthTrace
	prop, tail time.Duration
	attention  int64
	speed      float64
}

// run plays cfg for the viewer drawn from seed.
func (w viewer) run(seed int64, cfg core.Config) core.Report {
	clock := sim.NewClock(seed)
	path := netem.NewPath(clock, "net", w.link, w.prop, 0)
	head := trace.Draw(seed, seed+w.attention, trace.UserProfile{SpeedScale: w.speed}, cfg.Video.Duration+w.tail)
	s, err := core.NewSession(clock, cfg, head, transport.NewSinglePath(clock, path), core.WithObs(obsReg))
	if err != nil {
		panic(err)
	}
	return s.Run()
}

// tilingSavings reproduces the §2 bandwidth-saving claims: tiled
// FoV-guided streaming vs FoV-agnostic full-panorama delivery, under
// conservative and aggressive OOS policies and two viewer mobility
// levels. Prior systems report 45% [16] and 60–80% [37].
func tilingSavings(seed int64) *Table {
	t := &Table{
		ID:      "E3",
		Title:   "§2 — bandwidth saving of FoV-guided tiling vs FoV-agnostic delivery",
		Columns: []string{"OOS policy", "viewer", "fetched (MB)", "saving", "FoV quality Δ"},
		Notes: []string{
			"paper-cited bands: ~45% [16], 60–80% [37]; quality held at 1080p for both sides",
			"quality Δ = guided mean FoV quality − agnostic (positive means guided looks better)",
		},
	}
	type policy struct {
		name string
		oos  abr.OOSPolicy
	}
	policies := []policy{
		{"conservative (2 rings, -1/ring)", abr.OOSPolicy{MaxRing: 2, QualityDropPerRing: 1}},
		{"moderate (1 ring, -2)", abr.OOSPolicy{MaxRing: 1, QualityDropPerRing: 2}},
		{"aggressive (1 ring, base only)", abr.OOSPolicy{MaxRing: 1, QualityDropPerRing: 5}},
	}
	viewers := []struct {
		name  string
		speed float64
	}{
		{"calm", 0.7},
		{"active", 1.6},
	}
	v := expVideo(media.EncodingAVC)
	for _, vw := range viewers {
		w := viewer{link: netem.Constant(25e6), prop: 20 * time.Millisecond, tail: 10 * time.Second, attention: 60, speed: vw.speed}
		run := func(mode core.StreamMode, oos abr.OOSPolicy) core.Report {
			return w.run(seed, core.Config{Video: v, Mode: mode, OOS: oos, Algorithm: &abr.Fixed{Q: 4}}) // equal quality: compare bytes only
		}
		agnostic := run(core.FoVAgnostic, abr.OOSPolicy{})
		t.addRow("fov-agnostic (baseline)", vw.name,
			fmt.Sprintf("%.1f", float64(agnostic.BytesFetched)/1e6), "—", 0.0)
		for _, p := range policies {
			guided := run(core.FoVGuided, p.oos)
			saving := 1 - float64(guided.BytesFetched)/float64(agnostic.BytesFetched)
			t.addRow(p.name, vw.name,
				fmt.Sprintf("%.1f", float64(guided.BytesFetched)/1e6),
				fmt.Sprintf("%.0f%%", saving*100),
				guided.QoE.MeanQuality()-agnostic.QoE.MeanQuality())
		}
	}
	return t
}

// ablationOOSRing sweeps the OOS ring width (§3.1.2 part two): wider
// rings waste bytes, narrower rings risk blanks and urgent corrections.
func ablationOOSRing(seed int64) *Table {
	t := &Table{
		ID:      "A1",
		Title:   "Ablation — OOS ring width vs waste and robustness",
		Columns: []string{"max ring", "fetched (MB)", "waste", "blank time", "urgent fetches", "QoE score"},
		Notes: []string{
			"the §3.1.2 trade-off: more OOS chunks tolerate HMP error, fewer save bandwidth",
		},
	}
	v := expVideo(media.EncodingAVC)
	w := viewer{link: netem.Constant(12e6), prop: 20 * time.Millisecond, tail: 10 * time.Second, attention: 61, speed: 1.4}
	for _, ring := range []int{1, 2, 3} {
		rep := w.run(seed, core.Config{
			Video:          v,
			Mode:           core.FoVGuided,
			OOS:            abr.OOSPolicy{MaxRing: ring},
			EnableUpgrades: true,
		})
		m := rep.QoE
		t.addRow(ring,
			fmt.Sprintf("%.1f", float64(rep.BytesFetched)/1e6),
			fmt.Sprintf("%.0f%%", m.WasteRatio()*100),
			m.BlankTime.Round(time.Millisecond).String(),
			rep.UrgentFetches,
			m.Score(v.Qualities()-1))
	}
	return t
}

// bandwidthSweep produces the crossover figure the §2 argument implies:
// mean FoV quality and stalls for FoV-guided vs FoV-agnostic delivery
// as the access link shrinks. Guided streaming holds quality far longer
// because the budget concentrates where the user looks.
func bandwidthSweep(seed int64) *Table {
	t := &Table{
		ID:      "E16",
		Title:   "§2 — FoV quality vs link rate: FoV-guided vs FoV-agnostic",
		Columns: []string{"link", "guided quality", "guided stalls", "agnostic quality", "agnostic stalls"},
		Notes: []string{
			"adaptive VRA on both sides; guided spends the link on the FoV, agnostic spreads it over the sphere",
		},
	}
	v := expVideo(media.EncodingAVC)
	for _, mbps := range []float64{2, 4, 6, 10, 16, 24, 40} {
		row := []any{fmt.Sprintf("%.0f Mbps", mbps)}
		w := viewer{link: netem.Constant(mbps * 1e6), prop: 20 * time.Millisecond, tail: 10 * time.Second, attention: 60, speed: 1}
		for _, mode := range []core.StreamMode{core.FoVGuided, core.FoVAgnostic} {
			rep := w.run(seed, core.Config{Video: v, Mode: mode})
			row = append(row, rep.QoE.MeanQuality(), rep.QoE.Stalls)
		}
		t.addRow(row...)
	}
	return t
}
