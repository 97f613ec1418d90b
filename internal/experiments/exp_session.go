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
	"sperke/internal/trace"
	"sperke/internal/transport"
)

func init() {
	register("E3", TilingSavings)
	register("A1", AblationOOSRing)
	register("E16", BandwidthSweep)
}

// sessionUnder runs one full session for the savings experiments.
func sessionUnder(seed int64, mode core.StreamMode, oos abr.OOSPolicy, speedScale float64) core.Report {
	v := expVideo(media.EncodingAVC)
	clock := sim.NewClock(seed)
	path := netem.NewPath(clock, "net", netem.Constant(25e6), 20*time.Millisecond, 0)
	sched := transport.NewSinglePath(clock, path)
	dur := v.Duration + 10*time.Second
	rng := rand.New(rand.NewSource(seed))
	att := trace.GenerateAttention(rand.New(rand.NewSource(seed+60)), dur)
	head := trace.Generate(rng, trace.UserProfile{ID: "u", SpeedScale: speedScale}, att, dur)
	s, err := core.NewSession(clock, core.Config{
		Video:     v,
		Mode:      mode,
		OOS:       oos,
		Algorithm: &abr.Fixed{Q: 4}, // equal quality: compare bytes only
	}, head, sched, core.WithObs(obsReg))
	if err != nil {
		panic(err)
	}
	return s.Run()
}

// TilingSavings reproduces the §2 bandwidth-saving claims: tiled
// FoV-guided streaming vs FoV-agnostic full-panorama delivery, under
// conservative and aggressive OOS policies and two viewer mobility
// levels. Prior systems report 45% [16] and 60–80% [37].
func TilingSavings(seed int64) *Table {
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
	for _, vw := range viewers {
		agnostic := sessionUnder(seed, core.FoVAgnostic, abr.OOSPolicy{}, vw.speed)
		t.AddRow("fov-agnostic (baseline)", vw.name,
			fmt.Sprintf("%.1f", float64(agnostic.BytesFetched)/1e6), "—", 0.0)
		for _, p := range policies {
			guided := sessionUnder(seed, core.FoVGuided, p.oos, vw.speed)
			saving := 1 - float64(guided.BytesFetched)/float64(agnostic.BytesFetched)
			t.AddRow(p.name, vw.name,
				fmt.Sprintf("%.1f", float64(guided.BytesFetched)/1e6),
				fmt.Sprintf("%.0f%%", saving*100),
				guided.QoE.MeanQuality()-agnostic.QoE.MeanQuality())
		}
	}
	return t
}

// AblationOOSRing sweeps the OOS ring width (§3.1.2 part two): wider
// rings waste bytes, narrower rings risk blanks and urgent corrections.
func AblationOOSRing(seed int64) *Table {
	t := &Table{
		ID:      "A1",
		Title:   "Ablation — OOS ring width vs waste and robustness",
		Columns: []string{"max ring", "fetched (MB)", "waste", "blank time", "urgent fetches", "QoE score"},
		Notes: []string{
			"the §3.1.2 trade-off: more OOS chunks tolerate HMP error, fewer save bandwidth",
		},
	}
	v := expVideo(media.EncodingAVC)
	for _, ring := range []int{1, 2, 3} {
		clock := sim.NewClock(seed)
		path := netem.NewPath(clock, "net", netem.Constant(12e6), 20*time.Millisecond, 0)
		sched := transport.NewSinglePath(clock, path)
		dur := v.Duration + 10*time.Second
		rng := rand.New(rand.NewSource(seed))
		att := trace.GenerateAttention(rand.New(rand.NewSource(seed+61)), dur)
		head := trace.Generate(rng, trace.UserProfile{ID: "u", SpeedScale: 1.4}, att, dur)
		s, err := core.NewSession(clock, core.Config{
			Video:          v,
			Mode:           core.FoVGuided,
			OOS:            abr.OOSPolicy{MaxRing: ring},
			EnableUpgrades: true,
		}, head, sched, core.WithObs(obsReg))
		if err != nil {
			panic(err)
		}
		rep := s.Run()
		m := rep.QoE
		t.AddRow(ring,
			fmt.Sprintf("%.1f", float64(rep.BytesFetched)/1e6),
			fmt.Sprintf("%.0f%%", m.WasteRatio()*100),
			m.BlankTime.Round(time.Millisecond).String(),
			rep.UrgentFetches,
			m.Score(v.Qualities()-1))
	}
	return t
}

// BandwidthSweep produces the crossover figure the §2 argument implies:
// mean FoV quality and stalls for FoV-guided vs FoV-agnostic delivery
// as the access link shrinks. Guided streaming holds quality far longer
// because the budget concentrates where the user looks.
func BandwidthSweep(seed int64) *Table {
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
		for _, mode := range []core.StreamMode{core.FoVGuided, core.FoVAgnostic} {
			clock := sim.NewClock(seed)
			path := netem.NewPath(clock, "net", netem.Constant(mbps*1e6), 20*time.Millisecond, 0)
			sched := transport.NewSinglePath(clock, path)
			dur := v.Duration + 10*time.Second
			rng := rand.New(rand.NewSource(seed))
			att := trace.GenerateAttention(rand.New(rand.NewSource(seed+60)), dur)
			head := trace.Generate(rng, trace.UserProfile{ID: "u", SpeedScale: 1}, att, dur)
			s, err := core.NewSession(clock, core.Config{Video: v, Mode: mode}, head, sched, core.WithObs(obsReg))
			if err != nil {
				panic(err)
			}
			rep := s.Run()
			row = append(row, rep.QoE.MeanQuality(), rep.QoE.Stalls)
		}
		t.AddRow(row...)
	}
	return t
}
