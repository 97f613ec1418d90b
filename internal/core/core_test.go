package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"sperke/internal/abr"
	"sperke/internal/hmp"
	"sperke/internal/media"
	"sperke/internal/multipath"
	"sperke/internal/netem"
	"sperke/internal/obs"
	"sperke/internal/sim"
	"sperke/internal/sphere"
	"sperke/internal/tiling"
	"sperke/internal/trace"
	"sperke/internal/transport"
)

func testVideo(enc media.Encoding) *media.Video {
	return &media.Video{
		ID:             "session-test",
		Duration:       30 * time.Second,
		ChunkDuration:  2 * time.Second,
		Grid:           tiling.GridCellular,
		ProjectionName: "equirectangular",
		Ladder:         media.DefaultLadder,
		Encoding:       enc,
	}
}

func testHead(seed int64, dur time.Duration) *trace.HeadTrace {
	rng := rand.New(rand.NewSource(seed))
	att := trace.GenerateAttention(rand.New(rand.NewSource(seed+500)), dur)
	return trace.Generate(rng, trace.UserProfile{SpeedScale: 1}, att, dur)
}

// runSession executes a session over a single constant-rate path.
func runSession(t *testing.T, cfg Config, bps float64, seed int64) Report {
	t.Helper()
	clock := sim.NewClock(seed)
	path := netem.NewPath(clock, "net", netem.Constant(bps), 20*time.Millisecond, 0)
	sched := transport.NewSinglePath(clock, path)
	head := testHead(seed, cfg.Video.Duration+10*time.Second)
	s, err := NewSession(clock, cfg, head, sched)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

func TestSessionPlaysWholeVideo(t *testing.T) {
	rep := runSession(t, Config{Video: testVideo(media.EncodingAVC)}, 20e6, 1)
	if rep.QoE.PlayTime != 30*time.Second {
		t.Fatalf("PlayTime = %v, want full 30s", rep.QoE.PlayTime)
	}
	if rep.BytesFetched == 0 {
		t.Fatal("nothing fetched")
	}
	if rep.QoE.MeanQuality() <= 0 {
		t.Fatal("zero mean quality on a fat link")
	}
}

func TestSessionValidation(t *testing.T) {
	clock := sim.NewClock(1)
	path := netem.NewPath(clock, "p", nil, 0, 0)
	sched := transport.NewSinglePath(clock, path)
	if _, err := NewSession(clock, Config{}, testHead(1, time.Second), sched); err == nil {
		t.Fatal("config without video accepted")
	}
	if _, err := NewSession(clock, Config{Video: testVideo(media.EncodingAVC)}, nil, sched); err == nil {
		t.Fatal("nil head accepted")
	}
	if _, err := NewSession(clock, Config{Video: testVideo(media.EncodingAVC)}, testHead(1, time.Second), nil); err == nil {
		t.Fatal("nil scheduler accepted")
	}
}

func TestFoVGuidedSavesVsAgnostic(t *testing.T) {
	// The §2 headline: at equal quality, FoV-guided fetches far fewer
	// bytes. [16] reports ~45%, [37] 60–80% savings. Quality is held
	// fixed so the byte comparison is apples to apples.
	alg := func() *abr.Fixed { return &abr.Fixed{Q: 4} }
	guided := runSession(t, Config{Video: testVideo(media.EncodingAVC), Mode: FoVGuided, Algorithm: alg()}, 20e6, 3)
	agnostic := runSession(t, Config{Video: testVideo(media.EncodingAVC), Mode: FoVAgnostic, Algorithm: alg()}, 20e6, 3)
	if guided.BytesFetched >= agnostic.BytesFetched {
		t.Fatalf("guided fetched %d ≥ agnostic %d", guided.BytesFetched, agnostic.BytesFetched)
	}
	saving := 1 - float64(guided.BytesFetched)/float64(agnostic.BytesFetched)
	if saving < 0.2 {
		t.Fatalf("saving only %.0f%%, expected ≥20%% with default (conservative) OOS", saving*100)
	}
	// Quality in the FoV must not collapse.
	if guided.QoE.MeanQuality() < agnostic.QoE.MeanQuality()-1.5 {
		t.Fatalf("guided quality %.2f collapsed vs agnostic %.2f",
			guided.QoE.MeanQuality(), agnostic.QoE.MeanQuality())
	}
	// An aggressive OOS policy (thin ring, steep falloff) reaches the
	// savings band prior tile-based systems report (45% [16], 60–80%
	// [37]).
	aggressive := runSession(t, Config{
		Video:     testVideo(media.EncodingAVC),
		Mode:      FoVGuided,
		Algorithm: alg(),
		OOS:       abr.OOSPolicy{MaxRing: 1, QualityDropPerRing: 3},
	}, 20e6, 3)
	aggSaving := 1 - float64(aggressive.BytesFetched)/float64(agnostic.BytesFetched)
	if aggSaving < 0.4 {
		t.Fatalf("aggressive OOS saving %.0f%%, expected ≥40%%", aggSaving*100)
	}
}

func TestFoVGuidedHigherQualityOnTightLink(t *testing.T) {
	// On a link that cannot carry the full panorama at high quality,
	// FoV-guided streaming spends the budget where the user looks.
	guided := runSession(t, Config{Video: testVideo(media.EncodingAVC), Mode: FoVGuided}, 6e6, 4)
	agnostic := runSession(t, Config{Video: testVideo(media.EncodingAVC), Mode: FoVAgnostic}, 6e6, 4)
	if guided.QoE.MeanQuality() <= agnostic.QoE.MeanQuality() {
		t.Fatalf("guided FoV quality %.2f not above agnostic %.2f on a 6 Mbps link",
			guided.QoE.MeanQuality(), agnostic.QoE.MeanQuality())
	}
}

func TestSessionDeterministic(t *testing.T) {
	a := runSession(t, Config{Video: testVideo(media.EncodingAVC)}, 10e6, 7)
	b := runSession(t, Config{Video: testVideo(media.EncodingAVC)}, 10e6, 7)
	if a != b {
		t.Fatalf("same-seed sessions differ:\n%+v\n%+v", a, b)
	}
}

func TestStallsOnStarvedLink(t *testing.T) {
	rep := runSession(t, Config{Video: testVideo(media.EncodingAVC)}, 300e3, 5)
	if rep.QoE.Stalls == 0 && rep.QoE.MeanQuality() > 0.5 {
		t.Fatalf("300 kbps link produced neither stalls nor low quality: %+v", rep.QoE)
	}
}

func TestUpgradesHappenUnderSVC(t *testing.T) {
	cfg := Config{
		Video:          testVideo(media.EncodingSVC),
		Mode:           FoVGuided,
		EnableUpgrades: true,
	}
	rep := runSession(t, cfg, 15e6, 6)
	if rep.Upgrades+rep.UpgradesDeferred+rep.UpgradesSkipped == 0 {
		t.Fatal("upgrade machinery never consulted")
	}
	if rep.Upgrades == 0 {
		t.Fatal("no upgrade ever executed on a fat link with SVC")
	}
}

func TestSVCUpgradesCheaperThanAVC(t *testing.T) {
	// E5's core comparison at session level: under the same conditions,
	// the SVC session wastes fewer bytes on upgrades than AVC re-fetches.
	run := func(enc media.Encoding) Report {
		return runSession(t, Config{
			Video:          testVideo(enc),
			Mode:           FoVGuided,
			EnableUpgrades: true,
		}, 15e6, 8)
	}
	svc := run(media.EncodingSVC)
	avc := run(media.EncodingAVC)
	if svc.Upgrades == 0 || avc.Upgrades == 0 {
		t.Skipf("upgrades: svc=%d avc=%d — scenario produced none", svc.Upgrades, avc.Upgrades)
	}
	if svc.QoE.WasteRatio() >= avc.QoE.WasteRatio() {
		t.Fatalf("SVC waste ratio %.3f not below AVC %.3f",
			svc.QoE.WasteRatio(), avc.QoE.WasteRatio())
	}
}

func TestUrgentFetchesOnHMPCorrections(t *testing.T) {
	cfg := Config{
		Video:          testVideo(media.EncodingAVC),
		Mode:           FoVGuided,
		EnableUpgrades: true,
		OOS:            abr.OOSPolicy{MaxRing: 1},
	}
	rep := runSession(t, cfg, 15e6, 9)
	// With thin OOS coverage and a moving head some corrections are
	// inevitable.
	if rep.UrgentFetches == 0 {
		t.Log("no urgent fetches this seed; trying a faster head")
		// A deliberately erratic viewer must trigger corrections.
		clock := sim.NewClock(99)
		path := netem.NewPath(clock, "net", netem.Constant(15e6), 20*time.Millisecond, 0)
		sched := transport.NewSinglePath(clock, path)
		rng := rand.New(rand.NewSource(99))
		att := trace.GenerateAttention(rand.New(rand.NewSource(98)), 40*time.Second)
		head := trace.Generate(rng, trace.UserProfile{SpeedScale: 2.2}, att, 40*time.Second)
		s, err := NewSession(clock, cfg, head, sched)
		if err != nil {
			t.Fatal(err)
		}
		rep = s.Run()
		if rep.UrgentFetches == 0 {
			t.Fatal("even an erratic viewer triggered no urgent fetches")
		}
	}
}

func TestCrowdHeatmapReducesFetchVolume(t *testing.T) {
	// §3.2: crowd statistics prune OOS tiles nobody looks at, cutting
	// fetch volume without hurting FoV quality.
	v := testVideo(media.EncodingAVC)
	dur := v.Duration + 10*time.Second
	rng := rand.New(rand.NewSource(21))
	att := trace.GenerateAttention(rand.New(rand.NewSource(522)), dur)
	pop := trace.NewPopulation(rng, 10)
	sessions := pop.Sessions(rng, att, dur)
	heat := hmp.BuildHeatmap(tiling.NewViewport(v.Grid, sphere.DefaultFoV),
		v.ChunkDuration, v.Duration, sessions)

	// The viewer watches the same video (same attention schedule).
	// Compare crowd pruning on vs off under the same heatmap: pruning
	// must cut fetch volume without collapsing FoV quality.
	run := func(minProb float64) Report {
		clock := sim.NewClock(22)
		path := netem.NewPath(clock, "net", netem.Constant(20e6), 20*time.Millisecond, 0)
		sched := transport.NewSinglePath(clock, path)
		head := trace.Generate(rand.New(rand.NewSource(23)),
			trace.UserProfile{SpeedScale: 1}, att, dur)
		cfg := Config{
			Video:   v,
			Mode:    FoVGuided,
			Heatmap: heat,
			OOS:     abr.OOSPolicy{MaxRing: 3, MinCrowdProb: minProb},
		}
		s, err := NewSession(clock, cfg, head, sched)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	pruned := run(0.2)
	unpruned := run(0)
	if pruned.BytesFetched >= unpruned.BytesFetched {
		t.Fatalf("crowd pruning did not reduce fetch volume: %d vs %d",
			pruned.BytesFetched, unpruned.BytesFetched)
	}
	if pruned.QoE.MeanQuality() < unpruned.QoE.MeanQuality()-1 {
		t.Fatalf("crowd pruning collapsed quality: %.2f vs %.2f",
			pruned.QoE.MeanQuality(), unpruned.QoE.MeanQuality())
	}
}

// TestReportMirrorMatchesReport: with WithObs, every core.session
// counter equals the Report field it mirrors. An SVC session with
// upgrades on a link that stalls leaves no mirrored field zero, and a
// counter the table below does not name fails the test.
func TestReportMirrorMatchesReport(t *testing.T) {
	reg := obs.NewRegistry()
	clock := sim.NewClock(3)
	path := netem.NewPath(clock, "net", netem.Constant(8e6), 20*time.Millisecond, 0)
	cfg := Config{Video: testVideo(media.EncodingSVC), Mode: FoVGuided, EnableUpgrades: true}
	s, err := NewSession(clock, cfg, testHead(3, cfg.Video.Duration+10*time.Second),
		transport.NewSinglePath(clock, path), WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Run()
	want := map[string]int64{
		"core.session.runs":           1,
		"core.session.bytes_fetched":  rep.BytesFetched,
		"core.session.bytes_wasted":   rep.BytesWasted,
		"core.session.urgent_fetches": int64(rep.UrgentFetches),
		"core.session.upgrades":       int64(rep.Upgrades),
		"core.session.stalls":         int64(rep.QoE.Stalls),
	}
	got := map[string]int64{}
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "core.session.") {
			got[name] = v
		}
	}
	for name, w := range want {
		if w == 0 {
			t.Errorf("%s: the report's field is 0, so the check proves nothing", name)
		}
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s = %d (present %v), report says %d", name, g, ok, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("counter %s mirrors no report field this test checks", name)
		}
	}
}

func TestModeString(t *testing.T) {
	if FoVGuided.String() != "fov-guided" || FoVAgnostic.String() != "fov-agnostic" {
		t.Fatal("bad mode strings")
	}
}

func TestSessionOverContentAwareMultipath(t *testing.T) {
	// The session API composes with any transport.Scheduler (§3.3): run
	// a full playback over a WiFi+LTE pair with the content-aware
	// scheduler and confirm it behaves like a healthy session.
	clock := sim.NewClock(15)
	wifi := netem.NewPath(clock, "wifi", netem.Constant(8e6), 15*time.Millisecond, 0)
	lte := netem.NewPath(clock, "lte", netem.Constant(6e6), 45*time.Millisecond, 0.01)
	sched := multipath.NewContentAware(clock, wifi, lte)
	head := testHead(15, 40*time.Second)
	s, err := NewSession(clock, Config{
		Video: testVideo(media.EncodingAVC),
		Mode:  FoVGuided,
	}, head, sched)
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Run()
	if rep.QoE.PlayTime != 30*time.Second {
		t.Fatalf("PlayTime = %v over multipath", rep.QoE.PlayTime)
	}
	if wifi.BytesMoved() == 0 {
		t.Fatal("wifi path unused")
	}
	if lte.BytesMoved() == 0 {
		t.Fatal("lte path unused (OOS chunks should ride it)")
	}
	// Combined capacity beats either single path: quality must be decent.
	if rep.QoE.MeanQuality() < 1 {
		t.Fatalf("multipath session quality %.2f", rep.QoE.MeanQuality())
	}
}

func TestHybridSessionMixesEncodings(t *testing.T) {
	cfg := Config{
		Video:          testVideo(media.EncodingSVC),
		Mode:           FoVGuided,
		EnableUpgrades: true,
		HybridSVC:      true,
	}
	rep := runSession(t, cfg, 15e6, 16)
	if rep.HybridAVCFetches == 0 || rep.HybridSVCFetches == 0 {
		t.Fatalf("hybrid session did not mix encodings: AVC=%d SVC=%d",
			rep.HybridAVCFetches, rep.HybridSVCFetches)
	}
	// FoV tiles (low upgrade probability) should mostly go AVC.
	if rep.HybridAVCFetches < rep.HybridSVCFetches/4 {
		t.Fatalf("suspicious hybrid split: AVC=%d SVC=%d",
			rep.HybridAVCFetches, rep.HybridSVCFetches)
	}
}

func TestHybridNoCheaperThanPureAlternatives(t *testing.T) {
	// §3.1.2: the hybrid avoids the SVC overhead where upgrades are
	// unlikely. Its wire usage must not exceed pure SVC's.
	run := func(hybrid bool, enc media.Encoding) Report {
		return runSession(t, Config{
			Video:          testVideo(enc),
			Mode:           FoVGuided,
			EnableUpgrades: true,
			HybridSVC:      hybrid,
		}, 15e6, 17)
	}
	hybrid := run(true, media.EncodingSVC)
	pureSVC := run(false, media.EncodingSVC)
	if hybrid.BytesFetched > pureSVC.BytesFetched*102/100 {
		t.Fatalf("hybrid fetched %d > pure SVC %d", hybrid.BytesFetched, pureSVC.BytesFetched)
	}
	if hybrid.QoE.MeanQuality() < pureSVC.QoE.MeanQuality()-0.5 {
		t.Fatalf("hybrid quality %.2f collapsed vs pure SVC %.2f",
			hybrid.QoE.MeanQuality(), pureSVC.QoE.MeanQuality())
	}
}

func TestHybridIgnoredOutsideSVCGuided(t *testing.T) {
	// Hybrid is meaningless on AVC videos or FoV-agnostic sessions.
	rep := runSession(t, Config{
		Video:     testVideo(media.EncodingAVC),
		Mode:      FoVGuided,
		HybridSVC: true,
	}, 15e6, 18)
	if rep.HybridAVCFetches+rep.HybridSVCFetches != 0 {
		t.Fatal("hybrid decisions on an AVC video")
	}
}

func TestBandwidthBudgetCapsUsage(t *testing.T) {
	// §3.1.2: "the bandwidth budget configured by the user". On a fat
	// link, a 4 Mbps budget must keep the session's rate near 4 Mbps.
	unbudgeted := runSession(t, Config{
		Video: testVideo(media.EncodingAVC),
		Mode:  FoVGuided,
	}, 50e6, 19)
	budgeted := runSession(t, Config{
		Video:           testVideo(media.EncodingAVC),
		Mode:            FoVGuided,
		BandwidthBudget: 4e6,
	}, 50e6, 19)
	if budgeted.BytesFetched >= unbudgeted.BytesFetched {
		t.Fatalf("budget did not cap usage: %d vs %d",
			budgeted.BytesFetched, unbudgeted.BytesFetched)
	}
	// 30 s at 4 Mbps = 15 MB; allow slack for urgent corrections.
	if budgeted.BytesFetched > 20e6 {
		t.Fatalf("budgeted session used %.1f MB against a 4 Mbps budget",
			float64(budgeted.BytesFetched)/1e6)
	}
	// The budget bounds spend, not correctness: FoV quality must stay in
	// a sane band (a stable cap can even beat a noisy estimator).
	if budgeted.QoE.MeanQuality() < unbudgeted.QoE.MeanQuality()-2 {
		t.Fatalf("budgeted quality collapsed: %.2f vs %.2f",
			budgeted.QoE.MeanQuality(), unbudgeted.QoE.MeanQuality())
	}
}

func TestKitchenSinkLongSession(t *testing.T) {
	// Everything at once, for five minutes: SVC + hybrid + upgrades +
	// crowd heatmap + bandwidth budget + content-aware
	// multipath on fluctuating links. The point is
	// robustness: the full feature matrix must compose and finish with a
	// sane report.
	v := testVideo(media.EncodingSVC)
	v.Duration = 5 * time.Minute
	dur := v.Duration + 15*time.Second

	clock := sim.NewClock(99)
	wifi := netem.NewPath(clock, "wifi",
		netem.WiFiTrace(clock.RNG("wifi"), 14e6, time.Second, dur), 15*time.Millisecond, 0.002)
	lte := netem.NewPath(clock, "lte",
		netem.LTETrace(clock.RNG("lte"), 8e6, time.Second, dur), 45*time.Millisecond, 0.015)
	sched := multipath.NewContentAware(clock, wifi, lte)

	att := trace.GenerateAttention(rand.New(rand.NewSource(98)), dur)
	pop := trace.NewPopulation(rand.New(rand.NewSource(97)), 8)
	sessions := pop.Sessions(rand.New(rand.NewSource(96)), att, dur)
	heat := hmp.BuildHeatmap(tiling.NewViewport(v.Grid, sphere.DefaultFoV),
		v.ChunkDuration, v.Duration, sessions)
	user := trace.UserProfile{SpeedScale: 1.2}
	head := trace.Generate(rand.New(rand.NewSource(95)), user, att, dur)

	s, err := NewSession(clock, Config{
		Video:           v,
		Mode:            FoVGuided,
		EnableUpgrades:  true,
		HybridSVC:       true,
		Heatmap:         heat,
		BandwidthBudget: 10e6,
		OOS:             abr.OOSPolicy{MaxRing: 2, MinCrowdProb: 0.1},
	}, head, sched)
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Run()
	if rep.QoE.PlayTime != v.Duration {
		t.Fatalf("played %v of %v", rep.QoE.PlayTime, v.Duration)
	}
	if rep.QoE.MeanQuality() < 1 {
		t.Fatalf("mean quality %.2f over five minutes", rep.QoE.MeanQuality())
	}
	if rep.QoE.StallRatio() > 0.1 {
		t.Fatalf("stall ratio %.2f", rep.QoE.StallRatio())
	}
	if rep.BytesFetched > int64(10e6/8*float64(v.Duration/time.Second))*13/10 {
		t.Fatalf("budget blown: %.1f MB", float64(rep.BytesFetched)/1e6)
	}
	if rep.Upgrades == 0 || rep.HybridSVCFetches == 0 {
		t.Fatalf("feature matrix inert: upgrades=%d hybridSVC=%d",
			rep.Upgrades, rep.HybridSVCFetches)
	}
}

func TestObserverEventStream(t *testing.T) {
	var events []Event
	cfg := Config{
		Video:          testVideo(media.EncodingSVC),
		Mode:           FoVGuided,
		EnableUpgrades: true,
		Observer:       func(e Event) { events = append(events, e) },
	}
	clock := sim.NewClock(20)
	path := netem.NewPath(clock, "net", netem.Constant(15e6), 20*time.Millisecond, 0)
	sched := transport.NewSinglePath(clock, path)
	head := testHead(20, 40*time.Second)
	s, err := NewSession(clock, cfg, head, sched)
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Run()

	counts := map[EventKind]int{}
	var last time.Duration
	for _, e := range events {
		if e.At < last {
			t.Fatalf("events out of order: %v after %v", e.At, last)
		}
		last = e.At
		counts[e.Kind]++
	}
	nChunks := cfg.Video.NumChunks()
	if counts[EventPlanned] != nChunks {
		t.Fatalf("planned events %d, want %d", counts[EventPlanned], nChunks)
	}
	if counts[EventPlay] != nChunks {
		t.Fatalf("play events %d, want %d", counts[EventPlay], nChunks)
	}
	if counts[eventFetched] == 0 {
		t.Fatal("no fetch events")
	}
	if counts[EventUpgraded] != rep.Upgrades {
		t.Fatalf("upgrade events %d, report says %d", counts[EventUpgraded], rep.Upgrades)
	}
	if counts[EventStall] != rep.QoE.Stalls {
		t.Fatalf("stall events %d, report says %d", counts[EventStall], rep.QoE.Stalls)
	}
}

func TestEventStrings(t *testing.T) {
	for _, e := range []Event{
		{Kind: EventPlanned, Interval: 3, Quality: 4},
		{Kind: eventFetched, Interval: 1, Tile: 5, Quality: 2, Bytes: 100},
		{Kind: EventStall, Interval: 2, Dur: time.Second},
		{Kind: EventPlay, Interval: 2, Quality: 3},
	} {
		if e.String() == "" {
			t.Fatalf("empty string for %v", e.Kind)
		}
	}
	if EventKind(99).String() != "event(99)" {
		t.Fatal("unknown kind string")
	}
}

// fullSession is one complete 30 s FoV-guided session on the simulator,
// head trace given — the unit every experiment multiplies.
func fullSession(tb testing.TB) func() {
	v := testVideo(media.EncodingAVC)
	att := trace.GenerateAttention(rand.New(rand.NewSource(2)), 40*time.Second)
	head := trace.Generate(rand.New(rand.NewSource(1)), trace.UserProfile{SpeedScale: 1}, att, 40*time.Second)
	return func() {
		clock := sim.NewClock(1)
		path := netem.NewPath(clock, "net", netem.Constant(15e6), 20*time.Millisecond, 0)
		s, err := NewSession(clock, Config{Video: v, Mode: FoVGuided}, head,
			transport.NewSinglePath(clock, path))
		if err != nil {
			tb.Fatal(err)
		}
		s.Run()
	}
}

// TestFullSessionAllocs: 266 objects for the 30 s — the session's fixed
// furniture and its per-tick closures; TestSessionTileSetsAreOwned says
// what is deliberately not among them. The video's rateModel is built
// by the first session and read by every later one, so it is not among
// them either.
func TestFullSessionAllocs(t *testing.T) {
	n := testing.AllocsPerRun(10, fullSession(t))
	t.Logf("a 30 s session allocates %.0f objects (budget 266)", n)
	if n > 266 {
		t.Fatalf("a 30 s session allocates %.0f objects, want at most 266", n)
	}
}

func BenchmarkFullSession(b *testing.B) {
	session := fullSession(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		session()
	}
}

func TestSuperChunkKeepsFoVVarianceLow(t *testing.T) {
	// §3.1.2 part one: all chunks within a super chunk share one quality
	// so the FoV looks uniform. With good prediction, the within-FoV
	// variance stays far below the ladder's spread; it grows only when
	// OOS tiles (fetched a level lower) drift into view.
	rep := runSession(t, Config{Video: testVideo(media.EncodingAVC), Mode: FoVGuided}, 20e6, 21)
	v := rep.QoE.MeanFoVVariance()
	if v < 0 {
		t.Fatalf("negative variance %v", v)
	}
	// A uniform-quality FoV would be 0; OOS drift adds some. More than
	// 2.0 would mean the super-chunk constraint is broken.
	if v > 2.0 {
		t.Fatalf("within-FoV quality variance %v — super chunks not uniform", v)
	}
}

func TestRunIsIdempotent(t *testing.T) {
	clock := sim.NewClock(30)
	path := netem.NewPath(clock, "net", netem.Constant(20e6), 20*time.Millisecond, 0)
	s, err := NewSession(clock, Config{Video: testVideo(media.EncodingAVC)},
		testHead(30, 40*time.Second), transport.NewSinglePath(clock, path))
	if err != nil {
		t.Fatal(err)
	}
	first := s.Run()
	second := s.Run()
	if first != second {
		t.Fatal("second Run changed the report")
	}
}

func TestMaxStallPlaysWithBlanks(t *testing.T) {
	// A link that dies mid-session: rush fetches cannot complete, so
	// after maxStall the interval plays with blank tiles instead of
	// hanging forever.
	clock := sim.NewClock(31)
	dead := netem.MustSteps(
		netem.Step{Start: 0, BPS: 20e6},
		netem.Step{Start: 8 * time.Second, BPS: 0},
	)
	path := netem.NewPath(clock, "dying", dead, 20*time.Millisecond, 0)
	cfg := Config{Video: testVideo(media.EncodingAVC), Mode: FoVGuided}
	s, err := NewSession(clock, cfg, testHead(31, 40*time.Second), transport.NewSinglePath(clock, path))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Report, 1)
	go func() { done <- s.Run() }()
	var rep Report
	select {
	case rep = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("session hung on a dead link")
	}
	if rep.QoE.PlayTime != 30*time.Second {
		t.Fatalf("playback did not complete: %v", rep.QoE.PlayTime)
	}
	if rep.QoE.BlankTime == 0 {
		t.Fatal("dead link produced no blank time")
	}
	if rep.QoE.Stalls == 0 {
		t.Fatal("dead link produced no stalls")
	}
}

// TestSessionTileSetsAreOwned: a session asks its viewport some 155
// questions a minute, and the answers land in storage the session
// already owns — the play, plan and upgrade sets, one visibleEver slab,
// shownQ on the stack — so what a 60 s session allocates, head trace
// included, is its fixed furniture plus the per-tick closures. Handing
// every answer out as a fresh slice made it 615 objects.
func TestSessionTileSetsAreOwned(t *testing.T) {
	v := testVideo(media.EncodingAVC)
	v.Duration = 60 * time.Second
	allocs := testing.AllocsPerRun(5, func() {
		clock := sim.NewClock(1)
		path := netem.NewPath(clock, "net", netem.Constant(25e6), 20*time.Millisecond, 0)
		s, err := NewSession(clock, Config{Video: v}, testHead(1, 70*time.Second), transport.NewSinglePath(clock, path))
		if err != nil {
			t.Fatal(err)
		}
		if rep := s.Run(); rep.QoE.PlayTime != v.Duration {
			t.Fatalf("played %v of %v", rep.QoE.PlayTime, v.Duration)
		}
	})
	if allocs > 470 {
		t.Fatalf("a 60 s session allocates %.0f objects, want at most 470", allocs)
	}
	t.Logf("a 60 s session allocates %.0f objects", allocs)
}
