package experiments

import (
	"fmt"
	"time"

	"sperke/internal/multipath"
	"sperke/internal/netem"
	"sperke/internal/sim"
	"sperke/internal/tiling"
	"sperke/internal/transport"
)

func init() {
	register("E8", multipathSchedulers)
	register("E12", table1Priorities)
}

// mpWorkload drives one scheduler through a 60-interval tiled-video
// workload over a WiFi+LTE pair and reports delivery statistics.
type mpStats struct {
	fovMet, fovTotal   int
	oosOK, oosTotal    int
	urgentMet, urgents int
	bytes              int64
}

func runMultipath(seed int64, build func(clock *sim.Clock, wifi, lte *netem.Path) transport.Scheduler) mpStats {
	clock := sim.NewClock(seed)
	wifi := netem.NewPath(clock, "wifi", netem.WiFiTrace(clock.RNG("wifi"), 7e6, time.Second, 3*time.Minute), 15*time.Millisecond, 0.002)
	lte := netem.NewPath(clock, "lte", netem.LTETrace(clock.RNG("lte"), 5e6, time.Second, 3*time.Minute), 45*time.Millisecond, 0.02)
	s := build(clock, wifi, lte)

	var st mpStats
	const intervals = 60
	for i := 0; i < intervals; i++ {
		i := i
		deadline := time.Duration(i+3) * 2 * time.Second
		submitAt := time.Duration(i) * 2 * time.Second
		clock.Schedule(submitAt, func() {
			// One FoV super chunk (~1.1 MB), one OOS bundle (~0.45 MB),
			// and every 6th interval an urgent correction chunk.
			st.fovTotal++
			s.Submit(&transport.Request{
				Chunk:    tiling.ChunkID{Tile: tiling.TileID(i * 3), Start: submitAt},
				Bytes:    1_100_000,
				Deadline: deadline,
				Class:    transport.ClassFoV,
				OnDone: func(d netem.Delivery, met bool) {
					st.bytes += d.Bytes
					if met {
						st.fovMet++
					}
				},
			})
			st.oosTotal++
			s.Submit(&transport.Request{
				Chunk:    tiling.ChunkID{Tile: tiling.TileID(i*3 + 1), Start: submitAt},
				Bytes:    450_000,
				Deadline: deadline,
				Class:    transport.ClassOOS,
				OnDone: func(d netem.Delivery, met bool) {
					st.bytes += d.Bytes
					if d.OK && met {
						st.oosOK++
					}
				},
			})
			if i%6 == 5 {
				st.urgents++
				s.Submit(&transport.Request{
					Chunk:    tiling.ChunkID{Tile: tiling.TileID(i*3 + 2), Start: submitAt},
					Bytes:    300_000,
					Deadline: submitAt + 1500*time.Millisecond,
					Class:    transport.ClassFoV,
					Urgent:   true,
					OnDone: func(d netem.Delivery, met bool) {
						st.bytes += d.Bytes
						if met {
							st.urgentMet++
						}
					},
				})
			}
		})
	}
	clock.Run()
	return st
}

// multipathSchedulers reproduces §3.3's comparison: content-aware
// multipath vs MPTCP-style content-agnostic splitting vs each single
// path, on a WiFi+LTE pair with asymmetric quality.
func multipathSchedulers(seed int64) *Table {
	t := &Table{
		ID:      "E8",
		Title:   "§3.3 — multipath schedulers on WiFi (good) + LTE (lossy)",
		Columns: []string{"scheduler", "FoV deadlines met", "urgent met", "OOS delivered", "MB moved"},
		Notes: []string{
			"content-aware keeps paths decoupled and maps Table 1 priorities onto them",
			"MPTCP-like splitting couples every chunk to the slower subflow [36]",
		},
	}
	builders := []struct {
		name  string
		build func(clock *sim.Clock, wifi, lte *netem.Path) transport.Scheduler
	}{
		{"wifi only", func(c *sim.Clock, w, l *netem.Path) transport.Scheduler {
			return transport.NewSinglePath(c, w)
		}},
		{"lte only", func(c *sim.Clock, w, l *netem.Path) transport.Scheduler {
			return transport.NewSinglePath(c, l)
		}},
		{"mptcp-like", func(c *sim.Clock, w, l *netem.Path) transport.Scheduler {
			return multipath.NewMPTCPLike(c, w, l)
		}},
		{"content-aware", func(c *sim.Clock, w, l *netem.Path) transport.Scheduler {
			return multipath.NewContentAware(c, w, l)
		}},
		{"content-aware + duplicate urgent", func(c *sim.Clock, w, l *netem.Path) transport.Scheduler {
			ca := multipath.NewContentAware(c, w, l)
			ca.DuplicateUrgent = true
			return ca
		}},
	}
	for _, b := range builders {
		st := runMultipath(seed, b.build)
		t.addRow(b.name,
			fmt.Sprintf("%d/%d", st.fovMet, st.fovTotal),
			fmt.Sprintf("%d/%d", st.urgentMet, st.urgents),
			fmt.Sprintf("%d/%d", st.oosOK, st.oosTotal),
			fmt.Sprintf("%.0f", float64(st.bytes)/1e6))
	}
	return t
}

// table1Priorities demonstrates Table 1: the spatial and temporal
// priority classes and the delivery order they induce under contention.
func table1Priorities(seed int64) *Table {
	t := &Table{
		ID:      "E12",
		Title:   "Table 1 — spatial & temporal priorities under contention",
		Columns: []string{"class", "priority", "delivered", "mean lateness vs deadline"},
		Notes: []string{
			"all four classes submitted together on a congested path; urgent-FoV drains first",
		},
	}
	clock := sim.NewClock(seed)
	path := netem.NewPath(clock, "net", netem.Constant(6e6), 10*time.Millisecond, 0)
	s := transport.NewSinglePath(clock, path)

	type bucket struct {
		name      string
		class     transport.Class
		urgent    bool
		delivered int
		lateSum   time.Duration
		n         int
	}
	buckets := []*bucket{
		{name: "urgent FoV", class: transport.ClassFoV, urgent: true},
		{name: "urgent OOS", class: transport.ClassOOS, urgent: true},
		{name: "regular FoV", class: transport.ClassFoV},
		{name: "regular OOS", class: transport.ClassOOS},
	}
	deadline := 4 * time.Second
	// Submit interleaved so arrival order cannot fake priority order.
	for rep := 0; rep < 6; rep++ {
		for _, b := range buckets {
			b := b
			b.n++
			s.Submit(&transport.Request{
				Chunk:    tiling.ChunkID{Tile: tiling.TileID(rep)},
				Bytes:    400_000,
				Deadline: deadline,
				Class:    b.class,
				Urgent:   b.urgent,
				OnDone: func(d netem.Delivery, met bool) {
					b.delivered++
					b.lateSum += d.Done - deadline
				},
			})
		}
	}
	clock.Run()
	for i, b := range buckets {
		mean := time.Duration(0)
		if b.delivered > 0 {
			mean = b.lateSum / time.Duration(b.delivered)
		}
		t.addRow(b.name, fmt.Sprintf("#%d", i+1),
			fmt.Sprintf("%d/%d", b.delivered, b.n),
			mean.Round(time.Millisecond).String())
	}
	return t
}
