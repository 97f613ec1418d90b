// Telemetry-pipeline: the §3.2 loop end to end over real HTTP. Player
// apps record 50 Hz head movement (< 5 Kbps per viewer), upload it to
// the collector service, and the next viewer's player pulls the
// aggregated crowd heatmap to guide its OOS tile selection. The
// collector's listener address goes to stderr; stdout is fixed by the
// seeds.
//
//	go run ./examples/telemetry-pipeline
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"sperke/internal/abr"
	"sperke/internal/dash"
	"sperke/internal/hmp"
	"sperke/internal/sphere"
	"sperke/internal/telemetry"
	"sperke/internal/tiling"
	"sperke/internal/trace"
)

func main() {
	// 1. The collector service (cmd/sperke-collector in deployment).
	collector := telemetry.NewCollector(tiling.GridCellular, sphere.DefaultFoV)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	srv := dash.NewHTTPServer(collector)
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Fprintln(os.Stderr, "collector running at", base)

	// 2. Twenty viewers watch "launch-360" and their apps upload
	//    telemetry. Note the per-record size: the paper's scaling claim.
	const videoID = "launch-360"
	dur := 30 * time.Second
	att := trace.GenerateAttention(rand.New(rand.NewSource(2)), dur)
	pop := trace.NewPopulation(rand.New(rand.NewSource(3)), 20)
	var totalBytes int
	for i, u := range pop.Users {
		h := trace.Generate(rand.New(rand.NewSource(int64(10+i))), u, att, dur)
		rec := telemetry.FromHeadTrace(videoID, u.ID, u.Context, h)
		var buf bytes.Buffer
		if err := telemetry.Encode(&buf, rec); err != nil {
			panic(err)
		}
		totalBytes += buf.Len()
		resp, err := http.Post(base+"/t/"+videoID, "application/octet-stream", &buf)
		if err != nil {
			panic(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			panic(fmt.Sprintf("upload rejected: %d", resp.StatusCode))
		}
	}
	perViewer := float64(totalBytes) / 20 * 8 / dur.Seconds()
	fmt.Printf("uploaded 20 sessions, %.0f bps per viewer (paper budget: <5 Kbps)\n", perViewer)

	// 3. A new player fetches the crowd heatmap before streaming.
	resp, err := http.Get(base + "/t/" + videoID + "/heatmap?chunkms=2000")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var hm telemetry.HeatmapResponse
	if err := json.NewDecoder(resp.Body).Decode(&hm); err != nil {
		panic(err)
	}
	fmt.Printf("heatmap: %d sessions, %d intervals, %dx%d grid\n",
		hm.Sessions, hm.Intervals, hm.Rows, hm.Cols)

	// Show where the crowd looks mid-video.
	mid := hm.Intervals / 2
	fmt.Printf("interval %d tile probabilities (row-major):\n", mid)
	for r := 0; r < hm.Rows; r++ {
		for c := 0; c < hm.Cols; c++ {
			fmt.Printf(" %4.2f", hm.Prob[mid][r*hm.Cols+c])
		}
		fmt.Println()
	}
	fmt.Println("\ntiles with p≈0 are what §3.2 prunes from OOS fetching;")
	fmt.Println("tiles with high p are prefetched even at long horizons.")

	// 4. The player reconstructs a usable heatmap from the JSON and lets
	//    it plan OOS fetching for the next session.
	heat, err := hmp.HeatmapFromProbabilities(
		tiling.Grid{Rows: hm.Rows, Cols: hm.Cols},
		time.Duration(hm.ChunkMs)*time.Millisecond, hm.Prob)
	if err != nil {
		panic(err)
	}
	view := heat.CrowdCenter(time.Duration(mid) * 2 * time.Second)
	fovTiles := tiling.VisibleTiles(tiling.GridCellular, view, sphere.DefaultFoV)
	plan := abr.PlanOOS(abr.OOSInput{
		Grid:       tiling.GridCellular,
		FoVTiles:   fovTiles,
		FoVQuality: 4,
		Prediction: hmp.Prediction{View: view, Radius: 40},
		FoV:        sphere.DefaultFoV,
		Heatmap:    heat,
		At:         time.Duration(mid) * 2 * time.Second,
	}, abr.OOSPolicy{MaxRing: 3, MinCrowdProb: 0.15})
	fmt.Printf("\nnext viewer's plan at the crowd center: %d FoV tiles + %d crowd-pruned OOS tiles\n",
		len(fovTiles), len(plan))
}
