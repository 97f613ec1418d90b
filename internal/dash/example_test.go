package dash_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"sperke/internal/dash"
	"sperke/internal/media"
	"sperke/internal/obs"
	"sperke/internal/tiling"
)

// ExampleNewServer serves one tiled title over HTTP and reads it back
// with the client a player uses: the manifest, then one tile's chunk.
func ExampleNewServer() {
	catalog := dash.NewCatalog()
	if err := catalog.Add(&media.Video{
		ID:             "demo",
		Duration:       10 * time.Second,
		ChunkDuration:  2 * time.Second,
		Grid:           tiling.GridCellular,
		ProjectionName: "equirectangular",
		Ladder:         media.DefaultLadder,
		Encoding:       media.EncodingAVC,
	}); err != nil {
		panic(err)
	}
	reg := obs.NewRegistry()
	srv := httptest.NewServer(dash.NewServer(catalog, dash.WithObs(reg)))

	client := dash.NewClient(srv.URL)
	mpd, err := client.FetchMPD(context.Background(), "demo")
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %d ms in %d ms chunks, %dx%d tiles, %d representations\n",
		mpd.VideoID, mpd.DurationMs, mpd.ChunkMs, mpd.Rows, mpd.Cols, len(mpd.Representations))
	res, err := client.FetchChunk(context.Background(), "demo", 3, 7, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("chunk q=3 tile=7 index=2: %d payload bytes, %d on the wire, %d attempt\n",
		len(res.Payload), res.WireBytes, res.Attempts)
	// The server counts a request once its handler returns, which can be
	// after the client has read the body; Close waits for the handlers.
	srv.Close()
	fmt.Printf("server: %d requests, %d chunk, %d bytes sent\n", reg.Counter("dash.server.requests").Value(),
		reg.Counter("dash.server.chunk_requests").Value(), reg.Counter("dash.server.bytes_tx").Value())
	// Output:
	// demo: 10000 ms in 2000 ms chunks, 4x6 tiles, 6 representations
	// chunk q=3 tile=7 index=2: 44083 payload bytes, 44113 on the wire, 1 attempt
	// server: 2 requests, 1 chunk, 44928 bytes sent
}
