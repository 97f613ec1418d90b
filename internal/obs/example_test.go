package obs_test

import (
	"fmt"
	"net/http/httptest"

	"sperke/internal/obs"
)

// ExampleRegistry_Handler is the /metrics endpoint sperke-server
// mounts: every instrument the registry holds, as one JSON snapshot.
func ExampleRegistry_Handler() {
	reg := obs.NewRegistry()
	reg.Counter("dash.server.requests").Add(3)
	reg.Gauge("serve.store.bytes").Set(4096)
	for _, ms := range []float64{1, 2, 4} {
		reg.Histogram("dash.server.request_ms").Observe(ms)
	}

	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	fmt.Println(rec.Header().Get("Content-Type"))
	fmt.Print(rec.Body.String())
	// Output:
	// application/json; charset=utf-8
	// {
	//   "counters": {
	//     "dash.server.requests": 3
	//   },
	//   "gauges": {
	//     "serve.store.bytes": 4096
	//   },
	//   "histograms": {
	//     "dash.server.request_ms": {
	//       "count": 3,
	//       "sum": 7,
	//       "mean": 2.3333333333333335,
	//       "min": 1,
	//       "max": 4,
	//       "p50": 2.0625,
	//       "p95": 4,
	//       "p99": 4
	//     }
	//   }
	// }
}
