package vet

// clockSpans extends the deterministic packages with the real-socket
// substrates the roadmap routes through injected clocks: rtmp stamps
// segment arrival times and handshake nonces, netem schedules token
// buckets, and serve's session engine measures HTTP fetch latency.
// Each reads wall time only through an allowlisted seam (serve borrows
// obs.NewWall rather than owning one). cluster joins the list because
// its failure detector runs on an injected clock (sim.Clock in the
// deterministic failover tests, obs.Wall in real deployments) — a
// stray time.Now in a breaker cooldown would silently split the two.
var clockSpans = append([]string{
	"internal/rtmp",
	"internal/netem",
	"internal/serve",
	"internal/cluster",
}, deterministicSpans...)

// clockAllowlist names the functions that are the designated wall-clock
// seams — the single place a package is allowed to read real time so
// everything else can take an injected clock. Keys are "dir:Func" or
// "dir:Type.Method" using module-relative directories.
var clockAllowlist = map[string]bool{
	// obs.Wall is the explicit wall adapter for real-socket pipelines;
	// simulated pipelines pass *sim.Clock instead.
	"internal/obs:NewWall":  true,
	"internal/obs:Wall.Now": true,
	// The shaper's constructor seeds its injectable nowFunc/sleep with
	// wall defaults; tests override the fields.
	"internal/netem:NewRateLimitedConn": true,
	// rtmp's single wall seam; Server.Now and handshake stamps route
	// through it.
	"internal/rtmp:wallNow": true,
	// The cluster's probe loop is the one place it may block on real
	// time; everything else (breaker cooldowns, health state) reads the
	// injected clock.
	"internal/cluster:wallSleep": true,
	// Node.open is the router's one hop onto the wire client of the
	// transport-backed carriers, whose retry loop is wall-tainted through
	// its default now/sleep seams — the same seam shape as serve's
	// httpMirror.mirror: real-network latency enters here and nowhere
	// else in the cluster.
	"internal/cluster:Node.open": true,
	// Node.Ping is the other hop onto that client: its probe GET
	// classifies failures through the client's Retry-After parsing,
	// which reads the client's now seam to turn HTTP-date deadlines
	// into durations. Same wall-at-the-wire shape as Node.open.
	"internal/cluster:Node.Ping": true,
	// A wire edge's connection loop puts its idle and header limits on
	// the socket as read deadlines, and the router's hop its exchange
	// deadline, which are wall time by nature; wallDeadline is the one
	// place either reads the clock for them (and for the now an
	// HTTP-date Retry-After is read against).
	"internal/cluster:wallDeadline": true,
	// The engine's HTTP observation leg calls dash.Client.FetchChunk,
	// which is wall-tainted through its default now/sleep seams; the
	// mirror is exactly the seam where measured real-network latency
	// enters, so the taint pass treats it as a barrier.
	"internal/serve:httpMirror.mirror": true,
}

// clockForbidden are the time-package calls that read or block on the
// wall clock.
var clockForbidden = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// randConstructors are the math/rand identifiers that are fine
// anywhere: explicitly-seeded generator construction and the types
// used to thread generators through APIs. Everything else on the
// package (rand.Intn, rand.Float64, rand.Seed, ...) rides the global
// process-wide generator and is forbidden.
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	"Rand":      true,
	"Source":    true,
	"Source64":  true,
	"Zipf":      true,
}

// ClockHygiene forbids wall-clock reads (time.Now/Sleep/Since/Until/
// After/Tick) and the globally-seeded math/rand API in deterministic
// and injected-clock packages, outside the allowlisted seams — whether
// used directly or laundered through a helper in another package (the
// taint pass, taint.go). Every component in those spans takes a clock
// (sim.Clock, a Now func field) or an explicit *rand.Rand, so an
// experiment's output is a pure function of its seed.
var ClockHygiene = &Analyzer{
	Name:        "clockhygiene",
	Doc:         "forbid wall-clock and global-rand use in deterministic packages outside allowlisted seams",
	CheckModule: taintDiagnostics,
}
