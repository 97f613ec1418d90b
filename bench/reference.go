package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"
)

// The box this benchmark runs on is a small shared VM. Its speed moves
// by 20-40 % from one quarter of an hour to the next (thread wake-ups,
// page faults and the cores themselves cost what the host's other
// tenants leave), which is more than any bound a regression gate could
// use. So every wall-clock end-to-end metric is
// reported in calibrated time. The timed phase is cut into rounds of
// fixed work, and right before and right after every round, while every
// generator is idle, all generators run a yardstick of fixed work that
// uses the same resources and none of Sperke's code. Each round's
// figures are scaled by nominal ÷ the mean of the two samples around it.
// The workload never runs while the yardstick is sampled, so the code
// under test cannot move the scale it is measured with. A calibrated
// millisecond is a millisecond on a box where the yardstick costs its
// nominal value; the raw figures and the yardstick's measured cost are
// reported beside them as per-layer metrics.
const (
	// nominalExchange is one yardstick HTTP exchange on a quiet run of
	// the 2-core box the benchmark was sized on; nominalKernel one call
	// of simKernel there. They only fix the unit of calibrated time.
	nominalExchange = 55 * time.Microsecond
	nominalKernel   = 1250 * time.Microsecond
)

// yardstick is one kind of fixed work and how much of it makes a
// sample.
type yardstick struct {
	once    func() (time.Duration, error) // does one unit and returns what it cost
	nominal time.Duration                 // a unit's cost on a quiet run
	units   int                           // units per generator in one sample
}

// kernelYard samples for about 50 ms; an exchanger's yardstick (see
// exchanger.yardstick) for about 20 ms. simYard is the same kernel in
// samples of 10 ms, for viewer_sim's rounds of a tenth of a second.
var (
	kernelYard = yardstick{once: kernelOnce, nominal: nominalKernel, units: 40}
	simYard    = yardstick{once: kernelOnce, nominal: nominalKernel, units: 8}
)

// scale is the factor that turns a time measured while a unit of the
// yardstick cost `measured` into calibrated time; rates divide by it.
func (y yardstick) scale(measured time.Duration) float64 {
	return float64(y.nominal) / float64(measured)
}

// yardstickBody is the size of the body the yardstick server sends: the
// mean chunk of the default ladder.
const yardstickBody = 43 << 10

// exchanger is the serving workloads' yardstick: a bare net/http server
// and client in this process exchanging a fixed body over their own
// loopback connection. It pays what a chunk fetch pays outside Sperke —
// system calls, loopback TCP, goroutine wake-ups across the two cores —
// which is where this box's noise lives.
type exchanger struct {
	url  string
	hc   *http.Client
	stop func()
}

func newExchanger() (*exchanger, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	body := make([]byte, yardstickBody)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(body) // a failed write shows as a short read in exchange
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on Close
	}()
	tr := &http.Transport{MaxIdleConnsPerHost: 16}
	return &exchanger{
		url: "http://" + ln.Addr().String() + "/",
		hc:  &http.Client{Transport: tr, Timeout: 15 * time.Second},
		stop: func() {
			tr.CloseIdleConnections()
			_ = srv.Close()
			<-done
		},
	}, nil
}

func (e *exchanger) yardstick() yardstick {
	return yardstick{once: e.exchange, nominal: nominalExchange, units: 400}
}

// exchange does one exchange and returns what it cost.
func (e *exchanger) exchange() (time.Duration, error) {
	start := time.Now()
	resp, err := e.hc.Get(e.url)
	if err != nil {
		return 0, fmt.Errorf("bench: yardstick exchange: %w", err)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || n != yardstickBody {
		return 0, fmt.Errorf("bench: yardstick exchange read %d of %d bytes: %v", n, yardstickBody, err)
	}
	return time.Since(start), nil
}

// medianDuration returns the middle of ds, 0 for none.
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// simKernel is viewer_sim's yardstick: the arithmetic a simulated
// session spends four fifths of its time on, written out again here so
// that it is none of Sperke's code. A session asks, twice a simulated
// second, which tiles a field of view covers: it rotates a 9x9 lattice
// of view-space angles into world space, projects each direction onto
// the equirectangular frame and notes the tile under it in a map (sin,
// cos, asin, atan2, mod, a small map). The kernel answers 64 such
// questions. It has to be this close to the session: a kernel of bare
// trigonometry and heap operations rose by 19 % in an hour in which the
// sessions rose by 45 % (the host's other tenants slow one instruction
// mix more than another), where this one stayed within 8 % of them.
func simKernel() (tiles int) {
	for k := 0; k < 64; k++ {
		yaw, pitch, roll := float64(k*37%360-180), float64(k*11%120-60), float64(k%7)
		seen := make(map[int]bool)
		for i := 0; i < 9; i++ {
			for j := 0; j < 9; j++ {
				hy, hp := (float64(i)/8-0.5)*100*math.Pi/180, (float64(j)/8-0.5)*90*math.Pi/180
				x, y, z := math.Cos(hp)*math.Sin(hy), math.Sin(hp), math.Cos(hp)*math.Cos(hy)
				y, x = rot(y, x, roll)
				y, z = rot(y, z, pitch)
				x, z = rot(x, z, yaw)
				n := math.Sqrt(x*x + y*y + z*z)
				lat := math.Asin(math.Max(-1, math.Min(1, y/n))) * 180 / math.Pi
				lon := math.Mod(math.Atan2(x, z)*180/math.Pi+180, 360)
				seen[int(lon/360*6)%6+6*(int((90-lat)/180*4)%4)] = true
			}
		}
		tiles += len(seen)
	}
	return tiles
}

// rot turns the vector (a, b) by deg degrees, with a sine and a cosine
// call as the session's rotations make them.
func rot(a, b, deg float64) (float64, float64) {
	r := deg * math.Pi / 180
	s, c := math.Sin(r), math.Cos(r)
	return a*c + b*s, -a*s + b*c
}

// now samples the yardstick on every generator at once, as a round
// loads the box, and returns the median cost of a unit (the median, so
// that the yardstick's own rare stalls do not move the scale): the
// box's speed at this moment.
func (y yardstick) now() (time.Duration, error) {
	costs := make([][]time.Duration, connections())
	errs := make([]error, connections())
	var wg sync.WaitGroup
	for w := range costs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < y.units; k++ {
				cost, err := y.once()
				if err != nil {
					errs[w] = err
					return
				}
				costs[w] = append(costs[w], cost)
			}
		}(w)
	}
	wg.Wait()
	var all []time.Duration
	for w := range costs {
		if errs[w] != nil {
			return 0, errs[w]
		}
		all = append(all, costs[w]...)
	}
	return medianDuration(all), nil
}

// kernelOnce is one timed simKernel call.
func kernelOnce() (time.Duration, error) {
	start := time.Now()
	_ = simKernel() // the count only keeps the work from being optimized away
	return time.Since(start), nil
}

// aroundEach runs fn(0..n-1) with a sample before the first call and
// after every call, and returns for each call the mean of the two
// samples around it: what a unit cost while that call ran.
func (y yardstick) aroundEach(n int, fn func(k int) error) ([]time.Duration, error) {
	cost := make([]time.Duration, n)
	before, err := y.now()
	if err != nil {
		return nil, err
	}
	for k := range cost {
		if err := fn(k); err != nil {
			return nil, err
		}
		after, err := y.now()
		if err != nil {
			return nil, err
		}
		cost[k] = (before + after) / 2
		before = after
	}
	return cost, nil
}
