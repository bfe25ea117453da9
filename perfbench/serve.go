package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sinan/internal/apps"
	"sinan/internal/core"
	"sinan/internal/dataset"
	"sinan/internal/lifecycle"
	"sinan/internal/predsvc"
)

// The serve workload: an in-process prediction service on loopback, driven
// open-loop by scheduler queries captured from a managed run during
// set-up, with a low-rate stream of gated model updates beside the reads.
// Rates are fixed constants, not measured each run, so a faster or slower
// server is visible as a change in latency and in the logged capacity.
const (
	captureSimSec = 300 // managed run whose model queries are replayed
	connections   = 2   // client connections (each carries one call at a time)

	// sloMS is the scheduler's own prediction budget: the default
	// core.SchedulerOptions.SlowPredictMS, above which a query counts as
	// overload pressure.
	sloMS = 250

	// Rates, against a capacity of 2000–3000 queries/s on a 2-CPU Xeon.
	// Every request must meet the budget at both, so hiQPS leaves room
	// for the host to run a third slower: at three quarters of capacity a
	// competing process built a backlog that failed the run.
	loQPS = 500  // about a quarter of capacity
	hiQPS = 1000 // about 40% of capacity

	// Shares of --seconds spent in the lo and hi phases, which alternate
	// over rounds, and in the saturation phase that measures capacity.
	loShare  = 0.35
	hiShare  = 0.3
	satShare = 0.25
	rounds   = 5

	updateEvery = 250 * time.Millisecond // one UpdateModel per period in the hi phases
)

// reply is an expected or observed prediction for one query.
type reply struct{ lat, pviol []float64 }

// serveState is everything set-up builds: the model, the captured queries
// with their in-process answers, the running server and its clients.
type serveState struct {
	app      *apps.App
	m        *core.HybridModel
	ds       *dataset.Dataset
	queries  []capturedQuery
	want     []reply
	artifact []byte
	gate     *lifecycle.Gate
	svc      *predsvc.Service
	srv      *predsvc.Server
	lis      *countingListener
	clients  []*predsvc.Client
	errOnce  sync.Once // the first request error is logged
}

func (s *serveState) close() {
	for _, c := range s.clients {
		c.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
}

// serveSetup captures the queries of a managed run at seed, answers them
// in process, and starts the server over m, gated on a tenth of ds (the
// validation split when m was trained on ds at modelSeed). The digest
// covers the captured queries.
func serveSetup(app *apps.App, m *core.HybridModel, ds *dataset.Dataset, seed int64) (*serveState, string, error) {
	p := newProbe(nil, math.MaxInt)
	manageOnce(app, m, seed, captureSimSec, p)
	s := &serveState{app: app, m: m, ds: ds, queries: p.queries}
	if len(s.queries) == 0 {
		return nil, "", errors.New("the capture run issued no model queries")
	}
	ctx := core.NewPredictContext()
	qd := newDigest()
	for _, q := range s.queries {
		lat, pv, err := m.PredictShared(ctx, q.in)
		if err != nil {
			return nil, "", fmt.Errorf("in-process prediction: %w", err)
		}
		s.want = append(s.want, reply{append([]float64(nil), lat.Data...), append([]float64(nil), pv...)})
		qd.floats(q.in.RC.Data...)
	}
	var err error
	if s.artifact, _, err = lifecycle.Encode(m, lifecycle.Manifest{Note: "perfbench"}); err != nil {
		return nil, "", fmt.Errorf("encoding artifact: %w", err)
	}
	_, holdout := ds.Split(0.9, modelSeed)
	if s.gate, err = lifecycle.NewGate(lifecycle.GateConfig{Holdout: holdout}); err != nil {
		return nil, "", err
	}
	s.svc = predsvc.NewServiceWith(m, predsvc.ServiceOptions{Guard: s.gate})
	if s.srv, s.lis, err = serveLoopback(s.svc); err != nil {
		return nil, "", err
	}
	for i := 0; i < connections; i++ {
		c, err := predsvc.Dial(s.srv.Addr().String())
		if err != nil {
			s.close()
			return nil, "", fmt.Errorf("dialing: %w", err)
		}
		s.clients = append(s.clients, c)
	}
	// Warm connections, codecs and server contexts.
	for i := 0; i < 100; i++ {
		q := s.queries[i%len(s.queries)]
		if _, _, err := s.clients[i%connections].PredictShared(nil, q.in); err != nil {
			s.close()
			return nil, "", fmt.Errorf("warm-up query: %w", err)
		}
	}
	return s, qd.sum(), nil
}

func runServe(cfg config) (*result, error) {
	r := newResult(cfg)
	var st *serveState
	var setupErr error
	_, setupS := setup(r, func() (struct{}, string) {
		if st != nil {
			st.close()
			st = nil
		}
		if setupErr != nil {
			return struct{}{}, ""
		}
		app := apps.NewSocialNetwork()
		m, ds, modelDigest, err := servedModel(app)
		if err != nil {
			setupErr = err
			return struct{}{}, ""
		}
		var queryDigest string
		st, queryDigest, setupErr = serveSetup(app, m, ds, cfg.seed)
		return struct{}{}, modelDigest + "/" + queryDigest
	})
	if setupErr != nil {
		if st != nil {
			st.close()
		}
		return nil, setupErr
	}
	defer st.close()
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(st.queries))

	plain := st.drive(r, cfg, order, nil)
	cfg.logf("serve: %d queries, lo p50 %.3f p99 %.3f, hi p99 %.3f ms, generator lag p99 %.3f ms, max %.0f qps, %d updates (p50 %.2f ms), %d sent",
		len(st.queries), plain.loP50, plain.loP99, plain.hiP99, quantile(plain.genLagMS, 0.99), plain.maxQPS,
		len(plain.updateMS), median(plain.updateMS), plain.sent)
	if !cfg.traced {
		r.set("setup_s", "s", setupS)
		r.set("work_ms", "ms", plain.loP50)
		r.set("op_ms", "ms", median(plain.updateMS))
		return r, nil
	}

	tr := newTracer()
	r.spans = tr
	heap := startHeapPeak()
	shedBefore := st.svc.StatsSnapshot()
	traced := st.drive(r, cfg, order, tr)
	shedAfter := st.svc.StatsSnapshot()
	r.set("tracing_overhead_pct", "%", 100*(traced.loP50/plain.loP50-1))
	r.set("predsvc.shed", "count", float64(shedAfter.Shed+shedAfter.Expired-shedBefore.Shed-shedBefore.Expired))
	r.set("lifecycle.updates_accepted", "count", float64(traced.accepted))
	predsvcLayers(r, tr, st.clients[0], st.lis, st.m, st.queries)
	gateLayers(r, tr, st.gate, st.m)
	// Stand-alone figures for the layers the serve phase never calls: the
	// managed run the queries were captured from, re-run traced (it also
	// gives the query shapes and the inference layers), and training.
	if err := fillLayers(r, tr, st.app, st.m, st.ds, cfg.seed, modelSeed, nil); err != nil {
		return nil, err
	}
	r.set("go.heap_peak_mb", "MiB", heap.stop())
	return r, nil
}

// driveResult is one pass of the serve workload.
type driveResult struct {
	loP50, loP99, hiP99 float64
	maxQPS              float64
	updateMS            []float64
	accepted            int
	genLagMS            []float64
	sent                int
}

// drive runs the lo and hi latency phases, with the write stream beside
// the hi ones, and then the saturation phase.
func (s *serveState) drive(r *result, cfg config, order []int, tr *tracer) driveResult {
	var out driveResult
	secs := float64(cfg.seconds)
	next := 0 // replay position in order, continued across phases
	phase := func(name string, rate, share float64, writes bool) phaseResult {
		dur := time.Duration(share * secs * float64(time.Second))
		nw := 0
		if writes {
			nw = max(1, int(dur/updateEvery))
		}
		ph := s.phase(name, rate, dur, nw, order, next, tr)
		n := len(ph.latMS)
		cfg.logf("serve %s: sent %d, late %d, failed %d (shed %d, unavailable %d, expired %d), mismatched %d, updates %d (rejected %d)",
			name, n, ph.late, ph.errors, ph.sheds, ph.unavail, ph.expired, ph.mismatches, len(ph.updateMS), ph.rejected)
		next += n
		out.sent += n
		out.genLagMS = append(out.genLagMS, ph.genLagMS...)
		out.updateMS = append(out.updateMS, ph.updateMS...)
		out.accepted += len(ph.updateMS) - ph.rejected
		r.ops(int64(n+len(ph.updateMS)), int64(ph.errors+ph.mismatches+ph.rejected))
		r.check(len(ph.updateMS) == nw, "phase %s made %d of %d updates", name, len(ph.updateMS), nw)
		return ph
	}

	// The latency phases alternate in rounds, and each figure is the median
	// over rounds of the round's percentile: a burst of host contention
	// spoils one round, not the run.
	var loP50, loP99, hiP99 []float64

	for i := 0; i < rounds; i++ {
		lo := phase(fmt.Sprintf("lo%d", i), loQPS, loShare/rounds, false)
		hi := phase(fmt.Sprintf("hi%d", i), hiQPS, hiShare/rounds, true)
		loP50 = append(loP50, quantile(lo.latMS, 0.5))
		loP99 = append(loP99, quantile(lo.latMS, 0.99))
		hiP99 = append(hiP99, quantile(hi.latMS, 0.99))

		// Below capacity every request must meet the budget.
		r.ops(0, int64(lo.late+hi.late))
	}
	out.loP50, out.loP99, out.hiP99 = median(loP50), median(loP99), median(hiP99)

	// Capacity: both connections send their next query as soon as the
	// previous reply arrives. That is the highest rate an arrival schedule
	// can keep up without a growing backlog; only replies within the budget
	// count, so a failed or late request is a miss.
	sat := phase("saturate", 0, satShare, false)
	out.maxQPS = sat.goodput
	r.check(float64(sat.late+sat.errors+sat.mismatches) <= 0.01*float64(len(sat.latMS)),
		"saturated service answered %d of %d queries late or wrong", sat.late+sat.errors+sat.mismatches, len(sat.latMS))
	return out
}

// phaseResult is one phase of the serve workload.
type phaseResult struct {
	latMS      []float64 // per request, from when it was due (or later sent) to its reply
	genLagMS   []float64 // how late the generator woke for requests it waited for
	errors     int       // requests that failed: sheds, unavailable and expired are the known kinds
	sheds      int       // refused by the server's admission control
	unavail    int       // refused by the client's open circuit breaker (ErrUnavailable)
	expired    int       // dropped at a deadline
	mismatches int
	late       int     // requests answered correctly but after sloMS
	goodput    float64 // requests answered correctly within sloMS per second of phase
	updateMS   []float64
	rejected   int // updates refused
}

// phase runs for dur. With rate > 0 it is open loop: request i is due at
// start + i/rate whether or not earlier ones were answered, and each
// client connection takes the next due request as soon as it is free.
// With rate 0 each connection sends its next request as soon as the
// previous reply arrives. Beside the reads, writes model updates, one due
// every updateEvery from half a period in: the first free connection
// carries a due update before its next read, so an update takes a
// connection from the reads for as long as it runs. Every update
// re-publishes the served model's own artifact through the armed gate, so
// a refusal is a failure.
func (s *serveState) phase(name string, rate float64, dur time.Duration, writes int, order []int, offset int, tr *tracer) phaseResult {
	var (
		ph              phaseResult
		next, nextWrite atomic.Int64
		mu              sync.Mutex // guards ph and lastFinish
		wg              sync.WaitGroup
		lastFinish      time.Time
	)
	n := int(rate * dur.Seconds())
	parent := tr.begin(name, -1)
	start := time.Now()
	end := start.Add(dur)
	writeDue := func(k int) time.Time {
		return start.Add(updateEvery/2 + time.Duration(k)*updateEvery)
	}
	update := func(c *predsvc.Client) {
		begin := time.Now()
		_, err := c.UpdateModel(s.artifact)
		done := time.Now()
		tr.add("update", parent, begin, done)
		mu.Lock()
		ph.updateMS = append(ph.updateMS, ms(done.Sub(begin)))
		if err != nil {
			ph.rejected++
		}
		mu.Unlock()
		if err != nil {
			s.logErr(err)
		}
	}
	for w := 0; w < connections; w++ {
		c := s.clients[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if k := int(nextWrite.Load()); k < writes && !time.Now().Before(writeDue(k)) &&
					nextWrite.CompareAndSwap(int64(k), int64(k+1)) {
					update(c)
					continue
				}
				i := int(next.Add(1) - 1)
				// A request is timed from when it was due, so a stall
				// counts against every request queued behind it. When the
				// connection was idle and waited for the due time, the
				// clock starts at the wake-up instead: the timer's own
				// lateness is the generator's, reported as genLagMS.
				from := time.Now()
				lag := -1.0
				if rate > 0 {
					if i >= n {
						return
					}
					due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					if wait := due.Sub(from); wait > 0 {
						time.Sleep(wait)
						from = time.Now()
						lag = ms(from.Sub(due))
					} else {
						from = due
					}
				} else if !from.Before(end) {
					return
				}
				qi := order[(offset+i)%len(order)]
				lat, pv, err := c.PredictShared(nil, s.queries[qi].in)
				done := time.Now()
				tr.add("rpc", parent, from, done)
				took := ms(done.Sub(from))
				mu.Lock()
				if lag >= 0 {
					ph.genLagMS = append(ph.genLagMS, lag)
				}
				if done.After(lastFinish) {
					lastFinish = done
				}
				switch {
				case err != nil:
					ph.errors++
					switch {
					case predsvc.IsOverloaded(err):
						ph.sheds++
					case errors.Is(err, predsvc.ErrUnavailable):
						ph.unavail++
					case predsvc.IsExpired(err) || strings.Contains(err.Error(), "deadline"):
						ph.expired++
					}
					took = math.Inf(1)
				case !sameReply(s.want[qi], lat.Data, pv):
					ph.mismatches++
				case took > sloMS:
					ph.late++
				}
				ph.latMS = append(ph.latMS, took)
				mu.Unlock()
				if err != nil {
					s.logErr(err)
				}
			}
		}()
	}
	wg.Wait()
	tr.end(parent)
	ok := len(ph.latMS) - ph.late - ph.errors - ph.mismatches
	ph.goodput = float64(ok) / lastFinish.Sub(start).Seconds()
	return ph
}

func (s *serveState) logErr(err error) {
	s.errOnce.Do(func() { fmt.Fprintf(os.Stderr, "serve: first request error: %v\n", err) })
}

// sameReply reports whether an observed reply is bit-identical to the
// in-process prediction.
func sameReply(want reply, lat, pv []float64) bool {
	if len(lat) != len(want.lat) || len(pv) != len(want.pviol) {
		return false
	}
	for i, v := range lat {
		if math.Float64bits(v) != math.Float64bits(want.lat[i]) {
			return false
		}
	}
	for i, v := range pv {
		if math.Float64bits(v) != math.Float64bits(want.pviol[i]) {
			return false
		}
	}
	return true
}

// countingListener counts the bytes every accepted connection reads and
// writes.
type countingListener struct {
	net.Listener
	bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// CloseRead keeps the server's graceful shutdown path (stop reading, drain
// in-flight calls) working through the wrapper.
func (c *countingConn) CloseRead() error {
	if cr, ok := c.Conn.(interface{ CloseRead() error }); ok {
		return cr.CloseRead()
	}
	return c.Conn.Close()
}
