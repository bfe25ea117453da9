package main

import (
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"time"

	"sinan/internal/apps"
	"sinan/internal/core"
	"sinan/internal/dataset"
	"sinan/internal/runner"
	"sinan/internal/workload"
)

// The manage workload: Sinan manages a diurnal 50–400-user load on the
// Social Network. Each repetition is one managed run of manageRepSimSec
// simulated seconds (one full diurnal period) with its own seed derived
// from --seed; the work is manageRepsPerSecond × --seconds repetitions.
const (
	manageRepSimSec     = 600
	manageRepsPerSecond = 0.6
	manageMinUsers      = 50
	manageMaxUsers      = 400
	warmSimSec          = 60  // managed warm-up run at the end of set-up
	inferenceSamples    = 300 // captured queries timed for the inference layers
)

func diurnal(simsec float64) workload.Pattern {
	return workload.Diurnal{Min: manageMinUsers, Max: manageMaxUsers, Period: simsec}
}

// managedRun is one Sinan-managed run.
type managedRun struct {
	res      *runner.Result
	wall     time.Duration
	decideMS []float64
	digest   string // of the per-interval decision trace
}

// manageOnce runs the Sinan scheduler over the model for simsec simulated
// seconds. Decide is always timed; with a tracer (p.tr) or query capture
// the model and, when traced, the stats plane are wrapped as well.
func manageOnce(app *apps.App, m *core.HybridModel, seed int64, simsec float64, p *probe) managedRun {
	var pred core.Predictor = m
	if p.tr != nil || p.captureN > 0 {
		pred = wrapPredictor(m, p)
	}
	pol, timer := wrapPolicy(core.NewScheduler(app, pred, core.SchedulerOptions{}), p)
	cfg := runner.Config{
		App: app, Policy: pol, Pattern: diurnal(simsec),
		Duration: simsec, Seed: seed, KeepTrace: true,
	}
	if p.tr != nil {
		cfg.Plane = planeFactory(p)
	}
	p.run = p.tr.begin("run", -1)
	start := time.Now()
	res := runner.Run(cfg)
	wall := time.Since(start)
	p.tr.end(p.run)
	return managedRun{res: res, wall: wall, decideMS: timer.decideMS, digest: traceDigest(res.Trace)}
}

// traceDigest hashes every decision of a run: the allocation in force each
// interval and what the model predicted for it.
func traceDigest(trace []runner.TraceRow) string {
	d := newDigest()
	for _, row := range trace {
		d.floats(row.Time, row.Total, row.PredP99MS, row.PViol, float64(row.Brownout))
		if row.Degraded {
			d.floats(1)
		}
		d.floats(row.Alloc...)
	}
	return d.sum()
}

// schedCounters returns the run's deterministic scheduler instruments
// (every sched.* counter, gauge and histogram except the wall-clock *_ms
// ones) as JSON.
func schedCounters(res *runner.Result) string {
	snap := res.Metrics.Snapshot()
	keep := func(name string) bool {
		return strings.HasPrefix(name, "sched.") && !strings.HasSuffix(name, "_ms")
	}
	out := map[string]interface{}{}
	for k, v := range snap.Counters {
		if keep(k) {
			out[k] = v
		}
	}
	for k, v := range snap.Gauges {
		if keep(k) {
			out[k] = v
		}
	}
	for k, v := range snap.Histograms {
		if keep(k) {
			out[k] = v
		}
	}
	b, _ := json.Marshal(out) // maps of numbers always marshal
	return string(b)
}

func manageReps(seconds int) int {
	n := int(math.Round(manageRepsPerSecond * float64(seconds)))
	if n < 1 {
		n = 1
	}
	return n
}

func repSeed(seed int64, rep int) int64 { return seed*1000 + int64(rep) }

func runManage(cfg config) (*result, error) {
	r := newResult(cfg)
	type state struct {
		app *apps.App
		m   *core.HybridModel
		ds  *dataset.Dataset
	}
	var setupErr error
	st, setupS := setup(r, func() (state, string) {
		app := apps.NewSocialNetwork()
		m, ds, digest, err := servedModel(app)
		if err != nil {
			setupErr = err
			return state{}, ""
		}
		manageOnce(app, m, cfg.seed, warmSimSec, newProbe(nil, 0))
		return state{app, m, ds}, digest
	})
	if setupErr != nil {
		return nil, setupErr
	}
	reps := manageReps(cfg.seconds)
	plain := manageSeries(r, st.app, st.m, cfg.seed, reps, newProbe(nil, 0))
	// Determinism: the first repetition again must decide identically.
	again := manageOnce(st.app, st.m, repSeed(cfg.seed, 0), manageRepSimSec, newProbe(nil, 0))
	r.check(again.digest == plain.runs[0].digest, "manage rep 0 re-run digest %s, first %s", again.digest, plain.runs[0].digest)
	cfg.logf("manage: %d reps × %d simsec, %d decisions, decide p50 %.3f p99 %.3f ms, qos met %.2f%%, cores %.3f, digest %s",
		reps, manageRepSimSec, len(plain.decideMS), quantile(plain.decideMS, 0.5), quantile(plain.decideMS, 0.99),
		100*plain.meet, plain.cores, plain.runs[0].digest)

	if !cfg.traced {
		r.set("setup_s", "s", setupS)
		r.set("work_ms", "ms", median(plain.msPerSimsec))
		r.set("op_ms", "ms", quantile(plain.decideMS, 0.5))
		return r, nil
	}

	tr := newTracer()
	r.spans = tr
	heap := startHeapPeak()
	p := newProbe(tr, inferenceSamples)
	traced := manageSeries(r, st.app, st.m, cfg.seed, reps, p)
	for i := range traced.runs {
		a, b := plain.runs[i], traced.runs[i]
		r.check(a.digest == b.digest, "rep %d traced digest %s, untraced %s", i, b.digest, a.digest)
		ca, cb := schedCounters(a.res), schedCounters(b.res)
		r.check(ca == cb, "rep %d traced sched counters differ:\n%s\n%s", i, cb, ca)
	}
	r.set("tracing_overhead_pct", "%", 100*(traced.wall.Seconds()/plain.wall.Seconds()-1))
	setSimLayers(r, tr, traced.simsec, traced.completed, traced.mallocs)
	coreLayers(r, tr, traced.candidates, traced.degraded)
	// Stand-alone figures for the layers the managed phase never calls:
	// training (done in set-up), the prediction service and the gate.
	if err := fillLayers(r, tr, st.app, st.m, st.ds, cfg.seed, modelSeed, p); err != nil {
		return nil, err
	}
	r.set("go.heap_peak_mb", "MiB", heap.stop())
	return r, nil
}

// series is a set of managed repetitions and their pooled figures.
type series struct {
	runs                  []managedRun
	wall                  time.Duration
	simsec                float64
	decideMS              []float64
	msPerSimsec           []float64 // wall ms per simulated second, per repetition
	meet, cores           float64
	completed, candidates int64
	degraded              int64
	mallocs               uint64
}

// manageSeries runs the repetitions, counting every decision as an
// operation and every degraded or brownout interval as a failed one: a
// healthy in-process model must never push the scheduler into fallback.
func manageSeries(r *result, app *apps.App, m *core.HybridModel, seed int64, reps int, p *probe) series {
	var s series
	var intervals int
	var meetSum, coresSum float64
	var before, after runtime.MemStats
	for i := 0; i < reps; i++ {
		runtime.ReadMemStats(&before)
		run := manageOnce(app, m, repSeed(seed, i), manageRepSimSec, p)
		runtime.ReadMemStats(&after)
		s.mallocs += after.Mallocs - before.Mallocs
		s.runs = append(s.runs, run)
		s.wall += run.wall
		s.msPerSimsec = append(s.msPerSimsec, ms(run.wall)/manageRepSimSec)
		s.simsec += manageRepSimSec
		s.decideMS = append(s.decideMS, run.decideMS...)
		n := run.res.Meter.Intervals()
		intervals += n
		meetSum += run.res.Meter.MeetProb() * float64(n)
		coresSum += run.res.Meter.MeanAlloc() * float64(n)
		s.completed += run.res.Completed
		snap := run.res.Metrics.Snapshot()
		s.candidates += snap.Counters["sched.candidates.scored"]
		degraded := snap.Counters["run.degraded.intervals"]
		brownout := snap.Counters["run.brownout.intervals"]
		s.degraded += degraded
		r.ops(int64(len(run.decideMS)), degraded+brownout)
		r.log("manage rep %d: decisions %d, degraded %d, brownout %d, digest %s", i, len(run.decideMS), degraded, brownout, run.digest)
	}
	s.meet = meetSum / float64(intervals)
	s.cores = coresSum / float64(intervals)
	return s
}
