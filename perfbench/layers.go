package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"time"

	"sinan/internal/apps"
	"sinan/internal/core"
	"sinan/internal/dataset"
	"sinan/internal/lifecycle"
	"sinan/internal/nn"
	"sinan/internal/predsvc"
	"sinan/internal/tensor"
)

// Every workload prints the same metric names: endToEnd with --trace 0 and
// perLayer with --trace 1. Each workload computes the end-to-end figures
// from its own phase alone (NOTES.md lists what work_ms and op_ms time on
// each one).
var endToEnd = []string{"setup_s", "work_ms", "op_ms"}

var perLayer = []string{
	"sim.ms_per_simsec", "sim.requests_per_simsec", "sim.allocs_per_request",
	"statplane.collect_us", "policy.decide_us", "dataset.samples",
	"nn.train_epoch_ms", "boost.train_ms",
	"nn.trunk_ms", "nn.head_us_per_cand", "boost.score_us_per_cand",
	"core.predict_ms", "core.enumerate_select_ms", "core.candidates_per_query",
	"core.queries_per_interval", "core.degraded_intervals",
	"predsvc.overhead_ms", "predsvc.bytes_per_query", "predsvc.shed",
	"lifecycle.gate_ms", "lifecycle.updates_accepted",
	"query.b_min", "query.b_p50", "query.b_max", "query.brownout_share",
	"go.heap_peak_mb", "tracing_overhead_pct",
}

// fillLayers measures every per-layer metric the workload's traced phase
// did not set, by calling that layer's public entry point on the
// workload's own model m, its training data ds (split at trainSeed) and
// the queries captured from its scheduler, if any. It runs after the
// measured phases, so no end-to-end figure includes it. A workload that
// bypasses a layer still reports that layer's cost, and its counts show
// the bypass (NOTES.md says which figures come from where).
func fillLayers(r *result, tr *tracer, app *apps.App, m *core.HybridModel, ds *dataset.Dataset, seed, trainSeed int64, p *probe) error {
	if !r.has("core.predict_ms") {
		// A managed run as long as the one serve captures its queries from.
		p = newProbe(tr, inferenceSamples)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run := manageOnce(app, m, seed, captureSimSec, p)
		runtime.ReadMemStats(&after)
		snap := run.res.Metrics.Snapshot()
		setSimLayers(r, tr, captureSimSec, run.res.Completed, after.Mallocs-before.Mallocs)
		coreLayers(r, tr, snap.Counters["sched.candidates.scored"], snap.Counters["run.degraded.intervals"])
	}
	queryShape(r, p.shapes)
	if !r.has("nn.trunk_ms") {
		inferenceLayers(r, m, p.queries)
	}
	if !r.has("nn.train_epoch_ms") {
		trainLayers(r, tr, app, m, ds, trainSeed)
	}
	if !r.has("predsvc.overhead_ms") {
		svc := predsvc.NewServiceWith(m, predsvc.ServiceOptions{})
		srv, lis, err := serveLoopback(svc)
		if err != nil {
			return err
		}
		c, err := predsvc.Dial(srv.Addr().String())
		if err != nil {
			srv.Close()
			return fmt.Errorf("dialing: %w", err)
		}
		predsvcLayers(r, tr, c, lis, m, p.queries)
		st := svc.StatsSnapshot()
		r.layer("predsvc.shed", "count", float64(st.Shed+st.Expired))
		c.Close()
		srv.Close()
	}
	if !r.has("lifecycle.gate_ms") {
		_, holdout := ds.Split(0.9, trainSeed)
		gate, err := lifecycle.NewGate(lifecycle.GateConfig{Holdout: holdout})
		if err != nil {
			return err
		}
		gateLayers(r, tr, gate, m)
	}
	r.layer("lifecycle.updates_accepted", "count", 0)
	return nil
}

// setSimLayers reports the simulator's share of a traced series: wall time
// outside Decide and the stats plane, per simulated second, plus request
// and allocation counts, and the per-interval cost of both seams.
func setSimLayers(r *result, tr *tracer, simsec float64, completed int64, mallocs uint64) {
	simMS := 0.0
	for _, v := range tr.selfMS("run", "decide", "statplane.collect") {
		simMS += v
	}
	r.layer("sim.ms_per_simsec", "ms", simMS/simsec)
	r.layer("sim.requests_per_simsec", "count", float64(completed)/simsec)
	r.layer("sim.allocs_per_request", "count", float64(mallocs)/float64(completed))
	r.layer("statplane.collect_us", "us", 1000*median(tr.durations("statplane.collect")))
	r.layer("policy.decide_us", "us", 1000*median(tr.durations("decide")))
}

// coreLayers splits the scheduler's traced decisions into the model query
// and the rest (candidate enumeration and selection).
func coreLayers(r *result, tr *tracer, candidates, degraded int64) {
	predicts := tr.durations("predict")
	decides := tr.durations("decide")
	if len(predicts) == 0 {
		r.check(false, "the scheduler issued no model queries")
		return
	}
	r.layer("core.predict_ms", "ms", median(predicts))
	r.layer("core.enumerate_select_ms", "ms", median(tr.selfMS("decide", "predict")))
	r.layer("core.candidates_per_query", "count", float64(candidates)/float64(len(predicts)))
	r.layer("core.queries_per_interval", "count", float64(len(predicts))/float64(len(decides)))
	r.layer("core.degraded_intervals", "count", float64(degraded))
}

// trainLayers times the two training stages alone on the model's own
// split: nn.Train for traceEpochs epochs with TrainHybrid's configuration,
// and core.RebuildHybrid refitting the boosted trees on the trained CNN.
func trainLayers(r *result, tr *tracer, app *apps.App, m *core.HybridModel, ds *dataset.Dataset, seed int64) {
	train, _ := ds.Split(0.9, seed)
	cnn := nn.NewLatencyCNN(rand.New(rand.NewSource(seed)), ds.D, latentWidth)
	id := tr.begin("nn.train", -1)
	nn.Train(cnn, train.Inputs(), train.Targets(), nn.TrainConfig{
		Epochs: traceEpochs, Batch: trainBatch, LR: trainLR, QoSMS: app.QoSMS, Seed: seed,
	})
	tr.end(id)
	id = tr.begin("boost.train", -1)
	rebuilt := core.RebuildHybrid(m.Lat, ds, app.QoSMS)
	tr.end(id)
	r.check(rebuilt.Viol.NumTrees() > 0, "RebuildHybrid grew no trees")
	r.layer("dataset.samples", "count", float64(ds.Len()))
	r.layer("nn.train_epoch_ms", "ms", tr.total("nn.train")/traceEpochs)
	r.layer("boost.train_ms", "ms", tr.total("boost.train"))
}

// inferenceLayers times the model's parts on captured scheduler queries:
// the CNN at B=1 (the trunk plus one head row), the CNN at full width (the
// extra head rows), and the hybrid model (the boosted-tree scoring on top).
func inferenceLayers(r *result, m *core.HybridModel, qs []capturedQuery) {
	nctx := nn.NewContext()
	pctx := core.NewPredictContext()
	n := m.D.N
	var trunk, head, score []float64
	timeIt := func(fn func()) time.Duration {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	for i, q := range qs[:min(len(qs), inferenceSamples)] {
		b := q.in.Batch()
		if b < 2 {
			continue
		}
		one := nn.SharedInputs{RH: q.in.RH, LH: q.in.LH, RC: tensor.FromSlice(q.in.RC.Data[:n], 1, n)}
		if i == 0 { // size the contexts before timing
			m.Lat.PredictSharedCtx(nctx, q.in)
			m.PredictShared(pctx, q.in)
		}
		t1 := timeIt(func() { m.Lat.PredictSharedCtx(nctx, one) })
		tb := timeIt(func() { m.Lat.PredictSharedCtx(nctx, q.in) })
		th := timeIt(func() {
			if _, _, err := m.PredictShared(pctx, q.in); err != nil {
				r.check(false, "in-process PredictShared: %v", err)
			}
		})
		trunk = append(trunk, ms(t1))
		head = append(head, 1000*ms(tb-t1)/float64(b-1))
		score = append(score, 1000*ms(th-tb)/float64(b))
	}
	if len(trunk) == 0 {
		r.check(false, "no captured query with more than one candidate")
		return
	}
	r.layer("nn.trunk_ms", "ms", median(trunk))
	r.layer("nn.head_us_per_cand", "us", median(head))
	r.layer("boost.score_us_per_cand", "us", median(score))
}

// predsvcLayers measures, closed loop from client c, what the RPC adds to
// an in-process prediction of the same query, and the bytes a query moves
// through the server's listener lis.
func predsvcLayers(r *result, tr *tracer, c *predsvc.Client, lis *countingListener, m *core.HybridModel, qs []capturedQuery) {
	ctx := core.NewPredictContext()
	var overhead []float64
	bytesBefore := lis.bytes.Load()
	n := min(len(qs), inferenceSamples)
	for _, q := range qs[:n] {
		start := time.Now()
		if _, _, err := c.PredictShared(nil, q.in); err != nil {
			r.check(false, "closed-loop query: %v", err)
			return
		}
		mid := time.Now()
		if _, _, err := m.PredictShared(ctx, q.in); err != nil {
			r.check(false, "in-process query: %v", err)
			return
		}
		end := time.Now()
		tr.add("rpc.closed", -1, start, mid)
		tr.add("inprocess", -1, mid, end)
		overhead = append(overhead, ms(mid.Sub(start))-ms(end.Sub(mid)))
	}
	if n == 0 {
		r.check(false, "no captured queries to send")
		return
	}
	r.layer("predsvc.overhead_ms", "ms", median(overhead))
	r.layer("predsvc.bytes_per_query", "bytes", float64(lis.bytes.Load()-bytesBefore)/float64(n))
}

// gateLayers times the lifecycle gate validating the model against itself
// on its pinned holdout; the gate must accept it.
func gateLayers(r *result, tr *tracer, gate *lifecycle.Gate, m *core.HybridModel) {
	for i := 0; i < 5; i++ {
		id := tr.begin("lifecycle.gate", -1)
		_, err := gate.Validate(m, m)
		tr.end(id)
		r.check(err == nil, "gate rejected the model against itself: %v", err)
	}
	r.layer("lifecycle.gate_ms", "ms", median(tr.durations("lifecycle.gate")))
}

// queryShape records the captured queries' batch sizes and the share issued
// at a brownout level above 0, so a claim that depends on batch size can
// quote them.
func queryShape(r *result, shapes []qshape) {
	if len(shapes) == 0 {
		r.check(false, "no model queries recorded")
		return
	}
	var bs []float64
	brown := 0
	for _, s := range shapes {
		bs = append(bs, float64(s.b))
		if s.brownout > 0 {
			brown++
		}
	}
	sort.Float64s(bs)
	r.layer("query.b_min", "count", bs[0])
	r.layer("query.b_p50", "count", median(bs))
	r.layer("query.b_max", "count", bs[len(bs)-1])
	r.layer("query.brownout_share", "fraction", float64(brown)/float64(len(bs)))
}

// serveLoopback serves svc on a loopback port through a countingListener.
func serveLoopback(svc *predsvc.Service) (*predsvc.Server, *countingListener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("listening on loopback: %w", err)
	}
	lis := &countingListener{Listener: l}
	srv, err := predsvc.Serve(lis, svc)
	if err != nil {
		l.Close()
		return nil, nil, fmt.Errorf("serving: %w", err)
	}
	return srv, lis, nil
}
