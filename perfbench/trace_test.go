package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"sinan/internal/apps"
	"sinan/internal/cluster"
	"sinan/internal/collect"
	"sinan/internal/core"
	"sinan/internal/nn"
	"sinan/internal/runner"
	"sinan/internal/sim"
	"sinan/internal/telemetry"
	"sinan/internal/tensor"
)

// costPredictor is a predictor with every optional interface the scheduler
// looks for.
type costPredictor struct{ *core.HybridModel }

func (costPredictor) LastPredictMS() float64 { return 1 }

// batchOnly hides the model's shared path.
type batchOnly struct{ m *core.HybridModel }

func (b batchOnly) PredictBatch(ctx *core.PredictContext, in nn.Inputs) (*tensor.Dense, []float64, error) {
	return b.m.PredictBatch(ctx, in)
}
func (b batchOnly) Meta() core.ModelMeta { return b.m.Meta() }

func smallModel(t *testing.T) (*apps.App, *core.HybridModel) {
	t.Helper()
	app := apps.NewSocialNetwork()
	ds := collectDataset(app, 7, 300)
	m, _ := trainModel(app, ds, 7, 1)
	return app, m
}

func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	app, m := smallModel(t)
	p := newProbe(nil, 0)
	for _, tc := range []struct {
		name         string
		inner        core.Predictor
		shared, cost bool
	}{
		{"hybrid", m, true, false},
		{"shared+cost", costPredictor{m}, true, true},
		{"batch-only", batchOnly{m}, false, false},
	} {
		w := wrapPredictor(tc.inner, p)
		if _, ok := w.(core.SharedPredictor); ok != tc.shared {
			t.Errorf("%s: wrapper SharedPredictor = %v, want %v", tc.name, ok, tc.shared)
		}
		if _, ok := w.(core.CostReporter); ok != tc.cost {
			t.Errorf("%s: wrapper CostReporter = %v, want %v", tc.name, ok, tc.cost)
		}
	}
	if pol, _ := wrapPolicy(core.NewScheduler(app, m, core.SchedulerOptions{}), p); !isAttacher(pol) {
		t.Error("wrapped scheduler lost telemetry.Attacher")
	}
	if pol, _ := wrapPolicy(collect.NewBandit(app, 1), p); isAttacher(pol) {
		t.Error("wrapped bandit gained telemetry.Attacher")
	}
	cl := cluster.New(&sim.Engine{}, sim.NewRNG(1), app.Tiers)
	if !isAttacher(planeFactory(p)(cl, nil)) {
		t.Error("wrapped stats plane lost telemetry.Attacher")
	}
}

func isAttacher(v interface{}) bool {
	_, ok := v.(telemetry.Attacher)
	return ok
}

// TestTracedManageMatchesUntraced pins that tracing changes nothing the
// scheduler does: the per-interval allocation trace and every
// deterministic sched.* instrument are identical with and without the
// wrappers, and queries still take the shared path (window + B·N floats).
func TestTracedManageMatchesUntraced(t *testing.T) {
	app, m := smallModel(t)
	const simsec, seed = 120, 3
	plain := manageOnce(app, m, seed, simsec, newProbe(nil, 0))
	p := newProbe(newTracer(), 10)
	traced := manageOnce(app, m, seed, simsec, p)

	if plain.digest != traced.digest {
		t.Errorf("decision trace digest: traced %s, untraced %s", traced.digest, plain.digest)
	}
	if len(plain.res.Trace) != len(traced.res.Trace) {
		t.Fatalf("trace length: traced %d, untraced %d", len(traced.res.Trace), len(plain.res.Trace))
	}
	for i, row := range plain.res.Trace {
		if !sameAlloc(row, traced.res.Trace[i]) {
			t.Fatalf("interval %d allocation: traced %v, untraced %v", i, traced.res.Trace[i].Alloc, row.Alloc)
		}
	}
	if a, b := schedCounters(plain.res), schedCounters(traced.res); a != b {
		t.Errorf("sched.* instruments differ:\ntraced   %s\nuntraced %s", b, a)
	}

	predicts := p.tr.durations("predict")
	if len(predicts) == 0 || p.lastB == 0 {
		t.Fatal("the traced run issued no model queries")
	}
	d := m.D
	want := float64(d.F*d.N*d.T + d.T*d.M + p.lastB*d.N)
	got := traced.res.Metrics.Snapshot().Gauges["sched.predict.payload_floats"]
	if got != want {
		t.Errorf("sched.predict.payload_floats = %v, want window + B·N = %v (B=%d)", got, want, p.lastB)
	}
	if n := len(p.tr.durations("statplane.collect")); n != simsec {
		t.Errorf("traced %d stats-plane collections, want %d", n, simsec)
	}
	if n := len(p.tr.durations("decide")); n != simsec {
		t.Errorf("traced %d decisions, want %d", n, simsec)
	}
}

func sameAlloc(a, b runner.TraceRow) bool {
	if len(a.Alloc) != len(b.Alloc) {
		return false
	}
	for i := range a.Alloc {
		if a.Alloc[i] != b.Alloc[i] {
			return false
		}
	}
	return true
}

// TestServePhase drives a short open-loop phase with updates and a short
// saturation phase against a loopback server from both connections at
// once (run it under -race): every reply must match the in-process answer
// and every update must pass the gate.
func TestServePhase(t *testing.T) {
	app := apps.NewSocialNetwork()
	ds := collectDataset(app, 7, 300)
	m, _ := trainModel(app, ds, 7, 1)
	s, _, err := serveSetup(app, m, ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	order := make([]int, len(s.queries))
	for i := range order {
		order[i] = i
	}
	for _, tc := range []struct {
		name   string
		rate   float64
		writes int
	}{{"open", 200, 2}, {"saturate", 0, 0}} {
		ph := s.phase(tc.name, tc.rate, 600*time.Millisecond, tc.writes, order, 0, newTracer())
		if len(ph.latMS) == 0 || ph.errors != 0 || ph.mismatches != 0 {
			t.Errorf("%s: %d requests, %d errors, %d mismatched replies", tc.name, len(ph.latMS), ph.errors, ph.mismatches)
		}
		if len(ph.updateMS) != tc.writes || ph.rejected != 0 {
			t.Errorf("%s: %d updates (%d rejected), want %d accepted", tc.name, len(ph.updateMS), ph.rejected, tc.writes)
		}
	}
}

// TestMetricNamesMatchManifest pins the metric lists the workloads must
// print to the ones BENCHMARK.json declares.
func TestMetricNamesMatchManifest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind string
		got  []string
		want []struct{ Name string }
	}{{"end_to_end", endToEnd, manifest.EndToEnd}, {"per_layer", perLayer, manifest.PerLayer}} {
		var want []string
		for _, m := range tc.want {
			want = append(want, m.Name)
		}
		if !slices.Equal(tc.got, want) {
			t.Errorf("%s: the benchmark prints %v, BENCHMARK.json declares %v", tc.kind, tc.got, want)
		}
	}
}

// TestFillLayersCoversEveryLayer checks that the stand-alone measurements
// alone yield every per-layer metric except the two each workload sets
// itself, so a workload that bypasses a layer still reports it.
func TestFillLayersCoversEveryLayer(t *testing.T) {
	app := apps.NewSocialNetwork()
	ds := collectDataset(app, 7, 300)
	m, _ := trainModel(app, ds, 7, 1)
	r := newResult(config{log: io.Discard})
	if err := fillLayers(r, newTracer(), app, m, ds, 3, 7, nil); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Errorf("%d of %d checks failed", r.failed, r.attempted)
	}
	r.set("go.heap_peak_mb", "MiB", 1)
	r.set("tracing_overhead_pct", "%", 0)
	if err := r.hasExactly(perLayer); err != nil {
		t.Error(err)
	}
}
