package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sinan/internal/cluster"
	"sinan/internal/core"
	"sinan/internal/nn"
	"sinan/internal/runner"
	"sinan/internal/statplane"
	"sinan/internal/telemetry"
	"sinan/internal/tensor"
)

// span is one timed call at a layer boundary. Parent is the span that
// caused it (-1 for a root).
type span struct {
	ID, Parent int32
	Name       string
	Start, End time.Duration // since the tracer started
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing, which is how untraced runs use the same
// wrappers at the cost of one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured by the caller.
func (t *tracer) add(name string, parent int32, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
}

// durations returns the wall time of every finished span called name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// selfMS returns, for every finished span called name that has at least
// one child named in children, its duration minus the time those children
// cover (children of one span never overlap: the traced loops are serial).
func (t *tracer) selfMS(name string, children ...string) []float64 {
	isChild := map[string]bool{}
	for _, c := range children {
		isChild[c] = true
	}
	covered := map[int32]time.Duration{}
	for _, s := range t.spans {
		if isChild[s.Name] && s.Parent >= 0 && s.End >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range t.spans {
		if c, ok := covered[s.ID]; ok && s.Name == name && s.End >= 0 {
			out = append(out, ms(s.End-s.Start-c))
		}
	}
	return out
}

// total returns the summed duration of every finished span called name, in ms.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

func spanPath(workload string, seed int64) string {
	return filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}

// writeFile writes the spans as JSON lines (times in microseconds).
func (t *tracer) writeFile(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID      int32   `json:"id"`
		Parent  int32   `json:"parent"`
		Name    string  `json:"name"`
		StartUS float64 `json:"start_us"`
		EndUS   float64 `json:"end_us"`
	}
	for _, s := range t.spans {
		if err := enc.Encode(line{s.ID, s.Parent, s.Name, float64(s.Start) / 1e3, float64(s.End) / 1e3}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probe is the state the wrappers of one managed run share: the tracer,
// the enclosing span ids, and the captured model queries.
type probe struct {
	tr       *tracer
	run      int32 // span of the runner.Run in progress
	decide   int32 // span of the Decide in progress (-1 outside Decide)
	captureN int   // copy up to this many model queries into queries
	queries  []capturedQuery
	shapes   []qshape // of every model query, captured or not
	lastB    int      // batch size of the latest model query
}

func newProbe(tr *tracer, captureN int) *probe {
	return &probe{tr: tr, run: -1, decide: -1, captureN: captureN}
}

// capturedQuery is a deep copy of one PredictShared query.
type capturedQuery struct{ in nn.SharedInputs }

// qshape is the batch size of one model query and the brownout level of
// the decision that issued it.
type qshape struct{ b, brownout int }

// query records a model query of batch size b.
func (p *probe) query(b int) {
	p.lastB = b
	p.shapes = append(p.shapes, qshape{b: b})
}

func copyShared(in nn.SharedInputs) nn.SharedInputs {
	cp := func(t *tensor.Dense) *tensor.Dense {
		return tensor.FromSlice(append([]float64(nil), t.Data...), append([]int(nil), t.Shape...)...)
	}
	return nn.SharedInputs{RH: cp(in.RH), LH: cp(in.LH), RC: cp(in.RC)}
}

// policyTimer times every Decide. Wrap it with wrapPolicy, which keeps the
// inner policy's optional interfaces visible to the runner.
type policyTimer struct {
	runner.Policy
	p        *probe
	decideMS []float64
}

func (w *policyTimer) Decide(s runner.State) runner.Decision {
	id := w.p.tr.begin("decide", w.p.run)
	w.p.decide = id
	firstQuery := len(w.p.shapes)
	start := time.Now()
	d := w.Policy.Decide(s)
	w.decideMS = append(w.decideMS, ms(time.Since(start)))
	w.p.tr.end(id)
	w.p.decide = -1
	for i := firstQuery; i < len(w.p.shapes); i++ {
		w.p.shapes[i].brownout = d.Brownout
	}
	return d
}

// wrapPolicy returns the timed policy and its timer. The runner attaches
// the per-run telemetry registry to a policy that implements
// telemetry.Attacher, so the wrapper forwards it when the inner one has it.
func wrapPolicy(pol runner.Policy, p *probe) (runner.Policy, *policyTimer) {
	w := &policyTimer{Policy: pol, p: p}
	if a, ok := pol.(telemetry.Attacher); ok {
		return struct {
			*policyTimer
			telemetry.Attacher
		}{w, a}, w
	}
	return w, w
}

// planeTimer times every stats-plane Collect.
type planeTimer struct {
	statplane.Plane
	p *probe
}

func (w *planeTimer) Collect(interval int64, now float64) statplane.IntervalState {
	id := w.p.tr.begin("statplane.collect", w.p.run)
	st := w.Plane.Collect(interval, now)
	w.p.tr.end(id)
	return st
}

// planeFactory builds the runner's default in-process stats plane (no
// fault gate) wrapped in a planeTimer that forwards telemetry.Attacher.
func planeFactory(p *probe) func(*cluster.Cluster, statplane.GatewaySource) statplane.Plane {
	return func(cl *cluster.Cluster, gw statplane.GatewaySource) statplane.Plane {
		var inner statplane.Plane = statplane.NewInProcess(statplane.Config{
			Sampler: cl, NumTiers: cl.NumTiers(), Gateway: gw, IntervalSec: runner.Interval,
		})
		w := &planeTimer{Plane: inner, p: p}
		if a, ok := inner.(telemetry.Attacher); ok {
			return struct {
				*planeTimer
				telemetry.Attacher
			}{w, a}
		}
		return w
	}
}

// predictorTimer times every model query of a scheduler.
type predictorTimer struct {
	inner core.Predictor
	p     *probe
}

func (w *predictorTimer) Meta() core.ModelMeta { return w.inner.Meta() }

func (w *predictorTimer) PredictBatch(ctx *core.PredictContext, in nn.Inputs) (*tensor.Dense, []float64, error) {
	id := w.p.tr.begin("predict", w.p.decide)
	defer w.p.tr.end(id)
	w.p.query(in.Batch())
	return w.inner.PredictBatch(ctx, in)
}

// sharedForward keeps core.SharedPredictor visible through the wrapper:
// without it the scheduler would expand every query B-fold and the
// benchmark would measure a different program.
type sharedForward struct {
	w  *predictorTimer
	sp core.SharedPredictor
}

func (f sharedForward) PredictShared(ctx *core.PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error) {
	p := f.w.p
	if len(p.queries) < p.captureN {
		p.queries = append(p.queries, capturedQuery{in: copyShared(in)})
	}
	p.query(in.Batch())
	id := p.tr.begin("predict", p.decide)
	defer p.tr.end(id)
	return f.sp.PredictShared(ctx, in)
}

// costForward keeps core.CostReporter visible through the wrapper (the
// brownout ladder reads it).
type costForward struct{ core.CostReporter }

// wrapPredictor returns inner wrapped in a predictorTimer that implements
// exactly the optional interfaces inner implements.
func wrapPredictor(inner core.Predictor, p *probe) core.Predictor {
	w := &predictorTimer{inner: inner, p: p}
	sp, shared := inner.(core.SharedPredictor)
	cr, cost := inner.(core.CostReporter)
	switch {
	case shared && cost:
		return struct {
			*predictorTimer
			sharedForward
			costForward
		}{w, sharedForward{w, sp}, costForward{cr}}
	case shared:
		return struct {
			*predictorTimer
			sharedForward
		}{w, sharedForward{w, sp}}
	case cost:
		return struct {
			*predictorTimer
			costForward
		}{w, costForward{cr}}
	}
	return w
}
