package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"

	"sinan/internal/apps"
	"sinan/internal/collect"
	"sinan/internal/core"
	"sinan/internal/dataset"
	"sinan/internal/telemetry"
	"sinan/internal/workload"
)

// Pipeline sizes shared by the workloads.
const (
	buildSimSec = 3000 // simulated seconds of bandit exploration (sinan.Collect's default)
	buildEpochs = 12   // CNN epochs (the repository default)
	lookahead   = 5    // violation horizon K in intervals
	modelSeed   = 1    // seed of the model manage and serve run on
	setupReps   = 3    // set-up runs per benchmark run; setup_s is their median

	// The served model is smaller than the build workload's so that
	// building it setupReps times stays a modest share of a run.
	servedSimSec = 800
	servedEpochs = 6

	sweepMinRPS  = 50 // bandit load sweep range (the Social Network default)
	sweepMaxRPS  = 450
	sweepSegment = 30 // simulated seconds per sweep level
)

// result is one benchmark run: metrics plus the attempted/failed tally of
// every operation and output check.
type result struct {
	attempted, failed int64
	metrics           map[string]metric
	spans             *tracer
	log               func(format string, args ...interface{})
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(cfg config) *result {
	return &result{metrics: map[string]metric{}, log: cfg.logf}
}

// set records a metric. Non-finite values cannot travel in JSON; they are
// recorded as a failed check instead.
func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.check(false, "metric %s is not finite", name)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// layer records a per-layer metric unless it is already set: the
// workload's own traced phase reports first, so its figure wins over a
// stand-alone measurement of the same layer.
func (r *result) layer(name, unit string, v float64) {
	if !r.has(name) {
		r.set(name, unit, v)
	}
}

func (r *result) has(name string) bool {
	_, ok := r.metrics[name]
	return ok
}

// ops counts operations attempted and failed.
func (r *result) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// check counts one output check; a false condition is a failed operation.
func (r *result) check(ok bool, format string, args ...interface{}) {
	r.attempted++
	if !ok {
		r.failed++
		r.log("check failed: "+format, args...)
	}
}

// hasExactly reports an error unless the metrics are exactly names.
func (r *result) hasExactly(names []string) error {
	var missing, extra []string
	for _, n := range names {
		if !r.has(n) {
			missing = append(missing, n)
		}
	}
	for n := range r.metrics {
		if !slices.Contains(names, n) {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra) > 0 {
		return fmt.Errorf("metrics missing %v, unexpected %v", missing, extra)
	}
	return nil
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) summary() summary {
	return summary{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

// setup runs fn setupReps times and returns the last result with the
// median wall time in seconds. Every repetition must produce the same
// digest: set-up is deterministic, so a mismatch is a failed check.
func setup[T any](r *result, fn func() (T, string)) (T, float64) {
	var out T
	var secs []float64
	var first string
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		v, digest := fn()
		secs = append(secs, time.Since(start).Seconds())
		if i == 0 {
			first = digest
		} else {
			r.check(digest == first, "set-up repetition %d digest %s, first %s", i, digest, first)
		}
		out = v
	}
	return out, median(secs)
}

// quantile returns the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return telemetry.ExactQuantile(s, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sweep is the bandit's load: a level in 50–450 rps held for every
// sweepSegment simulated seconds. The levels are spread evenly over the
// range and the seed draws their order, so every seed offers the same load
// mix, and so the same work per simulated second, in a different order.
func sweep(seed int64, simsec float64) workload.Pattern {
	n := int(math.Ceil(simsec / sweepSegment))
	levels := make([]float64, n)
	for i, j := range rand.New(rand.NewSource(seed)).Perm(n) {
		levels[i] = sweepMinRPS + (sweepMaxRPS-sweepMinRPS)*(float64(j)+0.5)/float64(n)
	}
	return sweepPattern(levels)
}

type sweepPattern []float64

// RPS implements workload.Pattern.
func (p sweepPattern) RPS(t float64) float64 {
	return p[min(int(t/sweepSegment), len(p)-1)]
}

// collectDataset is the paper's collection phase: the information-gain
// bandit exploring allocations for simsec simulated seconds.
func collectDataset(app *apps.App, seed int64, simsec float64) *dataset.Dataset {
	return collect.Run(collect.Config{
		App: app, Policy: collect.NewBandit(app, seed), Pattern: sweep(seed, simsec),
		Duration: simsec, Seed: seed, Dims: collect.DefaultDims(app), K: lookahead,
	})
}

// expectedSamples is the dataset size a collection of simsec seconds must
// yield: one sample per interval once the T-step window is full, minus the
// K-interval lookahead still pending at the end.
func expectedSamples(app *apps.App, simsec float64) int {
	d := collect.DefaultDims(app)
	return int(simsec) - (d.T - 1) - lookahead
}

func trainModel(app *apps.App, ds *dataset.Dataset, seed int64, epochs int) (*core.HybridModel, core.TrainReport) {
	return core.TrainHybrid(ds, app.QoSMS, core.TrainOptions{Seed: seed, Epochs: epochs})
}

// servedModel builds the model manage and serve run on, from modelSeed
// whatever the workload seed, and returns it with its training data and a
// digest of its behaviour. The encoded form is no digest: gob output is
// not byte-stable across encodings of one model.
func servedModel(app *apps.App) (*core.HybridModel, *dataset.Dataset, string, error) {
	ds := collectDataset(app, modelSeed, servedSimSec)
	m, _ := trainModel(app, ds, modelSeed, servedEpochs)
	idx := make([]int, 64)
	for i := range idx {
		idx[i] = i
	}
	lat, pv, err := m.PredictBatch(nil, ds.Select(idx).Inputs())
	if err != nil {
		return nil, nil, "", fmt.Errorf("predicting on the training data: %w", err)
	}
	d := newDigest()
	d.floats(lat.Data...)
	d.floats(pv...)
	d.floats(m.RMSEValid, m.Pd, m.Pu)
	return m, ds, d.sum(), nil
}

// digest hashes float64 values bit-exactly.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) floats(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

func datasetDigest(ds *dataset.Dataset) string {
	d := newDigest()
	d.floats(float64(ds.Count))
	d.floats(ds.RH...)
	d.floats(ds.LH...)
	d.floats(ds.RC...)
	d.floats(ds.YLat...)
	for _, v := range ds.YViol {
		if v {
			d.floats(1)
		} else {
			d.floats(0)
		}
	}
	return d.sum()
}

// heapPeak samples the live heap every few milliseconds until stop is
// called, which returns the peak in MiB.
type heapPeak struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) stop() float64 {
	close(h.done)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}
