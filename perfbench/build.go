package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"sinan/internal/apps"
	"sinan/internal/collect"
	"sinan/internal/dataset"
	"sinan/internal/runner"
)

// The build workload: the paper's model-build pipeline at a fixed size —
// buildSimSec simulated seconds of bandit collection, then the hybrid
// model (buildEpochs CNN epochs plus boosted trees). Its measured phase
// never touches the scheduler, shared inference or the prediction service;
// only the traced run times those on the built model, afterwards.
const (
	warmBuildSimSec = 300 // collection size of the set-up warm-up pipeline
	traceEpochs     = 2   // nn.Train epochs re-run for nn.train_epoch_ms
	latentWidth     = 32  // core.TrainOptions default latent width
	trainBatch      = 256 // core.TrainOptions default batch
	trainLR         = 0.01
)

func runBuild(cfg config) (*result, error) {
	r := newResult(cfg)
	// Set-up warms code and heap with a small copy of the pipeline.
	app, setupS := setup(r, func() (*apps.App, string) {
		app := apps.NewSocialNetwork()
		ds := collectDataset(app, cfg.seed, warmBuildSimSec)
		_, rep := trainModel(app, ds, cfg.seed, 1)
		return app, fmt.Sprintf("%s/%x", datasetDigest(ds), math.Float64bits(rep.ValRMSE))
	})
	start := time.Now()
	ds := collectDataset(app, cfg.seed, buildSimSec)
	collectWall := time.Since(start)
	start = time.Now()
	m, rep := trainModel(app, ds, cfg.seed, buildEpochs)
	trainWall := time.Since(start)
	r.ops(2, 0)

	dsDigest := datasetDigest(ds)
	cfg.logf("build: samples %d, dataset %s, val_rmse %x, bt_val_acc %x, trees %d",
		ds.Len(), dsDigest, math.Float64bits(rep.ValRMSESubQoS), math.Float64bits(rep.ValAcc), rep.NumTrees)
	r.check(ds.Len() == expectedSamples(app, buildSimSec), "dataset has %d samples, want %d", ds.Len(), expectedSamples(app, buildSimSec))
	r.check(rep.ValRMSESubQoS > 0 && rep.ValRMSESubQoS < app.QoSMS, "validation RMSE %v ms outside (0, QoS)", rep.ValRMSESubQoS)
	r.check(rep.ValAcc > 0.5 && rep.ValAcc <= 1, "boosted-tree validation accuracy %v outside (0.5, 1]", rep.ValAcc)
	r.check(m.Pd > 0 && m.Pd < m.Pu && m.Pu < 1, "thresholds pd %v, pu %v out of order", m.Pd, m.Pu)

	cfg.logf("build: collected %.0f simsec/s, trained in %.2f s, val_rmse %.3f ms, bt_val_acc %.4f",
		buildSimSec/collectWall.Seconds(), trainWall.Seconds(), rep.ValRMSESubQoS, rep.ValAcc)
	if !cfg.traced {
		r.set("setup_s", "s", setupS)
		r.set("work_ms", "ms", ms(collectWall)/buildSimSec)
		r.set("op_ms", "ms", ms(trainWall))
		return r, nil
	}

	// Traced collection: the body of collect.Run with the bandit and the
	// stats plane wrapped (collect.Run has no stats-plane seam). It must
	// record exactly the untraced dataset.
	tr := newTracer()
	r.spans = tr
	heap := startHeapPeak()
	p := newProbe(tr, 0)
	pol, _ := wrapPolicy(collect.NewBandit(app, cfg.seed), p)
	traced := dataset.New(collect.DefaultDims(app), lookahead)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.run = tr.begin("run", -1)
	start = time.Now()
	res := runner.Run(runner.Config{
		App: app, Policy: pol, Pattern: sweep(cfg.seed, buildSimSec), Duration: buildSimSec, Seed: cfg.seed,
		Recorder: dataset.NewRecorder(traced, app.QoSMS), Plane: planeFactory(p),
	})
	tracedWall := time.Since(start)
	tr.end(p.run)
	runtime.ReadMemStats(&after)
	r.check(datasetDigest(traced) == dsDigest, "traced collection recorded dataset %s, untraced %s", datasetDigest(traced), dsDigest)
	r.set("tracing_overhead_pct", "%", 100*(tracedWall.Seconds()/collectWall.Seconds()-1))
	setSimLayers(r, tr, buildSimSec, res.Completed, after.Mallocs-before.Mallocs)
	// The training layers on this build's split, then stand-alone figures
	// for the layers the build never calls, on the model it built.
	trainLayers(r, tr, app, m, ds, cfg.seed)
	if err := fillLayers(r, tr, app, m, ds, cfg.seed, cfg.seed, nil); err != nil {
		return nil, err
	}
	r.set("go.heap_peak_mb", "MiB", heap.stop())
	return r, nil
}
