package cluster_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"sinan/internal/apps"
	"sinan/internal/cluster"
	"sinan/internal/collect"
	"sinan/internal/sim"
	"sinan/internal/workload"
)

// The golden tests pin the simulator's observable behaviour bit for bit:
// any change to the event core must keep event order — and therefore every
// latency, stat, span and dataset — exactly as it was. A legitimate change
// to the model itself updates the constants and says why.

type goldenHash struct{ h hash.Hash }

func newGoldenHash() *goldenHash { return &goldenHash{h: sha256.New()} }

func (g *goldenHash) floats(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		g.h.Write(b[:])
	}
}

func (g *goldenHash) flag(v bool) {
	if v {
		g.floats(1)
	} else {
		g.floats(0)
	}
}

func (g *goldenHash) sum() string { return hex.EncodeToString(g.h.Sum(nil))[:16] }

// goldenRun drives app for 16 simulated seconds with every kind of
// traffic the simulator serves — an open-loop generator, closed-loop users
// and a directly submitted stream whose per-request outcomes are hashed —
// while stalling stallTier every few seconds, changing CPU limits each
// interval, and crashing then restoring two tiers (one of them entirely,
// so its completion leaves the event queue and later comes back, and its
// admission queue overflows).
func goldenRun(t *testing.T, app *apps.App, seed int64, rps float64, stallTier, halfTier, downTier string) string {
	t.Helper()
	for i := range app.Tiers {
		if app.Tiers[i].Name == stallTier {
			app.Tiers[i].StallInterval = 3
			app.Tiers[i].StallBase = 0.2
			app.Tiers[i].StallPerMB = 0.002
		}
		if app.Tiers[i].Name == downTier {
			app.Tiers[i].MaxQueue = 50 // the outage overflows it: drops
		}
	}
	g := newGoldenHash()
	eng := &sim.Engine{}
	cl := cluster.New(eng, sim.NewRNG(seed), app.Tiers)
	spans := &cluster.SpanCollector{}
	cl.EnableTracing(spans, 0.05)

	gen := workload.NewGenerator(cl, app, sim.NewRNG(seed+1), workload.Constant(rps))
	gen.Start()
	users := workload.NewClosedLoop(cl, app, sim.NewRNG(seed+2), 20, 0.05)
	users.Start()

	direct := sim.NewRNG(seed + 3)
	var submit func()
	submit = func() {
		tree := app.Requests[direct.Intn(len(app.Requests))].Tree
		cl.Submit(tree, func(lat float64, dropped bool) {
			g.floats(lat)
			g.flag(dropped)
		})
		eng.After(direct.Exp(1/(0.2*rps)), submit)
	}
	eng.After(0, submit)

	half, down := cl.Tier(halfTier), cl.Tier(downTier)
	eng.At(6.5, func() { half.SetAliveFraction(0.5) })
	eng.At(8.25, func() { down.SetAliveFraction(0) })
	eng.At(10.75, func() { down.SetAliveFraction(1) })
	eng.At(12.5, func() { half.SetAliveFraction(1) })

	alloc := sim.NewRNG(seed + 4)
	for sec := 1; sec <= 16; sec++ {
		eng.Run(float64(sec))
		for i := 0; i < cl.NumTiers(); i++ {
			s := cl.SampleTier(i)
			g.floats(s.CPUUsage, s.CPULimit, s.RSS, s.Cache, s.NetRx, s.NetTx, s.QueueLen, s.Stalled)
		}
		p := gen.FlushWindow()
		g.floats(p.Values[:]...)
		g.floats(float64(p.Count), p.Mean, float64(p.Drops))
		q := users.Window().Flush()
		g.floats(q.Values[:]...)
		g.floats(float64(q.Count), float64(q.Drops))
		g.floats(float64(cl.Completed()), float64(cl.DroppedRequests()))
		// Squeeze a few tiers each interval so queues build and drain.
		for _, tier := range cl.Tiers() {
			if alloc.Float64() < 0.3 {
				cfg := tier.Config()
				tier.SetCPULimit(cfg.MinCPU + alloc.Float64()*(cfg.MaxCPU-cfg.MinCPU)*0.5)
			}
		}
	}
	for _, s := range spans.Spans {
		g.floats(float64(s.Req), s.Enqueue, s.Start, s.End)
		g.h.Write([]byte(s.Tier))
		g.flag(s.Dropped)
	}
	g.floats(float64(len(spans.Spans)), float64(gen.Submitted()), float64(users.Submitted()))
	if cl.DroppedRequests() == 0 {
		t.Fatal("the outage dropped no requests; the run no longer covers admission drops")
	}
	return g.sum()
}

func TestGoldenSocialNetworkRun(t *testing.T) {
	got := goldenRun(t, apps.NewSocialNetwork(apps.WithLogSync()), 11, 320,
		apps.SGraphRedis, apps.SPostStoreMongo, apps.SUserTimeline)
	if want := "d236ca8a037cae72"; got != want {
		t.Fatalf("social network run digest %s, want %s", got, want)
	}
}

func TestGoldenHotelReservationRun(t *testing.T) {
	got := goldenRun(t, apps.NewHotelReservation(), 12, 1500,
		apps.HMongoRate, apps.HMemcProfile, apps.HSearch)
	if want := "101f3b8429921345"; got != want {
		t.Fatalf("hotel reservation run digest %s, want %s", got, want)
	}
}

// TestGoldenCollectDataset pins a bandit collection end to end: the
// simulator feeding the runner, stats plane and recorder.
func TestGoldenCollectDataset(t *testing.T) {
	app := apps.NewSocialNetwork()
	ds := collect.Run(collect.Config{
		App: app, Policy: collect.NewBandit(app, 5),
		Pattern:  collect.SweepPattern{MinRPS: 50, MaxRPS: 450, SegmentLen: 10, Seed: 5},
		Duration: 60, Seed: 5, Dims: collect.DefaultDims(app), K: 5,
	})
	g := newGoldenHash()
	g.floats(float64(ds.Count))
	g.floats(ds.RH...)
	g.floats(ds.LH...)
	g.floats(ds.RC...)
	g.floats(ds.YLat...)
	for _, v := range ds.YViol {
		g.flag(v)
	}
	if got, want := g.sum(), "e269e70fdbc98e53"; got != want {
		t.Fatalf("collected dataset digest %s, want %s", got, want)
	}
}
