package workload

import (
	"testing"

	"sinan/internal/apps"
	"sinan/internal/cluster"
	"sinan/internal/sim"
)

// maxAllocsPerRequest bounds what one request may allocate in a
// steady-state simulated second: events are heap values, each tier moves
// one completion slot in place, stage frames come from the cluster's free
// list, and the generator's callbacks are bound once. The steady state
// makes well under one allocation per request (slice growth only); a
// closure-per-callback core made about 77.
const maxAllocsPerRequest = 5

func TestSimulatedSecondAllocs(t *testing.T) {
	app := apps.NewSocialNetwork()
	eng := &sim.Engine{}
	cl := cluster.New(eng, sim.NewRNG(1), app.Tiers)
	gen := NewGenerator(cl, app, sim.NewRNG(2), Constant(300))
	gen.Start()
	// Warm up: free lists, heaps, queues and the latency window reach their
	// working size.
	horizon := 5.0
	eng.Run(horizon)
	gen.FlushWindow()

	const runs = 10
	before := gen.Submitted()
	allocs := testing.AllocsPerRun(runs, func() {
		horizon++ // one simulated second per run
		eng.Run(horizon)
		gen.FlushWindow()
	})
	// AllocsPerRun makes one extra, unmeasured run first.
	perSec := float64(gen.Submitted()-before) / (runs + 1)
	if perSec < 250 {
		t.Fatalf("only %.0f requests per simulated second; the guard needs ~300", perSec)
	}
	if perReq := allocs / perSec; perReq > maxAllocsPerRequest {
		t.Fatalf("a simulated second allocates %.0f objects, %.2f per request; want at most %d",
			allocs, perReq, maxAllocsPerRequest)
	}
}
