// Command perfbench is the repository's end-to-end benchmark. It runs one
// phase of Sinan's pipeline per workload, from one process, and prints the
// result as one JSON object on the last line of standard output:
//
//	build   bandit collection in the simulator, then hybrid-model training
//	manage  the Sinan scheduler managing a diurnal load in the simulator
//	serve   an open-loop query stream against an in-process predsvc server
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload manage --seed 3 --seconds 10 --trace 0
//
// Every workload prints the same metric names. With --trace 0 they are the
// end-to-end metrics setup_s, work_ms and op_ms, each computed from the
// workload's own phase. With --trace 1 the workload runs once untraced and
// once with timing wrappers around the seams it calls, and the metrics are
// the per-layer figures and the tracing overhead; layers the workload's
// phase does not call are then timed stand-alone on its own model. NOTES.md
// explains the workloads and which layer moves which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: build, manage or serve")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "length of the measured phase in seconds (sets the work size)")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want build, manage or serve)\n", *name)
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *trace == 1, log: stderr}
	res, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	want := endToEnd
	if cfg.traced {
		want = perLayer
	}
	if err := res.hasExactly(want); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if cfg.traced {
		if err := res.spans.writeFile(spanPath(*name, *seed)); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	out, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds int
	traced  bool
	log     io.Writer
}

func (c config) logf(format string, args ...interface{}) {
	fmt.Fprintf(c.log, format+"\n", args...)
}

var workloads = map[string]func(config) (*result, error){
	"build":  runBuild,
	"manage": runManage,
	"serve":  runServe,
}
