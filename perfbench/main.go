// Command perfbench is the repository benchmark. It runs one named
// workload against the program from outside — the batch workloads
// through the public portend facade, service-open through portendd's
// HTTP API — checks every verdict, and prints one JSON line of metrics.
//
//	perfbench --workload paper-suite|corpus-gen|service-open --seed N
//	          --seconds S --trace 0|1 [--rate R] [--slo-ms L]
//	          [--portendd PATH] [--workdir DIR]
//
// --trace 0 reports the end-to-end metrics at the default pool width;
// --trace 1 is a separate run at pool width 1 that records spans around
// each layer's public entry points, writes them under the work dir, and
// reports the per-layer metrics. run.py builds this command and portendd
// from source and runs it; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	rate     float64 // service-open requests per second
	sloMs    float64 // latency limit for slo_frac
	width    int     // default pool width and connection count
	portendd string
	workdir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records metric values, taking each unit from the declarations.
func (r *result) set(vals map[string]float64) {
	for name, v := range vals {
		unit, ok := units[name]
		if !ok {
			panic("undeclared metric " + name)
		}
		r.Metrics[name] = metric{Value: v, Unit: unit}
	}
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "paper-suite, corpus-gen or service-open")
	flag.Uint64Var(&cfg.seed, "seed", 6, "workload seed (held-out seed for confirming claims: 11)")
	flag.IntVar(&seconds, "seconds", 10, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.Float64Var(&cfg.rate, "rate", 50, "service-open request rate (1/s)")
	flag.Float64Var(&cfg.sloMs, "slo-ms", 140, "latency limit counted by slo_frac (ms)")
	flag.StringVar(&cfg.portendd, "portendd", ".bench_build/bin/portendd", "portendd binary")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for traces and service data")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.width = min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(cfg.width)

	// A run that hangs fails instead of outliving its time limit.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.seconds+2*time.Minute)
	res, err := run(ctx, cfg)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run and returns its output line.
func run(ctx context.Context, cfg config) (*result, error) {
	if cfg.seconds <= 0 || cfg.rate <= 0 || cfg.sloMs <= 0 {
		return nil, fmt.Errorf("--seconds, --rate and --slo-ms must be positive")
	}
	res := &result{Metrics: map[string]metric{}}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	switch cfg.workload {
	case "paper-suite", "corpus-gen":
		if err := runBatch(ctx, cfg, tr, res); err != nil {
			return nil, err
		}
	case "service-open":
		if err := runService(ctx, cfg, tr, res); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if tr != nil {
		path, err := tr.write(filepath.Join(cfg.workdir, "traces"), fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintln(os.Stderr, "spans written to", path)
	}

	want := endToEnd
	if cfg.trace {
		want = perLayer
		// Layers a workload does not load report 0.
		for _, d := range perLayer {
			if _, ok := res.Metrics[d.name]; !ok {
				res.set(map[string]float64{d.name: 0})
			}
		}
	}
	for _, d := range want {
		m, ok := res.Metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no verdict was checked")
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(os.Stderr, "%s seed %d: %d/%d checked ok, fail_frac %.4f\n",
		cfg.workload, cfg.seed, res.Attempted-res.Failed, res.Attempted, float64(res.Failed)/float64(res.Attempted))
	return res, nil
}

// runBatch runs paper-suite or corpus-gen: set-up builds and compiles
// the programs (setupReps times), then the measured or traced passes run.
func runBatch(ctx context.Context, cfg config, tr *tracer, res *result) error {
	var progs []program
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if progs, err = batchInputs(cfg.workload, cfg.seed); err != nil {
			return err
		}
		for i := range progs {
			if _, err := progs[i].compile(); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	chk := &checker{}
	var m map[string]float64
	var err error
	if cfg.trace {
		m, err = traceBatch(ctx, cfg, progs, chk, tr)
	} else {
		m, err = measureBatch(ctx, cfg, progs, chk)
		if m != nil {
			m["setup_s"] = median(setups)
		}
	}
	for _, f := range chk.first {
		fmt.Fprintln(os.Stderr, "check:", f)
	}
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = chk.attempted, chk.failed
	res.set(m)
	return nil
}
