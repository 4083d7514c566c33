package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/race"
	"repro/internal/sa"
	"repro/internal/workloads"
	"repro/internal/workloads/corpus"
	"repro/portend"
)

// corpusPerFamily is how many generated programs each corpus family
// contributes to corpus-gen. At 40 the workload holds 495 programs, so
// the few heavy programs a seed draws average out across seeds.
const corpusPerFamily = 40

// program is one labeled submission: PIL source with its run
// coordinates and the expected Portend class of every racy global.
type program struct {
	name, source string
	args, inputs []int64
	truth        map[string]workloads.Expected
}

func fromWorkload(w *workloads.Workload) program {
	return program{name: w.Name, source: w.Source, args: w.Args, inputs: w.Inputs, truth: w.Truth}
}

// target submits the program as source, so every analysis pays the
// front end.
func (p *program) target() portend.Target {
	return portend.Source(p.name, p.source).WithArgs(p.args...).WithInputs(p.inputs...)
}

// compile runs the front end: lang.Parse, then bytecode.Compile.
func (p *program) compile() (*bytecode.Program, error) {
	ast, err := lang.Parse(p.source)
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", p.name, err)
	}
	prog, err := bytecode.Compile(ast, p.name, bytecode.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", p.name, err)
	}
	return prog, nil
}

// batchInputs builds a batch workload's programs. paper-suite is the
// fixed Table 3 set and does not depend on the seed; corpus-gen is the
// curated corpus plus corpusPerFamily generated programs per family at
// the seed.
func batchInputs(workload string, seed uint64) ([]program, error) {
	var out []program
	switch workload {
	case "paper-suite":
		for _, w := range workloads.All() {
			out = append(out, fromWorkload(w))
		}
	case "corpus-gen":
		for _, cp := range corpus.Suite(seed, corpusPerFamily) {
			out = append(out, fromWorkload(cp.Workload))
		}
	default:
		return nil, fmt.Errorf("unknown batch workload %q", workload)
	}
	return out, nil
}

// checker counts attempted and failed verdicts. A verdict fails when
// its class differs from the program's label, when its race failed to
// classify, or when the analysis ended in a terminal error.
type checker struct {
	attempted, failed int
	first             []string // the first few failures, for the log
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.first) < 5 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

func (c *checker) verdict(p *program, v portend.Verdict, err error) {
	c.attempted++
	if err != nil {
		c.fail("%s: %v", p.name, err)
		return
	}
	exp, ok := p.truth[v.Race.Object]
	if !ok {
		c.fail("%s: race on %s has no label", p.name, v.Race.Object)
		return
	}
	if want := portend.Class(exp.Portend.String()); v.Class != want {
		c.fail("%s: race on %s classified %s, label %s", p.name, v.Race.Object, v.Class, want)
	}
}

// measureBatch runs full passes over the programs at the given pool
// width until the run's time is up, and returns the end-to-end metrics.
// Like service-open's traffic, half the submissions are fresh and half
// repeat: each pass builds a new analyzer and submits every program
// twice in a row, the first time fresh, the second as a repeat. Each
// pass visits the programs in a new order drawn from the seed, so that
// garbage collections do not fall on the same programs in every pass.
func measureBatch(ctx context.Context, cfg config, progs []program, chk *checker) (map[string]float64, error) {
	var ttfv, req, fresh, repeat, passRates []float64
	within := 0
	rng := rand.New(rand.NewPCG(cfg.seed, 0xba7c))
	order := make([]int, len(progs))
	for i := range order {
		order[i] = i
	}
	deadline := time.Now().Add(cfg.seconds)
	for pass := 0; pass < 2 || time.Now().Before(deadline); pass++ {
		a := portend.New(portend.WithParallel(cfg.width))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		start, races := time.Now(), 0
		for _, i := range order {
			p := &progs[i]
			for _, kind := range []*[]float64{&fresh, &repeat} {
				t0 := time.Now()
				first := time.Duration(-1)
				for v, err := range a.Analyze(ctx, p.target()) {
					if first < 0 {
						first = time.Since(t0)
					}
					if err == nil {
						races++
					}
					chk.verdict(p, v, err)
				}
				total := time.Since(t0)
				if first < 0 {
					first = total
				}
				ttfv = append(ttfv, ms(first))
				req = append(req, ms(total))
				*kind = append(*kind, ms(total))
				if ms(total) <= cfg.sloMs {
					within++
				}
			}
		}
		passRates = append(passRates, float64(races)/time.Since(start).Seconds())
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"races_per_s":   median(passRates),
		"ttfv_p50_ms":   percentile(ttfv, 50),
		"ttfv_p90_ms":   percentile(ttfv, 90),
		"req_p50_ms":    percentile(req, 50),
		"req_p99_ms":    percentile(req, 99),
		"fresh_p50_ms":  percentile(fresh, 50),
		"repeat_p50_ms": percentile(repeat, 50),
		"slo_frac":      float64(within) / float64(len(req)),
		"peak_rss_mb":   rss,
	}, nil
}

// counts are the deterministic work counters of one pass over a
// program set: at pool width 1 they repeat exactly from run to run.
type counts struct {
	RaceSteps       int64
	Alternates      int64
	PrimaryPaths    int64
	Branches        int64
	PathItemsRun    int64
	PrunedSchedules int64
	TruncatedPaths  int64
	CloneAllocs     int64
	CloneBytes      int64
	FusedOps        int64
	CkptHits        int64
	SymHits         int64
	SibHits         int64
	SolverQueries   int64
	SolverHits      int64
}

func (c *counts) addVerdict(s portend.Stats) {
	c.Alternates += int64(s.Alternates)
	c.PrimaryPaths += int64(s.PrimaryPaths)
	c.Branches += int64(s.Branches)
	c.PathItemsRun += int64(s.PathItemsRun)
	c.PrunedSchedules += int64(s.PrunedSchedules)
	c.TruncatedPaths += int64(s.TruncatedPaths)
	c.CloneAllocs += s.CloneAllocs
	c.CloneBytes += s.CloneBytes
	c.FusedOps += s.FusedOps
	c.CkptHits += int64(s.CheckpointHits)
	c.SymHits += int64(s.SymCheckpointHits)
	c.SibHits += int64(s.SiblingMemoHits)
	c.SolverQueries += int64(s.SolverQueries)
	c.SolverHits += int64(s.SolverCacheHits)
}

// layerSamples collects the per-layer timings of traced passes.
type layerSamples struct {
	compileUs, analyzeUs, detectUs, classifyMs []float64
	execSteps                                  int64
	execTime                                   time.Duration
}

// tracedProgram analyzes one program at pool width 1, calling each
// layer's public entry point itself so that every call is a span: the
// front end (lang.Parse + bytecode.Compile), the static analysis, race
// detection, classification through the portend facade with the static
// facts passed in, and a plain interpretation of the program. Detection
// runs twice — once standalone for the race span and once inside the
// classifier — so the core span includes one detection; detection is
// well under a millisecond per program.
func tracedProgram(ctx context.Context, tr *tracer, p *program, req int, c *counts, ls *layerSamples, chk *checker) error {
	root := tr.begin("request", -1, req)
	defer tr.end(root)

	t0 := time.Now()
	prog, err := p.compile()
	if err != nil {
		return err
	}
	t1 := time.Now()
	tr.add("bytecode.compile", t0, t1, root, req)
	ls.compileUs = append(ls.compileUs, float64(t1.Sub(t0).Nanoseconds())/1e3)

	facts := sa.Analyze(prog)
	t2 := time.Now()
	tr.add("sa.analyze", t1, t2, root, req)
	ls.analyzeUs = append(ls.analyzeUs, float64(t2.Sub(t1).Nanoseconds())/1e3)

	opts := core.DefaultOptions()
	det := race.DetectCtx(ctx, prog, p.args, p.inputs, opts.RunBudget)
	t3 := time.Now()
	tr.add("race.detect", t2, t3, root, req)
	ls.detectUs = append(ls.detectUs, float64(t3.Sub(t2).Nanoseconds())/1e3)
	c.RaceSteps += det.Final.Steps

	opts.Parallel = 1
	opts.StaticFacts = facts
	a := portend.New(portend.WithEngineOptions(opts))
	compiled := portend.Compiled(p.name, prog).WithArgs(p.args...).WithInputs(p.inputs...)
	coreSpan := tr.begin("core", root, req)
	prev := t3
	for v, err := range a.Analyze(ctx, compiled) {
		now := time.Now()
		tr.add("core.classify", prev, now, coreSpan, req)
		ls.classifyMs = append(ls.classifyMs, ms(now.Sub(prev)))
		prev = now
		chk.verdict(p, v, err)
		if err == nil {
			c.addVerdict(v.Stats)
		}
	}
	tr.end(coreSpan)

	t4 := time.Now()
	ex, err := portend.Exec(ctx, compiled, opts.RunBudget)
	if err != nil {
		return fmt.Errorf("%s: exec: %w", p.name, err)
	}
	tr.add("vm.exec", t4, time.Now(), root, req)
	ls.execSteps += ex.Steps
	ls.execTime += ex.Duration
	return nil
}

// tracedPass runs tracedProgram over every program once and returns the
// pass's counts.
func tracedPass(ctx context.Context, tr *tracer, progs []program, reqBase int, ls *layerSamples, chk *checker) (counts, error) {
	var c counts
	for i := range progs {
		if err := tracedProgram(ctx, tr, &progs[i], reqBase+i, &c, ls, chk); err != nil {
			return c, err
		}
	}
	return c, nil
}

// traceBatch is the traced run of a batch workload at pool width 1. It
// alternates untraced and traced passes over the same programs until the
// run's time is up. Count metrics come from the first traced pass, and
// every later traced pass must repeat them exactly.
func traceBatch(ctx context.Context, cfg config, progs []program, chk *checker, tr *tracer) (map[string]float64, error) {
	plain := portend.New(portend.WithParallel(1))
	var ls layerSamples
	var first counts
	var plainPass, tracedPasses []float64
	deadline := time.Now().Add(cfg.seconds)
	for pass := 0; pass < 2 || time.Now().Before(deadline); pass++ {
		start := time.Now()
		if pass%2 == 0 {
			for i := range progs {
				for v, err := range plain.Analyze(ctx, progs[i].target()) {
					chk.verdict(&progs[i], v, err)
				}
			}
			plainPass = append(plainPass, ms(time.Since(start)))
			continue
		}
		c, err := tracedPass(ctx, tr, progs, pass*len(progs), &ls, chk)
		if err != nil {
			return nil, err
		}
		tracedPasses = append(tracedPasses, ms(time.Since(start)))
		if len(tracedPasses) == 1 {
			first = c
		} else if c != first {
			return nil, fmt.Errorf("traced pass %d counts %+v differ from the first traced pass %+v", len(tracedPasses), c, first)
		}
	}
	m := layerMetrics(first, &ls)
	addTraceMetrics(m, tr, len(tracedPasses), median(tracedPasses), median(plainPass))
	return m, nil
}

// addTraceMetrics adds each engine layer's self time per traced pass,
// and the tracing overhead: how much longer a traced pass took than an
// untraced pass over the same programs.
func addTraceMetrics(m map[string]float64, tr *tracer, passes int, tracedMs, plainMs float64) {
	self := tr.selfTimes()
	for _, l := range []string{"bytecode", "sa", "race", "core", "vm"} {
		m[l+".self_ms"] = ms(self[l]) / float64(passes)
	}
	m["trace.overhead_pct"] = 100 * (tracedMs - plainMs) / plainMs
}

// layerMetrics turns one traced pass's counts and the traced timings
// into the per-layer metrics the traced batch and service runs share.
func layerMetrics(c counts, ls *layerSamples) map[string]float64 {
	ratio := 0.0
	if c.SolverQueries > 0 {
		ratio = float64(c.SolverHits) / float64(c.SolverQueries)
	}
	mips := 0.0
	if ls.execTime > 0 {
		mips = float64(ls.execSteps) / (float64(ls.execTime.Nanoseconds()) / 1e3)
	}
	return map[string]float64{
		"bytecode.compile_us":    percentile(ls.compileUs, 50),
		"sa.analyze_us":          percentile(ls.analyzeUs, 50),
		"race.detect_us":         percentile(ls.detectUs, 50),
		"race.steps":             float64(c.RaceSteps),
		"core.classify_p50_ms":   percentile(ls.classifyMs, 50),
		"core.classify_p90_ms":   percentile(ls.classifyMs, 90),
		"core.alternates":        float64(c.Alternates),
		"core.primary_paths":     float64(c.PrimaryPaths),
		"core.branches":          float64(c.Branches),
		"core.path_items_run":    float64(c.PathItemsRun),
		"core.pruned_schedules":  float64(c.PrunedSchedules),
		"core.truncated_paths":   float64(c.TruncatedPaths),
		"vm.clone_allocs":        float64(c.CloneAllocs),
		"vm.clone_bytes":         float64(c.CloneBytes),
		"vm.fused_ops":           float64(c.FusedOps),
		"vm.exec_mips":           mips,
		"ckpt.hits":              float64(c.CkptHits),
		"ckpt.sym_hits":          float64(c.SymHits),
		"ckpt.sibling_memo_hits": float64(c.SibHits),
		"solver.queries":         float64(c.SolverQueries),
		"solver.cache_hits":      float64(c.SolverHits),
		"solver.cache_hit_ratio": ratio,
	}
}
