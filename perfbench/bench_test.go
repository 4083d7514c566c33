package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// TestTracedCountsRepeat is the count check: at pool width 1, two traced
// runs of the same workload and seed report identical per-layer counts.
func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every corpus-gen program twice")
	}
	countMetrics := []string{
		"race.steps", "core.alternates", "core.primary_paths", "core.branches",
		"core.path_items_run", "core.pruned_schedules", "core.truncated_paths",
		"solver.queries", "solver.cache_hits", "ckpt.hits", "ckpt.sym_hits",
		"ckpt.sibling_memo_hits", "vm.clone_allocs", "vm.clone_bytes", "vm.fused_ops",
	}
	for _, w := range []string{"paper-suite", "corpus-gen"} {
		t.Run(w, func(t *testing.T) {
			var runs [2]*result
			for i := range runs {
				cfg := config{workload: w, seed: 6, seconds: time.Millisecond, trace: true,
					rate: 1, sloMs: 1, width: 1, workdir: t.TempDir()}
				res, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("run %d: %d of %d verdicts failed", i, res.Failed, res.Attempted)
				}
				runs[i] = res
			}
			for _, name := range countMetrics {
				a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value
				if a != b {
					t.Errorf("%s: %v then %v", name, a, b)
				}
			}
			if runs[0].Metrics["race.steps"].Value == 0 {
				t.Error("race.steps is 0")
			}
		})
	}
}

// TestDeclarationsMatchBenchmarkJSON keeps the metric names and units
// the command reports in step with the repository's BENCHMARK.json.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []decl) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, d := range want {
			w = append(w, d.name+" "+d.unit)
		}
		if !slices.Equal(g, w) {
			t.Errorf("%s: BENCHMARK.json has %v, the command reports %v", kind, g, w)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, c.p); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("request", at(0), at(10), -1, 0)
	c := tr.add("core", at(2), at(8), root, 0)
	tr.add("core.classify", at(2), at(5), c, 0)
	tr.add("vm.exec", at(7), at(9), root, 0)
	self := tr.selfTimes()
	want := map[string]time.Duration{"request": 3 * time.Millisecond, "core": 6 * time.Millisecond, "vm": 2 * time.Millisecond}
	for l, d := range want {
		if self[l] != d {
			t.Errorf("%s self = %v, want %v", l, self[l], d)
		}
	}
}
