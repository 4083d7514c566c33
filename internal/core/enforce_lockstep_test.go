package core_test

import (
	"reflect"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/race"
	"repro/internal/workloads"
	"repro/internal/workloads/corpus"
)

// TestEnforcementFusedMatchesUnfused runs the alternate-ordering
// enforcement of every race in the paper workloads and the curated
// corpus twice: on the normal compile, where fused superinstructions
// dispatch under SpinTrack, and on a NoFuse compile. Outcome, steps,
// completion, spin diagnosis (shared reads included) and final shared
// memory must all match.
func TestEnforcementFusedMatchesUnfused(t *testing.T) {
	ws := workloads.All()
	for _, cp := range corpus.Curated() {
		ws = append(ws, cp.Workload)
	}
	budget := core.DefaultOptions().RunBudget
	enforced, looping, fusedOps := 0, 0, 0
	for _, w := range ws {
		fused := w.Compile()
		plain := bytecode.MustCompile(w.Source, w.Name, bytecode.Options{NoFuse: true})
		fusedOps += fused.FusedCount()
		fdet := race.Detect(fused, w.Args, w.Inputs, budget)
		pdet := race.Detect(plain, w.Args, w.Inputs, budget)
		if len(fdet.Reports) != len(pdet.Reports) {
			t.Fatalf("%s: %d races fused, %d unfused", w.Name, len(fdet.Reports), len(pdet.Reports))
		}
		for i, frep := range fdet.Reports {
			prep := pdet.Reports[i]
			if frep.ID() != prep.ID() {
				t.Fatalf("%s race %d: %s fused, %s unfused", w.Name, i, frep.ID(), prep.ID())
			}
			fp, err := core.ProbeEnforcement(fused, frep, fdet.Trace)
			if err != nil {
				t.Fatalf("%s %s fused: %v", w.Name, frep.ID(), err)
			}
			pp, err := core.ProbeEnforcement(plain, prep, pdet.Trace)
			if err != nil {
				t.Fatalf("%s %s unfused: %v", w.Name, prep.ID(), err)
			}
			if !reflect.DeepEqual(fp, pp) {
				t.Errorf("%s %s: enforcement diverges\nfused:   %+v\nunfused: %+v", w.Name, frep.ID(), fp, pp)
			}
			enforced++
			if fp.Diag.Looping {
				looping++
			}
		}
	}
	if enforced < 100 || looping == 0 || fusedOps == 0 {
		t.Fatalf("lockstep covered %d races (%d spin timeouts) over %d superinstructions; want the whole paper suite and curated corpus",
			enforced, looping, fusedOps)
	}
	t.Logf("%d races enforced, %d diagnosed as spinning", enforced, looping)
}
