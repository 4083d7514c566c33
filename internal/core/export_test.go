package core

import (
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/race"
	"repro/internal/trace"
	"repro/internal/vm"
)

// EnforceProbe is what one enforcement of a race's alternate ordering
// leaves behind, as the fused-vs-unfused lockstep test compares it.
type EnforceProbe struct {
	Outcome      uint8
	Steps        int64  // State.Steps of the alternate when enforcement ended
	Final        string // completion result (enforced runs) or runtime error
	Diag         vm.SpinDiagnosis
	SharedMemory string
}

// ProbeEnforcement replays rep's pre-race state from the root of tr and
// enforces the alternate ordering exactly as Algorithm 1 does.
func ProbeEnforcement(p *bytecode.Program, rep *race.Report, tr *trace.Trace) (EnforceProbe, error) {
	opts := DefaultOptions()
	opts.NoCache = true
	c := New(p, opts)
	ctx, err := c.replayToRace(rep, tr)
	if err != nil {
		return EnforceProbe{}, err
	}
	space, obj := ctx.raceObj()
	enf := c.enforceAlternate(ctx.pre, ctx.firstTID, ctx.secondTID, space, obj, vm.NewRoundRobin())
	pr := EnforceProbe{
		Outcome:      uint8(enf.outcome),
		Steps:        enf.st.Steps,
		Final:        fmt.Sprintf("%v after %d", enf.final.Kind, enf.final.Steps),
		Diag:         enf.diag,
		SharedMemory: enf.st.SharedMemoryFingerprint(),
	}
	if enf.err != nil {
		pr.Final = enf.err.Error()
	}
	return pr, nil
}
