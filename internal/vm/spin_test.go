package vm

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bytecode"
)

// TestSpinDiagnosisSharedReadsOrder pins the order of SharedReads: a
// spin loop polling two cells of one heap block (the higher cell first)
// and a global must report the global, then the cells by index, on every
// run — not in whatever order a hash set happened to iterate.
func TestSpinDiagnosisSharedReadsOrder(t *testing.T) {
	p := compileSrc(t, `
var flag = 0
fn setter() { flag = 1 }
fn main() {
	let h = alloc(4)
	let s = spawn setter()
	while h[3] + h[1] + flag == 0 { }
	join(s)
}`)
	var first []Loc
	for run := 0; run < 50; run++ {
		st := NewState(p, nil, nil)
		st.Suspend(1)
		m := NewMachine(st, NewRoundRobin())
		m.SpinTrack = true
		if res := m.Run(20_000); res.Kind != StopBudget {
			t.Fatalf("run %d: want budget, got %v", run, res.Kind)
		}
		d := m.DiagnoseSpin(0)
		if !d.Looping || !d.WritableByOther {
			t.Fatalf("run %d: diagnosis %+v, want looping ad-hoc sync", run, d)
		}
		if run == 0 {
			first = d.SharedReads
			if len(first) != 3 || first[0] != (Loc{Space: SpaceGlobal, Obj: int64(p.GlobalID("flag"))}) ||
				first[1].Space != SpaceHeap || first[1].Elem != 1 ||
				first[2] != (Loc{Space: SpaceHeap, Obj: first[1].Obj, Elem: 3}) {
				t.Fatalf("SharedReads = %v, want [flag heap[1] heap[3]]", first)
			}
			continue
		}
		if !slices.Equal(d.SharedReads, first) {
			t.Fatalf("run %d: SharedReads = %v, run 0 gave %v", run, d.SharedReads, first)
		}
	}
}

// spinLockstepSrc spins on a flag only the (suspended) setter writes,
// through a loop body rich in fused sequences, global, array and heap
// reads. %s is a prefix of straight-line fused statements that shifts
// where the loop's instructions fall relative to the window boundaries.
const spinLockstepSrc = `
var flag = 0
var buf[4]
fn setter() { flag = 1 }
fn main() {
	let h = alloc(2)
	let s = spawn setter()
	let i = 0
	let acc = 0
	let pad = 0
	%s
	while flag == 0 {
		i = (i + 1) & 63
		acc = (acc + buf[i & 3] + h[i & 1]) & 127
		pad = pad + 1
		pad = pad & 31
	}
	join(s)
}`

// spinDump renders every thread's spin-tracking state: tick counts and
// both windows' visit counters, global read sets and heap read lists.
func spinDump(m *Machine) string {
	win := func(w *spinWin) string {
		if w == nil {
			return "nil"
		}
		var b strings.Builder
		for _, k := range w.visits.touched {
			fmt.Fprintf(&b, "%d:%d=%d ", k>>32, uint32(k), w.visits.funcs[k>>32][uint32(k)])
		}
		fmt.Fprintf(&b, "globals=%v heap=%v", w.globalsTouched, w.heap)
		return b.String()
	}
	var b strings.Builder
	for tid, si := range m.spin {
		if si == nil {
			fmt.Fprintf(&b, "t%d: untracked\n", tid)
			continue
		}
		fmt.Fprintf(&b, "t%d: ticks=%d next=%d\n  cur:  %s\n  prev: %s\n", tid, si.ticks, si.next, win(si.cur), win(si.prev))
	}
	return b.String()
}

// straddlesBoundary reports whether the instruction main executes at
// tick `boundary` lies strictly inside a fused sequence of fused, so the
// fused machine crosses that window boundary in one dispatch.
func straddlesBoundary(t *testing.T, plain, fused *bytecode.Program, boundary int64) bool {
	t.Helper()
	st := NewState(plain, nil, nil)
	st.Suspend(1)
	m := NewMachine(st, NewRoundRobin())
	m.SpinTrack = true
	m.Run(boundary - 1)
	if got := m.spin[0].ticks; got != boundary-1 {
		t.Fatalf("main ticked %d times in %d steps; the straddle probe assumes one tick per step", got, boundary-1)
	}
	fr := st.Threads[0].Top()
	overlay := fused.Funcs[fr.Fn].Fused
	for start := fr.PC - 1; start >= 0 && start > fr.PC-4; start-- {
		if overlay != nil && overlay[start].Kind != bytecode.FuseNone {
			return start+int(overlay[start].Len) > fr.PC
		}
	}
	return false
}

// TestSpinTrackFusedLockstep locks fused dispatch under SpinTrack to the
// unfused interpreter: at every budget around the first two window
// boundaries — including budgets that land inside a fused sequence and
// runs where a fused sequence crosses the boundary — both machines stop
// with the same steps, memory and diagnosis, and hold identical spin-
// tracking state, window by window.
func TestSpinTrackFusedLockstep(t *testing.T) {
	straddled := 0
	for pad := 0; pad < 4; pad++ {
		src := fmt.Sprintf(spinLockstepSrc, strings.Repeat("pad = pad + 1\n\t", pad))
		fused := bytecode.MustCompile(src, "spinlock", bytecode.Options{})
		plain := bytecode.MustCompile(src, "spinlock", bytecode.Options{NoFuse: true})
		for _, boundary := range []int64{spinWindow, 2 * spinWindow} {
			if straddlesBoundary(t, plain, fused, boundary) {
				straddled++
			}
			for budget := boundary - 6; budget <= boundary+6; budget++ {
				var dumps [2]string
				var diags [2]SpinDiagnosis
				var ress [2]RunResult
				var fps [2]string
				for i, p := range []*bytecode.Program{fused, plain} {
					st := NewState(p, nil, nil)
					st.Suspend(1)
					m := NewMachine(st, NewRoundRobin())
					m.SpinTrack = true
					ress[i] = m.Run(budget)
					diags[i] = m.DiagnoseSpin(0)
					dumps[i] = spinDump(m)
					fps[i] = st.SharedMemoryFingerprint()
				}
				where := fmt.Sprintf("pad %d budget %d", pad, budget)
				if ress[0] != ress[1] {
					t.Fatalf("%s: fused stopped %+v, unfused %+v", where, ress[0], ress[1])
				}
				if fps[0] != fps[1] {
					t.Fatalf("%s: shared memory diverges", where)
				}
				if diags[0].Looping != diags[1].Looping || diags[0].WritableByOther != diags[1].WritableByOther ||
					!slices.Equal(diags[0].SharedReads, diags[1].SharedReads) {
					t.Fatalf("%s: diagnosis fused %+v, unfused %+v", where, diags[0], diags[1])
				}
				if dumps[0] != dumps[1] {
					t.Fatalf("%s: spin state diverges\nfused:\n%s\nunfused:\n%s", where, dumps[0], dumps[1])
				}
			}
		}
	}
	if straddled == 0 {
		t.Fatal("no variant puts a window boundary inside a fused sequence; the straddle case is untested")
	}
}
