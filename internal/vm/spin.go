package vm

import (
	"cmp"
	"slices"

	"repro/internal/bytecode"
)

// spinInfo tracks, per thread, how often each jump instruction executed
// and which shared locations were read since tracking started. It backs
// the timeout diagnosis of Algorithm 1 (§3.2, §3.5): when enforcing the
// alternate ordering times out, a thread stuck in a loop whose exit
// condition reads a shared variable that some other live thread may still
// write is spinning on ad-hoc synchronization (race is "single ordering");
// a loop whose exit condition no live thread can change is an infinite
// loop (race is "spec violated"), following the criterion of [60].
//
// Every interpreted instruction of an enforcement passes through this
// tracking, so it holds no hash maps: visit counts live in dense
// per-function slabs indexed by pc, global reads in a slab indexed by
// global id, and each slab keeps a touched list so a window rollover
// zeroes only what was written. The current and previous windows
// double-buffer their slabs instead of reallocating every window.
type spinInfo struct {
	cur *spinWin
	// prev is the previous window, kept so a diagnosis right after a
	// rollover still sees a full window's worth of data; nil until the
	// first rollover.
	prev  *spinWin
	ticks int64
	next  int64 // tick count at which the current window ends
}

// spinWin is one window of spin data.
type spinWin struct {
	visits pcCounts
	// globals[g] is set when global g (any element, for arrays) was
	// read this window; globalsTouched lists the set ids. Elements
	// collapse into their global because the writability test
	// (CanBeWrittenByOther) looks only at the global id.
	globals        []bool
	globalsTouched []int32
	// heap lists the heap cells read this window. It may hold
	// duplicates (see readHeap); DiagnoseSpin deduplicates.
	heap []Loc
}

func newSpinWin(p *bytecode.Program) *spinWin {
	return &spinWin{
		visits:  pcCounts{funcs: make([][]int32, len(p.Funcs))},
		globals: make([]bool, len(p.Globals)),
	}
}

// reset empties the window in place, keeping its slabs for reuse.
func (w *spinWin) reset() {
	w.visits.reset()
	for _, g := range w.globalsTouched {
		w.globals[g] = false
	}
	w.globalsTouched = w.globalsTouched[:0]
	w.heap = w.heap[:0]
}

// heapScan bounds readHeap's duplicate check. A spin loop polls a few
// heap cells, which the scan over the most recent entries keeps
// duplicate-free; a thread sweeping many cells costs one append per read
// instead of a scan of everything it touched. A window holds at most
// spinWindow reads, which bounds the list either way.
const heapScan = 8

func (w *spinWin) readHeap(loc Loc) {
	for _, l := range w.heap[max(0, len(w.heap)-heapScan):] {
		if l == loc {
			return
		}
	}
	w.heap = append(w.heap, loc)
}

// pcCounts is a dense pc-indexed visit counter, one lazily allocated
// slab per function. touched records which counters are nonzero so reset
// and iteration cost O(distinct pcs), not O(program size).
type pcCounts struct {
	funcs   [][]int32
	touched []uint64 // packed fn<<32|pc of nonzero counters
}

func (c *pcCounts) inc(p *bytecode.Program, fn, pc int) {
	s := c.funcs[fn]
	if s == nil {
		s = make([]int32, len(p.Funcs[fn].Code))
		c.funcs[fn] = s
	}
	if s[pc] == 0 {
		c.touched = append(c.touched, uint64(uint32(fn))<<32|uint64(uint32(pc)))
	}
	s[pc]++
}

// reset zeroes the touched counters, keeping the slabs for reuse.
func (c *pcCounts) reset() {
	for _, k := range c.touched {
		c.funcs[k>>32][uint32(k)] = 0
	}
	c.touched = c.touched[:0]
}

// anyAtLeast reports whether some counter reached threshold.
func (c *pcCounts) anyAtLeast(threshold int32) bool {
	for _, k := range c.touched {
		if c.funcs[k>>32][uint32(k)] >= threshold {
			return true
		}
	}
	return false
}

// spinWindow is the number of tracked instructions after which a thread's
// spin data is reset. Windowing scopes the read set to the loop the
// thread is currently stuck in: shared reads made before entering the
// loop (e.g. the racy read that selected this path) age out and do not
// contaminate the ad-hoc-sync test.
const spinWindow = 8192

// tick advances the thread's instruction count by n (at most spinWindow)
// and rolls the window over when the count crosses a window boundary. A
// fused sequence ticks by its covered length in one call; it holds no
// jump and no shared read, so rolling over at its end records exactly
// what per-instruction ticking would.
func (si *spinInfo) tick(n int64, p *bytecode.Program) {
	if si.ticks += n; si.ticks >= si.next {
		si.roll(p)
	}
}

// roll starts the next window. Double-buffer rollover: the full window
// just recorded becomes the previous one, and the old previous window is
// cleared in place to receive the next.
func (si *spinInfo) roll(p *bytecode.Program) {
	si.next += spinWindow
	si.prev, si.cur = si.cur, si.prev
	if si.cur == nil {
		si.cur = newSpinWin(p)
	} else {
		si.cur.reset()
	}
}

// syncSpin points spinCur at the current thread's spin data, creating
// it the first time the thread is current, or at nil when tracking is
// off. The current thread changes only at scheduling points and
// between Run calls, so the per-instruction hooks below read spinCur
// instead of looking the thread up.
func (m *Machine) syncSpin() {
	m.spinCur = nil
	cur := m.St.Cur
	if !m.SpinTrack || cur < 0 || cur >= len(m.St.Threads) {
		return
	}
	for len(m.spin) <= cur {
		m.spin = append(m.spin, nil)
	}
	if m.spin[cur] == nil {
		m.spin[cur] = &spinInfo{cur: newSpinWin(m.St.Prog), next: spinWindow}
	}
	m.spinCur = m.spin[cur]
}

// The per-instruction hooks. exec ticks spinCur itself; jumps, global
// reads and heap reads record into the current window.

func (m *Machine) trackSpinJump(pc bytecode.PCRef) {
	if si := m.spinCur; si != nil {
		si.cur.visits.inc(m.St.Prog, pc.Fn, pc.PC)
	}
}

func (m *Machine) trackSpinGlobal(g int64) {
	si := m.spinCur
	if si == nil {
		return
	}
	if w := si.cur; !w.globals[g] {
		w.globals[g] = true
		w.globalsTouched = append(w.globalsTouched, int32(g))
	}
}

func (m *Machine) trackSpinHeap(loc Loc) {
	if si := m.spinCur; si != nil {
		si.cur.readHeap(loc)
	}
}

// spinLoopThreshold is the visit count above which a jump is considered
// part of a non-terminating loop during a budgeted run.
const spinLoopThreshold = 32

// SpinDiagnosis is the result of DiagnoseSpin.
type SpinDiagnosis struct {
	// Looping: the thread repeatedly executed the same jump.
	Looping bool
	// SharedReads: shared locations read while looping, sorted by
	// (Space, Obj, Elem). A global array is listed once, as the whole
	// global (Elem 0); heap cells are listed individually.
	SharedReads []Loc
	// WritableByOther: some other live, unsuspended thread may still
	// write one of SharedReads (per the static write-set analysis) —
	// the loop is ad-hoc synchronization, not an infinite loop.
	WritableByOther bool
}

// DiagnoseSpin inspects the spin-tracking data for tid. Call it after Run
// returned StopBudget with SpinTrack enabled.
func (m *Machine) DiagnoseSpin(tid int) SpinDiagnosis {
	var d SpinDiagnosis
	if tid < 0 || tid >= len(m.spin) || m.spin[tid] == nil {
		return d
	}
	si := m.spin[tid]
	w := si.cur
	if si.ticks%spinWindow < spinWindow/4 && si.prev != nil {
		// Fresh window: diagnose on the previous one instead.
		w = si.prev
	}
	d.Looping = w.visits.anyAtLeast(spinLoopThreshold)
	if !d.Looping {
		return d
	}
	for _, g := range w.globalsTouched {
		d.SharedReads = append(d.SharedReads, Loc{Space: SpaceGlobal, Obj: int64(g)})
	}
	d.SharedReads = append(d.SharedReads, w.heap...)
	slices.SortFunc(d.SharedReads, func(a, b Loc) int {
		return cmp.Or(cmp.Compare(a.Space, b.Space), cmp.Compare(a.Obj, b.Obj), cmp.Compare(a.Elem, b.Elem))
	})
	d.SharedReads = slices.Compact(d.SharedReads)
	for _, loc := range d.SharedReads {
		if m.St.CanBeWrittenByOther(loc, tid) {
			d.WritableByOther = true
			break
		}
	}
	return d
}

// CanBeWrittenByOther reports whether any live thread other than tid could
// still write loc, per the program's static transitive write sets. Heap
// locations are conservatively considered writable (any thread holding the
// reference may store through it).
func (st *State) CanBeWrittenByOther(loc Loc, tid int) bool {
	if loc.Space == SpaceHeap {
		return true
	}
	g := int(loc.Obj)
	for _, t := range st.Threads {
		if t.ID == tid || t.Status == ThExited {
			continue
		}
		for _, f := range t.Frames {
			ws := st.Prog.WriteSet(f.Fn)
			if _, ok := ws[g]; ok {
				return true
			}
		}
	}
	return false
}
