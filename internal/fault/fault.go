// Package fault is a deterministic fault-injection registry for chaos
// testing the service's durability layer. Production code asks Fire at
// named injection points; a point fires only while armed, so tests (and
// the chaos-smoke CI job) can induce a disk-write failure, a truncated
// serialization, a failed store load, or a panicking run at an
// exact moment — cheaply, without OS-level tricks, and reproducibly.
//
// Points are armed with a spec string — comma-separated `point[:count]`
// terms, where count is how many times the point fires before disarming
// (default 1; `*` means every time) — via Set, the PORTEND_FAULTS
// environment variable (FromEnv), or portendd's -faults flag. The
// registry is process-global: the daemon arms it once at startup and the
// injected code paths consult it with zero configuration plumbing. When
// nothing is armed, Fire is one atomic load.
package fault

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// The injection points wired into the durability layer.
const (
	// DStoreWrite fails a durable-store write with an I/O error before
	// any bytes reach the temp file.
	DStoreWrite = "dstore.write"
	// DStoreTruncate cuts a durable-store write short after the header,
	// modelling a crash mid-write; the CRC catches it on load.
	DStoreTruncate = "dstore.truncate"
	// StoreLoadFail makes a durable-store load report an I/O error.
	StoreLoadFail = "store.load.fail"
	// RunPanic panics inside an analysis run, exercising the recover
	// boundary.
	RunPanic = "run.panic"
)

// EnvVar names the environment variable FromEnv reads.
const EnvVar = "PORTEND_FAULTS"

const always = -1 // remaining count for `point:*`

var (
	armed atomic.Bool // fast-path guard: any point armed at all
	mu    sync.Mutex
	pts   map[string]int // point -> remaining firings (always = unbounded)
	fired map[string]int // point -> times fired, for test assertions
)

// Set replaces the armed fault set with the given spec ("" disarms
// everything). Unknown point names are accepted — the registry is a
// string keyspace, and a typo simply never fires — but malformed counts
// are an error.
func Set(spec string) error {
	next := map[string]int{}
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		name, count := term, 1
		if i := strings.LastIndex(term, ":"); i >= 0 {
			name = term[:i]
			c := term[i+1:]
			if c == "*" {
				count = always
			} else {
				n, err := strconv.Atoi(c)
				if err != nil || n <= 0 {
					return fmt.Errorf("fault: bad count %q in term %q", c, term)
				}
				count = n
			}
		}
		if name == "" {
			return fmt.Errorf("fault: empty point name in term %q", term)
		}
		next[name] = count
	}
	mu.Lock()
	pts = next
	fired = map[string]int{}
	armed.Store(len(next) > 0)
	mu.Unlock()
	return nil
}

// FromEnv arms the registry from the PORTEND_FAULTS environment
// variable. A missing or empty variable is a no-op, so test binaries
// inherit faults only when the harness asks for them.
func FromEnv() error {
	spec := os.Getenv(EnvVar)
	if spec == "" {
		return nil
	}
	return Set(spec)
}

// Reset disarms every point and clears the fired counters.
func Reset() { _ = Set("") }

// Enabled reports whether any point is armed. It is the zero-cost guard
// production paths may consult before doing per-point work.
func Enabled() bool { return armed.Load() }

// Fire consumes one firing of the named point, reporting whether the
// fault should be injected now. A point armed with a finite count
// disarms after its last firing.
func Fire(point string) bool {
	if !armed.Load() {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	n, ok := pts[point]
	if !ok {
		return false
	}
	if n != always {
		if n <= 1 {
			delete(pts, point)
			if len(pts) == 0 {
				armed.Store(false)
			}
		} else {
			pts[point] = n - 1
		}
	}
	fired[point]++
	return true
}

// Fired returns how many times the named point has fired since the last
// Set/Reset — the assertion hook for fault-injection tests.
func Fired(point string) int {
	mu.Lock()
	defer mu.Unlock()
	return fired[point]
}

// Active renders the currently armed points for logs, sorted so the
// rendering is stable.
func Active() string {
	mu.Lock()
	defer mu.Unlock()
	if len(pts) == 0 {
		return ""
	}
	terms := make([]string, 0, len(pts))
	for name, n := range pts {
		if n == always {
			terms = append(terms, name+":*")
		} else {
			terms = append(terms, fmt.Sprintf("%s:%d", name, n))
		}
	}
	sort.Strings(terms)
	return strings.Join(terms, ",")
}
