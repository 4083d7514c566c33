// Command benchjson converts `go test -bench` output into a small,
// machine-readable JSON document — the format of the checked-in
// BENCH_*.json perf-trajectory files and of the CI benchmark smoke job.
//
// Usage:
//
//	go test -bench 'Table3|Table4|Checkpoint' -benchtime 1x -run '^$' . | benchjson -label pr4 -o BENCH_4.json
//
// Lines that are not benchmark results (headers, PASS, logs) are
// ignored, so the raw `go test` stream can be piped in unfiltered.
//
// With -compare BASELINE.json the command additionally gates the new
// numbers against a checked-in baseline: any Table3/Table4/Checkpoint/
// SpinTrack benchmark whose ns/op exceeds its baseline by more than the threshold
// (default 2x, generous enough to absorb runner variance) fails the run
// with exit status 1 — the CI guard that keeps the perf trajectory from
// silently regressing.
//
// With -improve FRAG[,FRAG...] (alongside -compare) the named
// benchmarks must additionally *strictly improve* on both ns/op and
// allocs/op — the gate a PR uses to prove a claimed optimisation
// actually landed, not merely avoided the regression threshold.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Optional -benchmem columns; omitted when the run did not report them.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// Doc is the output document.
type Doc struct {
	Label      string      `json:"label,omitempty"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	label := flag.String("label", "", "free-form label recorded in the document (e.g. pr4)")
	out := flag.String("o", "", "output file (default stdout)")
	compare := flag.String("compare", "", "baseline BENCH_*.json; fail on regressions past -threshold")
	threshold := flag.Float64("threshold", 2.0, "regression factor tolerated against -compare baseline")
	improve := flag.String("improve", "", "comma-separated benchmark name fragments that must strictly improve (ns/op AND allocs/op) vs the -compare baseline")
	flag.Parse()

	doc := Doc{Label: *label}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		if b, ok := parseLine(line); ok {
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark result lines on stdin")
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: write:", err)
		os.Exit(1)
	}

	if *compare != "" {
		ok := compareBaseline(doc, *compare, *threshold)
		if *improve != "" && !checkImproved(doc, *compare, *improve) {
			ok = false
		}
		if !ok {
			os.Exit(1)
		}
	}
}

// gated reports whether a benchmark participates in the regression gate:
// the evaluation-table, checkpoint and spin-tracking benchmarks that
// define the perf trajectory. Other benchmarks in the stream are recorded
// but not gated.
func gated(name string) bool {
	for _, key := range []string{"Table3", "Table4", "Checkpoint", "SpinTrack"} {
		if strings.Contains(name, key) {
			return true
		}
	}
	return false
}

// baseName strips the -N GOMAXPROCS suffix go test appends, so runs on
// machines with different core counts compare by benchmark identity.
func baseName(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// compareBaseline checks doc's gated benchmarks against the baseline
// file and reports whether all of them stay within factor× the recorded
// ns/op. Benchmarks missing from either side are skipped (renames and
// new benchmarks must not break the gate).
func compareBaseline(doc Doc, path string, factor float64) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: compare:", err)
		return false
	}
	var base Doc
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: compare: %s: %v\n", path, err)
		return false
	}
	ref := make(map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		ref[baseName(b.Name)] = b.NsPerOp
	}
	ok := true
	checked := 0
	for _, b := range doc.Benchmarks {
		if !gated(b.Name) {
			continue
		}
		want, found := ref[baseName(b.Name)]
		if !found || want <= 0 {
			continue
		}
		checked++
		ratio := b.NsPerOp / want
		if ratio > factor {
			fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s: %.0f ns/op vs baseline %.0f (%.2fx > %.2fx allowed)\n",
				b.Name, b.NsPerOp, want, ratio, factor)
			ok = false
		} else {
			fmt.Fprintf(os.Stderr, "benchjson: ok %s: %.0f ns/op vs baseline %.0f (%.2fx)\n",
				b.Name, b.NsPerOp, want, ratio)
		}
	}
	if checked == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: compare: no gated benchmarks shared with %s\n", path)
		return false
	}
	return ok
}

// checkImproved enforces the strict-improvement gate: every benchmark
// matching one of the comma-separated fragments must beat the baseline
// on BOTH ns/op and allocs/op (not merely stay inside the regression
// threshold). Unlike compareBaseline's skip-on-missing policy, a
// fragment that matches nothing on either side is an error — a renamed
// benchmark must not silently disarm the gate.
func checkImproved(doc Doc, path, frags string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: improve:", err)
		return false
	}
	var base Doc
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: improve: %s: %v\n", path, err)
		return false
	}
	ref := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		ref[baseName(b.Name)] = b
	}
	ok := true
	for _, frag := range strings.Split(frags, ",") {
		frag = strings.TrimSpace(frag)
		if frag == "" {
			continue
		}
		matched := 0
		for _, b := range doc.Benchmarks {
			if !strings.Contains(b.Name, frag) {
				continue
			}
			want, found := ref[baseName(b.Name)]
			if !found {
				continue
			}
			matched++
			if b.NsPerOp >= want.NsPerOp {
				fmt.Fprintf(os.Stderr, "benchjson: NOT IMPROVED %s: %.0f ns/op vs baseline %.0f (must be strictly faster)\n",
					b.Name, b.NsPerOp, want.NsPerOp)
				ok = false
			}
			switch {
			case b.AllocsPerOp == nil || want.AllocsPerOp == nil:
				fmt.Fprintf(os.Stderr, "benchjson: NOT IMPROVED %s: allocs/op missing (run with -benchmem on both sides)\n", b.Name)
				ok = false
			case *b.AllocsPerOp >= *want.AllocsPerOp:
				fmt.Fprintf(os.Stderr, "benchjson: NOT IMPROVED %s: %.0f allocs/op vs baseline %.0f (must be strictly fewer)\n",
					b.Name, *b.AllocsPerOp, *want.AllocsPerOp)
				ok = false
			default:
				fmt.Fprintf(os.Stderr, "benchjson: improved %s: %.0f ns/op vs %.0f, %.0f allocs/op vs %.0f\n",
					b.Name, b.NsPerOp, want.NsPerOp, *b.AllocsPerOp, *want.AllocsPerOp)
			}
		}
		if matched == 0 {
			fmt.Fprintf(os.Stderr, "benchjson: improve: no benchmark matching %q shared with %s\n", frag, path)
			ok = false
		}
	}
	return ok
}

// parseLine parses one `BenchmarkX-N   iters   1234 ns/op [ 56 B/op  7 allocs/op ]` line.
func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: f[0], Iterations: iters}
	found := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch f[i+1] {
		case "ns/op":
			b.NsPerOp = v
			found = true
		case "B/op":
			b.BytesPerOp = &v
		case "allocs/op":
			b.AllocsPerOp = &v
		}
	}
	return b, found
}
