// Command portend is the end-to-end race detector and classifier: it runs
// a PIL program under the happens-before detector, classifies every
// distinct race into the four-category taxonomy of the paper (specViol /
// outDiff / k-witness / singleOrd), and prints the debugging-aid reports
// of §3.6, ordered by triage priority.
//
// Usage:
//
//	portend [-args 1,2] [-inputs 3,4] [-mp 5] [-ma 2] [-sym 2] [-parallel N] prog.pil
//	portend -workload pbzip2
//	portend -workload memcached -whatif
//	portend -workload rw -json
//	portend -workload sqlite -stream -timeout 30s
//	portend -lint prog.pil
//
// Classification runs on a worker pool (-parallel, default GOMAXPROCS);
// the verdicts are byte-identical for every pool width. -json emits one
// machine-readable report on stdout; -stream prints verdicts as they
// land; -timeout bounds the whole analysis via a context deadline and
// reports the partial results classified before it fired.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/server"
	"repro/portend"
)

func main() {
	argsFlag := flag.String("args", "", "comma-separated program arguments")
	inputsFlag := flag.String("inputs", "", "comma-separated input log values")
	mp := flag.Int("mp", 5, "max primary paths (Mp)")
	ma := flag.Int("ma", 2, "alternate schedules per primary (Ma)")
	sym := flag.Int("sym", 2, "number of symbolic inputs")
	parallel := cliutil.ParallelFlag("")
	workload := flag.String("workload", "", "analyze a built-in workload")
	whatIf := flag.Bool("whatif", false, "run the workload's what-if analysis (remove its designated locks)")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report on stdout")
	stream := flag.Bool("stream", false, "print verdicts as they land (detection order) instead of the sorted summary")
	timeout := flag.Duration("timeout", 0, "abort the analysis after this long, reporting partial results (0 = no deadline)")
	lint := flag.Bool("lint", false, "run the static pre-analysis only: candidate race pairs, locksets, and lint diagnostics (no execution)")
	verbose := flag.Bool("v", false, "print full debugging-aid reports")
	remote := flag.String("remote", "", "submit to a portendd instance at this base URL instead of analyzing in-process")
	tenant := flag.String("tenant", "", "tenant identity sent to the portendd instance (-remote only)")
	retries := flag.Int("retries", 4, "max resubmissions after connect failures, shedding, or mid-stream disconnects (-remote only; 0 = fail fast)")
	flag.Parse()

	a := portend.New(
		portend.WithMaxPaths(*mp),
		portend.WithMaxSchedules(*ma),
		portend.WithSymbolicInputs(*sym),
		portend.WithParallel(*parallel),
	)

	args, err := cliutil.ParseInts(*argsFlag)
	if err != nil {
		fatal(err)
	}
	inputs, err := cliutil.ParseInts(*inputsFlag)
	if err != nil {
		fatal(err)
	}

	var target portend.Target
	switch {
	case *workload != "":
		target = portend.Workload(*workload)
	case flag.NArg() == 1:
		target = portend.File(flag.Arg(0))
	default:
		fmt.Fprintln(os.Stderr, "usage: portend [flags] prog.pil (or -workload name)")
		os.Exit(2)
	}
	if args != nil {
		target = target.WithArgs(args...)
	}
	if inputs != nil {
		target = target.WithInputs(inputs...)
	}

	if *lint {
		rep, err := portend.Lint(target)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			// The canonical byte-stable artifact (schema portend-sa/1), not
			// a re-marshalling — identical bytes on every run.
			os.Stdout.Write(rep.Artifact())
		} else {
			fmt.Print(rep.String())
		}
		if rep.HasErrors() {
			os.Exit(1)
		}
		return
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *remote != "" {
		if *whatIf {
			fatal(errors.New("-whatif is not supported with -remote (the analysis runs server-side)"))
		}
		runRemote(ctx, *remote, *tenant, *workload, args, inputs,
			*mp, *ma, *sym, *parallel, *retries, *jsonOut, *verbose)
		return
	}

	if *whatIf {
		res, err := a.WhatIf(ctx, target)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			emitJSON(res)
			return
		}
		fmt.Printf("what-if: removed synchronization at lines %v\n", res.RemovedLines)
		fmt.Printf("new races induced: %d\n\n", len(res.NewRaces))
		printVerdicts(res.NewRaces, *verbose)
		return
	}

	if *stream {
		// With -json this emits NDJSON: one compact object per verdict.
		streamVerdicts(ctx, a, target, *verbose, *jsonOut)
		return
	}

	rep, err := a.AnalyzeAll(ctx, target)
	if err != nil && rep == nil {
		fatal(err)
	}
	if *jsonOut {
		emitJSON(rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "portend: analysis incomplete: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("portend: %d distinct race(s) detected in %s\n\n", len(rep.Verdicts), target.Name())
	printVerdicts(rep.Triage(), *verbose)
	for _, e := range rep.Errors {
		fmt.Fprintf(os.Stderr, "classification error: %s\n", e)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "portend: analysis incomplete: %v\n", err)
		os.Exit(1)
	}
}

// runRemote submits the analysis to a portendd instance and renders its
// NDJSON stream. In JSON mode each verdict event's payload is re-emitted
// verbatim, so stdout is byte-identical to a local `-stream -json` run
// (modulo stats counters, which depend on cache history); the done
// summary goes to stderr as one `portend: done {...}` line. With
// retries > 0 the client resumes across daemon restarts, shed responses,
// and mid-stream disconnects; dedupe keeps the merged output identical
// to an uninterrupted run.
func runRemote(ctx context.Context, base, tenant, workload string, args, inputs []int64, mp, ma, sym, parallel, retries int, jsonOut, verbose bool) {
	req := server.Request{
		Args:    args,
		Inputs:  inputs,
		Verbose: verbose,
		Options: &server.RequestOptions{Mp: mp, Ma: ma, SymbolicInputs: sym, Parallel: parallel},
	}
	switch {
	case workload != "":
		req.Workload = workload
	case flag.NArg() == 1:
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		req.Source, req.Name = string(src), flag.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "usage: portend -remote URL [flags] prog.pil (or -workload name)")
		os.Exit(2)
	}

	c := &server.Client{Base: base, Tenant: tenant, MaxRetries: retries}
	i := 0
	done, err := c.Analyze(ctx, req, func(ev server.Event) error {
		switch ev.Type {
		case server.EventDegraded:
			fmt.Fprintf(os.Stderr, "portend: server degraded the run to mp=%d ma=%d under load\n",
				ev.Degraded.Mp, ev.Degraded.Ma)
		case server.EventRaceError:
			fmt.Fprintf(os.Stderr, "classification error: race %s: %s\n", ev.Race, ev.Message)
		case server.EventVerdict:
			i++
			if jsonOut {
				os.Stdout.Write(ev.Verdict)
				os.Stdout.Write([]byte{'\n'})
				return nil
			}
			v, derr := ev.DecodeVerdict()
			if derr != nil {
				return derr
			}
			fmt.Printf("[%d] %s  —  %s\n", i, v.Race.ID, ev.Summary)
			if verbose && ev.Report != "" {
				fmt.Println(cliutil.Indent(ev.Report, "    "))
			}
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	if jsonOut {
		b, _ := json.Marshal(done)
		fmt.Fprintf(os.Stderr, "portend: done %s\n", b)
		return
	}
	fmt.Printf("done: %d race(s), %d verdict(s), %d error(s) in %.3fs",
		done.Races, done.Verdicts, done.Errors, float64(done.DurationNs)/1e9)
	if done.WarmStart {
		fmt.Print("  (warm start: replayed from the verdict store)")
	}
	fmt.Println()
}

// streamVerdicts prints each verdict the moment it (and every earlier
// one) lands — the service-shaped consumption pattern. In JSON mode each
// verdict is one compact NDJSON line.
func streamVerdicts(ctx context.Context, a *portend.Analyzer, target portend.Target, verbose, jsonOut bool) {
	enc := json.NewEncoder(os.Stdout)
	i := 0
	for v, err := range a.Analyze(ctx, target) {
		if err != nil {
			var re *portend.RaceError
			if errors.As(err, &re) {
				fmt.Fprintf(os.Stderr, "classification error: %v\n", re)
				continue
			}
			fatal(err)
		}
		i++
		if jsonOut {
			if err := enc.Encode(v); err != nil {
				fatal(err)
			}
			continue
		}
		fmt.Printf("[%d] %s  —  %s\n", i, v.Race.ID, v)
		if verbose {
			fmt.Println(cliutil.Indent(v.DebugReport(), "    "))
		}
	}
}

func printVerdicts(vs []portend.Verdict, verbose bool) {
	for i, v := range vs {
		fmt.Printf("[%d] %s  —  %s\n", i+1, v.Race.ID, v)
		if verbose {
			fmt.Println(cliutil.Indent(v.DebugReport(), "    "))
		}
	}
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	cliutil.Fatal("portend", err)
}
