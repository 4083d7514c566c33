package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dstore"
	"repro/internal/fault"
	"repro/portend"
)

// Config sizes the service. Zero values mean the documented defaults.
type Config struct {
	// Slots is the number of analyses that run concurrently (default
	// GOMAXPROCS). Everything past it queues.
	Slots int

	// QueueSoft is the per-tenant queue depth beyond which admitted
	// requests run with a degraded exploration budget (default 2);
	// QueueHard is the depth at which requests are shed with 429
	// (default 8). Bounded queues plus shedding keep memory and latency
	// bounded under overload — the service degrades verdict coarseness
	// before it degrades availability.
	QueueSoft int
	QueueHard int

	// SolverCacheCeiling caps each run's adaptive solver memo (<= 0
	// means the solver package default).
	SolverCacheCeiling int

	// DefaultParallel is the pool width for requests that do not set
	// one (default: the engine default, GOMAXPROCS).
	DefaultParallel int

	// DataDir, when set, enables the verdict store: each completed,
	// undegraded stream is written to one checksummed file under the
	// directory (see internal/dstore), and a later identical submission —
	// in this process or after a restart — is answered by replaying it
	// byte for byte, with warmStart set on its done event. Corrupt or
	// version-skewed files are quarantined and logged and the submission
	// runs cold; store failures never fail a request. Without DataDir
	// every request runs.
	DataDir string

	// RunTimeout, when positive, is the per-run watchdog: an analysis
	// exceeding it is cancelled through its context and the stream ends
	// with a terminal error event after whatever verdicts were already
	// sent. Zero disables the watchdog.
	RunTimeout time.Duration

	// DrainTimeout bounds how long Drain waits for in-flight runs
	// (default 10s).
	DrainTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Slots < 1 {
		c.Slots = runtime.GOMAXPROCS(0)
	}
	if c.QueueSoft < 1 {
		c.QueueSoft = 2
	}
	if c.QueueHard < 1 {
		c.QueueHard = 8
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// Server is the portendd service: admission control in front of the
// portend analyzer, optionally fronted by a durable verdict store.
type Server struct {
	cfg      Config
	dispatch *dispatcher
	metrics  metrics

	store    *dstore.Dir  // nil = no verdict store; every request runs
	ready    atomic.Bool  // startup store scan finished
	draining atomic.Bool  // Drain called; no new work admitted
	inflight atomic.Int64 // requests inside handleAnalyze
}

// New builds a Server from the config. An unusable DataDir is logged
// and the server runs without durability — by contract, durability
// failures cost reuse, never availability.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		dispatch: newDispatcher(cfg.Slots, cfg.QueueSoft, cfg.QueueHard),
		metrics:  metrics{start: time.Now()},
	}
	if cfg.DataDir != "" {
		d, err := dstore.Open(cfg.DataDir)
		if err != nil {
			log.Printf("portendd: data dir unavailable, running without durability: %v", err)
		} else {
			s.store = d
			if keys, err := d.Scan(); err != nil {
				log.Printf("portendd: data dir scan: %v", err)
			} else if len(keys) > 0 {
				log.Printf("portendd: data dir %s: %d stored verdict stream(s) indexed", cfg.DataDir, len(keys))
			}
		}
	}
	s.ready.Store(true)
	return s
}

// Handler returns the service's HTTP routes: POST /v1/analyze (NDJSON
// verdict stream), GET /metrics (Prometheus text), GET /healthz (pure
// liveness — 200 for as long as the process serves), GET /readyz
// (readiness — 503 before the startup store scan and while draining).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch {
		case s.draining.Load():
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"draining"}`)
		case !s.ready.Load():
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"starting"}`)
		default:
			fmt.Fprintln(w, `{"status":"ready"}`)
		}
	})
	return mux
}

// Drain stops admission (new requests get 503 with Draining set, and
// /readyz turns 503) and waits up to the configured DrainTimeout for
// in-flight runs to finish. Completed runs have already written their
// store entries, so there is nothing to flush.
func (s *Server) Drain() {
	s.draining.Store(true)
	deadline := time.Now().Add(s.cfg.DrainTimeout)
	for s.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
}

// TenantHeader names the request header carrying the tenant identity;
// absent, the request lands in the "default" tenant's queue.
const TenantHeader = "X-Portend-Tenant"

// maxRequestBody bounds the decoded request (PIL sources are small;
// 8MB is far above any real submission).
const maxRequestBody = 8 << 20

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrorBody{
			Error:    "portendd: draining for shutdown",
			Draining: true,
		})
		return
	}

	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err := dec.Decode(&req); err != nil {
		s.metrics.badReqs.Add(1)
		writeError(w, http.StatusBadRequest, ErrorBody{Error: "bad request: " + err.Error()})
		return
	}
	if err := req.Validate(); err != nil {
		s.metrics.badReqs.Add(1)
		writeError(w, http.StatusBadRequest, ErrorBody{Error: err.Error()})
		return
	}
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = "default"
	}

	ctx := r.Context()
	opts := s.optionsFor(&req)
	target := req.Target()

	// One disconnect is one counter tick no matter how it is observed
	// (write failure on the stream, or the request context dying).
	disconnected := false
	markDisc := func() {
		if !disconnected {
			disconnected = true
			s.metrics.disconnects.Add(1)
		}
	}

	// The verdict store answers a stored submission before lint and
	// admission: the engine is deterministic, so the stored stream
	// carries the verdicts a new run would send.
	var key storeKey
	if s.store != nil {
		key = keyFor(&req, opts)
		if s.serveStored(w, key, markDisc) {
			return
		}
	}

	// Static admission (before taking a slot): lint the submission and
	// short-circuit the two cases a dynamic run cannot improve on. A
	// program with an error-severity lint faults on every execution of
	// the flagged site: reject it with the diagnostics instead of burning
	// a slot reproducing the fault. A statically race-free program cannot
	// yield a single race report: answer the empty verdict stream
	// immediately. Target-resolution failures fall through so the dynamic
	// path reports them exactly as before.
	if !opts.NoStaticPrune {
		if lr, err := portend.Lint(target); err == nil {
			facts := lr.Facts()
			if bad := facts.ErrorLints(); len(bad) > 0 {
				s.metrics.lintRejections.Add(1)
				body := ErrorBody{Error: "static analysis: program faults on every execution of the flagged synchronization"}
				for _, l := range bad {
					body.Lint = append(body.Lint, LintIssue{
						Rule: l.Rule, Severity: l.Severity, Fn: l.Fn, Line: l.Line, Msg: l.Msg,
					})
				}
				writeError(w, http.StatusUnprocessableEntity, body)
				return
			}
			if facts.RaceFree {
				s.metrics.requests.Add(1)
				s.metrics.staticClean.Add(1)
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.WriteHeader(http.StatusOK)
				_ = json.NewEncoder(w).Encode(Event{Type: EventDone, Done: &DoneInfo{
					Target:      target.Name(),
					StaticClean: true,
				}})
				s.metrics.completed.Add(1)
				return
			}
			opts.StaticFacts = facts
		}
	}

	release, degraded, err := s.dispatch.admit(ctx, tenant)
	if err != nil {
		var oe *overloadError
		if errors.As(err, &oe) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, ErrorBody{
				Error:      err.Error(),
				Overloaded: true,
				Tenant:     oe.tenant,
				QueueDepth: oe.depth,
			})
			return
		}
		// Context ended while queued; the client is gone.
		s.metrics.cancelled.Add(1)
		markDisc()
		return
	}
	defer release()
	s.metrics.requests.Add(1)

	var deg *DegradedInfo
	if degraded {
		opts = degradeOptions(opts)
		deg = &DegradedInfo{Mp: opts.Mp, Ma: opts.Ma}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// stream keeps the verdict lines sent so far, for the store entry.
	var stream []byte
	emit := func(e Event) bool {
		line, err := json.Marshal(e)
		if err == nil {
			line = append(line, '\n')
			_, err = w.Write(line)
		}
		if err != nil {
			markDisc()
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		if s.store != nil && e.Type == EventVerdict {
			stream = append(stream, line...)
		}
		return true
	}

	if deg != nil {
		if !emit(Event{Type: EventDegraded, Degraded: deg}) {
			return
		}
	}

	// Per-run watchdog: a positive RunTimeout cancels the run through
	// the same context plumbing a client disconnect uses, so the stream
	// ends with a terminal error after the verdicts already delivered.
	runCtx := ctx
	if s.cfg.RunTimeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, s.cfg.RunTimeout)
		defer cancel()
	}

	a := portend.New(portend.WithEngineOptions(opts))
	start := time.Now()
	done := DoneInfo{Target: target.Name(), Degraded: degraded}
	var (
		panicked    bool
		panicEv     Event
		aborted     bool // stream dead; nothing more can be sent
		terminalErr bool // terminal error event already emitted
	)
	// The run itself executes under a recover boundary: a panic anywhere
	// in the engine becomes a typed terminal event on this stream, never
	// a daemon crash.
	func() {
		defer func() {
			if p := recover(); p != nil {
				panicked = true
				panicEv = Event{
					Type:    EventError,
					Message: fmt.Sprintf("internal panic: %v", p),
					Panic:   true,
					Stack:   string(debug.Stack()),
				}
			}
		}()
		if fault.Fire(fault.RunPanic) {
			panic("injected run panic (fault " + fault.RunPanic + ")")
		}
		for v, err := range a.Analyze(runCtx, target) {
			if err != nil {
				var re *portend.RaceError
				if errors.As(err, &re) {
					done.Errors++
					if !emit(Event{Type: EventRaceError, Race: re.RaceID, Message: re.Err.Error()}) {
						aborted = true
						return
					}
					continue
				}
				terminalErr = true
				if ctx.Err() != nil {
					// The client's context died — a watchdog timeout leaves
					// the parent context alive and is not a disconnect.
					s.metrics.cancelled.Add(1)
					markDisc()
				}
				emit(Event{Type: EventError, Message: err.Error()})
				return
			}
			raw, err := json.Marshal(v)
			if err != nil {
				terminalErr = true
				emit(Event{Type: EventError, Message: "marshal verdict: " + err.Error()})
				return
			}
			done.Verdicts++
			if n := v.Stats.PrunedSchedules; n > 0 {
				done.PrunedSchedules += n
				s.metrics.prunedSchedules.Add(int64(n))
			}
			if n := v.Stats.CloneAllocs; n > 0 {
				done.CloneAllocs += n
				s.metrics.cloneAllocs.Add(n)
			}
			if n := v.Stats.CloneBytes; n > 0 {
				done.CloneBytes += n
			}
			ev := Event{Type: EventVerdict, Verdict: raw, Summary: v.String()}
			if req.Verbose {
				ev.Report = v.DebugReport()
			}
			if !emit(ev) {
				s.metrics.cancelled.Add(1)
				aborted = true
				return
			}
		}
	}()

	if panicked {
		// The admission slot is freed by the deferred release; every
		// other tenant's run is untouched, and the run stores nothing.
		s.metrics.runPanics.Add(1)
		log.Printf("portendd: run panic (tenant %q): %s", tenant, panicEv.Message)
		emit(panicEv)
		s.metrics.completed.Add(1)
		return
	}
	if aborted {
		return
	}
	if terminalErr {
		s.metrics.completed.Add(1)
		return
	}

	done.Races = done.Verdicts + done.Errors
	done.DurationNs = time.Since(start).Nanoseconds()
	doneEv := Event{Type: EventDone, Done: &done}
	// Only a full-budget stream with a verdict for every race is stored:
	// a degraded run's verdicts are coarser than the submission's
	// options ask for, and a race error may not repeat.
	if s.store != nil && !degraded && done.Errors == 0 {
		line, err := json.Marshal(doneEv)
		if err == nil {
			s.writeEntry(key, append(stream, append(line, '\n')...))
		}
	}
	emit(doneEv)
	s.metrics.completed.Add(1)
}

// serveStored answers the request from the verdict store if key has an
// entry: the stored verdict lines verbatim, then the stored done event
// with warmStart set and this request's duration. It reports whether
// it answered.
func (s *Server) serveStored(w http.ResponseWriter, key storeKey, markDisc func()) bool {
	start := time.Now()
	lines, done, ok := s.loadEntry(key)
	if !ok {
		return false
	}
	s.metrics.storeHits.Add(1)
	s.metrics.requests.Add(1)
	done.WarmStart = true
	done.DurationNs = time.Since(start).Nanoseconds()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(lines); err != nil {
		markDisc()
		return true
	}
	if err := json.NewEncoder(w).Encode(Event{Type: EventDone, Done: &done}); err != nil {
		markDisc()
		return true
	}
	s.metrics.completed.Add(1)
	return true
}

// optionsFor resolves a request's options against the service
// defaults.
func (s *Server) optionsFor(req *Request) core.Options {
	opts := core.DefaultOptions()
	opts.SolverCacheCeiling = s.cfg.SolverCacheCeiling
	opts.Parallel = s.cfg.DefaultParallel
	if ro := req.Options; ro != nil {
		if ro.Mp > 0 {
			opts.Mp = ro.Mp
		}
		if ro.Ma > 0 {
			opts.Ma = ro.Ma
		}
		if ro.SymbolicInputs > 0 {
			opts.SymbolicInputs = ro.SymbolicInputs
		}
		if ro.Parallel > 0 {
			opts.Parallel = ro.Parallel
		}
		if ro.MaxForks > 0 {
			opts.MaxForks = ro.MaxForks
		}
		if ro.RunBudget > 0 {
			opts.RunBudget = ro.RunBudget
		}
		if ro.EnforceBudget > 0 {
			opts.EnforceBudget = ro.EnforceBudget
		}
		if ro.Seed != nil {
			opts.Seed, opts.SeedSet = *ro.Seed, true
		}
		opts.NoStaticPrune = ro.NoStaticPrune
	}
	return opts
}

// degradeOptions is the soft-shed budget: coarser multi-path and
// multi-schedule bounds that still produce verdicts for every race,
// just with fewer witnesses (a smaller k) — the paper's own knobs for
// trading coverage against time.
func degradeOptions(opts core.Options) core.Options {
	if opts.Mp > 2 {
		opts.Mp = 2
	}
	opts.Ma = 1
	return opts
}

func writeError(w http.ResponseWriter, code int, body ErrorBody) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}
