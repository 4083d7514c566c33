package server

import (
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

// metrics aggregates service-level counters; queue figures are sampled
// from the dispatcher at scrape time rather than double-counted here.
type metrics struct {
	start     time.Time
	requests  atomic.Int64 // verdict streams answered: runs, store hits, static fast path
	completed atomic.Int64 // analyses that ran to a terminal event
	badReqs   atomic.Int64 // rejected before admission (400)
	cancelled atomic.Int64 // runs ended by client disconnect/cancel

	lintRejections  atomic.Int64 // rejected at admission by static lint (422)
	staticClean     atomic.Int64 // statically race-free fast-path answers
	prunedSchedules atomic.Int64 // worklist items the static prune skipped
	cloneAllocs     atomic.Int64 // allocations spent on COW state snapshots

	runPanics   atomic.Int64 // runs ended by the panic recover boundary
	disconnects atomic.Int64 // requests whose client went away mid-flight

	storeHits        atomic.Int64 // submissions answered from the verdict store
	storeLoadErrors  atomic.Int64 // store loads that failed (quarantine/cold)
	storeWrites      atomic.Int64 // verdict streams written to the store
	storeWriteErrors atomic.Int64 // store writes that failed
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}

// handleMetrics renders the Prometheus text exposition format
// (version 0.0.4) by hand — the service depends only on the standard
// library.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	g := func(name, help, typ string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, v)
	}

	g("portend_uptime_seconds", "Seconds since the server started.", "gauge",
		int64(time.Since(s.metrics.start).Seconds()))
	g("portend_requests_total", "Analysis requests answered with a verdict stream: runs, store hits and static fast-path answers.", "counter",
		s.metrics.requests.Load())
	g("portend_requests_completed_total", "Analyses that reached a terminal event.", "counter",
		s.metrics.completed.Load())
	g("portend_requests_bad_total", "Requests rejected as malformed (HTTP 400).", "counter",
		s.metrics.badReqs.Load())
	g("portend_requests_cancelled_total", "Analyses ended early by client disconnect or cancel.", "counter",
		s.metrics.cancelled.Load())
	g("portend_lint_rejections_total", "Submissions rejected at admission by an error-severity static lint (HTTP 422).", "counter",
		s.metrics.lintRejections.Load())
	g("portend_static_clean_fastpath_total", "Statically race-free submissions answered without taking an analysis slot.", "counter",
		s.metrics.staticClean.Load())
	g("portend_pruned_schedules_total", "Multi-path worklist items skipped by the static dead-item prune.", "counter",
		s.metrics.prunedSchedules.Load())
	g("portend_state_clone_allocs_total", "Allocations spent on copy-on-write VM state snapshots (State.Clone).", "counter",
		s.metrics.cloneAllocs.Load())
	g("portend_run_panics_total", "Runs that panicked and were isolated by the recover boundary.", "counter",
		s.metrics.runPanics.Load())
	g("portend_disconnects_total", "Requests whose client disconnected mid-flight (queued or streaming).", "counter",
		s.metrics.disconnects.Load())
	g("portend_store_hits_total", "Submissions answered by replaying a stored verdict stream.", "counter",
		s.metrics.storeHits.Load())
	g("portend_store_load_errors_total", "Verdict-store loads that failed verification or decoding (file quarantined) or reading.", "counter",
		s.metrics.storeLoadErrors.Load())
	g("portend_store_writes_total", "Verdict streams written to the store.", "counter",
		s.metrics.storeWrites.Load())
	g("portend_store_write_errors_total", "Verdict-store writes that failed (reuse lost, request unaffected).", "counter",
		s.metrics.storeWriteErrors.Load())
	g("portend_draining", "1 while the server is draining for shutdown.", "gauge",
		boolGauge(s.draining.Load()))
	g("portend_requests_active", "Analyses holding a slot right now.", "gauge",
		s.dispatch.active.Load())
	g("portend_shed_total", "Requests shed with HTTP 429 at the hard queue bound.", "counter",
		s.dispatch.shed.Load())
	g("portend_degraded_total", "Runs admitted with a degraded exploration budget.", "counter",
		s.dispatch.degraded.Load())

	depths := s.dispatch.depths()
	tenants := make([]string, 0, len(depths))
	for t := range depths {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	fmt.Fprintf(w, "# HELP portend_queue_depth Queued (admitted-but-waiting) requests per tenant.\n# TYPE portend_queue_depth gauge\n")
	for _, t := range tenants {
		fmt.Fprintf(w, "portend_queue_depth{tenant=%q} %d\n", t, depths[t])
	}
}
