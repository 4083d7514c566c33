package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dstore"
	"repro/internal/fault"
	"repro/internal/workloads"
	"repro/internal/workloads/corpus"
)

// storeFiles lists the live store files under dir.
func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tier") {
			out = append(out, e.Name())
		}
	}
	return out
}

func metricValue(t *testing.T, base, name string) string {
	t.Helper()
	for _, line := range strings.Split(scrapeMetrics(t, base), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	return ""
}

// streamLines posts a request and returns the raw NDJSON lines of its
// verdict events, stats included, plus the done summary.
func streamLines(t *testing.T, base string, req Request) (lines []string, done *DoneInfo) {
	t.Helper()
	resp := postAnalyze(t, base, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line: %v\n%s", err, sc.Bytes())
		}
		switch ev.Type {
		case EventVerdict:
			lines = append(lines, sc.Text())
		case EventDone:
			done = ev.Done
		default:
			t.Fatalf("unexpected %s event: %s", ev.Type, sc.Bytes())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if done == nil {
		t.Fatal("stream ended without a done event")
	}
	return lines, done
}

// TestTierSurvivesRestart is the verdict store end to end: every
// workload and curated corpus program analyzed by one daemon instance is
// answered from the store by the next instance sharing its data dir —
// warmStart on the done event, and verdict event lines byte-identical to
// the pre-restart run, stats included, at pool widths 1 and 8.
func TestTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	type sub struct {
		name string
		req  Request
	}
	var subs []sub
	for _, w := range workloads.All() {
		subs = append(subs, sub{name: "workload/" + w.Name, req: Request{Workload: w.Name}})
	}
	for _, cp := range corpus.Curated() {
		req := Request{Source: cp.Source, Name: cp.Name}
		if cp.Args != nil {
			req.Args = cp.Args
		}
		if cp.Inputs != nil {
			req.Inputs = cp.Inputs
		}
		subs = append(subs, sub{name: "corpus/" + cp.Name, req: req})
	}

	// First life: analyze everything cold; each completed run writes its
	// entry before its done event.
	s1 := New(Config{DataDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	coldLines := make(map[string][]string)
	for _, sb := range subs {
		req := sb.req
		req.Options = &RequestOptions{Parallel: 1}
		lines, done := streamLines(t, ts1.URL, req)
		if done.WarmStart {
			t.Errorf("%s: cold first run claims warm start", sb.name)
		}
		coldLines[sb.name] = lines
	}
	written := storeFiles(t, dir)
	if len(written) != len(subs) {
		t.Fatalf("first life wrote %d entries, want %d", len(written), len(subs))
	}
	// Drain only waits for in-flight runs; it writes nothing.
	s1.Drain()
	ts1.Close()
	if got := storeFiles(t, dir); len(got) != len(written) {
		t.Fatalf("drain changed the store: %d files, want %d", len(got), len(written))
	}

	// Second life: a fresh process image over the same data dir.
	s2 := New(Config{DataDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	for _, sb := range subs {
		for _, width := range []int{1, 8} {
			req := sb.req
			req.Options = &RequestOptions{Parallel: width}
			lines, done := streamLines(t, ts2.URL, req)
			tag := fmt.Sprintf("%s width=%d", sb.name, width)
			assertSame(t, tag+" event lines vs pre-restart", coldLines[sb.name], lines)
			if !done.WarmStart {
				t.Errorf("%s: not answered from the store after restart", tag)
			}
		}
	}
	if v := metricValue(t, ts2.URL, "portend_store_hits_total"); v != fmt.Sprint(2*len(subs)) {
		t.Errorf("portend_store_hits_total = %q, want %d", v, 2*len(subs))
	}
	if s2.dispatch.active.Load() != 0 || metricValue(t, ts2.URL, "portend_store_writes_total") != "0" {
		t.Error("store hits ran or wrote entries")
	}
}

// TestCorruptTierQuarantined pins the recovery path: a flipped byte in a
// store file must cost reuse only — the daemon quarantines the file,
// logs, runs the submission cold, produces the same verdicts, and
// writes a good entry back.
func TestCorruptTierQuarantined(t *testing.T) {
	dir := t.TempDir()
	req := Request{Workload: "sqlite", Options: &RequestOptions{Parallel: 1}}

	s1 := New(Config{DataDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	c1 := &Client{Base: ts1.URL}
	wantLines, _, _ := remoteVerdicts(t, c1, req)
	ts1.Close()

	files := storeFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("store files = %v, want exactly 1", files)
	}
	path := filepath.Join(dir, files[0])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{DataDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	c2 := &Client{Base: ts2.URL}
	gotLines, _, done := remoteVerdicts(t, c2, req)
	if done.WarmStart {
		t.Error("corrupt entry still reported warm")
	}
	assertSame(t, "verdicts after quarantine", wantLines, gotLines)

	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
	if v := metricValue(t, ts2.URL, "portend_store_load_errors_total"); v != "1" {
		t.Errorf("portend_store_load_errors_total = %q, want 1", v)
	}
	// The cold rerun wrote a good entry under the live name.
	if got := storeFiles(t, dir); len(got) != 1 {
		t.Errorf("live store files after recovery = %v, want 1", got)
	}
}

// TestUnreadableEntryRunsCold covers store files that are not verdict
// streams of this schema: a leftover portend-tier/1 cache-tier snapshot,
// a length field near 2^64 (which once overflowed the bounds check and
// panicked), and a well-framed payload that is not an event stream. The
// first request quarantines the file, counts one load error, runs cold
// and writes an entry; the second is a store hit.
func TestUnreadableEntryRunsCold(t *testing.T) {
	req := Request{Workload: "rw", Options: &RequestOptions{Parallel: 1}}
	s0 := New(Config{})
	key := keyFor(&req, s0.optionsFor(&req))
	name := hex.EncodeToString(key[:]) + ".tier"

	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"legacy-tier", append([]byte("portend-tier/1\n\x00\x00\x00\x00\x00\x00\x00\x02"), "{}\x00\x00\x00\x00"...)},
		{"length-overflow", append([]byte(dstore.Schema+"\n\xff\xff\xff\xff\xff\xff\xff\xff"), "payload and crc"...)},
		{"not-a-stream", framed([]byte("{\"type\":\"error\"}\n"))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, tc.raw, 0o644); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(New(Config{DataDir: dir}).Handler())
			defer ts.Close()

			first, done1 := streamLines(t, ts.URL, req)
			if done1.WarmStart {
				t.Error("unreadable entry reported warm")
			}
			if _, err := os.Stat(path + ".quarantine"); err != nil {
				t.Errorf("quarantine file missing: %v", err)
			}
			if v := metricValue(t, ts.URL, "portend_store_load_errors_total"); v != "1" {
				t.Errorf("portend_store_load_errors_total = %q, want 1", v)
			}
			if v := metricValue(t, ts.URL, "portend_store_writes_total"); v != "1" {
				t.Errorf("portend_store_writes_total = %q, want 1", v)
			}
			second, done2 := streamLines(t, ts.URL, req)
			if !done2.WarmStart {
				t.Error("second request not answered from the store")
			}
			assertSame(t, "stored event lines", first, second)
		})
	}
}

// framed wraps payload in the store's container format.
func framed(payload []byte) []byte {
	raw := append([]byte(dstore.Schema+"\n"), binary.BigEndian.AppendUint64(nil, uint64(len(payload)))...)
	raw = append(raw, payload...)
	return binary.BigEndian.AppendUint32(raw, crc32.ChecksumIEEE(payload))
}

// rawEvents posts a request and decodes every NDJSON event.
func rawEvents(t *testing.T, base string, req Request) []Event {
	t.Helper()
	resp := postAnalyze(t, base, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line: %v\n%s", err, sc.Bytes())
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	return evs
}

// TestPanicIsolation pins the recover boundary: an injected panic in one
// run becomes a typed error event on that stream only — the concurrent
// tenant's run completes, the daemon keeps serving, the panic counter
// ticks, and the run stores nothing, so the next identical submission
// runs cold.
func TestPanicIsolation(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	dir := t.TempDir()
	s := New(Config{Slots: 2, DataDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	// Tenant B holds a slot mid-run before the fault is armed.
	cancelB, exitedB := startSlow(t, s, c, "b")
	defer func() { cancelB(); <-exitedB }()

	if err := fault.Set(fault.RunPanic + ":1"); err != nil {
		t.Fatal(err)
	}
	evs := rawEvents(t, ts.URL, Request{Workload: "rw", Options: &RequestOptions{Parallel: 1}})
	last := evs[len(evs)-1]
	if last.Type != EventError || !last.Panic {
		t.Fatalf("terminal event = %+v, want panic error", last)
	}
	if last.Stack == "" || !strings.Contains(last.Message, "injected run panic") {
		t.Fatalf("panic event missing stack or message: %+v", last)
	}
	if len(storeFiles(t, dir)) != 0 {
		t.Errorf("panicked run left store files: %v", storeFiles(t, dir))
	}

	// The daemon is unharmed: the same submission immediately succeeds,
	// cold, while tenant B is still running.
	done, err := c.Analyze(context.Background(), Request{Workload: "rw", Options: &RequestOptions{Parallel: 1}}, nil)
	if err != nil {
		t.Fatalf("post-panic run: %v", err)
	}
	if done.WarmStart {
		t.Error("post-panic run warm; the panicked run stored an entry")
	}
	if v := metricValue(t, ts.URL, "portend_run_panics_total"); v != "1" {
		t.Errorf("portend_run_panics_total = %q, want 1", v)
	}
}

// TestRunTimeoutWatchdog pins the per-run watchdog: a run over its
// budget is cancelled through the context plumbing, the stream ends
// with a terminal error event, the slot frees promptly, the run stores
// nothing — and the timeout is not miscounted as a client disconnect.
func TestRunTimeoutWatchdog(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Slots: 1, RunTimeout: 200 * time.Millisecond, DataDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	start := time.Now()
	_, err := c.Analyze(context.Background(),
		Request{Source: slowSource(2_000_000), Name: "hog", Options: &RequestOptions{Parallel: 1}}, nil)
	if err == nil {
		t.Fatal("watchdogged run reported success")
	}
	if _, ok := err.(*RemoteError); !ok {
		t.Fatalf("err = %T %v, want *RemoteError", err, err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("watchdog took %v to fire", elapsed)
	}
	if got := storeFiles(t, dir); len(got) != 0 {
		t.Errorf("watchdog-ended run left store files: %v", got)
	}

	// The slot must be free for the next run.
	done, err := c.Analyze(context.Background(), Request{Workload: "rw"}, nil)
	if err != nil || done.Verdicts == 0 {
		t.Fatalf("run after watchdog: %v (done %+v)", err, done)
	}
	if v := metricValue(t, ts.URL, "portend_disconnects_total"); v != "0" {
		t.Errorf("portend_disconnects_total = %q, want 0 (watchdog is not a disconnect)", v)
	}
}

// TestReadyzSplit pins the liveness/readiness split: /healthz stays 200
// for the life of the process while /readyz (and admission) turn away
// work once draining starts.
func TestReadyzSplit(t *testing.T) {
	s := New(Config{DrainTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", got)
	}
	s.Drain()
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz after drain = %d, want 200 (liveness is not readiness)", got)
	}

	resp := postAnalyze(t, ts.URL, Request{Workload: "rw"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("analyze while draining = %d, want 503", resp.StatusCode)
	}
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || !eb.Draining {
		t.Fatalf("draining body = %+v (%v), want Draining=true", eb, err)
	}
}
