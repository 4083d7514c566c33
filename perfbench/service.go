package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/workloads/corpus"
	"repro/portend"
)

// The service-open traffic alternates fresh submissions and repeats, and
// two tenants share at most two connections. The repeats cycle through
// the curated corpus, which is the same at every seed. Between two
// submissions of one curated program, 14 other repeats and 15 fresh
// programs arrive. That is 29 other tiers, so every repeat tier stays
// resident in the daemon's registry (32 tiers at the default memory
// budget) while the fresh submissions churn it.
const (
	serviceConns   = 2
	freshBatchSize = 20 // programs per family per generator call for the fresh pool
)

var tenants = [2]string{"tenant-a", "tenant-b"}

// submission is one scheduled request of the open-loop generator.
type submission struct {
	prog   int // index into the distinct programs
	repeat bool
	tenant string
	due    time.Duration // since the window opened
}

// reply is what the generator observed for one submission; all times
// are offsets from the window's start.
type reply struct {
	err         error
	status      int
	sent, first time.Duration
	done        time.Duration
	verdicts    []json.RawMessage
	raceErrs    int
	terminal    string
	info        *server.DoneInfo
}

// serviceInputs builds the distinct programs of a service-open run and
// its schedule: rate×seconds submissions at a fixed interval. Even
// submissions are fresh, odd ones repeats. The programs are the curated
// corpus (the repeat working set, its first nRepeat entries) followed
// by the fresh pool: generated programs deduplicated by source, in an
// order shuffled by the seed, so that costly families do not bunch up
// in time.
func serviceInputs(seed uint64, rate float64, window time.Duration) (progs []program, sched []submission, nRepeat int) {
	n := int(rate * window.Seconds())
	nFresh := (n + 1) / 2
	seen := map[string]bool{}
	for _, cp := range corpus.Curated() {
		seen[cp.Source] = true
		progs = append(progs, fromWorkload(cp.Workload))
	}
	nRepeat = len(progs)

	var pool []program
	for k := uint64(1); len(pool) < nFresh; k++ {
		genSeed := seed*1000 + k
		for _, cp := range corpus.Generate(genSeed, freshBatchSize) {
			if seen[cp.Source] {
				continue
			}
			seen[cp.Source] = true
			p := fromWorkload(cp.Workload)
			p.name = fmt.Sprintf("%s-s%d", cp.Name, genSeed)
			pool = append(pool, p)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x5e7))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	progs = append(progs, pool[:nFresh]...)

	sched = make([]submission, n)
	interval := time.Duration(float64(time.Second) / rate)
	for i := range sched {
		s := submission{repeat: i%2 == 1, tenant: tenants[i/2%len(tenants)], due: time.Duration(i) * interval}
		if s.repeat {
			s.prog = i / 2 % nRepeat
		} else {
			s.prog = nRepeat + i/2
		}
		sched[i] = s
	}
	return progs, sched, nRepeat
}

// daemon is a portendd process serving on loopback.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	exited  chan struct{} // closed once the process has been waited for
	waitErr error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts portendd with a durable data dir and returns once
// /readyz answers 200. The daemon runs cfg.width analyses at a time, each
// at pool width 1: concurrency comes from the requests, and the traced
// and untraced runs see the same daemon.
func startDaemon(cfg config, dataDir, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(cfg.portendd,
		"-addr", addr,
		"-data-dir", dataDir,
		"-slots", strconv.Itoa(cfg.width),
		"-parallel", "1")
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(cfg.width), "PORTEND_FAULTS=")
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start portendd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()

	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("portendd exited before ready: %v (log %s)", d.waitErr, logPath)
		default:
		}
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("portendd not ready after 20s (log %s)", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain takes too long. Stopping a stopped daemon is a no-op.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// scrape reads the daemon's Prometheus counters and gauges.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// submit posts one program and reads its NDJSON verdict stream.
func submit(ctx context.Context, c *http.Client, base string, p *program, tenant string, epoch time.Time) reply {
	body, err := json.Marshal(server.Request{Source: p.source, Name: p.name, Args: p.args, Inputs: p.inputs})
	if err != nil {
		return reply{err: err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.TenantHeader, tenant)
	r := reply{sent: time.Since(epoch), first: -1}
	resp, err := c.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return r
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	for sc.Scan() {
		var ev server.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			r.err = fmt.Errorf("decode event: %w", err)
			return r
		}
		now := time.Since(epoch)
		switch ev.Type {
		case server.EventVerdict, server.EventRaceError:
			if r.first < 0 {
				r.first = now
			}
			if ev.Type == server.EventVerdict {
				r.verdicts = append(r.verdicts, ev.Verdict)
			} else {
				r.raceErrs++
			}
		case server.EventError:
			r.terminal = ev.Message
		case server.EventDone:
			r.done, r.info = now, ev.Done
		}
	}
	if err := sc.Err(); err != nil {
		r.err = err
	}
	if r.info != nil && r.first < 0 {
		r.first = r.done
	}
	return r
}

// openLoop sends every submission when it falls due, over serviceConns
// connections. A submission due while both connections are busy waits
// for one, and that wait counts in its latency: every latency is
// measured from when the request was due.
func openLoop(ctx context.Context, base string, progs []program, sched []submission) ([]reply, time.Duration) {
	out := make([]reply, len(sched))
	epoch := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serviceConns; w++ {
		transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		c := &http.Client{Transport: transport}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer transport.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				s := sched[i]
				if d := time.Until(epoch.Add(s.due)); d > 0 {
					time.Sleep(d)
				}
				out[i] = submit(ctx, c, base, &progs[s.prog], s.tenant, epoch)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(epoch)
}

// normalized renders a verdict list as JSON with Stats zeroed: the
// fields the service must reproduce byte for byte.
func normalized(vs []portend.Verdict) (string, error) {
	var b strings.Builder
	for _, v := range vs {
		v.Stats = portend.Stats{}
		raw, err := json.Marshal(v)
		if err != nil {
			return "", err
		}
		b.Write(raw)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

func normalizedWire(raws []json.RawMessage) (string, error) {
	vs := make([]portend.Verdict, len(raws))
	for i, raw := range raws {
		if err := json.Unmarshal(raw, &vs[i]); err != nil {
			return "", err
		}
	}
	return normalized(vs)
}

// runService is the service-open workload: it starts portendd (several
// times, to time set-up), warms the repeat working set, runs the open
// loop, then checks every reply against an in-process analysis of the
// same program.
func runService(ctx context.Context, cfg config, tr *tracer, res *result) error {
	window := cfg.seconds
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(cfg.workdir, "service-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	dataDir := filepath.Join(runDir, "data")

	var progs []program
	var sched []submission
	var nRepeat int
	var d *daemon
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		progs, sched, nRepeat = serviceInputs(cfg.seed, cfg.rate, window)
		d, err = startDaemon(cfg, dataDir, filepath.Join(runDir, fmt.Sprintf("portendd-%d.log", i)))
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			d.stop()
		}
	}
	defer d.stop()

	// Warm the working set so that repeats read tiers an earlier
	// identical submission filled.
	warmClient := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	warm := make([]reply, nRepeat)
	for i := range warm {
		warm[i] = submit(ctx, warmClient, d.base, &progs[i], tenants[i%len(tenants)], time.Now())
	}
	warmClient.CloseIdleConnections()

	before, err := d.scrape()
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	replies, wall := openLoop(ctx, d.base, progs, sched)
	after, err := d.scrape()
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	d.stop()
	disk, err := dirBytes(dataDir)
	if err != nil {
		return err
	}

	// Reference verdicts for every distinct program, computed in process
	// after the daemon has stopped.
	refChk := &checker{}
	ref := make([]string, len(progs))
	badProg := make([]bool, len(progs))
	var layer map[string]float64
	if cfg.trace {
		layer, err = traceReference(ctx, progs, ref, badProg, refChk, tr)
	} else {
		err = referencePass(ctx, cfg.width, progs, ref, badProg, refChk)
	}
	if err != nil {
		return err
	}
	for _, f := range refChk.first {
		fmt.Fprintln(os.Stderr, "reference:", f)
	}

	chk := &checker{}
	check := func(s submission, r reply) bool {
		chk.attempted++
		p := &progs[s.prog]
		switch {
		case r.err != nil:
			chk.fail("%s: transport: %v", p.name, r.err)
		case r.status != http.StatusOK:
			chk.fail("%s: HTTP %d", p.name, r.status)
		case r.terminal != "":
			chk.fail("%s: terminal error: %s", p.name, r.terminal)
		case r.raceErrs > 0:
			chk.fail("%s: %d raceError events", p.name, r.raceErrs)
		case r.info == nil:
			chk.fail("%s: stream ended without done", p.name)
		case badProg[s.prog]:
			chk.fail("%s: in-process verdicts disagree with the labels", p.name)
		default:
			got, err := normalizedWire(r.verdicts)
			if err != nil {
				chk.fail("%s: %v", p.name, err)
			} else if got != ref[s.prog] {
				chk.fail("%s: service verdicts differ from in-process verdicts", p.name)
			} else {
				return true
			}
		}
		return false
	}
	for i, r := range warm {
		check(submission{prog: i, repeat: true}, r)
	}

	var ttfv, lat, fresh, repeat, wait, runFresh, runRepeat, late []float64
	within, warmRepeats, repeats, races := 0, 0, 0, 0
	var lastDone time.Duration
	for i, s := range sched {
		r := replies[i]
		if s.repeat {
			repeats++
		}
		if r.err == nil {
			late = append(late, ms(r.sent-s.due))
		}
		if !check(s, r) {
			continue
		}
		races += len(r.verdicts)
		lastDone = max(lastDone, r.done)
		l := ms(r.done - s.due)
		run := float64(r.info.DurationNs) / 1e6
		ttfv = append(ttfv, ms(r.first-s.due))
		lat = append(lat, l)
		wait = append(wait, l-run)
		if l <= cfg.sloMs {
			within++
		}
		if s.repeat {
			repeat = append(repeat, l)
			runRepeat = append(runRepeat, run)
			if r.info.WarmStart {
				warmRepeats++
			}
		} else {
			fresh = append(fresh, l)
			runFresh = append(runFresh, run)
		}
		if tr != nil {
			root := tr.add("request", tr.epoch.Add(s.due), tr.epoch.Add(r.done), -1, -1-i)
			tr.add("loadgen.send", tr.epoch.Add(s.due), tr.epoch.Add(r.sent), root, -1-i)
			tr.add("server.run", tr.epoch.Add(r.done-time.Duration(r.info.DurationNs)), tr.epoch.Add(r.done), root, -1-i)
		}
	}
	for _, f := range chk.first {
		fmt.Fprintln(os.Stderr, "service:", f)
	}
	res.Attempted, res.Failed = chk.attempted, chk.failed
	if len(lat) == 0 {
		return errors.New("no request reached done")
	}

	e2e := map[string]float64{
		"races_per_s":   float64(races) / lastDone.Seconds(),
		"ttfv_p50_ms":   percentile(ttfv, 50),
		"ttfv_p90_ms":   percentile(ttfv, 90),
		"req_p50_ms":    percentile(lat, 50),
		"req_p99_ms":    percentile(lat, 99),
		"fresh_p50_ms":  percentile(fresh, 50),
		"repeat_p50_ms": percentile(repeat, 50),
		"slo_frac":      float64(within) / float64(len(sched)),
		"setup_s":       median(setups),
		"peak_rss_mb":   rss,
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	warmFrac := 0.0
	if repeats > 0 {
		warmFrac = float64(warmRepeats) / float64(repeats)
	}
	srv := map[string]float64{
		"server.wait_p50_ms":       percentile(wait, 50),
		"server.wait_p99_ms":       percentile(wait, 99),
		"server.run_fresh_p50_ms":  percentile(runFresh, 50),
		"server.run_repeat_p50_ms": percentile(runRepeat, 50),
		"server.warm_frac":         warmFrac,
		"server.tier_flushes":      delta("portend_tier_flushes_total"),
		"server.tier_evictions":    delta("portend_tier_evictions_total"),
		"server.shed":              delta("portend_shed_total"),
		"server.degraded":          delta("portend_degraded_total"),
		"server.tier_bytes":        delta("portend_tier_bytes"),
		"dstore.disk_bytes":        float64(disk),
		"loadgen.late_p99_ms":      percentile(late, 99),
	}
	fmt.Fprintf(os.Stderr, "service-open: %d requests (%d fresh, %d repeat) over %v, %d failed\n",
		len(sched), len(sched)-repeats, repeats, wall.Round(time.Millisecond), chk.failed)
	if !cfg.trace {
		res.set(e2e)
		return nil
	}
	for k, v := range srv {
		layer[k] = v
	}
	layer["server.self_ms"] = ms(tr.selfTimes()["server"]) / float64(len(lat))
	res.set(layer)
	return nil
}

// referencePass analyzes every program in process at the given pool
// width, checks its verdicts against the labels, and stores the
// normalized verdicts the service's replies must equal.
func referencePass(ctx context.Context, width int, progs []program, ref []string, badProg []bool, chk *checker) error {
	a := portend.New(portend.WithParallel(width))
	for i := range progs {
		var vs []portend.Verdict
		failedBefore := chk.failed
		for v, err := range a.Analyze(ctx, progs[i].target()) {
			chk.verdict(&progs[i], v, err)
			if err == nil {
				vs = append(vs, v)
			}
		}
		badProg[i] = chk.failed > failedBefore
		var err error
		if ref[i], err = normalized(vs); err != nil {
			return err
		}
	}
	return nil
}

// traceReference computes the service run's reference verdicts at pool
// width 1 with one untraced and one traced pass over the distinct
// programs; the traced pass supplies the service workload's engine-layer
// metrics.
func traceReference(ctx context.Context, progs []program, ref []string, badProg []bool, chk *checker, tr *tracer) (map[string]float64, error) {
	t0 := time.Now()
	if err := referencePass(ctx, 1, progs, ref, badProg, chk); err != nil {
		return nil, err
	}
	plainPass := time.Since(t0)
	var ls layerSamples
	t1 := time.Now()
	c, err := tracedPass(ctx, tr, progs, 0, &ls, chk)
	if err != nil {
		return nil, err
	}
	m := layerMetrics(c, &ls)
	addTraceMetrics(m, tr, 1, ms(time.Since(t1)), ms(plainPass))
	return m, nil
}
