package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// bootRecord is what one daemon boot's tenants reported at its end,
// with how many ingest requests each acknowledged.
type bootRecord struct {
	Boot    string        `json:"boot"`
	Tenants []tenantCount `json:"tenants"`
}

type tenantCount struct {
	Requests int `json:"requests"`
	Rows     int `json:"rows"`
	Live     int `json:"live_violations"`
}

// daemon is one pfdserved process.
type daemon struct {
	cmd     *exec.Cmd
	base    string        // http://addr
	scanned chan struct{} // closed when the daemon's stderr reaches EOF
	pid     string
}

// serveRun is the serving phase: the daemon in its own process and this
// process as the single load generator.
type serveRun struct {
	w    *workload
	o    *options
	tr   *tracer
	res  *result
	rc   *runContext
	st   *stream
	put  []byte       // ruleset JSON for tenants installed by PUT
	reqs atomic.Int64 // request ids of traced requests
}

func runServe(ctx context.Context, w *workload, o *options, tr *tracer) (*result, error) {
	st, err := loadStream(ctx, w, o.dir)
	if err != nil {
		return nil, err
	}
	s := &serveRun{w: w, o: o, tr: tr, res: newResult(), rc: newRunContext(), st: st}
	s.res.Context = s.rc
	if !w.preload {
		if s.put, err = os.ReadFile(filepath.Join(o.dir, rulesJSON)); err != nil {
			return nil, err
		}
	}
	// Only the pre-encoded bodies stay live while the generator times.
	st.table = nil
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.res, nil
}

func (s *serveRun) run() error {
	w := s.w
	// The first boots carry the load, one step each, so that the check
	// replays no more than the longest step. The ladder yields only a
	// per-layer figure and a pass/fail check, so only the traced run
	// climbs it.
	type step struct {
		name string
		run  func(*daemon, []int)
	}
	steps := []step{{"saturate", s.saturate}}
	if s.o.trace {
		steps = append(steps, step{"ladder", s.ladder})
	}
	steps = append(steps, step{"openloop", s.openLoop})
	last := len(steps) - 1
	var setups []float64
	var peak float64
	for i := 0; i < w.boots; i++ {
		// Collect the generator's garbage outside the timed steps.
		runtime.GC()
		dir := filepath.Join(s.o.dir, "serve", fmt.Sprintf("boot%d", i))
		stop := s.rc.window(fmt.Sprintf("boot%d", i))
		d, secs, err := s.boot(dir)
		stop()
		if err != nil {
			return err
		}
		setups = append(setups, secs)
		sent := make([]int, w.tenants)
		for j := range sent {
			sent[j] = 1
		}
		if i <= last {
			stop := s.rc.window(steps[i].name)
			steps[i].run(d, sent)
			stop()
		}
		counts, ok := s.record(d, fmt.Sprintf("boot%d", i), sent)
		if rss, err := peakRSSMB(d.pid); err == nil {
			peak = max(peak, rss)
		} else {
			s.res.op("reading daemon peak RSS", err)
		}
		if i == last {
			s.res.Recovery = &recoveryPlan{Dir: dir, Acked: counts, OK: ok}
			if !w.dataDir {
				// A memory-only daemon keeps nothing it acknowledged:
				// its tenants must come back empty.
				s.res.Recovery.Acked, s.res.Recovery.OK = make([]tenantCount, w.tenants), true
			}
		}
		if i != 0 {
			d.stop(syscall.SIGKILL)
			continue
		}
		// The daemon that carried the closed loop shuts down
		// gracefully: SIGTERM must drain it and exit 0.
		err = d.stop(syscall.SIGTERM)
		if err != nil {
			err = fmt.Errorf("%w; daemon log ends %q", err, s.logTail(3))
		}
		s.res.op("graceful daemon shutdown", err)
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s setup seconds %.4f\n", w.name, setups)
	s.res.set("setup_s", median(setups), "s")
	s.res.set("serve_peak_rss_mb", peak, "MiB")
	return nil
}

// recoveryPlan is what the restarts need from the serving phase: the
// open loop's data directory and the counters its tenants
// acknowledged (ok is false when they could not be read).
type recoveryPlan struct {
	Dir   string        `json:"dir"`
	Acked []tenantCount `json:"acked"`
	OK    bool          `json:"ok"`
}

// restartRound brings back the open loop's daemon, untimed, and then
// kills and restarts it n times (recover), leaving none running.
//
// Every restart recovers the open loop's data directory, so every one
// replays the same journal: restarts after different boots replayed
// journals of different lengths, their durations formed clusters, and
// the median flipped between the clusters from run to run. The
// orchestrator runs the rounds between batch rounds, so that their
// median covers the whole run: 31 restarts in one burst right after the
// open loop took 8 ms in one t13-compact-fsync run and 13 ms in the
// next, as the host's pace moved.
func (s *serveRun) restartRound(plan *recoveryPlan, n int, secs *[]float64) error {
	if plan == nil || !plan.OK {
		// Without the acknowledged counters there is nothing to check
		// a restart against: each restart fails.
		for r := 0; r < n; r++ {
			s.res.op("recovery", errors.New("no acknowledged counters to compare with"))
		}
		return nil
	}
	d, err := s.start(plan.Dir)
	if err != nil {
		return err
	}
	stop := s.rc.window("recovery")
	d, err = s.recover(d, plan.Dir, n, plan.Acked, secs)
	stop()
	if err != nil {
		return err
	}
	d.stop(syscall.SIGKILL)
	return nil
}

// args is the daemon's command line for a boot on dataDir.
func (s *serveRun) args(dataDir string) []string {
	w := s.w
	args := []string{"-addr", "127.0.0.1:0", "-idle", "0", "-drain", "10s"}
	if w.preload {
		args = append(args, "-rules", filepath.Join(s.o.dir, rulesJSON),
			"-tenant", w.tenantName(0), "-ref", filepath.Join(s.o.dir, refPFDT))
	}
	if w.dataDir {
		args = append(args, "-data-dir", dataDir)
	}
	if w.fsync {
		args = append(args, "-fsync")
	}
	return args
}

// start launches the daemon and waits for its listening line.
func (s *serveRun) start(dataDir string) (*daemon, error) {
	cmd := command(s.o.server, s.args(dataDir)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(s.o.dir, "pfdserved.log"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, scanned: make(chan struct{}), pid: fmt.Sprint(cmd.Process.Pid)}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.scanned)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			fmt.Fprintln(logf, sc.Text())
			if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok {
				select {
				case addrc <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		d.base = "http://" + strings.TrimSpace(addr)
		return d, nil
	case <-d.scanned:
		d.stop(syscall.SIGKILL)
		return nil, fmt.Errorf("pfdserved exited before listening (log in %s)", filepath.Join(s.o.dir, "pfdserved.log"))
	case <-time.After(60 * time.Second):
		d.stop(syscall.SIGKILL)
		return nil, errors.New("pfdserved did not listen within 60s")
	}
}

// logTail returns the last n lines of the daemons' log.
func (s *serveRun) logTail(n int) []string {
	raw, _ := os.ReadFile(filepath.Join(s.o.dir, "pfdserved.log"))
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	return lines[max(len(lines)-n, 0):]
}

// stop signals the daemon and waits until it has exited. A SIGTERM
// drain that outlasts 30s is cut with SIGKILL.
func (d *daemon) stop(sig syscall.Signal) error {
	if err := d.cmd.Process.Signal(sig); err != nil {
		return err
	}
	if sig != syscall.SIGKILL {
		select {
		case <-d.scanned:
		case <-time.After(30 * time.Second):
			d.cmd.Process.Kill() //nolint:errcheck // already failing
		}
	}
	<-d.scanned
	err := d.cmd.Wait()
	if sig == syscall.SIGKILL {
		return nil
	}
	return err
}

// boot starts a daemon on a fresh data directory and returns setup_s:
// launch until every tenant has its ruleset and has acknowledged its
// first ingest (which starts its engine lazily, replaying -ref first).
func (s *serveRun) boot(dataDir string) (*daemon, float64, error) {
	start := time.Now()
	d, err := s.start(dataDir)
	if err != nil {
		return nil, 0, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	for j := 0; j < s.w.tenants && !s.w.preload; j++ {
		s.res.op("PUT ruleset", s.do(c, d, op{tenant: j, put: true}))
	}
	for j := 0; j < s.w.tenants; j++ {
		s.res.op("first ingest", s.do(c, d, op{tenant: j, body: s.st.body(s.w, j, 0)}))
	}
	return d, time.Since(start).Seconds(), nil
}

func newClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// op is one scheduled request: an ingest of body to tenant, a ruleset
// PUT, or a read of path.
type op struct {
	tenant int
	body   int
	put    bool
	path   string // read: relative to the tenant, or absolute with a leading "/"
	due    time.Duration
}

func (o op) read() bool { return o.path != "" }

// do sends one request and checks its status (and for an ingest, that
// every tuple was accepted).
func (s *serveRun) do(c *http.Client, d *daemon, o op) error {
	tenant := d.base + "/v1/tenants/" + s.w.tenantName(o.tenant)
	var req *http.Request
	var err error
	switch {
	case o.put:
		req, err = http.NewRequest(http.MethodPut, tenant+"/ruleset", bytes.NewReader(s.put))
	case o.read() && strings.HasPrefix(o.path, "/"):
		req, err = http.NewRequest(http.MethodGet, d.base+o.path, nil)
	case o.read():
		req, err = http.NewRequest(http.MethodGet, tenant+"/"+o.path, nil)
	default:
		req, err = http.NewRequest(http.MethodPost, tenant+"/tuples", bytes.NewReader(s.st.bodies[o.body]))
		if err == nil {
			ct := "text/csv"
			if s.w.format == "jsonl" {
				ct = "application/x-ndjson"
			}
			req.Header.Set("Content-Type", ct)
		}
	}
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %.200s", req.Method, req.URL.Path, resp.Status, body)
	}
	if o.put || o.read() {
		return nil
	}
	var ack struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return fmt.Errorf("ingest ack: %w", err)
	}
	rg := s.st.ranges[o.body]
	if ack.Accepted != rg[1]-rg[0] {
		return fmt.Errorf("ingest accepted %d of %d tuples", ack.Accepted, rg[1]-rg[0])
	}
	return nil
}

// sample is one request's outcome: latency counted from when it was
// due, and how late the generator sent it.
type sample struct {
	op   op
	lat  time.Duration
	late time.Duration
	err  error
}

// schedule lays out n ingest requests at rate rows/s over the ingest
// connections, continuing each tenant's sequence from sent. Request k of
// the schedule goes to tenant k % tenants, on connection tenant % conns,
// so each tenant's requests arrive in order. An infinite rate makes
// every request due at once: each connection then sends back to back,
// a closed loop.
func (s *serveRun) schedule(n int, rate float64, sent []int) [][]op {
	w := s.w
	interval := time.Duration(float64(time.Second) * float64(w.rows) / rate)
	sched := make([][]op, w.conns)
	for i := 0; i < n; i++ {
		j := i % w.tenants
		o := op{tenant: j, body: s.st.body(w, j, sent[j]), due: time.Duration(i) * interval}
		sent[j]++
		sched[j%w.conns] = append(sched[j%w.conns], o)
		if w.readEvery > 0 && i%w.readEvery == w.readEvery-1 {
			r := op{tenant: j, path: w.reads[(i/w.readEvery)%len(w.reads)], due: o.due + interval/2}
			sched[j%w.conns] = append(sched[j%w.conns], r)
		}
	}
	return sched
}

// drive runs an open-loop schedule: one goroutine per connection sends
// its requests at their due times, whatever the daemon's pace. The
// samples come back in due order.
func (s *serveRun) drive(d *daemon, sched [][]op, parent int) []sample {
	start := time.Now().Add(5 * time.Millisecond)
	out := make([][]sample, len(sched))
	var wg sync.WaitGroup
	for ci, ops := range sched {
		if len(ops) == 0 {
			continue
		}
		wg.Add(1)
		go func(ci int, ops []op) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			res := make([]sample, 0, len(ops))
			for _, o := range ops {
				due := start.Add(o.due)
				time.Sleep(time.Until(due))
				name := "http.ingest"
				if o.read() {
					name = "http.get." + strings.TrimPrefix(o.path, "/")
				}
				id := s.tr.begin(name, parent, int(s.reqs.Add(1)))
				sent := time.Now()
				err := s.do(c, d, o)
				done := time.Now()
				s.tr.end(id)
				res = append(res, sample{op: o, lat: done.Sub(due), late: sent.Sub(due), err: err})
			}
			out[ci] = res
		}(ci, ops)
	}
	wg.Wait()
	var all []sample
	for _, r := range out {
		all = append(all, r...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].op.due < all[j].op.due })
	for _, sm := range all {
		s.res.op("request", sm.err)
	}
	return all
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// delivered is the ingest throughput of a driven schedule: rows
// acknowledged over the time from its first due request to its last
// acknowledgment. It also returns the ingest latencies and lateness
// (ms, in due order) and how many ingests failed.
func (s *serveRun) delivered(samples []sample) (rate float64, lats, lates []float64, failed int) {
	rows := 0
	var span time.Duration
	for _, sm := range samples {
		if sm.op.read() {
			continue
		}
		if sm.err != nil {
			failed++
		} else {
			rg := s.st.ranges[sm.op.body]
			rows += rg[1] - rg[0]
		}
		span = max(span, sm.op.due+sm.lat)
		lats = append(lats, ms(sm.lat))
		lates = append(lates, ms(sm.late))
	}
	return float64(rows) / span.Seconds(), lats, lates, failed
}

// ladder offers the workload's fixed rates in turn, each for
// ladderReqs ingest requests, until one fails: its p95 latency exceeds
// the limit, or the generator's lateness at its end does (a growing
// backlog). It is a pass/fail check that the lowest rate holds; the
// highest rate that held is reported as loadgen.ladder_rows_per_s. That
// figure moves only when saturation crosses a rung, so it cannot be the
// throughput metric; saturate measures that.
func (s *serveRun) ladder(d *daemon, sent []int) {
	w := s.w
	best := math.NaN()
	for _, rate := range w.ladder {
		id := s.tr.begin(fmt.Sprintf("ladder.%g", rate), 0, 0)
		sched := s.schedule(w.ladderReqs, rate, sent)
		samples := s.drive(d, sched, id)
		s.tr.end(id)
		got, lats, lates, failed := s.delivered(samples)
		p95 := quantile(lats, 0.95)
		tail := median(lates[len(lates)-max(len(lates)/10, 1):])
		pass := failed == 0 && p95 <= w.limitMS && tail <= w.limitMS
		fmt.Fprintf(os.Stderr, "e2ebench: %s ladder %6.0f rows/s: delivered %.0f rows/s, p95 %.2f ms, tail lateness %.2f ms, %d failed: pass=%v\n",
			w.name, rate, got, p95, tail, failed, pass)
		if !pass {
			break
		}
		best = rate
	}
	s.res.verify("ladder lowest rate sustained", !math.IsNaN(best), "ladder %v, limit %g ms", w.ladder, w.limitMS)
	s.res.set("loadgen.ladder_rows_per_s", best, "rows/s")
}

// saturate drives the daemon closed loop, every connection sending
// its next request as soon as the last is acknowledged, for satReqs
// ingest requests. ingest_max_rows_per_s is the throughput it
// delivers: the daemon is saturated throughout, so the figure follows
// its capacity smoothly. It is taken over the whole step rather than as
// a median of parts: a tenant fed from empty slows as its state grows
// (on t13-compact-fsync from about 17,000 rows/s in the first fifth of
// the step to 11,000 in the last), so a part's rate depends on where in
// that slope it falls.
func (s *serveRun) saturate(d *daemon, sent []int) {
	id := s.tr.begin("saturate", 0, 0)
	samples := s.drive(d, s.schedule(s.w.satReqs, math.Inf(1), sent), id)
	s.tr.end(id)
	rate, _, _, failed := s.delivered(samples)
	fmt.Fprintf(os.Stderr, "e2ebench: %s closed loop: %d ingests, delivered %.0f rows/s, %d failed\n",
		s.w.name, s.w.satReqs, rate, failed)
	s.res.set("ingest_max_rows_per_s", rate, "rows/s")
}

// openLoop sends at least openReqs ingest requests, and at least
// -seconds worth, at the fixed open-loop rate, with reads beside them.
func (s *serveRun) openLoop(d *daemon, sent []int) {
	w := s.w
	n := max(w.openReqs, int(math.Ceil(float64(s.o.seconds)*w.openRate/float64(w.rows))))
	sched := s.schedule(n, w.openRate, sent)
	id := s.tr.begin("openloop", 0, 0)
	samples := s.drive(d, sched, id)
	s.tr.end(id)
	var lats, lates, reports []float64
	for _, sm := range samples {
		switch {
		case !sm.op.read():
			lats = append(lats, ms(sm.lat))
			lates = append(lates, ms(sm.late))
		case sm.op.path == "report":
			reports = append(reports, ms(sm.lat))
		}
	}
	s.res.set("ingest_p50_ms", median(lats), "ms")
	s.res.set("loadgen.ingest_p90_ms", quantile(lats, 0.90), "ms")
	s.res.set("loadgen.ingest_p95_ms", quantile(lats, 0.95), "ms")
	s.res.set("loadgen.ingest_p99_ms", quantile(lats, 0.99), "ms")
	s.res.set("report_p50_ms", median(reports), "ms")
	s.res.set("loadgen.lateness_p50_ms", median(lates), "ms")
	s.res.set("loadgen.lateness_p99_ms", quantile(lates, 0.99), "ms")
	s.res.set("loadgen.open_requests", float64(len(lats)), "count")
	s.res.set("loadgen.report_samples", float64(len(reports)), "count")
	fmt.Fprintf(os.Stderr, "e2ebench: %s open loop %.0f rows/s, %d ingests: p50 %.2f ms p95 %.2f ms p99 %.2f ms; lateness p50 %.2f ms p99 %.2f ms; %d /report p50 %.2f ms\n",
		w.name, w.openRate, len(lats), median(lats), quantile(lats, 0.95), quantile(lats, 0.99), median(lates), quantile(lates, 0.99), len(reports), median(reports))
}

// reports reads every tenant's counters through GET /report.
func (s *serveRun) reports(d *daemon, sent []int) ([]tenantCount, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	out := make([]tenantCount, s.w.tenants)
	for j := range out {
		resp, err := c.Get(d.base + "/v1/tenants/" + s.w.tenantName(j) + "/report")
		if err != nil {
			return nil, err
		}
		var rep struct {
			Rows int `json:"rows"`
			Live int `json:"live_violations"`
		}
		err = json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET report: %s", resp.Status)
		}
		if err != nil {
			return nil, err
		}
		out[j] = tenantCount{Requests: sent[j], Rows: rep.Rows, Live: rep.Live}
	}
	return out, nil
}

// record keeps a boot's final counters for the check phase and
// returns them; ok is false when they could not be read.
func (s *serveRun) record(d *daemon, name string, sent []int) (counts []tenantCount, ok bool) {
	counts, err := s.reports(d, sent)
	s.res.op("final reports of "+name, err)
	if err != nil {
		return nil, false
	}
	s.res.Boots = append(s.res.Boots, bootRecord{Boot: name, Tenants: counts})
	return counts, true
}

// recover kills the daemon with SIGKILL and restarts it on the same
// data directory, n times, appending each recovery time to secs: from
// the kill until the daemon answers every tenant's report with the
// counters acked before the kill. A memory-only daemon keeps only its
// preloaded ruleset and reference, so its tenant must come back empty;
// its reference warm-up waits for the next ingest, which setup_s times.
func (s *serveRun) recover(d *daemon, dataDir string, n int, acked []tenantCount, secs *[]float64) (*daemon, error) {
	w := s.w
	for r := 0; r < n; r++ {
		start := time.Now()
		d.stop(syscall.SIGKILL)
		nd, err := s.start(dataDir)
		if err != nil {
			return nil, err
		}
		d = nd
		got, err := s.reports(d, make([]int, w.tenants))
		*secs = append(*secs, time.Since(start).Seconds())
		s.res.op("recovered reports", err)
		if err != nil {
			continue
		}
		for j, g := range got {
			s.res.verify("recovered counters", g.Rows == acked[j].Rows && g.Live == acked[j].Live,
				"restart %d tenant %s: rows %d live %d, want %d and %d", r, w.tenantName(j), g.Rows, g.Live, acked[j].Rows, acked[j].Live)
		}
	}
	return d, nil
}
