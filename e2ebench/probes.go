package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"pfd"
	"pfd/internal/discovery"
	"pfd/internal/durable"
	"pfd/internal/index"
	ipfd "pfd/internal/pfd"
	"pfd/internal/plan"
	"pfd/internal/relation"
	"pfd/internal/repair"
	"pfd/internal/serve"
	"pfd/internal/source"
)

// Sample sizes of the layer probes: enough requests or tuples for a
// steady per-row figure, few enough to keep a traced run short.
const (
	probeTuples   = 20000 // tuples through LHSKey
	probeRequests = 300   // requests through the ingest pipeline and the durable store
	probeHandler  = 200   // requests through the in-process HTTP handler
	probeReads    = 20    // GET /report and GET /metrics through the handler
)

// layerProbe times calls into one layer's public functions, each inside
// a span named after the function.
type layerProbe struct {
	ctx context.Context
	w   *workload
	dir string // the run's data directory
	tr  *tracer
	res *result
}

// timed runs fn w.reps times in spans named name and returns the
// median seconds.
func (p *layerProbe) timed(name string, fn func() error) (float64, error) {
	var secs []float64
	for rep := 0; rep < p.w.reps; rep++ {
		id := p.tr.begin(name, 0, rep+1)
		start := time.Now()
		err := fn()
		secs = append(secs, time.Since(start).Seconds())
		p.tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(secs), nil
}

// runProbes is the traced run's per-layer pass, in a process of its
// own after the batch repetitions: it calls each layer's public
// functions directly on the workload's inputs and reports what each
// costs, then replays the daemon's ingest path layer by layer to
// measure each layer's share of an ingest request.
func runProbes(ctx context.Context, w *workload, o *options, tr *tracer) (*result, error) {
	rules, err := os.ReadFile(filepath.Join(o.dir, rulesJSON))
	if err != nil {
		return nil, err
	}
	res := newResult()
	rc := newRunContext()
	res.Context = rc
	stop := rc.window("probes")
	err = probeLayers(&layerProbe{ctx: ctx, w: w, dir: o.dir, tr: tr, res: res}, rules)
	stop()
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	return res, nil
}

func probeLayers(p *layerProbe, rules []byte) error {
	ctx, dir := p.ctx, p.dir
	fresh := func() ([]*pfd.PFD, error) {
		rs, err := pfd.LoadRuleset(bytes.NewReader(rules))
		if err != nil {
			return nil, err
		}
		return rs.PFDs, nil
	}

	// relation: CSV parse, snapshot load, profiling.
	var dirty, ref *relation.Table
	secs, err := p.timed("relation.ReadCSV", func() error {
		f, err := os.Open(filepath.Join(dir, dirtyCSV))
		if err != nil {
			return err
		}
		defer f.Close()
		dirty, err = relation.ReadCSV("dirty", f)
		return err
	})
	if err != nil {
		return err
	}
	p.res.set("relation.read_csv_s", secs, "s")
	if secs, err = p.timed("relation.LoadSnapshotFile", func() (err error) {
		ref, err = relation.LoadSnapshotFile(filepath.Join(dir, refPFDT))
		return err
	}); err != nil {
		return err
	}
	p.res.set("relation.load_ref_s", secs, "s")
	var profiles []relation.ColumnProfile
	if secs, err = p.timed("relation.ProfileTable", func() error {
		profiles = relation.ProfileTable(ref)
		return nil
	}); err != nil {
		return err
	}
	p.res.set("relation.profile_s", secs, "s")

	// index: the inverted pattern index discovery builds over the
	// usable (non-quantitative, non-constant) columns.
	params := discovery.DefaultParams()
	var usable []string
	for i, prof := range profiles {
		if !prof.Quantitative && prof.Distinct >= 2 {
			usable = append(usable, ref.Cols[i])
		}
	}
	if secs, err = p.timed("index.Build", func() error {
		index.Build(ref, profiles, usable, index.Options{MaxGram: params.MaxGram, MinIDs: params.MinSupport})
		return nil
	}); err != nil {
		return err
	}
	p.res.set("index.build_s", secs, "s")

	// discovery: per-level time from the progress callback.
	var levels [][]float64
	if _, err = p.timed("discovery.DiscoverContext", func() error {
		start := time.Now()
		var marks []float64
		_, err := discovery.DiscoverContext(ctx, ref, params, func(pr discovery.Progress) {
			marks = append(marks, time.Since(start).Seconds())
		})
		levels = append(levels, marks)
		return err
	}); err != nil {
		return err
	}
	for k := range levels[0] {
		var per []float64
		for _, marks := range levels {
			if k < len(marks) {
				prev := 0.0
				if k > 0 {
					prev = marks[k-1]
				}
				per = append(per, marks[k]-prev)
			}
		}
		p.res.set(fmt.Sprintf("discovery.level%d_s", k+1), median(per), "s")
	}

	// source: tuple decoding from CSV and from NDJSON.
	csvRaw, err := os.ReadFile(filepath.Join(dir, dirtyCSV))
	if err != nil {
		return err
	}
	var ndjson bytes.Buffer
	enc := json.NewEncoder(&ndjson)
	obj := map[string]string{}
	for r := 0; r < dirty.NumRows(); r++ {
		for c, name := range dirty.Cols {
			obj[name] = dirty.At(r, c)
		}
		if err := enc.Encode(obj); err != nil {
			return err
		}
	}
	rows := float64(dirty.NumRows())
	for _, dec := range []struct {
		format string
		src    func() source.Source
	}{
		{"csv", func() source.Source { return source.NewCSV("dirty", bytes.NewReader(csvRaw)) }},
		{"ndjson", func() source.Source { return source.NewJSONL("dirty", bytes.NewReader(ndjson.Bytes())) }},
	} {
		secs, err := p.timed("source.Tuples."+dec.format, func() error {
			for _, err := range dec.src().Tuples(ctx) {
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.res.set("source."+dec.format+"_ns_per_row", secs*1e9/rows, "ns/row")
	}

	// pfd: the match phase, LHSKey over every PFD × tableau row.
	pfds, err := fresh()
	if err != nil {
		return err
	}
	tableau := 0
	for _, f := range pfds {
		tableau += len(f.Tableau)
	}
	p.res.set("pfd.tableau_rows", float64(tableau), "count")
	var tuples []map[string]string
	for t, err := range source.NewCSV("dirty", bytes.NewReader(csvRaw)).Tuples(ctx) {
		if err != nil {
			return err
		}
		if tuples = append(tuples, t); len(tuples) == probeTuples {
			break
		}
	}
	if secs, err = p.timed("pfd.LHSKey", func() error {
		for _, t := range tuples {
			for _, f := range pfds {
				for _, tr := range f.Tableau {
					ipfd.LHSKey(f, tr, t)
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	lhsNsPerRow := secs * 1e9 / float64(len(tuples))
	p.res.set("pfd.lhs_key_ns_per_row", lhsNsPerRow, "ns/row")

	// plan: build, cold and warm evaluation, shape.
	var pl *plan.Plan
	var build, cold, warm []float64
	for rep := 0; rep < p.w.reps; rep++ {
		pfds, err := fresh()
		if err != nil {
			return err
		}
		for _, step := range []struct {
			name string
			out  *[]float64
			fn   func()
		}{
			{"plan.New", &build, func() { pl = plan.New(pfds) }},
			{"plan.Violations.cold", &cold, func() { pl.Violations(dirty) }},
			{"plan.Violations.warm", &warm, func() { pl.Violations(dirty) }},
		} {
			id := p.tr.begin(step.name, 0, rep+1)
			start := time.Now()
			step.fn()
			*step.out = append(*step.out, time.Since(start).Seconds())
			p.tr.end(id)
		}
	}
	p.res.set("plan.build_s", median(build), "s")
	p.res.set("plan.first_violations_s", median(cold), "s")
	p.res.set("plan.violations_s", median(warm), "s")
	desc := pl.Describe()
	p.res.set("plan.groups", float64(desc.Groups), "count")
	p.res.set("plan.distinct_cells", float64(desc.DistinctCells), "count")

	// repair: applying one round of findings.
	findings := repair.Detect(dirty, pfds)
	if secs, err = p.timed("repair.Apply", func() error {
		repair.Apply(dirty, findings)
		return nil
	}); err != nil {
		return err
	}
	p.res.set("repair.apply_s", secs, "s")

	if err := p.ingestPath(ref, csvRaw, ndjson.Bytes(), rules, fresh, lhsNsPerRow); err != nil {
		return err
	}
	return p.handler(ref, csvRaw, ndjson.Bytes(), rules)
}

// countingFS counts what the durable store writes and syncs.
type countingFS struct {
	durable.OSFS
	bytes, syncs atomic.Int64
}

type countingFile struct {
	durable.File
	fs *countingFS
}

func (c *countingFS) Create(path string) (durable.File, error) {
	f, err := c.OSFS.Create(path)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c}, nil
}

func (c *countingFS) OpenAppend(path string) (durable.File, error) {
	f, err := c.OSFS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c}, nil
}

func (c *countingFS) SyncDir(dir string) error {
	c.syncs.Add(1)
	return c.OSFS.SyncDir(dir)
}

func (f countingFile) Write(b []byte) (int, error) {
	n, err := f.File.Write(b)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// requestBodies cuts the first n requests of the workload's shape from
// the dirty stream in both encodings' raw form: one header plus rows
// per CSV body, rows lines per NDJSON body.
func requestBodies(w *workload, csvRaw, ndjson []byte, n int) [][]byte {
	var out [][]byte
	if w.format == "csv" {
		header, rest, _ := bytes.Cut(csvRaw, []byte("\n"))
		lines := bytes.SplitAfter(rest, []byte("\n"))
		for i := 0; i+w.rows <= len(lines) && len(out) < n; i += w.rows {
			body := append(append([]byte(nil), header...), '\n')
			out = append(out, append(body, bytes.Join(lines[i:i+w.rows], nil)...))
		}
		return out
	}
	lines := bytes.SplitAfter(ndjson, []byte("\n"))
	for i := 0; i+w.rows <= len(lines) && len(out) < n; i += w.rows {
		out = append(out, bytes.Join(lines[i:i+w.rows], nil))
	}
	return out
}

// ingestPath replays the daemon's ingest request path in process, one
// span per layer under one span per request: decode (source), submit
// with its match phase (stream, pfd), the snapshot barrier a durable
// ingest or a /report places (stream), and the journal append under
// the workload's fsync policy (durable). A memory-only workload's
// requests skip the append; its journal is probed on its own.
func (p *layerProbe) ingestPath(ref *relation.Table, csvRaw, ndjson, rules []byte,
	fresh func() ([]*pfd.PFD, error), lhsNsPerRow float64) error {
	w := p.w
	pfds, err := fresh()
	if err != nil {
		return err
	}
	eng := pfd.NewStreamEngineContext(p.ctx, pfds, pfd.WithoutViolationLog(),
		pfd.WithViolationHandler(func(pfd.StreamViolation) {}))
	if w.preload {
		id := p.tr.begin("stream.SubmitTable", 0, 0)
		start := time.Now()
		if err := eng.SubmitTable(ref); err != nil {
			return err
		}
		eng.Snapshot()
		p.res.set("stream.submit_table_s", time.Since(start).Seconds(), "s")
		p.tr.end(id)
	} else {
		// No reference to warm from: time the same replay on a scratch
		// engine, the cost a -ref tenant of this ruleset would pay.
		scratch := pfd.NewStreamEngineContext(p.ctx, pfds, pfd.WithoutViolationLog())
		start := time.Now()
		if err := scratch.SubmitTable(ref); err != nil {
			return err
		}
		scratch.Close()
		p.res.set("stream.submit_table_s", time.Since(start).Seconds(), "s")
	}

	fs := &countingFS{}
	opts := durable.Options{Dir: filepath.Join(p.dir, "probe-journal"), Fsync: w.fsync, FS: fs}
	store, _, err := durable.Open(opts)
	if err != nil {
		return err
	}
	bodies := requestBodies(w, csvRaw, ndjson, probeRequests)
	var appendUS, snapMS []float64
	var submitted, rows int
	var submitTime time.Duration
	backlog := 0
	syncs0, bytes0 := fs.syncs.Load(), fs.bytes.Load()
	appendOne := func(parent, req, n int) error {
		id := p.tr.begin("durable.Append", parent, req)
		start := time.Now()
		err := store.Append(durable.BatchIngested(durable.IngestRecord{
			Tenant: w.tenantName(0), Accepted: int64(n), Rows: int64(rows), LiveViolations: int64(req),
		}))
		appendUS = append(appendUS, float64(time.Since(start).Microseconds()))
		p.tr.end(id)
		return err
	}
	for i, body := range bodies {
		req := i + 1
		root := p.tr.begin("ingest", 0, req)
		id := p.tr.begin("source.Tuples", root, req)
		var src source.Source = source.NewCSV("req", bytes.NewReader(body))
		if w.format == "jsonl" {
			src = source.NewJSONL("req", bytes.NewReader(body))
		}
		var batch []map[string]string
		for t, err := range src.Tuples(p.ctx) {
			if err != nil {
				return err
			}
			batch = append(batch, t)
		}
		p.tr.end(id)
		id = p.tr.begin("stream.Submit", root, req)
		start := time.Now()
		for _, t := range batch {
			if err := eng.Submit(t); err != nil {
				return err
			}
		}
		submitTime += time.Since(start)
		p.tr.end(id)
		submitted += len(batch)
		rows += len(batch)
		bl, _ := eng.Backlog()
		backlog = max(backlog, bl)
		if w.dataDir || (w.readEvery > 0 && req%w.readEvery == 0) {
			id = p.tr.begin("stream.Snapshot", root, req)
			start := time.Now()
			eng.Snapshot()
			snapMS = append(snapMS, ms(time.Since(start)))
			p.tr.end(id)
		}
		if w.dataDir {
			if err := appendOne(root, req, len(batch)); err != nil {
				return err
			}
		}
		p.tr.end(root)
	}
	start := time.Now()
	eng.Close()
	submitTime += time.Since(start)
	p.res.set("stream.submit_ns_per_row", float64(submitTime.Nanoseconds())/float64(max(submitted, 1)), "ns/row")
	p.res.set("stream.snapshot_ms", median(snapMS), "ms")
	p.res.set("stream.backlog_max", float64(backlog), "batches")

	self := p.tr.selfTimes()
	total := self["ingest"] + self["source.Tuples"] + self["stream.Submit"] + self["stream.Snapshot"] + self["durable.Append"]
	share := func(d time.Duration) float64 { return float64(d) / float64(max(total, 1)) }
	p.res.set("share.ingest_decode", share(self["source.Tuples"]), "ratio")
	p.res.set("share.ingest_submit", share(self["stream.Submit"]), "ratio")
	p.res.set("share.ingest_barrier", share(self["stream.Snapshot"]), "ratio")
	p.res.set("share.ingest_append", share(self["durable.Append"]), "ratio")
	// The match phase runs inside Submit; its share is estimated from
	// the LHSKey probe's per-tuple cost.
	p.res.set("share.ingest_match", min(1, lhsNsPerRow*float64(submitted)/float64(max(total, 1))), "ratio")

	if !w.dataDir {
		// The daemon journals nothing here; probe the store alone.
		for i := 0; i < len(bodies); i++ {
			rows += w.rows
			if err := appendOne(0, i+1, w.rows); err != nil {
				return err
			}
		}
	}
	appends := float64(len(appendUS))
	p.res.set("durable.append_us", median(appendUS), "us")
	p.res.set("durable.syncs_per_append", float64(fs.syncs.Load()-syncs0)/appends, "count")
	p.res.set("durable.bytes_per_row", float64(fs.bytes.Load()-bytes0)/float64(len(appendUS)*w.rows), "B/row")

	if err := store.Close(); err != nil {
		return err
	}
	id := p.tr.begin("durable.Open", 0, 0)
	start = time.Now()
	store, rec, err := durable.Open(opts)
	if err != nil {
		return err
	}
	p.res.set("durable.open_s", time.Since(start).Seconds(), "s")
	p.tr.end(id)
	id = p.tr.begin("durable.Compact", 0, 0)
	start = time.Now()
	err = store.Compact(func() []durable.TenantState {
		st := rec.Tenants
		for i := range st {
			st[i].Ruleset = rules
		}
		return st
	})
	p.res.set("durable.compact_ms", ms(time.Since(start)), "ms")
	p.tr.end(id)
	if err != nil {
		return err
	}
	return store.Close()
}

// handler drives the daemon's HTTP handler in process, without a
// socket: ruleset PUT, ingest, report and metrics.
func (p *layerProbe) handler(ref *relation.Table, csvRaw, ndjson, rules []byte) error {
	w := p.w
	cfg := serve.DefaultConfig()
	cfg.IdleTimeout = 0
	if w.dataDir {
		cfg.DataDir = filepath.Join(p.dir, "probe-serve")
		cfg.Fsync = w.fsync
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Drain()
	h := srv.Handler()
	call := func(name, method, path, ctype string, body []byte) (float64, error) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		if ctype != "" {
			req.Header.Set("Content-Type", ctype)
		}
		rec := httptest.NewRecorder()
		id := p.tr.begin(name, 0, 0)
		start := time.Now()
		h.ServeHTTP(rec, req)
		d := ms(time.Since(start))
		p.tr.end(id)
		if rec.Code/100 != 2 {
			return 0, fmt.Errorf("%s %s: %d %.200s", method, path, rec.Code, rec.Body.String())
		}
		return d, nil
	}
	var puts, ingests, reports, metrics []float64
	for j := 0; j < w.tenants; j++ {
		d, err := call("serve.PUT.ruleset", http.MethodPut, "/v1/tenants/"+w.tenantName(j)+"/ruleset", "application/json", rules)
		if err != nil {
			return err
		}
		puts = append(puts, d)
	}
	if w.preload {
		if err := srv.SetTenantRef(w.tenantName(0), ref); err != nil {
			return err
		}
	}
	ctype := "text/csv"
	if w.format == "jsonl" {
		ctype = "application/x-ndjson"
	}
	for i, body := range requestBodies(w, csvRaw, ndjson, probeHandler) {
		j := i % w.tenants
		d, err := call("serve.POST.tuples", http.MethodPost, "/v1/tenants/"+w.tenantName(j)+"/tuples", ctype, body)
		if err != nil {
			return err
		}
		if i >= w.tenants { // each tenant's first ingest starts its engine: that is setup
			ingests = append(ingests, d)
		}
	}
	for i := 0; i < probeReads; i++ {
		d, err := call("serve.GET.report", http.MethodGet, "/v1/tenants/"+w.tenantName(i%w.tenants)+"/report", "", nil)
		if err != nil {
			return err
		}
		reports = append(reports, d)
		if d, err = call("serve.GET.metrics", http.MethodGet, "/metrics", "", nil); err != nil {
			return err
		}
		metrics = append(metrics, d)
	}
	srv.SetDraining()
	p.res.set("serve.put_ruleset_ms", median(puts), "ms")
	p.res.set("serve.ingest_handler_ms", median(ingests), "ms")
	p.res.set("serve.report_handler_ms", median(reports), "ms")
	p.res.set("serve.metrics_handler_ms", median(metrics), "ms")
	return nil
}
