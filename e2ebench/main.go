// Command e2ebench is the end-to-end benchmark of this repository. One
// invocation runs one workload against the program built from the same
// checkout, checks the program's outputs, and prints one JSON line with
// every metric by name and unit:
//
//	e2ebench run -workload t13-mined -seed 1 -seconds 10 -trace 0 -server bin/pfdserved -work dir
//
// A run has four phases, one after the other, so that their CPU use
// and peak memory stay separate:
//
//   - batch: calls of the root pfd API (Discover, Detect, Validate,
//     RepairToFixpoint), each repetition in a process of its own, each
//     phase reported as the median repetition;
//   - serve: the real pfdserved binary, driven by a single-process
//     load generator (a child of the orchestrator) over at most two
//     connections: daemon boots (setup_s), a closed loop at saturation
//     (ingest_max_rows_per_s), in the traced run a fixed ladder of
//     offered rates, and an open loop at a fixed rate (ingest and read
//     latency); it runs after the first round of batch repetitions;
//   - restarts: kill -9 restarts of the open loop's daemon
//     (recovery_s), in rounds between the later batch rounds;
//   - check: recomputes with pfd.Validate what the daemon must have
//     reported for the exact stream each tenant received.
//
// With -trace 1 the run also records spans around the calls it makes
// into each layer's public functions, probes each layer in a process of
// its own, and reports the per-layer metrics instead of the end-to-end
// ones. `e2ebench selfcheck` runs two
// interleaved sets of runs and compares them against the bounds in
// BENCHMARK.json. See README.md for the workloads and the metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	mode := "run"
	args := os.Args[1:]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		mode, args = args[0], args[1:]
	}
	var err error
	switch mode {
	case "run":
		err = runMain(args)
	case "serve", "probes":
		err = childMain(mode, args)
	case "rep":
		err = repMain(args)
	case "selfcheck":
		err = selfcheckMain(args)
	default:
		err = fmt.Errorf("unknown mode %q (run, selfcheck)", mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// options are the flags shared by the orchestrator and its phases.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string
	work     string // build directory: scratch data goes in work/, records in runs/
	dir      string // child processes: this run's data directory
}

func parseOptions(name string, args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed: the dirty stream is drawn with seed+1")
	fs.IntVar(&o.seconds, "seconds", 10, "minimum length of the open-loop phase")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	fs.StringVar(&o.server, "server", "", "pfdserved binary")
	fs.StringVar(&o.work, "work", ".bench_build", "directory for scratch data and run records")
	fs.StringVar(&o.dir, "dir", "", "run data directory (child processes only)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	o.trace = *trace != 0
	if o.seconds < 1 {
		return nil, errors.New("-seconds must be at least 1")
	}
	return o, nil
}

func (o *options) args() []string {
	trace := "0"
	if o.trace {
		trace = "1"
	}
	return []string{
		"-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", trace, "-server", o.server, "-work", o.work, "-dir", o.dir,
	}
}

// runMain is the orchestrator: generate inputs, run the batch
// repetitions, the serving child, the restarts and the check one after
// the other, and with tracing the layer probes; merge and print.
func runMain(args []string) error {
	o, err := parseOptions("run", args)
	if err != nil {
		return err
	}
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.server == "" {
		return errors.New("-server (the pfdserved binary) is required")
	}
	if o.server, err = filepath.Abs(o.server); err != nil {
		return err
	}
	if o.work, err = filepath.Abs(o.work); err != nil {
		return err
	}
	if _, err := os.Stat(o.server); err != nil {
		return err
	}
	tag := fmt.Sprintf("%s-s%d-t%d-%d", w.name, o.seed, map[bool]int{false: 0, true: 1}[o.trace], os.Getpid())
	o.dir = filepath.Join(o.work, "work", tag)
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(o.dir)

	start := time.Now()
	rc := newRunContext()
	stop := rc.window("inputs")
	err = generate(w, o.dir, o.seed)
	stop()
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	tr := newTracer(o.trace)
	// The serving phase runs after the first batch round, which mines
	// what a mined workload serves. The kill -9 restarts of its open
	// loop's daemon run in rounds between the later batch rounds (see
	// restartRound).
	var sr *result
	rs := &serveRun{w: w, o: o, res: newResult(), rc: rc}
	var recoveries []float64
	res, err := runBatch(w, o, tr, rc, func(round, rounds int) error {
		if round == 0 {
			var err error
			if sr, err = runChild("serve", o); err != nil {
				return fmt.Errorf("serve phase: %w", err)
			}
			return nil
		}
		n := w.recoveries*round/(rounds-1) - w.recoveries*(round-1)/(rounds-1)
		if err := rs.restartRound(sr.Recovery, n, &recoveries); err != nil {
			return fmt.Errorf("restarts: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if sr == nil {
		return errors.New("the serving phase did not run")
	}
	if tr != nil {
		if err := tr.finish(filepath.Join(o.work, "traces"), fmt.Sprintf("%s-s%d-batch", w.name, o.seed)); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s recovery seconds %.4f\n", w.name, recoveries)
	rs.res.set("recovery_s", median(recoveries), "s")
	res.merge(sr)
	res.merge(rs.res)
	stop = rc.window("check")
	cr, err := runCheck(context.Background(), w, o, sr.Boots)
	stop()
	if err != nil {
		return fmt.Errorf("check phase: %w", err)
	}
	res.merge(cr)
	if o.trace {
		pr, err := runChild("probes", o)
		if err != nil {
			return fmt.Errorf("layer probes: %w", err)
		}
		res.merge(pr)
	}

	out := finalMetrics(o.trace, res)
	rec := map[string]any{
		"workload": w.name, "seed": o.seed, "trace": o.trace, "wall_s": time.Since(start).Seconds(),
		"attempted": res.Attempted, "failed": res.Failed, "errors": res.Errors, "checks": res.Checks,
		"metrics": res.Metrics, "context": res.Context,
	}
	runs := filepath.Join(o.work, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return err
	}
	if err := writeJSONFile(filepath.Join(runs, tag+".json"), rec); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: %d operations attempted, %d failed (%.3f%%), %d checks, %.1fs; record %s\n",
		w.name, o.seed, res.Attempted, res.Failed, 100*float64(res.Failed)/float64(max(res.Attempted, 1)),
		len(res.Checks), time.Since(start).Seconds(), filepath.Join(runs, tag+".json"))
	if ctx, err := json.Marshal(res.Context); err == nil {
		fmt.Fprintf(os.Stderr, "e2ebench: run context %s\n", ctx)
	}

	line, err := json.Marshal(map[string]any{
		"correct": res.correct(), "attempted": res.Attempted, "failed": res.Failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// finalMetrics picks what the run prints: the end-to-end metrics, or
// with tracing the per-layer ones (the traced run's end-to-end numbers
// included as traced.<name>, the tracing overhead next to an untraced
// run's).
func finalMetrics(trace bool, res *result) map[string]metric {
	out := map[string]metric{}
	for name, m := range res.Metrics {
		e2e := endToEnd[name]
		switch {
		case !trace && e2e:
			out[name] = m
		case trace && e2e:
			out["traced."+name] = m
		case trace:
			out[name] = m
		}
	}
	return out
}

// endToEnd names the metrics an untraced run prints.
var endToEnd = map[string]bool{
	"setup_s": true, "discover_rows_per_s": true, "detect_rows_per_s": true,
	"validate_rows_per_s": true, "repair_rows_per_s": true, "batch_peak_rss_mb": true,
	"ingest_max_rows_per_s": true, "ingest_p50_ms": true,
	"report_p50_ms": true, "recovery_s": true, "serve_peak_rss_mb": true,
}

// runChild runs the serving phase or the layer probes in a child
// process of this binary and decodes the result it prints.
func runChild(mode string, o *options) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := command(exe, append([]string{mode}, o.args()...)...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	res := newResult()
	if err := json.Unmarshal(stdout.Bytes(), res); err != nil {
		return nil, fmt.Errorf("decoding %s output: %w", mode, err)
	}
	return res, nil
}

// childMain is the entry point of a child process. The load generator
// runs apart from the orchestrator so that it holds only the request
// bodies while it times, and the probes so that their heap does not
// outlive them.
func childMain(mode string, args []string) error {
	o, err := parseOptions(mode, args)
	if err != nil {
		return err
	}
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	ctx := context.Background()
	tr := newTracer(o.trace)
	var res *result
	switch mode {
	case "serve":
		res, err = runServe(ctx, w, o, tr)
	case "probes":
		res, err = runProbes(ctx, w, o, tr)
	}
	if err != nil {
		return err
	}
	if tr != nil {
		if err := tr.finish(filepath.Join(o.work, "traces"), fmt.Sprintf("%s-s%d-%s", w.name, o.seed, mode)); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}
