package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pfd"
	"pfd/internal/datagen"
)

// The batch phase runs every repetition of every call in a process of
// its own, as each `pfd detect -rules` invocation does. Within one
// process a freshly decoded ruleset is a new key of the process-wide
// plan cache, so every repetition would leave its plan (and the cell
// memos bound to it) live for the next: memory would grow with the
// repetition count and later repetitions would collect a larger heap.

// repOutcome is what one repetition process reports.
type repOutcome struct {
	Start      int64   `json:"start_unix_ns"`
	End        int64   `json:"end_unix_ns"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	GCCycles   uint32  `json:"gc_cycles"`
	GCPauseNs  uint64  `json:"gc_pause_ns"`
	Digest     string  `json:"digest,omitempty"`
	Count      int     `json:"count"` // detect findings, validate live violations, repair cells repaired
	Rounds     int     `json:"rounds,omitempty"`
	Candidates int     `json:"candidates,omitempty"`
}

func (r *repOutcome) seconds() float64 { return float64(r.End-r.Start) / 1e9 }

// repMain is the entry point of one repetition process: it runs one
// call of phase on the run's inputs and prints its outcome.
func repMain(args []string) error {
	fs := flag.NewFlagSet("rep", flag.ContinueOnError)
	dir := fs.String("dir", "", "run data directory")
	phase := fs.String("phase", "", "discover, detect, validate or repair")
	table := fs.String("table", "", "table id")
	writeRules := fs.Bool("write-rules", false, "discover: write the mined ruleset to the run directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	out, err := runRep(context.Background(), *dir, *phase, *table, *writeRules)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

func runRep(ctx context.Context, dir, phase, table string, writeRules bool) (*repOutcome, error) {
	refPath, dirtyPath := filepath.Join(dir, refCSV), filepath.Join(dir, dirtyCSV)
	var raw []byte
	if phase != "discover" {
		var err error
		if raw, err = os.ReadFile(filepath.Join(dir, rulesJSON)); err != nil {
			return nil, err
		}
	}
	// fresh decodes the ruleset inside the timed call: what
	// `pfd detect -rules` pays on every invocation.
	fresh := func() ([]*pfd.PFD, error) {
		rs, err := pfd.LoadRuleset(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		return rs.PFDs, nil
	}
	out := &repOutcome{}
	call := map[string]func() error{
		"discover": func() error {
			d, err := pfd.Discover(ctx, pfd.FromCSVFile(table, refPath),
				pfd.WithDiscoverProgress(func(p pfd.DiscoveryProgress) { out.Candidates = p.Candidates }))
			if err != nil {
				return err
			}
			rs := d.Ruleset()
			if out.Digest, err = rulesetDigest(rs); err != nil {
				return err
			}
			if !writeRules {
				return nil
			}
			js, err := json.Marshal(rs)
			if err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dir, rulesJSON), js, 0o644)
		},
		"detect": func() error {
			pfds, err := fresh()
			if err != nil {
				return err
			}
			det, err := pfd.Detect(ctx, pfd.FromCSVFile(table, dirtyPath), pfds)
			if err != nil {
				return err
			}
			out.Count = len(det.Findings())
			return nil
		},
		"validate": func() error {
			pfds, err := fresh()
			if err != nil {
				return err
			}
			v, err := pfd.Validate(ctx, pfd.FromCSVFile(table, dirtyPath), pfds)
			if err != nil {
				return err
			}
			for range v.Live() {
				out.Count++
			}
			return nil
		},
		"repair": func() error {
			pfds, err := fresh()
			if err != nil {
				return err
			}
			r, err := pfd.RepairToFixpoint(ctx, pfd.FromCSVFile(table, dirtyPath), pfds)
			if err != nil {
				return err
			}
			out.Count, out.Rounds = r.Repaired(), r.Rounds()
			return nil
		},
	}[phase]
	if call == nil {
		return nil, fmt.Errorf("unknown batch phase %q", phase)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := call()
	end := time.Now()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", phase, err)
	}
	out.Start, out.End = start.UnixNano(), end.UnixNano()
	out.GCCycles, out.GCPauseNs = m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs
	if out.PeakRSSMB, err = peakRSSMB("self"); err != nil {
		return nil, err
	}
	return out, nil
}

// batchRun is the batch phase's state.
type batchRun struct {
	w   *workload
	o   *options
	tr  *tracer
	res *result
	rc  *runContext
}

// A phase repeats at least w.reps times, and more when its calls are
// short, until about minPhaseSeconds of calls are timed.
const (
	minPhaseSeconds = 3.0
	maxReps         = 20
)

var batchPhases = []string{"discover", "detect", "validate", "repair"}

// repeat runs the batch phases' repetitions round-robin, each in its
// own process: round r runs repetition r of every phase that still has
// one to go. Interleaving spreads each phase's repetitions over the
// whole batch, so a burst of load from elsewhere on the host slows one
// repetition of several phases rather than every repetition of one,
// and the median repetition stays clear of it. It returns each phase's
// outcomes and how many repetitions each attempted. After every round
// it calls between with the round and the number of rounds, which is
// known once round 0 has timed each phase.
func (b *batchRun) repeat(between func(round, rounds int) error) (map[string][]*repOutcome, map[string]int, error) {
	outs := map[string][]*repOutcome{}
	reps := map[string]int{}
	for _, name := range batchPhases {
		reps[name] = b.w.reps
	}
	exe, err := os.Executable()
	if err != nil {
		b.res.op("locating the benchmark binary", err)
		return outs, reps, nil
	}
	rounds := maxReps
	for round := 0; round < rounds; round++ {
		for _, name := range batchPhases {
			if round >= reps[name] {
				continue
			}
			// The first Discover mines what a mined workload serves,
			// so it runs before any phase that reads the ruleset.
			args := []string{"rep", "-dir", b.o.dir, "-phase", name, "-table", b.w.table}
			if name == "discover" && round == 0 && b.w.mined {
				args = append(args, "-write-rules")
			}
			stop := b.rc.window(fmt.Sprintf("%s#%d", name, round+1))
			cmd := command(exe, args...)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			err := cmd.Run()
			stop()
			out := &repOutcome{}
			if err == nil {
				err = json.Unmarshal(stdout.Bytes(), out)
			}
			b.res.op(fmt.Sprintf("%s repetition %d", name, round), err)
			if err != nil {
				continue
			}
			b.tr.span("pfd."+name, 0, round+1, out.Start, out.End)
			outs[name] = append(outs[name], out)
			if round == 0 {
				reps[name] = min(max(reps[name], int(math.Ceil(minPhaseSeconds/out.seconds()))), maxReps)
			}
		}
		if round == 0 {
			rounds = 0
			for _, n := range reps {
				rounds = max(rounds, n)
			}
		}
		if err := between(round, rounds); err != nil {
			return nil, nil, err
		}
	}
	return outs, reps, nil
}

// stable records a check that every repetition agreed on v.
func stable[T comparable](b *batchRun, name string, outs []*repOutcome, reps int, v func(*repOutcome) T) {
	var vals []T
	for _, o := range outs {
		vals = append(vals, v(o))
	}
	ok := len(vals) == reps
	for _, x := range vals {
		ok = ok && x == vals[0]
	}
	b.res.verify(name, ok, "%v over %d repetitions", vals, reps)
}

// runBatch is the batch phase. It runs in the orchestrating process,
// which only starts the repetition processes and reduces what they
// report.
func runBatch(w *workload, o *options, tr *tracer, rc *runContext, between func(round, rounds int) error) (*result, error) {
	spec, ok := datagen.SpecByID(w.table)
	if !ok {
		return nil, fmt.Errorf("no datagen table %s", w.table)
	}
	rows := float64(spec.PaperRows)
	b := &batchRun{w: w, o: o, tr: tr, res: newResult(), rc: rc}
	b.res.Context = b.rc

	peak, gcCycles, gcPause := 0.0, 0.0, 0.0
	all, allReps, err := b.repeat(between)
	if err != nil {
		return nil, err
	}
	for _, name := range batchPhases {
		outs, reps := all[name], allReps[name]
		var secs []float64
		for _, out := range outs {
			secs = append(secs, out.seconds())
		}
		fmt.Fprintf(os.Stderr, "e2ebench: %s %s seconds %.4f\n", w.name, name, secs)
		var rss, cycles, pause []float64
		for _, out := range outs {
			rss = append(rss, out.PeakRSSMB)
			cycles = append(cycles, float64(out.GCCycles))
			pause = append(pause, float64(out.GCPauseNs)/1e6)
		}
		b.res.set(name+"_rows_per_s", rows/median(secs), "rows/s")
		b.res.set(name+".peak_rss_mb", median(rss), "MiB")
		peak = max(peak, median(rss))
		gcCycles += median(cycles)
		gcPause += median(pause)

		switch name {
		case "discover":
			stable(b, "mined ruleset digest stable", outs, reps, func(o *repOutcome) string { return o.Digest })
			if w.mined && len(outs) > 0 {
				b.res.verify("mined ruleset digest pinned", outs[0].Digest == w.digest,
					"mined %s, pinned %s", outs[0].Digest, w.digest)
			}
			if len(outs) > 0 {
				b.res.set("discovery.candidates", float64(outs[0].Candidates), "count")
			}
		case "detect":
			stable(b, "detect findings stable", outs, reps, func(o *repOutcome) int { return o.Count })
		case "validate":
			stable(b, "validate live violations stable", outs, reps, func(o *repOutcome) int { return o.Count })
		case "repair":
			stable(b, "repair cells_repaired stable", outs, reps, func(o *repOutcome) int { return o.Count })
			if len(outs) > 0 {
				b.res.set("repair.cells_repaired", float64(outs[0].Count), "count")
				b.res.set("repair.rounds", float64(outs[0].Rounds), "count")
			}
		}
	}
	b.res.set("batch_peak_rss_mb", peak, "MiB")
	b.res.set("go.gc_cycles", gcCycles, "count")
	b.res.set("go.gc_pause_ms", gcPause, "ms")
	return b.res, nil
}
