package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the self-check reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runLine is the JSON line one benchmark run prints.
type runLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	stderr    []byte            // what the run wrote to standard error
}

// selfcheckMain runs two interleaved sets of runs of this build, set A
// and set B alternating which goes first, run i of both sets on seed
// seed0+i. Per (workload, metric) it prints each set's median and
// quartiles next to the metric's bound, and a verdict: "steady" when
// each set's quartile spread is within a third of the bound and B's
// median is no worse than A's by more than the bound; "in bound" when
// the spreads exceed a third of the bound but not the bound itself;
// "UNSTEADY" otherwise. setup_s is judged like every other metric.
func selfcheckMain(args []string) error {
	fs := flag.NewFlagSet("selfcheck", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per set and workload")
	seed0 := fs.Int64("seed0", 1, "seed of the first run; run i uses seed0+i")
	only := fs.String("workloads", "", "comma-separated workloads (default: those in BENCHMARK.json)")
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition")
	server := fs.String("server", "", "pfdserved binary")
	work := fs.String("work", ".bench_build", "build and scratch directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}

	// values[set][workload][metric] lists one value per run.
	values := [2]map[string]map[string][]float64{{}, {}}
	failures := 0
	for i := 0; i < *runs; i++ {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, set := range order {
			for _, name := range names {
				seed := *seed0 + int64(i)
				line, err := benchRun(exe, name, seed, spec.RunSeconds, *server, *work)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", name, seed, err)
				}
				if !line.Correct || line.Failed > 0 {
					failures++
					os.Stderr.Write(line.stderr)
				}
				if values[set][name] == nil {
					values[set][name] = map[string][]float64{}
				}
				for m, v := range line.Metrics {
					values[set][name][m] = append(values[set][name][m], v.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: run %d set %c %s seed %d: correct=%v failed=%d/%d\n",
					i+1, 'A'+set, name, seed, line.Correct, line.Failed, line.Attempted)
			}
		}
	}

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA q1\tA median\tA q3\tB q1\tB median\tB q3\tspread A\tspread B\tB worse by\tbound\tverdict\t")
	unsteady, inBound := 0, 0
	for _, name := range names {
		for _, m := range spec.EndToEnd {
			a, b := values[0][name][m.Name], values[1][name][m.Name]
			qa, qb := quartiles(a), quartiles(b)
			spreadA, spreadB := (qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1]
			worse := (qb[1] - qa[1]) / qa[1]
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max(spreadA, spreadB)
			verdict := "steady"
			switch {
			case len(a) != *runs || len(b) != *runs || worse > m.Bound || !(spread <= m.Bound):
				verdict = "UNSTEADY"
				unsteady++
			case spread > m.Bound/3:
				verdict = "in bound"
				inBound++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.3f\t%.3f\t%+.3f\t%.2f\t%s\t\n",
				name, m.Name, m.Unit, qa[0], qa[1], qa[2], qb[0], qb[1], qb[2], spreadA, spreadB, worse, m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("%d runs per set and workload; %d runs failed an output check; %d (workload, metric) pairs unsteady, %d spread above a third of the bound\n",
		*runs, failures, unsteady, inBound)
	if failures > 0 || unsteady > 0 {
		return errors.New("self-check failed")
	}
	return nil
}

// benchRun runs the benchmark once and decodes its last output line.
func benchRun(exe, workload string, seed int64, seconds int, server, work string) (*runLine, error) {
	cmd := command(exe, "run", "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", "0", "-server", server, "-work", work)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v: %s", err, stderr.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	line := runLine{stderr: stderr.Bytes()}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, err
	}
	return &line, nil
}

// quartiles returns the first quartile, median and third quartile of
// xs the way Python's statistics.quantiles(xs, n=4) computes them (the
// default "exclusive" method), which is how the benchmark's spread is
// judged.
func quartiles(xs []float64) [3]float64 {
	nan := math.NaN()
	if len(xs) < 2 {
		return [3]float64{nan, nan, nan}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n, ld := 4, len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return out
}
