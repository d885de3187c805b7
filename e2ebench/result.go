package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one output check: what was compared, and whether it held.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is what each phase reports to the orchestrator, and what the
// orchestrator merges them into.
type result struct {
	Metrics   map[string]metric `json:"metrics"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []check           `json:"checks"`
	Errors    []string          `json:"errors,omitempty"` // every failed operation, with its error
	Context   *runContext       `json:"context,omitempty"`
	// Boots carries the daemon's reported counters from the serving
	// phase to the check phase.
	Boots []bootRecord `json:"boots,omitempty"`
	// Recovery carries what the restarts need from the serving phase
	// to the orchestrator.
	Recovery *recoveryPlan `json:"recovery,omitempty"`
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

// set records a metric. A value that could not be measured (every
// repetition failed, no ladder rung held) is recorded as 0; the failed
// operations or checks behind it already make the run incorrect.
func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one attempted operation, failed when err is non-nil.
func (r *result) op(what string, err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Errors = append(r.Errors, fmt.Sprintf("%s: %v", what, err))
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", what, err)
	}
}

// verify records an output check; a failed check counts as a failed
// operation.
func (r *result) verify(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
	r.Checks = append(r.Checks, c)
	r.Attempted++
	if !ok {
		r.Failed++
		fmt.Fprintf(os.Stderr, "e2ebench: check %s failed: %s\n", name, c.Detail)
	}
}

func (r *result) merge(o *result) {
	for k, v := range o.Metrics {
		r.Metrics[k] = v
	}
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Checks = append(r.Checks, o.Checks...)
	r.Errors = append(r.Errors, o.Errors...)
	if o.Context != nil {
		if r.Context == nil {
			r.Context = o.Context
		} else {
			r.Context.Windows = append(r.Context.Windows, o.Context.Windows...)
		}
	}
	r.Boots = append(r.Boots, o.Boots...)
	if o.Recovery != nil {
		r.Recovery = o.Recovery
	}
}

func (r *result) correct() bool {
	if r.Failed > 0 {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func writeJSONFile(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
