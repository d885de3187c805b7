package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"pfd"
	"pfd/internal/datagen"
)

// Files of one run's work directory. The orchestrator writes the
// reference and dirty stream (and the compact ruleset); the batch
// process writes the mined ruleset after its first Discover.
const (
	refCSV    = "ref.csv"
	refPFDT   = "ref.pfdt"
	dirtyCSV  = "dirty.csv"
	rulesJSON = "rules.json"
)

// dirtRate is the datagen default: 1% of the cells of the dirty stream
// are corrupted.
const dirtRate = 0.01

// refSeed draws every run's clean reference, whatever its -seed. The
// ruleset is mined from the reference, and what Discover mines depends
// on the draw: most T13 seeds mine five rules, some a sixth
// student_id → record_id rule with 331 tableau rows that makes Detect
// three times slower and its peak memory three times larger. A seed
// must vary the inputs, not the workload, so the seed draws the dirty
// stream (seed+1) and the reference stays fixed.
const refSeed = defaultSeed

// generate writes the run's inputs: the clean reference, the dirty
// stream drawn with seed+1, and for a workload that does not mine, its
// serving ruleset.
func generate(w *workload, dir string, seed int64) error {
	spec, ok := datagen.SpecByID(w.table)
	if !ok {
		return fmt.Errorf("no datagen table %s", w.table)
	}
	ref, _ := spec.Build(spec.PaperRows, refSeed, 0)
	if err := writeCSVFile(filepath.Join(dir, refCSV), ref); err != nil {
		return err
	}
	if err := ref.WriteSnapshotFile(filepath.Join(dir, refPFDT)); err != nil {
		return err
	}
	dirty, _ := spec.Build(spec.PaperRows, seed+1, dirtRate)
	if err := writeCSVFile(filepath.Join(dir, dirtyCSV), dirty); err != nil {
		return err
	}
	if w.mined {
		return nil
	}
	raw, err := json.Marshal(compactRuleset())
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, rulesJSON), raw, 0o644)
}

func writeCSVFile(path string, t *pfd.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// compactRuleset is the serving-style T13 ruleset: the five rule
// families of pfdbench's plan benchmark (a wildcard FD, a semester
// pattern, a course-prefix pattern and its converse, and a dead
// constant), replicated to 20 fresh PFD objects so that several rules
// ride each shared LHS group, as in a tenant's production ruleset.
func compactRuleset() *pfd.Ruleset {
	prefix := pfd.MustParsePattern(`(\LU+)\-\D*`)
	sem := pfd.MustParsePattern(`\LU+(\D{4})`)
	dead := pfd.ConstantPattern("no-such-dept")
	row := func(lhs, rhs pfd.TableauCell) pfd.TableauRow {
		return pfd.TableauRow{LHS: []pfd.TableauCell{lhs}, RHS: rhs}
	}
	families := []struct {
		lhs, rhs string
		row      pfd.TableauRow
	}{
		{"course_id", "dept", row(pfd.Wildcard(), pfd.Wildcard())},
		{"semester", "year", row(pfd.Pat(sem), pfd.Wildcard())},
		{"course_id", "dept", row(pfd.Pat(prefix), pfd.Wildcard())},
		{"dept", "course_id", row(pfd.Wildcard(), pfd.Pat(prefix))},
		{"dept", "grade", row(pfd.Pat(dead), pfd.Wildcard())},
	}
	const rules = 20
	pfds := make([]*pfd.PFD, rules)
	for i := range pfds {
		f := families[i%len(families)]
		p, err := pfd.NewPFD("T13", []string{f.lhs}, f.rhs, f.row)
		if err != nil {
			panic(err) // the families are constants
		}
		pfds[i] = p
	}
	return pfd.NewRuleset("t13-compact", pfds...)
}

// rulesetDigest identifies a ruleset by the SHA-256 of its JSON form.
func rulesetDigest(rs *pfd.Ruleset) (string, error) {
	raw, err := json.Marshal(rs)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8]), nil
}

// stream is the dirty stream cut into request bodies. Request k of a
// boot goes to tenant k % tenants and carries body k % len(bodies), so
// tenant j's n-th request is body (j + n·tenants) % len(bodies): every
// boot sends each tenant a prefix of one fixed sequence, and a single
// Validate per tenant yields the expected counters of every boot.
type stream struct {
	table  *pfd.Table
	bodies [][]byte
	ranges [][2]int // dirty rows [from, to) of each body
}

func loadStream(ctx context.Context, w *workload, dir string) (*stream, error) {
	t, err := pfd.ReadTable(ctx, pfd.FromCSVFile("dirty", filepath.Join(dir, dirtyCSV)))
	if err != nil {
		return nil, err
	}
	s := &stream{table: t}
	row := make([]string, 0, t.NumCols())
	for from := 0; from < t.NumRows(); from += w.rows {
		to := min(from+w.rows, t.NumRows())
		var b bytes.Buffer
		switch w.format {
		case "csv":
			cw := csv.NewWriter(&b)
			cw.Write(t.Cols) //nolint:errcheck // bytes.Buffer; Flush reports
			for r := from; r < to; r++ {
				cw.Write(t.AppendRowTo(row[:0], r)) //nolint:errcheck // as above
			}
			cw.Flush()
			if err := cw.Error(); err != nil {
				return nil, err
			}
		default:
			enc := json.NewEncoder(&b)
			obj := make(map[string]string, t.NumCols())
			for r := from; r < to; r++ {
				for c, name := range t.Cols {
					obj[name] = t.At(r, c)
				}
				if err := enc.Encode(obj); err != nil {
					return nil, err
				}
			}
		}
		s.bodies = append(s.bodies, b.Bytes())
		s.ranges = append(s.ranges, [2]int{from, to})
	}
	return s, nil
}

// body returns the index of tenant j's n-th request body.
func (s *stream) body(w *workload, j, n int) int { return (j + n*w.tenants) % len(s.bodies) }

// tenantTable materializes tenant j's first n requests as one table,
// in the order the daemon received them.
func (s *stream) tenantTable(w *workload, j, n int) *pfd.Table {
	out := pfd.NewTable(w.tenantName(j), s.table.Cols...)
	row := make([]string, 0, s.table.NumCols())
	for i := 0; i < n; i++ {
		rg := s.ranges[s.body(w, j, i)]
		for r := rg[0]; r < rg[1]; r++ {
			out.Append(s.table.AppendRowTo(row[:0], r)...)
		}
	}
	return out
}

// tenantRows is how many tuples tenant j's first n requests carry.
func (s *stream) tenantRows(w *workload, j, n int) int {
	rows := 0
	for i := 0; i < n; i++ {
		rg := s.ranges[s.body(w, j, i)]
		rows += rg[1] - rg[0]
	}
	return rows
}
