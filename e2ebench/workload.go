package main

import "fmt"

// workload is one traffic mix. README.md records why each exists and
// which layer it is meant to stress; the numbers below (ladder, latency
// limit, open-loop rate) are fixed here so that every run of every
// commit offers the daemon the same load.
type workload struct {
	name  string
	table string // datagen table id; reference and dirty stream are drawn at paper size

	// mined: the ruleset is what pfd.Discover mines from the clean
	// reference; otherwise the compact serving ruleset (compactRuleset).
	mined bool

	// Daemon shape.
	tenants int    // tenants, fed round-robin
	preload bool   // one tenant preloaded with -rules and warmed with -ref
	dataDir bool   // -data-dir (durable tenant state)
	fsync   bool   // -fsync
	format  string // "csv" or "jsonl" request bodies
	rows    int    // tuples per ingest request
	conns   int    // ingest connections (tenant j always rides connection j % conns)

	// Reads beside writes: one read of reads (in turn) after every
	// readEvery-th ingest, on the same connection.
	reads     []string // paths relative to the tenant, or absolute when they start with "/"
	readEvery int

	// Load shape. Ladder rungs are 2–2.5× apart and placed so that
	// the saturation rate falls well between two of them: a rung near
	// saturation passes or fails from run to run on host noise alone.
	// A rung is long enough that above saturation the backlog grows
	// past the limit by its end.
	ladder     []float64 // offered ingest rates, rows/s, ascending
	ladderReqs int       // ingest requests per ladder step
	limitMS    float64   // limit on a ladder step's p95 latency and final lateness
	satReqs    int       // ingest requests of the closed loop at saturation
	openRate   float64   // open-loop rate, rows/s: about a third of ingest_max_rows_per_s
	openReqs   int       // minimum ingest requests in the open loop

	// Repetition counts: batch phases, daemon boots (setup_s; at least
	// 3, for the closed loop, the traced run's ladder and the open loop),
	// restarts (recovery_s). Short phases repeat more so their median
	// holds.
	reps       int
	boots      int
	recoveries int

	// digest pins the mined ruleset. The reference is drawn with refSeed
	// on every run, so every run must mine exactly this.
	digest string
}

const defaultSeed = 1

var workloads = []*workload{
	{
		name: "t13-mined", table: "T13", mined: true,
		tenants: 1, preload: true, format: "csv", rows: 100, conns: 1,
		reads: []string{"report"}, readEvery: 20,
		ladder:     []float64{10000, 25000, 50000, 100000},
		ladderReqs: 240, limitMS: 100, satReqs: 800, openRate: 6000, openReqs: 1000,
		reps: 3, boots: 4, recoveries: 31,
		digest: "43bac8664ab25b23",
	},
	{
		name: "t13-compact-fsync", table: "T13",
		tenants: 4, dataDir: true, fsync: true, format: "jsonl", rows: 20, conns: 2,
		reads: []string{"report"}, readEvery: 20,
		ladder:     []float64{4000, 8000, 16000, 32000, 64000},
		ladderReqs: 600, limitMS: 100, satReqs: 2000, openRate: 3000, openReqs: 1000,
		reps: 5, boots: 25, recoveries: 31,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// tenantName is the i-th tenant of w.
func (w *workload) tenantName(i int) string {
	if w.tenants == 1 {
		return w.table
	}
	return fmt.Sprintf("%s-%d", w.table, i)
}
