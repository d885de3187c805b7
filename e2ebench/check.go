package main

import (
	"context"
	"path/filepath"
	"sort"

	"pfd"
)

// runCheck recomputes, with pfd.Validate on the exact stream each
// tenant received, the rows and live violations every daemon boot must
// have reported. Each boot sent each tenant a prefix of one fixed
// sequence (see stream), and a live violation is raised when its tuple
// arrives, so one Validate over the longest prefix answers every boot:
// a prefix of r rows has exactly the live violations on rows below r.
func runCheck(ctx context.Context, w *workload, o *options, boots []bootRecord) (*result, error) {
	res := newResult()
	st, err := loadStream(ctx, w, o.dir)
	if err != nil {
		return nil, err
	}
	for j := 0; j < w.tenants; j++ {
		longest := 0
		for _, b := range boots {
			longest = max(longest, b.Tenants[j].Requests)
		}
		var opts []pfd.StreamOption
		if w.preload {
			opts = append(opts, pfd.WithWarmup(pfd.FromSnapshotFile("ref", filepath.Join(o.dir, refPFDT))))
		}
		// A fresh decode per tenant, as the daemon holds one per tenant.
		rs, err := pfd.LoadRulesetFile(filepath.Join(o.dir, rulesJSON))
		if err != nil {
			return nil, err
		}
		v, err := pfd.Validate(ctx, pfd.FromTable(st.tenantTable(w, j, longest)), rs.PFDs, opts...)
		res.op("reference Validate", err)
		if err != nil {
			continue
		}
		var rows []int
		for viol := range v.Live() {
			rows = append(rows, viol.Cell.Row-v.WarmRows())
		}
		sort.Ints(rows)
		for _, b := range boots {
			got := b.Tenants[j]
			wantRows := st.tenantRows(w, j, got.Requests)
			wantLive := sort.SearchInts(rows, wantRows)
			res.verify("daemon counters equal Validate", got.Rows == wantRows && got.Live == wantLive,
				"%s tenant %s after %d requests: rows %d live %d, Validate says %d and %d",
				b.Boot, w.tenantName(j), got.Requests, got.Rows, got.Live, wantRows, wantLive)
		}
	}
	return res, nil
}
