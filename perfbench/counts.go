package main

import (
	"fmt"
	"os"
	"path/filepath"

	"xmlrdb/internal/obs"
)

// countPass is the deterministic-count pass: one loader worker, one
// client, no timers and a fixed seed. It sets up the store, runs fixed
// batches of each operation kind one at a time and returns the work
// counters per operation, which must repeat exactly from pass to pass.
func countPass(dir string, seed int64) (map[string]float64, error) {
	corp, err := makeCorpus(seed, baseDocs, poolDocs)
	if err != nil {
		return nil, err
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	dataDir := filepath.Join(dir, fmt.Sprintf("counts-%d", os.Getpid()))
	defer os.RemoveAll(dataDir)
	st, _, err := setup(dataDir, corp, 1, client)
	if err != nil {
		return nil, err
	}
	defer st.close()
	exp, err := buildExpect(st, corp, client, false)
	if err != nil {
		return nil, err
	}
	r := newRunner(st, exp, corp, client, 1)
	const n = 20
	batch := func(k opKind, count int) []op {
		ops := make([]op, count)
		for i := range ops {
			ops[i] = op{kind: k, arg: i}
			if k == kPath {
				ops[i].arg = i % len(pathQueries)
			}
		}
		return ops
	}
	c := map[string]float64{}
	var fail error
	run := func(name string, ops []op) {
		before := st.p.MetricsSnapshot()
		r.serial(ops, st.eps[0])
		after := st.p.MetricsSnapshot()
		if f := r.tally.failures(); f > 0 && fail == nil {
			fail = fmt.Errorf("count pass: %d operations failed", f)
		}
		d := diffCounts(before, after)
		per := func(v float64) float64 { return v / float64(len(ops)) }
		switch name {
		case "path", "pk":
			c[name+".rows_scanned_per_row"] = div(d["rows_scanned"], d["rows_out"])
			c[name+".join_rows_per_req"] = per(d["join_rows"])
			c[name+".index_hits_per_req"] = per(d["index_hits"])
		case "doc":
			c["doc.rows_scanned_per_doc"] = per(d["rows_scanned"])
			c["doc.index_hits_per_doc"] = per(d["index_hits"])
		case "docload":
			c["docload.rows_per_doc"] = per(d["doc_rows"])
			fallthrough
		default:
			c[name+".wal_frames_per_op"] = per(d["wal_frames"])
			c[name+".wal_bytes_per_op"] = per(d["wal_bytes"])
		}
	}
	run("path", batch(kPath, 2*len(pathQueries)))
	run("doc", batch(kDoc, n))
	run("pk", batch(kPK, n))
	run("docload", batch(kLoad, n))
	run("update", batch(kUpdate, n))
	run("docdelete", batch(kDelete, n))
	q := st.p.MetricsSnapshot().Query
	c["path.translations"] = float64(q.Translations)
	c["path.joins_per_translation"] = div(float64(q.JoinsEmitted), float64(q.Translations))
	c["path.plan_cache_hits"] = float64(q.PlanCacheHits)
	return c, fail
}

// diffCounts is the change in the work counters between two snapshots.
func diffCounts(a, b obs.Snapshot) map[string]float64 {
	d := map[string]float64{
		"rows_out":   float64(b.Engine.RowsOut - a.Engine.RowsOut),
		"join_rows":  float64(b.Engine.OpRows.Join - a.Engine.OpRows.Join),
		"wal_frames": float64(b.WAL.Frames - a.WAL.Frames),
		"wal_bytes":  float64(b.WAL.Bytes - a.WAL.Bytes),
		"doc_rows":   float64(b.Load.DocRows.Sum - a.Load.DocRows.Sum),
	}
	for name, t := range b.Tables {
		d["rows_scanned"] += float64(t.RowsScanned - a.Tables[name].RowsScanned)
		d["index_hits"] += float64(t.IndexHits - a.Tables[name].IndexHits)
	}
	return d
}
