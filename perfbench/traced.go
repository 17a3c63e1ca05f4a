package main

import (
	"fmt"
	"io"
	"time"

	"xmlrdb/internal/obs"
)

// tracedRun measures the per-layer metrics. It runs the workload's
// schedule in two open-loop halves: the first against an untraced
// server, whose counter and runtime deltas give the per-request ratios
// and whose service times are the ledger's end-to-end times; the second
// against a server that traces every request, whose read median against
// the first's sizes the tracing overhead. A serial decomposition pass
// then times each layer's public function and prints the ledger.
func tracedRun(w io.Writer, r *runner, g *opGen, spec *workloadSpec, seconds float64, openDur time.Duration, m map[string]float64) error {
	st := r.st
	p := st.p
	half := openDur / 2
	opsA := g.until(0, half, spec.vacuumEvery())
	opsB := g.until(half, openDur, spec.vacuumEvery())
	epB, err := st.serve(true)
	if err != nil {
		return err
	}
	s0, rt0 := p.MetricsSnapshot(), readRuntime()
	phA := r.openLoop(opsA, st.eps[0], 0)
	s1, rt1 := p.MetricsSnapshot(), readRuntime()
	pinned := r.maxPin.Load()
	phB := r.openLoop(opsB, epB, half)

	led := newLedger()
	budget := time.Duration(seconds / 3 * float64(time.Second))
	decompose := func(ops []op, budget time.Duration) {
		g.forget(ops[r.decompose(led, ops, st.eps[0], budget):])
	}
	if spec.Probe {
		decompose(g.take(ledgerOps), budget/2)
		g.setMix(probeMix, 0, 1)
		decompose(g.take(probeOps), budget/2)
	} else {
		decompose(g.take(ledgerOps), budget)
	}
	decompose([]op{{kind: kVacuum}}, budget)
	s2 := p.MetricsSnapshot()

	reqs := float64(phA.count())
	reads := float64(len(phA.reads()))
	perRead := func(v int64) float64 { return div(float64(v), reads) }
	var scanned, hits, waits int64
	for name, t := range s1.Tables {
		t0 := s0.Tables[name]
		scanned += t.RowsScanned - t0.RowsScanned
		hits += t.IndexHits - t0.IndexHits
		waits += t.LockWaitNanos - t0.LockWaitNanos
	}
	served := s1.Serve.Requests - s0.Serve.Requests
	shed := s1.Serve.Shed - s0.Serve.Shed
	cacheHits := s1.Query.PlanCacheHits - s0.Query.PlanCacheHits
	cacheMiss := s1.Query.PlanCacheMisses - s0.Query.PlanCacheMisses

	m["serve.self_ms"] = led.layerMean("serve.self", kPath, kPK, kDoc)
	m["serve.rows_per_req"] = div(float64(s1.Serve.RowsStreamed-s0.Serve.RowsStreamed), float64(served))
	m["serve.shed_ratio"] = div(float64(shed), float64(served+shed))
	m["gen.late_ms"] = mean(phA.late)
	m["pathquery.translate_us"] = led.layerMean("pathquery.translate", kPath) * 1000
	m["pathquery.cache_hit_ratio"] = div(float64(cacheHits), float64(cacheHits+cacheMiss))
	m["pathquery.joins_per_query"] = div(float64(s2.Query.JoinsEmitted), float64(s2.Query.Translations))
	m["sqldb.parse_us"] = mean(led.stmt["sqldb.parse"]) * 1000
	m["engine.plan_us"] = mean(led.stmt["engine.plan"]) * 1000
	m["engine.open_ms"] = led.layerMean("engine.open", kPath, kPK)
	m["engine.next_ms"] = led.layerMean("engine.next", kPath, kPK)
	m["engine.rows_scanned_per_row"] = div(float64(scanned), float64(s1.Engine.RowsOut-s0.Engine.RowsOut))
	m["engine.join_rows_per_req"] = perRead(s1.Engine.OpRows.Join - s0.Engine.OpRows.Join)
	m["engine.index_hits_per_req"] = perRead(hits)
	m["engine.vec_batches_per_req"] = perRead(s1.Engine.VecBatches - s0.Engine.VecBatches)
	m["engine.vec_fallbacks_per_req"] = perRead(s1.Engine.VecFallbacks - s0.Engine.VecFallbacks)
	m["engine.update_ms"] = div(led.count["update_ms"], float64(led.ops[kUpdate]))
	m["engine.delete_ms"] = div(led.count["delete_ms"], float64(led.ops[kDelete]))
	m["engine.lock_wait_ms"] = div(float64(waits)/1e6, reqs)
	m["engine.pinned_cursors"] = float64(pinned)
	m["engine.vacuum_ms"] = mean(append(append(phA.svc[kVacuum], phB.svc[kVacuum]...), led.layer[kVacuum]["engine.vacuum"]...))
	m["engine.wal_frames_per_op"] = led.ratio("wal_frames", "write_ops")
	m["engine.wal_bytes_per_xml_byte"] = led.ratio("load_wal_bytes", "load_xml_bytes")
	m["engine.wal_fsyncs_per_op"] = led.ratio("wal_fsyncs", "write_ops")
	m["engine.wal_fsync_ms"] = mean(led.stmt["engine.wal_fsync"])
	m["engine.snapshots"] = float64(s2.WAL.Snapshots - s0.WAL.Snapshots)
	m["engine.snapshot_ms"] = histMeanMs(s0.WAL.SnapshotLatency, s2.WAL.SnapshotLatency)
	m["reconstruct.doc_ms"] = led.layerMean("reconstruct.doc", kDoc)
	m["reconstruct.rows_scanned_per_doc"] = div(led.count["recon_rows_scanned"], float64(led.ops[kDoc]))
	m["xmltree.parse_ms"] = led.layerMean("xmltree.parse", kLoad)
	m["shred.load_ms"] = led.layerMean("shred.load", kLoad)
	m["shred.rows_per_doc"] = div(led.count["doc_rows"], float64(led.ops[kLoad]))
	m["runtime.allocs_per_req"] = div(float64(rt1.allocs-rt0.allocs), reqs)
	m["runtime.alloc_bytes_per_req"] = div(float64(rt1.allocBytes-rt0.allocBytes), reqs)
	m["runtime.gc_cycles_per_kreq"] = div(float64(rt1.gcCycles-rt0.gcCycles)*1000, reqs)
	m["runtime.gc_pause_tail_ms"] = pauseTailMs(rt0, rt1)
	untraced, tracedP50 := median(phA.reads()), median(phB.reads())
	m["obs.trace_overhead_pct"] = div(tracedP50-untraced, untraced) * 100

	// The ledger's end-to-end times come from the untraced half, like
	// the layer times it subtracts, so the remainder holds no tracing.
	e2e := map[opKind]float64{}
	for k := opKind(0); k < nKinds; k++ {
		if len(phA.svc[k]) > 0 {
			e2e[k] = mean(phA.svc[k])
		}
	}
	printLedger(w, led, e2e)
	fmt.Fprintln(w, "ledger "+lateNote(phA.late))
	fmt.Fprintf(w, "ledger obs.trace_overhead_pct=%.3f (read p50 %.4f ms traced, %.4f ms untraced)\n",
		m["obs.trace_overhead_pct"], tracedP50, untraced)
	return nil
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histMeanMs is the mean of the observations made between two snapshots
// of a nanosecond histogram, in milliseconds.
func histMeanMs(a, b obs.HistSnapshot) float64 {
	return div(float64(b.Sum-a.Sum)/1e6, float64(b.Count-a.Count))
}
