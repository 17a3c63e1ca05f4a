package main

import "time"

// Corpus and store settings shared by every workload, so that only the
// traffic differs between them.
const (
	baseDocs = 2400 // documents loaded at set-up (~24k rows)
	poolDocs = 1600 // further documents the run may load
	// snapshotEvery makes the durable store checkpoint every this many
	// WAL frames: several times during set-up and during a churn run.
	snapshotEvery = 1000
	// rounds splits the measured phases of an untraced run; metrics are
	// the best of their rounds. After them the run times
	// rounds*setupsPerRound more set-ups of throwaway stores, so setup_s
	// and load_docs_s are the best of 1+rounds*setupsPerRound set-ups.
	rounds         = 3
	setupsPerRound = 1
	// openShare of --seconds is the open-loop phase; the rest is the
	// closed-loop read saturation phase.
	openShare = 0.6
	// probeOps is the length of a serial write probe: the one on the
	// in-memory copy of the store in every untraced run, and the one on
	// the durable store a traced scan or point run decomposes.
	probeOps = 1560 // 520 of each kind in all
	// memSlices splits the in-memory write probe over the run.
	memSlices = 2 * rounds
	// tailOps is the write batch after the final checkpoint: about 200
	// WAL frames, fewer than snapshotEvery, for the reopen to replay.
	tailOps = 30
	// ledgerOps bounds the serial decomposition pass of a traced run.
	ledgerOps = 600
	// deleteLag is how many loads a whole-document delete trails behind.
	deleteLag = 8
	// verifyEvery samples one acknowledged write in this many for a
	// read-your-write check.
	verifyEvery = 4
	// zipfS skews point reads: a few documents and authors take most.
	// No experiment in the repository fixes a skew. YCSB's default
	// request skew is 0.99, and Go's rand.NewZipf needs s > 1, so the
	// nearest round value above it.
	zipfS = 1.1
	// lateWarnMs is the mean generator lateness (timer overshoot) above
	// which a run is reported invalid: its schedule was not the one the
	// seed describes.
	lateWarnMs = 2.0
)

// The paper's E8b path-query mix: distilled leaf lookups, relationship
// traversals, an IDREF predicate and a descendant query.
var pathQueries = []string{
	"/book/booktitle/text()",
	"/article/title/text()",
	"/book/author",
	"/article/author/name",
	"/article/contactauthor[@authorid]",
	"//author",
}

// opKind is one kind of request the load generator issues.
type opKind uint8

const (
	kPath   opKind = iota // GET /path?q= (one of pathQueries)
	kDoc                  // GET /doc/{id}
	kPK                   // GET /query primary-key SELECT on e_author
	kUpdate               // POST /query UPDATE e_book ... WHERE id = k
	kLoad                 // Pipeline.LoadXML of a new document
	kDelete               // POST /query DELETE ... WHERE doc = k, per table
	kVacuum               // DB.Vacuum pass
	nKinds
)

var kindNames = [nKinds]string{"path", "doc", "pk", "update", "docload", "docdelete", "vacuum"}

func (k opKind) String() string { return kindNames[k] }

func (k opKind) isRead() bool { return k <= kPK }

// mixEntry gives an op kind its share of the arrivals: a deck holding
// Weight cards of each kind is shuffled and dealt, so shares are exact
// over every deck.
type mixEntry struct {
	Kind   opKind `json:"-"`
	Name   string `json:"kind"`
	Weight int    `json:"weight"`
}

func mix(entries ...mixEntry) []mixEntry {
	for i := range entries {
		entries[i].Name = entries[i].Kind.String()
	}
	return entries
}

// workloadSpec fixes one workload's traffic.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Rate is the open-loop Poisson arrival rate, operations per second.
	Rate float64    `json:"rate_per_s"`
	Mix  []mixEntry `json:"mix"`
	// VacuumMs schedules a DB.Vacuum pass this often (0: none).
	VacuumMs int64 `json:"vacuum_every_ms,omitempty"`
	// Probe makes a traced run decompose a serial write probe on the
	// durable store, so the read-only workloads report the write layers
	// too (churn's own writes are durable already).
	Probe bool `json:"traced_durable_write_probe"`
}

// Where each workload's mix comes from:
//   - scan: E8b's six path queries in equal shares, as E8b sweeps them.
//   - point: /doc 2 to PK 1 has no source in the repository. /doc takes
//     the larger share because reconstruction is what only this workload
//     exercises; a 1:1 split would put the read median on the boundary
//     between the two kinds' latencies, where it jumps from seed to seed.
//   - churn: UPDATE 3 to load 3 follows E16, whose writer issues one
//     targeted UPDATE per INSERT; delete 3 equals load 3 so the store
//     stays level. Reads 8 to writes 9 (about half each) and path 2 to
//     doc 6 have no source: reads and writes run side by side in equal
//     numbers, and the cheap /doc reads set the read median while path
//     reads, about three times dearer under churn, take about half of
//     the reader's time.
//
// Rates are not sourced either: each is 20-25% of the workload's
// measured closed-loop saturation on the reference host (README.md).
var workloads = []*workloadSpec{
	{
		Name:  "scan",
		Why:   "6 E8b /path queries, Poisson 48/s, then closed-loop saturation; 2400 docs: hash joins, Next, row encoding work, plan cache hits; in-memory write probe",
		Rate:  48,
		Mix:   mix(mixEntry{Kind: kPath, Weight: 1}),
		Probe: true,
	},
	{
		Name:  "point",
		Why:   "Zipf /doc fetches (2/3) and PK SELECTs (1/3), Poisson 480/s, then saturation; 2400 docs: HTTP, parse, plan, index probe, reconstruct dominate, no hash joins; in-memory write probe",
		Rate:  480,
		Mix:   mix(mixEntry{Kind: kDoc, Weight: 2}, mixEntry{Kind: kPK, Weight: 1}),
		Probe: true,
	},
	{
		Name: "churn",
		Why:  "fsync per frame: Poisson 90/s of path 2, doc 6, UPDATE 3, load 3, delete 3 (one writer), vacuum each 1 s, checkpoint per 1000 frames; reads beside writes; in-memory write probe; ends with reopen",
		Rate: 90,
		Mix: mix(
			mixEntry{Kind: kPath, Weight: 2},
			mixEntry{Kind: kDoc, Weight: 6},
			mixEntry{Kind: kUpdate, Weight: 3},
			mixEntry{Kind: kLoad, Weight: 3},
			mixEntry{Kind: kDelete, Weight: 3},
		),
		VacuumMs: 1000,
	},
}

func (w *workloadSpec) vacuumEvery() time.Duration {
	return time.Duration(w.VacuumMs) * time.Millisecond
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// metricDef describes one reported metric. Moves names, for a per-layer
// metric, the end-to-end metric and workload it should move.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Moves  string  `json:"should_move,omitempty"`
}

// endToEnd lists the end-to-end metrics a run reports and BENCHMARK.json
// bounds. The mem_ metrics are the 5th percentile latency of the serial
// write probe on an in-memory copy of the store, where no fsync adds its
// jitter to what the statements themselves cost.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "mem_update_p5_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "mem_docdelete_p5_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "disk_bytes_per_xml_byte", Unit: "B/B", Better: "lower", Bound: 0.05},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

// unsteady lists end-to-end metrics a run measures and prints but does
// not report: over ten seeds on a 2-vCPU VM their spread (interquartile
// range over median) exceeded, or came within 0.03 of, the largest bound
// allowed, 0.25, on some workload. Tails pool all of a run's samples and
// recover_s comes from the one reopen. The durable write latencies are
// measured on churn only. See README.md.
var unsteady = []metricDef{
	{Name: "read_max_rps", Unit: "1/s", Better: "higher"},
	{Name: "load_docs_s", Unit: "docs/s", Better: "higher"},
	{Name: "docload_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "read_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "update_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "update_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "docdelete_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "recover_s", Unit: "s", Better: "lower"},
	{Name: "docload_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "docdelete_tail_ms", Unit: "ms", Better: "lower"},
}

// perLayer lists the traced run's metrics. Moves names only metrics
// BENCHMARK.json reports, so a change to a layer has a gate to show in.
var perLayer = []metricDef{
	{Name: "serve.self_ms", Unit: "ms", Better: "lower", Moves: "read_p50_ms on scan"},
	{Name: "serve.rows_per_req", Unit: "count", Better: "lower", Moves: "read_p50_ms on scan"},
	{Name: "serve.shed_ratio", Unit: "ratio", Better: "lower", Moves: "failed in the result line on all; read_p50_ms on scan and point"},
	{Name: "gen.late_ms", Unit: "ms", Better: "lower", Moves: "none; must stay near 0 or the run is invalid"},
	{Name: "pathquery.translate_us", Unit: "us", Better: "lower", Moves: "read_p50_ms on scan"},
	{Name: "pathquery.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "read_p50_ms on scan"},
	{Name: "pathquery.joins_per_query", Unit: "count", Better: "lower", Moves: "read_p50_ms on scan"},
	{Name: "sqldb.parse_us", Unit: "us", Better: "lower", Moves: "read_p50_ms on point; mem_update_p5_ms on all"},
	{Name: "engine.plan_us", Unit: "us", Better: "lower", Moves: "read_p50_ms on point"},
	{Name: "engine.open_ms", Unit: "ms", Better: "lower", Moves: "read_p50_ms on scan"},
	{Name: "engine.next_ms", Unit: "ms", Better: "lower", Moves: "read_p50_ms on scan"},
	{Name: "engine.rows_scanned_per_row", Unit: "count", Better: "lower", Moves: "read_p50_ms on scan"},
	{Name: "engine.join_rows_per_req", Unit: "count", Better: "lower", Moves: "read_p50_ms on scan"},
	{Name: "engine.index_hits_per_req", Unit: "count", Better: "higher", Moves: "read_p50_ms on point"},
	{Name: "engine.vec_batches_per_req", Unit: "count", Better: "higher", Moves: "read_p50_ms on scan"},
	{Name: "engine.vec_fallbacks_per_req", Unit: "count", Better: "lower", Moves: "read_p50_ms on scan"},
	{Name: "engine.update_ms", Unit: "ms", Better: "lower", Moves: "mem_update_p5_ms on all"},
	{Name: "engine.delete_ms", Unit: "ms", Better: "lower", Moves: "mem_docdelete_p5_ms on all"},
	{Name: "engine.lock_wait_ms", Unit: "ms", Better: "lower", Moves: "read_p50_ms on churn"},
	{Name: "engine.pinned_cursors", Unit: "count", Better: "lower", Moves: "read_p50_ms on churn"},
	{Name: "engine.vacuum_ms", Unit: "ms", Better: "lower", Moves: "read_p50_ms on churn"},
	{Name: "engine.wal_frames_per_op", Unit: "count", Better: "lower", Moves: "setup_s on all"},
	{Name: "engine.wal_bytes_per_xml_byte", Unit: "B/B", Better: "lower", Moves: "disk_bytes_per_xml_byte on all"},
	{Name: "engine.wal_fsyncs_per_op", Unit: "count", Better: "lower", Moves: "setup_s on all"},
	{Name: "engine.wal_fsync_ms", Unit: "ms", Better: "lower", Moves: "setup_s on all"},
	{Name: "engine.snapshots", Unit: "count", Better: "lower", Moves: "setup_s and disk_bytes_per_xml_byte on all"},
	{Name: "engine.snapshot_ms", Unit: "ms", Better: "lower", Moves: "setup_s on all"},
	{Name: "engine.replay_frames", Unit: "count", Better: "lower", Moves: "disk_bytes_per_xml_byte on all (the WAL tail a reopen replays)"},
	{Name: "reconstruct.doc_ms", Unit: "ms", Better: "lower", Moves: "read_p50_ms on point"},
	{Name: "reconstruct.rows_scanned_per_doc", Unit: "count", Better: "lower", Moves: "read_p50_ms on point"},
	{Name: "xmltree.parse_ms", Unit: "ms", Better: "lower", Moves: "setup_s on all"},
	{Name: "shred.load_ms", Unit: "ms", Better: "lower", Moves: "setup_s on all"},
	{Name: "shred.rows_per_doc", Unit: "count", Better: "lower", Moves: "setup_s on all"},
	{Name: "runtime.allocs_per_req", Unit: "count", Better: "lower", Moves: "read_p50_ms on scan and point"},
	{Name: "runtime.alloc_bytes_per_req", Unit: "B", Better: "lower", Moves: "read_p50_ms on scan and point"},
	{Name: "runtime.gc_cycles_per_kreq", Unit: "count", Better: "lower", Moves: "read_p50_ms on scan and point"},
	{Name: "runtime.gc_pause_tail_ms", Unit: "ms", Better: "lower", Moves: "read_p50_ms on scan and point"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "none; sizes later tracer work"},
}
