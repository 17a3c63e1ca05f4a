package main

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"xmlrdb/internal/obs"
	"xmlrdb/internal/sqldb"
)

// The traced run's decomposition pass replays operations one at a time
// and splits each into calls to the layers' public functions, timing
// every call. Engine calls carry a trace the benchmark owns, so the
// spans the program already emits (engine.plan, wal.fsync) land in it.
// Reads are then served once more through Server.Handler on an
// in-memory writer; serve's own time is that minus the engine calls.

// Ledger layers per request kind, in the order they run.
var ledgerLayers = map[opKind][]string{
	kPath:   {"serve.self", "pathquery.translate", "sqldb.parse", "engine.plan", "engine.open", "engine.next"},
	kPK:     {"serve.self", "sqldb.parse", "engine.plan", "engine.open", "engine.next"},
	kDoc:    {"serve.self", "reconstruct.doc"},
	kUpdate: {"sqldb.parse", "engine.update", "engine.wal_fsync"},
	kLoad:   {"xmltree.parse", "shred.load"},
	kDelete: {"sqldb.parse", "engine.delete", "engine.wal_fsync"},
	kVacuum: {"engine.vacuum"},
}

// ledger collects the decomposition pass's measurements.
type ledger struct {
	layer map[opKind]map[string][]float64 // per request: ms spent in the layer
	stmt  map[string][]float64            // per statement or call: parse, plan, fsync (ms)
	count map[string]float64              // summed counters
	ops   map[opKind]int
}

func newLedger() *ledger {
	l := &ledger{layer: map[opKind]map[string][]float64{}, stmt: map[string][]float64{},
		count: map[string]float64{}, ops: map[opKind]int{}}
	for k := range ledgerLayers {
		l.layer[k] = map[string][]float64{}
	}
	return l
}

func (l *ledger) add(k opKind, layer string, v float64) {
	l.layer[k][layer] = append(l.layer[k][layer], v)
}

// layerMean is the mean time of one layer per request over the given
// kinds (0 when none ran).
func (l *ledger) layerMean(layer string, kinds ...opKind) float64 {
	var all []float64
	for _, k := range kinds {
		all = append(all, l.layer[k][layer]...)
	}
	return mean(all)
}

func (l *ledger) ratio(num, den string) float64 {
	if l.count[den] == 0 {
		return 0
	}
	return l.count[num] / l.count[den]
}

// spanMs sums the durations of the named spans in a finished trace.
func spanMs(tr *obs.Trace, name string) (total float64, each []float64) {
	for _, sp := range tr.Record().Spans {
		if sp.Name == name {
			v := float64(sp.DurNS) / 1e6
			total += v
			each = append(each, v)
		}
	}
	return total, each
}

func (r *runner) rowsScanned() int64 {
	var n int64
	for _, t := range r.st.p.DB.TableNames() {
		n += r.st.p.Obs.Table(t).RowsScanned.Load()
	}
	return n
}

// timedParse parses a statement the way the engine will and returns the
// time it took.
func (l *ledger) timedParse(stmt string) (float64, error) {
	t0 := time.Now()
	_, err := sqldb.Parse(stmt)
	v := ms(time.Since(t0))
	l.stmt["sqldb.parse"] = append(l.stmt["sqldb.parse"], v)
	return v, err
}

// selectLayers opens and drains one SELECT through Pipeline.SQLCursor
// under a benchmark-owned trace. It returns parse, plan, open (operator
// open, without parse and plan) and drain times, and the rows drained.
func (r *runner) selectLayers(l *ledger, stmt string) (parse, plan, open, next float64, rows int, err error) {
	if parse, err = l.timedParse(stmt); err != nil {
		return
	}
	tr := obs.NewTrace("perfbench.select", "perfbench")
	ctx := obs.WithTrace(context.Background(), tr)
	t0 := time.Now()
	cur, err := r.st.p.SQLCursor(ctx, stmt)
	openAll := ms(time.Since(t0))
	if err != nil {
		return
	}
	t1 := time.Now()
	for cur.Next() {
		rows++
	}
	err = cur.Err()
	next = ms(time.Since(t1))
	tr.Finish(nil)
	plan, _ = spanMs(tr, "engine.plan")
	l.stmt["engine.plan"] = append(l.stmt["engine.plan"], plan)
	open = openAll - parse - plan
	return
}

// execLayers runs one write statement through Pipeline.SQLContext under
// a benchmark-owned trace and returns parse, engine and fsync times.
func (r *runner) execLayers(l *ledger, stmt string) (parse, engine, fsync float64, err error) {
	if parse, err = l.timedParse(stmt); err != nil {
		return
	}
	tr := obs.NewTrace("perfbench.exec", "perfbench")
	ctx := obs.WithTrace(context.Background(), tr)
	t0 := time.Now()
	_, err = r.st.p.SQLContext(ctx, stmt)
	engine = ms(time.Since(t0))
	tr.Finish(nil)
	var each []float64
	fsync, each = spanMs(tr, "wal.fsync")
	l.stmt["engine.wal_fsync"] = append(l.stmt["engine.wal_fsync"], each...)
	return
}

// handle serves one read through Server.Handler into an in-memory
// writer and returns the time and body.
func (r *runner) handle(ep *endpoint, target string) (float64, int, string) {
	req := httptest.NewRequest("GET", target, nil)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	ep.srv.Handler().ServeHTTP(rec, req)
	d := ms(time.Since(t0))
	body, _ := io.ReadAll(rec.Result().Body)
	return d, rec.Code, string(body)
}

// decompose runs ops serially into l, one layer call at a time,
// checking every answer like the load generator does, until the ops or
// the time budget run out. It returns how many ops it ran.
func (r *runner) decompose(l *ledger, ops []op, ep *endpoint, budget time.Duration) int {
	w := &worker{}
	deadline := time.Now().Add(budget)
	for i := range ops {
		if time.Now().After(deadline) {
			return i
		}
		o := &ops[i]
		err := r.decomposeOne(l, ep, o)
		if err == nil && o.verify {
			err = r.verify(w, ep, o)
		}
		r.tally.record(o, err)
		if err == nil {
			l.ops[o.kind]++
		}
	}
	return len(ops)
}

func (r *runner) decomposeOne(l *ledger, ep *endpoint, o *op) error {
	p := r.st.p
	k := o.kind
	switch k {
	case kPath, kPK:
		var stmts []string
		var target, want string
		var translate float64
		if k == kPath {
			q := pathQueries[o.arg]
			t0 := time.Now()
			sqls, err := p.TranslatePath(q)
			if err != nil {
				return err
			}
			translate = ms(time.Since(t0))
			stmts, target = sqls, "/path?q="+url.QueryEscape(q)
		} else {
			a := r.exp.authors[o.arg]
			stmts, target, want = []string{pkSQL(a.id)}, "/query?sql="+url.QueryEscape(pkSQL(a.id)), a.body
		}
		var parse, plan, open, next float64
		rows := 0
		for _, s := range stmts {
			pa, pl, op, nx, n, err := r.selectLayers(l, s)
			if err != nil {
				return err
			}
			parse, plan, open, next, rows = parse+pa, plan+pl, open+op, next+nx, rows+n
		}
		d, code, body := r.handle(ep, target)
		if code != 200 {
			return fmt.Errorf("%s: status %d", target, code)
		}
		if k == kPath {
			if err := r.exp.checkPath(o.arg, []byte(body)); err != nil {
				return fmt.Errorf("%w: %v", errWrong, err)
			}
			if n, _ := trailerN([]byte(body)); n != rows {
				return fmt.Errorf("%w: %s: cursor drained %d rows, handler served %d", errWrong, target, rows, n)
			}
			l.add(k, "pathquery.translate", translate)
		} else if body != want {
			return fmt.Errorf("%w: %s: got %.200q", errWrong, target, body)
		}
		l.add(k, "serve.self", d-translate-parse-plan-open-next)
		l.add(k, "sqldb.parse", parse)
		l.add(k, "engine.plan", plan)
		l.add(k, "engine.open", open)
		l.add(k, "engine.next", next)
	case kDoc:
		id := r.exp.readDocs[o.arg]
		scanned := r.rowsScanned()
		t0 := time.Now()
		xml, err := p.Reconstruct(id)
		recon := ms(time.Since(t0))
		if err != nil {
			return err
		}
		l.count["recon_rows_scanned"] += float64(r.rowsScanned() - scanned)
		if xml != r.exp.readXML[o.arg] {
			return fmt.Errorf("%w: reconstruct %d", errWrong, id)
		}
		d, code, body := r.handle(ep, "/doc/"+strconv.FormatInt(id, 10))
		if code != 200 || body != xml {
			return fmt.Errorf("%w: /doc/%d: status %d", errWrong, id, code)
		}
		l.add(k, "reconstruct.doc", recon)
		l.add(k, "serve.self", d-recon)
	case kUpdate:
		t, title := r.target(o)
		before := r.walCounters()
		parse, eng, fsync, err := r.execLayers(l, updateSQL(t, title))
		if err != nil {
			return err
		}
		l.addWAL(before, r.walCounters(), 0)
		r.exp.setTitle(t, title)
		l.add(k, "sqldb.parse", parse)
		l.add(k, "engine.update", eng-parse-fsync)
		l.add(k, "engine.wal_fsync", fsync)
		l.count["update_ms"] += eng
	case kLoad:
		sl, err := r.slot(o)
		if err != nil {
			return err
		}
		defer close(sl.done)
		g := r.poolDoc(o)
		t0 := time.Now()
		doc, err := p.ParseDocument(g.xml)
		parse := ms(time.Since(t0))
		if err != nil {
			return err
		}
		before := r.walCounters()
		rows0 := p.Obs.DocRows.Snapshot().Sum
		t1 := time.Now()
		id, err := p.LoadDocument(doc, fmt.Sprintf("%s#%d", g.name, o.arg))
		load := ms(time.Since(t1))
		if err != nil {
			return err
		}
		l.addWAL(before, r.walCounters(), len(g.xml))
		l.count["doc_rows"] += float64(p.Obs.DocRows.Snapshot().Sum - rows0)
		sl.id, sl.ok = id, true
		r.exp.addDoc(id, g.xml)
		l.add(k, "xmltree.parse", parse)
		l.add(k, "shred.load", load)
	case kDelete:
		id, err := r.loaded(o)
		if err != nil {
			return err
		}
		before := r.walCounters()
		var parse, eng, fsync float64
		for _, t := range r.exp.delTables {
			pa, e, f, err := r.execLayers(l, deleteSQL(t, id))
			if err != nil {
				return err
			}
			parse, eng, fsync = parse+pa, eng+e, fsync+f
		}
		l.addWAL(before, r.walCounters(), 0)
		r.exp.removeDoc(id)
		l.add(k, "sqldb.parse", parse)
		l.add(k, "engine.delete", eng-parse-fsync)
		l.add(k, "engine.wal_fsync", fsync)
		l.count["delete_ms"] += eng
	case kVacuum:
		t0 := time.Now()
		if _, err := p.DB.Vacuum(); err != nil {
			return err
		}
		l.add(k, "engine.vacuum", ms(time.Since(t0)))
	}
	return nil
}

// walCounters samples the WAL counters a write moves.
type walSample struct{ frames, bytes, fsyncs int64 }

func (r *runner) walCounters() walSample {
	m := r.st.p.Obs
	return walSample{m.WALFrames.Load(), m.WALBytes.Load(), m.WALFsyncs.Load()}
}

// addWAL charges the WAL work between two samples to one write
// operation; xmlBytes is the document size a load wrote.
func (l *ledger) addWAL(before, after walSample, xmlBytes int) {
	l.count["wal_frames"] += float64(after.frames - before.frames)
	l.count["wal_fsyncs"] += float64(after.fsyncs - before.fsyncs)
	l.count["write_ops"]++
	if xmlBytes > 0 {
		l.count["load_wal_bytes"] += float64(after.bytes - before.bytes)
		l.count["load_xml_bytes"] += float64(xmlBytes)
	}
}

// printLedger writes, per request kind, the end-to-end service time
// measured in the untraced open-loop half, the mean time of each layer in
// the decomposition pass, and the remainder no layer accounts for
// (HTTP transport, client, scheduling).
func printLedger(w io.Writer, l *ledger, e2e map[opKind]float64) {
	fmt.Fprintln(w, "ledger: mean ms per request; e2e is the untraced open-loop service time, remainder = e2e - layers")
	kinds := make([]opKind, 0, len(ledgerLayers))
	for k := range ledgerLayers {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		if l.ops[k] == 0 {
			continue
		}
		sum := 0.0
		var parts []string
		for _, layer := range ledgerLayers[k] {
			v := l.layerMean(layer, k)
			sum += v
			parts = append(parts, fmt.Sprintf("%s=%.4f", layer, v))
		}
		e2eS, rem := "-", "-"
		if v, ok := e2e[k]; ok {
			e2eS, rem = fmt.Sprintf("%.4f", v), fmt.Sprintf("%.4f", v-sum)
		}
		fmt.Fprintf(w, "ledger %-9s n=%-4d e2e=%s %s remainder=%s\n", k, l.ops[k], e2eS, strings.Join(parts, " "), rem)
	}
}
