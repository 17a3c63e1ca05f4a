package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// loadSlot is where a document load leaves the id a later delete needs.
type loadSlot struct {
	id   int64
	ok   bool
	done chan struct{}
}

// tally counts outcomes. A refused (429) or failed request and a wrong
// answer each count as one failed operation.
type tally struct {
	attempted, failed, refused, wrong atomic.Int64
	logged                            atomic.Int64
}

func (t *tally) failures() int64 { return t.failed.Load() + t.refused.Load() + t.wrong.Load() }

// add counts another tally's outcomes into t.
func (t *tally) add(o *tally) {
	t.attempted.Add(o.attempted.Load())
	t.failed.Add(o.failed.Load())
	t.refused.Add(o.refused.Load())
	t.wrong.Add(o.wrong.Load())
}

// errWrong marks an answer that arrived but was not the expected one.
var errWrong = errors.New("wrong answer")

// errRefused marks a request the server shed with 429.
var errRefused = errors.New("refused")

func (t *tally) record(o *op, err error) {
	t.attempted.Add(1)
	if err == nil {
		return
	}
	switch {
	case errors.Is(err, errWrong):
		t.wrong.Add(1)
	case errors.Is(err, errRefused):
		t.refused.Add(1)
	default:
		t.failed.Add(1)
	}
	if t.logged.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: %s %d: %v\n", o.kind, o.arg, err)
	}
}

// samples holds one phase's per-kind timings in milliseconds.
type samples struct {
	lat  [nKinds][]float64 // from the due time (open loop) or the start
	svc  [nKinds][]float64 // from the start of the call
	late []float64         // generator wake-up lateness
	path [][]float64       // lat of path reads by query
}

func (s *samples) merge(o *samples) {
	for k := range s.lat {
		s.lat[k] = append(s.lat[k], o.lat[k]...)
		s.svc[k] = append(s.svc[k], o.svc[k]...)
	}
	s.late = append(s.late, o.late...)
	for q, v := range o.path {
		for len(s.path) <= q {
			s.path = append(s.path, nil)
		}
		s.path[q] = append(s.path[q], v...)
	}
}

func (s *samples) reads() []float64 {
	var out []float64
	for k := opKind(0); k < nKinds; k++ {
		if k.isRead() {
			out = append(out, s.lat[k]...)
		}
	}
	return out
}

func (s *samples) count() int {
	n := 0
	for k := range s.lat {
		n += len(s.lat[k])
	}
	return n
}

// runner executes operations against a store and checks every answer.
type runner struct {
	st     *store
	exp    *expect
	corp   *corpus
	client *http.Client
	nproc  int
	tally  tally
	slots  []loadSlot
	maxPin atomic.Int64
	// inProc sends UPDATE and DELETE statements through Pipeline.SQL
	// instead of over HTTP.
	inProc bool
}

// newMemRunner sets up an in-memory copy of the store, with the same
// corpus and its own server, for the write probe that no fsync slows.
// Its UPDATEs and DELETEs go through Pipeline.SQL, as an embedding
// program issues them: over loopback HTTP the wake-up latency of the
// host's scheduler, not the statement, set their medians.
func newMemRunner(corp *corpus, nproc int, client *http.Client) (*runner, error) {
	st, _, err := setup("", corp, nproc, client)
	if err != nil {
		return nil, fmt.Errorf("in-memory setup: %w", err)
	}
	exp, err := buildExpect(st, corp, client, false)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("in-memory expected answers: %w", err)
	}
	r := newRunner(st, exp, corp, client, nproc)
	r.inProc = true
	return r, nil
}

func newRunner(st *store, exp *expect, corp *corpus, client *http.Client, nproc int) *runner {
	r := &runner{st: st, exp: exp, corp: corp, client: client, nproc: nproc,
		slots: make([]loadSlot, 8192)}
	for i := range r.slots {
		r.slots[i].done = make(chan struct{})
	}
	return r
}

// worker is one in-flight slot of the load generator.
type worker struct {
	buf bytes.Buffer
	s   samples
}

func (w *worker) do(c *http.Client, method, u, body string) (int, []byte, error) {
	var req *http.Request
	var err error
	if body == "" {
		req, err = http.NewRequest(method, u, nil)
	} else {
		req, err = http.NewRequest(method, u, strings.NewReader(body))
	}
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	w.buf.Reset()
	_, err = w.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode == http.StatusTooManyRequests {
		err = errRefused
	}
	return resp.StatusCode, w.buf.Bytes(), err
}

// expectOK is do plus a required 200 and an exact body.
func (w *worker) expectOK(c *http.Client, method, u, body, want string) error {
	code, got, err := w.do(c, method, u, body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", method, u, code, got)
	}
	if string(got) != want {
		return fmt.Errorf("%w: %s %.120s: got %.200q, want %.200q", errWrong, method, u, got, want)
	}
	return nil
}

func sqlURL(base, stmt string) string { return base + "/query?sql=" + url.QueryEscape(stmt) }

func pkSQL(id int64) string {
	return "SELECT id, doc, a_id FROM e_author WHERE id = " + strconv.FormatInt(id, 10)
}

func updateSQL(t *updTarget, title string) string {
	return fmt.Sprintf("UPDATE e_book SET a_booktitle = '%s' WHERE id = %d", title, t.bookID)
}

func deleteSQL(table string, doc int64) string {
	return fmt.Sprintf("DELETE FROM %s WHERE doc = %d", table, doc)
}

func (r *runner) target(o *op) (*updTarget, string) {
	return &r.exp.targets[o.arg%len(r.exp.targets)], fmt.Sprintf("updated %d", o.arg)
}

func (r *runner) poolDoc(o *op) genDoc { return r.corp.pool[o.arg%len(r.corp.pool)] }

// slot returns a load's slot, or an error when the run dealt more loads
// than there are slots.
func (r *runner) slot(o *op) (*loadSlot, error) {
	if o.arg >= len(r.slots) {
		return nil, fmt.Errorf("load slot %d beyond %d", o.arg, len(r.slots))
	}
	return &r.slots[o.arg], nil
}

// exec runs one operation through the public surfaces and checks its
// answer. Reads and SQL writes go over HTTP to ep; loads and vacuum
// passes call the pipeline.
func (r *runner) exec(w *worker, ep *endpoint, o *op) error {
	c := r.client
	switch o.kind {
	case kPath:
		code, body, err := w.do(c, "GET", ep.url+"/path?q="+url.QueryEscape(pathQueries[o.arg]), "")
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("path: status %d", code)
		}
		if err := r.exp.checkPath(o.arg, body); err != nil {
			return fmt.Errorf("%w: %v", errWrong, err)
		}
		return nil
	case kDoc:
		return w.expectOK(c, "GET", ep.url+"/doc/"+strconv.FormatInt(r.exp.readDocs[o.arg], 10), "", r.exp.readXML[o.arg])
	case kPK:
		a := r.exp.authors[o.arg]
		return w.expectOK(c, "GET", sqlURL(ep.url, pkSQL(a.id)), "", a.body)
	case kUpdate:
		t, title := r.target(o)
		if err := r.write(w, ep, updateSQL(t, title)); err != nil {
			return err
		}
		r.exp.setTitle(t, title)
		return nil
	case kLoad:
		sl, err := r.slot(o)
		if err != nil {
			return err
		}
		defer close(sl.done)
		g := r.poolDoc(o)
		id, err := r.st.p.LoadXML(g.xml, fmt.Sprintf("%s#%d", g.name, o.arg))
		if err != nil {
			return err
		}
		sl.id, sl.ok = id, true
		r.exp.addDoc(id, g.xml)
		return nil
	case kDelete:
		id, err := r.loaded(o)
		if err != nil {
			return err
		}
		for _, t := range r.exp.delTables {
			if err := r.write(w, ep, deleteSQL(t, id)); err != nil {
				return err
			}
		}
		r.exp.removeDoc(id)
		return nil
	case kVacuum:
		_, err := r.st.p.DB.Vacuum()
		return err
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

// write runs one UPDATE or DELETE statement.
func (r *runner) write(w *worker, ep *endpoint, stmt string) error {
	if r.inProc {
		_, err := r.st.p.SQL(stmt)
		return err
	}
	return w.expectOK(r.client, "POST", ep.url+"/query", stmt, emptyBody)
}

// loaded waits for the load a delete refers to and returns its document.
func (r *runner) loaded(o *op) (int64, error) {
	if o.arg >= len(r.slots) {
		return 0, fmt.Errorf("load slot %d beyond %d", o.arg, len(r.slots))
	}
	sl := &r.slots[o.arg]
	t := time.NewTimer(60 * time.Second)
	defer t.Stop()
	select {
	case <-sl.done:
	case <-t.C:
		return 0, fmt.Errorf("load %d never finished", o.arg)
	}
	if !sl.ok {
		return 0, fmt.Errorf("load %d failed, nothing to delete", o.arg)
	}
	return sl.id, nil
}

// verify reads back an acknowledged write: the new title, the loaded
// document, or the absence of the deleted one.
func (r *runner) verify(w *worker, ep *endpoint, o *op) error {
	c := r.client
	switch o.kind {
	case kUpdate:
		t, title := r.target(o)
		b, _ := json.Marshal(title)
		return w.expectOK(c, "GET", sqlURL(ep.url, fmt.Sprintf("SELECT a_booktitle FROM e_book WHERE id = %d", t.bookID)),
			"", `{"cols":["a_booktitle"],"rows":[[`+string(b)+"]],\"n\":1}\n")
	case kLoad:
		sl := &r.slots[o.arg]
		return w.expectOK(c, "GET", ep.url+"/doc/"+strconv.FormatInt(sl.id, 10), "", r.poolDoc(o).xml)
	case kDelete:
		id := r.slots[o.arg].id
		code, _, err := w.do(c, "GET", ep.url+"/doc/"+strconv.FormatInt(id, 10), "")
		if err != nil {
			return err
		}
		if code == http.StatusOK {
			return fmt.Errorf("%w: deleted document %d still served", errWrong, id)
		}
		return w.expectOK(c, "GET", sqlURL(ep.url, fmt.Sprintf("SELECT doc FROM x_docs WHERE doc = %d", id)),
			"", "{\"cols\":[\"doc\"],\"rows\":[],\"n\":0}\n")
	}
	return nil
}

// run executes one operation, records its outcome and timings, and
// follows a sampled write with its read-your-write check (untimed).
func (r *runner) run(w *worker, ep *endpoint, o *op, due time.Time) {
	t0 := time.Now()
	err := r.exec(w, ep, o)
	end := time.Now()
	if err == nil && o.verify {
		err = r.verify(w, ep, o)
	}
	r.tally.record(o, err)
	if err != nil {
		return
	}
	w.s.lat[o.kind] = append(w.s.lat[o.kind], ms(end.Sub(due)))
	w.s.svc[o.kind] = append(w.s.svc[o.kind], ms(end.Sub(t0)))
	if o.kind == kPath {
		for len(w.s.path) <= o.arg {
			w.s.path = append(w.s.path, nil)
		}
		w.s.path[o.arg] = append(w.s.path[o.arg], ms(end.Sub(due)))
	}
	n := int64(r.st.p.DB.PinnedCursors())
	for m := r.maxPin.Load(); n > m && !r.maxPin.CompareAndSwap(m, n); m = r.maxPin.Load() {
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoop runs ops on their schedule with at most nproc in flight.
// With two or more slots, writes (and vacuum passes) have one worker of
// their own, the churn loader, and reads the rest, so a read queues
// behind reads only and shows what concurrent writes cost it inside the
// program; with one slot, one worker runs both in schedule order. Each
// worker takes its stream's next operation, sleeps until it is due when
// it is early, and times a late one from its due time, so a stall also
// delays, and is charged to, the operations queued behind it. origin is
// subtracted from every due time.
func (r *runner) openLoop(ops []op, ep *endpoint, origin time.Duration) *samples {
	var reads, writes []op
	for _, o := range ops {
		if o.kind.isRead() {
			reads = append(reads, o)
		} else {
			writes = append(writes, o)
		}
	}
	var ws []*worker
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	stream := func(ops []op, workers int) {
		var next atomic.Int64
		for i := 0; i < workers; i++ {
			w := &worker{}
			ws = append(ws, w)
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.drain(w, ep, ops, &next, start, origin)
			}()
		}
	}
	if len(writes) == 0 || r.nproc < 2 {
		stream(ops, r.nproc)
	} else {
		stream(reads, r.nproc-1)
		stream(writes, 1)
	}
	wg.Wait()
	out := &samples{}
	for _, w := range ws {
		out.merge(&w.s)
	}
	return out
}

// drain runs a stream's operations on their schedule until none is left.
func (r *runner) drain(w *worker, ep *endpoint, ops []op, next *atomic.Int64, start time.Time, origin time.Duration) {
	for {
		i := int(next.Add(1) - 1)
		if i >= len(ops) {
			return
		}
		o := &ops[i]
		due := start.Add(o.due - origin)
		if d := time.Until(due); d > 0 {
			// An early worker times the operation from when it woke: the
			// Go timer wakes up to a millisecond late on Linux, which is
			// the generator's error, not the system's, and is reported as
			// gen.late_ms instead. A worker that was busy when its next
			// operation fell due is not late by its own fault: the system
			// was slow, and the wait counts in that operation's latency.
			time.Sleep(d)
			woke := time.Now()
			w.s.late = append(w.s.late, ms(woke.Sub(due)))
			due = woke
		}
		r.run(w, ep, o, due)
	}
}

// closedLoop keeps nproc requests in flight for dur, cycling through
// ops, and returns the completed requests per second.
func (r *runner) closedLoop(ops []op, ep *endpoint, dur time.Duration) float64 {
	var next, done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for i := 0; i < r.nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{}
			for time.Now().Before(deadline) {
				o := &ops[int(next.Add(1)-1)%len(ops)]
				err := r.exec(w, ep, o)
				r.tally.record(o, err)
				if err == nil {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds()
}

// serial runs ops one after another with no timers.
func (r *runner) serial(ops []op, ep *endpoint) *samples {
	w := &worker{}
	for i := range ops {
		r.run(w, ep, &ops[i], time.Now())
	}
	return &w.s
}
