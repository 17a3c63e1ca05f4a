package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"xmlrdb"
	"xmlrdb/internal/paper"
	"xmlrdb/internal/serve"
	"xmlrdb/internal/xmltree"
)

// endpoint is one HTTP server over the pipeline, on a loopback port.
type endpoint struct {
	srv  *serve.Server
	url  string
	done chan error
}

func startServer(p *xmlrdb.Pipeline, traced bool) (*endpoint, error) {
	opts := serve.Options{RequestTimeout: 30 * time.Second, TraceSample: -1}
	if traced {
		opts.TraceSample = 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{srv: serve.New(p, opts), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { e.done <- e.srv.Serve(ln) }()
	return e, nil
}

func (e *endpoint) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-e.done; err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// store is the system under test: a durable pipeline holding the base
// corpus, served over loopback HTTP.
type store struct {
	dir    string
	p      *xmlrdb.Pipeline
	eps    []*endpoint
	docIDs []int64 // base document index -> document id
}

func openPipeline(dir string) (*xmlrdb.Pipeline, error) {
	return xmlrdb.Open(paper.Example1DTD, xmlrdb.Config{DataDir: dir, SnapshotEvery: snapshotEvery})
}

// setupTimes are the timings one set-up yields.
type setupTimes struct {
	total    time.Duration // map the DTD, load, ANALYZE, serve
	loadDocs float64       // base documents per second (parse + load)
}

// setup builds a store from scratch in dir: it maps the DTD, parses and
// loads the base corpus into a durable store with nproc workers, runs
// ANALYZE and starts serving, and times all of it up to the first
// answered health check.
func setup(dir string, c *corpus, nproc int, client *http.Client) (*store, setupTimes, error) {
	var t setupTimes
	if err := os.RemoveAll(dir); err != nil {
		return nil, t, err
	}
	runtime.GC() // as for a reopen: set-up starts from a collected heap
	start := time.Now()
	p, err := openPipeline(dir)
	if err != nil {
		return nil, t, err
	}
	s := &store{dir: dir, p: p}
	fail := func(err error) (*store, setupTimes, error) {
		s.close()
		return nil, t, err
	}
	loadStart := time.Now()
	docs := make([]*xmltree.Document, len(c.base))
	names := make([]string, len(c.base))
	for i, g := range c.base {
		if docs[i], err = p.ParseDocument(g.xml); err != nil {
			return fail(fmt.Errorf("parse %s: %w", g.name, err))
		}
		names[i] = g.name
	}
	if s.docIDs, err = p.LoadCorpusNamed(docs, names, nproc); err != nil {
		return fail(fmt.Errorf("load base corpus: %w", err))
	}
	t.loadDocs = float64(len(docs)) / time.Since(loadStart).Seconds()
	if err := p.Analyze(); err != nil {
		return fail(fmt.Errorf("analyze: %w", err))
	}
	if _, err := s.serve(false); err != nil {
		return fail(err)
	}
	resp, err := client.Get(s.eps[0].url + "/healthz")
	if err != nil {
		return fail(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail(fmt.Errorf("healthz: status %d", resp.StatusCode))
	}
	t.total = time.Since(start)
	return s, t, nil
}

func (s *store) serve(traced bool) (*endpoint, error) {
	e, err := startServer(s.p, traced)
	if err != nil {
		return nil, err
	}
	s.eps = append(s.eps, e)
	return e, nil
}

// stopServers drains and stops every endpoint.
func (s *store) stopServers() error {
	var first error
	for _, e := range s.eps {
		if err := e.stop(); err != nil && first == nil {
			first = err
		}
	}
	s.eps = nil
	return first
}

// close stops serving, closes the pipeline and deletes the data.
func (s *store) close() {
	_ = s.stopServers()
	if s.p != nil {
		_ = s.p.Close()
		s.p = nil
	}
	_ = os.RemoveAll(s.dir)
}

// docTables lists the tables with a doc column, children before their
// parents (reverse creation order), the order a whole-document delete
// visits them in.
func docTables(p *xmlrdb.Pipeline) []string {
	names := p.DB.TableNames()
	var out []string
	for i := len(names) - 1; i >= 0; i-- {
		def := p.DB.TableDef(names[i])
		for _, c := range def.Columns {
			if c.Name == "doc" {
				out = append(out, names[i])
				break
			}
		}
	}
	return out
}

// endResult is what closing and reopening the store yields.
type endResult struct {
	recoverS     float64 // the reopen's time, seconds
	diskPerXML   float64
	replayFrames int64
}

// reopenAndCheck closes the store, measures its size on disk, reopens it
// from the bytes on disk, and requires the reopened store to hold
// exactly the expected documents: every acknowledged load, update and
// delete present, no other change. Per-table row counts must equal those
// of the store just before it closed, and no row may belong to a
// document that is not live.
func (s *store) reopenAndCheck(exp *expect) (endResult, error) {
	var r endResult
	if err := s.stopServers(); err != nil {
		return r, err
	}
	tables := s.p.DB.TableNames()
	before := map[string]int{}
	for _, t := range tables {
		before[t] = s.p.DB.RowCount(t)
	}
	if err := s.p.Close(); err != nil {
		return r, fmt.Errorf("close: %w", err)
	}
	s.p = nil
	var disk int64
	err := filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			disk += info.Size()
		}
		return err
	})
	if err != nil {
		return r, err
	}
	live := exp.liveDocs()
	var xmlBytes int64
	for _, x := range live {
		xmlBytes += int64(len(x))
	}
	r.diskPerXML = float64(disk) / float64(xmlBytes)

	// A store is reopened by a fresh process; start the timed reopen
	// from a collected heap, not with earlier phases' garbage.
	runtime.GC()
	t0 := time.Now()
	p, err := openPipeline(s.dir)
	if err != nil {
		return r, fmt.Errorf("reopen: %w", err)
	}
	r.recoverS = time.Since(t0).Seconds()
	s.p = p
	r.replayFrames = p.MetricsSnapshot().WAL.ReplayFrames
	ids, err := p.DocumentIDs()
	if err != nil {
		return r, err
	}
	if len(ids) != len(live) {
		return r, fmt.Errorf("durability: %d documents after reopen, want %d", len(ids), len(live))
	}
	for _, id := range ids {
		want, ok := live[id]
		if !ok {
			return r, fmt.Errorf("durability: document %d present after reopen but not expected", id)
		}
		got, err := p.Reconstruct(id)
		if err != nil {
			return r, fmt.Errorf("durability: reconstruct %d: %w", id, err)
		}
		if got != want {
			return r, fmt.Errorf("durability: document %d differs after reopen", id)
		}
	}
	for _, t := range tables {
		if n := s.p.DB.RowCount(t); n != before[t] {
			return r, fmt.Errorf("durability: table %s has %d rows after reopen, %d before close", t, n, before[t])
		}
	}
	for _, t := range docTables(s.p) {
		rows, err := s.p.SQL("SELECT DISTINCT doc FROM " + t)
		if err != nil {
			return r, err
		}
		for _, row := range rows.Data {
			if _, ok := live[toInt64(row[0])]; !ok {
				return r, fmt.Errorf("durability: table %s holds rows of document %v, which is not live", t, row[0])
			}
		}
	}
	return r, nil
}

func toInt64(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case int:
		return int64(x)
	case float64:
		return int64(x)
	}
	return -1
}

// rowJSON renders result rows the way the server encodes them, one
// string per row, sorted: an order-free fingerprint of a result.
func rowJSON(rows [][]any) ([]string, error) {
	out := make([]string, len(rows))
	for i, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out[i] = string(b)
	}
	sort.Strings(out)
	return out, nil
}
