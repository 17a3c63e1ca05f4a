package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// emptyBody is what the server answers to a statement that returns no
// result set (UPDATE, DELETE).
const emptyBody = "{\"cols\":[],\"rows\":[],\"n\":0}\n"

type authorRow struct {
	id   int64
	body string // the expected /query response to its primary-key SELECT
}

type updTarget struct {
	bookID, doc int64
	title       string
}

// expect holds the answers a run checks the program against. Scan
// answers come from the pipeline in-process at set-up and are checked
// once against a served response; document and row answers come from the
// generator.
type expect struct {
	static    bool       // the traffic never writes, so path answers are fixed
	scanBody  [][]byte   // served body per path query, checked at set-up
	scanRows  [][]string // sorted row JSON per path query
	scanN     []int
	readDocs  []int64  // documents reads may fetch; never written
	readXML   []string // their expected bodies
	authors   []authorRow
	targets   []updTarget
	delTables []string

	mu   sync.Mutex
	live map[int64]string // live document -> expected XML
}

// buildExpect derives the expected answers for a freshly set-up store.
// Base documents are split in two: even-numbered ones are only ever
// read, odd-numbered books are the targets of UPDATEs, so a read never
// races a write to the document it checks.
func buildExpect(s *store, c *corpus, client *http.Client, static bool) (*expect, error) {
	p := s.p
	e := &expect{static: static, live: map[int64]string{}, delTables: docTables(p)}
	for i, id := range s.docIDs {
		e.live[id] = c.base[i].xml
	}
	rows, err := p.SQL("SELECT doc, root FROM x_docs")
	if err != nil {
		return nil, err
	}
	rootOf := map[int64]int64{}
	for _, r := range rows.Data {
		rootOf[toInt64(r[0])] = toInt64(r[1])
	}
	for i, id := range s.docIDs {
		g := c.base[i]
		switch {
		case i%2 == 0:
			e.readDocs = append(e.readDocs, id)
			e.readXML = append(e.readXML, g.xml)
		case g.root == "book":
			e.targets = append(e.targets, updTarget{bookID: rootOf[id], doc: id, title: g.title})
		}
	}

	// Every author row must name the document its generated id belongs
	// to; read-side authors become the primary-key lookups.
	rows, err = p.SQL("SELECT id, doc, a_id FROM e_author")
	if err != nil {
		return nil, err
	}
	want := 0
	for _, g := range c.base {
		want += strings.Count(g.xml, "<author ")
	}
	if len(rows.Data) != want {
		return nil, fmt.Errorf("e_author holds %d rows, the corpus has %d authors", len(rows.Data), want)
	}
	for _, r := range rows.Data {
		id, doc, aid := toInt64(r[0]), toInt64(r[1]), fmt.Sprint(r[2])
		prefix, _, _ := strings.Cut(aid, "-a")
		i, err := strconv.Atoi(strings.TrimPrefix(prefix, "b"))
		if err != nil || i < 0 || i >= len(s.docIDs) || s.docIDs[i] != doc {
			return nil, fmt.Errorf("author %s stored under document %d", aid, doc)
		}
		if i%2 != 0 {
			continue
		}
		b, err := json.Marshal([]any{id, doc, aid})
		if err != nil {
			return nil, err
		}
		e.authors = append(e.authors, authorRow{id: id,
			body: `{"cols":["id","doc","a_id"],"rows":[` + string(b) + "],\"n\":1}\n"})
	}

	base := s.eps[0].url
	for _, q := range pathQueries {
		rows, err := p.Query(q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q, err)
		}
		want, err := rowJSON(rows.Data)
		if err != nil {
			return nil, err
		}
		resp, err := client.Get(base + "/path?q=" + url.QueryEscape(q))
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK || !sameRows(body, want) {
			return nil, fmt.Errorf("%s: served answer differs from the in-process one", q)
		}
		e.scanBody = append(e.scanBody, body)
		e.scanRows = append(e.scanRows, want)
		e.scanN = append(e.scanN, len(want))
	}
	return e, nil
}

// sameRows reports whether a served result body holds exactly the
// expected rows, in any order.
func sameRows(body []byte, want []string) bool {
	var r struct {
		Rows []json.RawMessage `json:"rows"`
		N    int               `json:"n"`
	}
	if err := json.Unmarshal(body, &r); err != nil || r.N != len(r.Rows) || len(r.Rows) != len(want) {
		return false
	}
	got := make([]string, len(r.Rows))
	for i, raw := range r.Rows {
		got[i] = string(raw)
	}
	sort.Strings(got)
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// checkPath checks a served path answer: byte-equal to the set-up answer
// (or the same rows reordered) while the store is static; under churn,
// a complete body with at least the base corpus's rows, since base
// documents are never deleted and UPDATEs change no row counts.
func (e *expect) checkPath(q int, body []byte) error {
	if e.static {
		if bytes.Equal(body, e.scanBody[q]) || sameRows(body, e.scanRows[q]) {
			return nil
		}
		return fmt.Errorf("%s: wrong rows", pathQueries[q])
	}
	n, ok := trailerN(body)
	if !ok {
		return fmt.Errorf("%s: truncated body", pathQueries[q])
	}
	if n < e.scanN[q] {
		return fmt.Errorf("%s: %d rows, base corpus alone has %d", pathQueries[q], n, e.scanN[q])
	}
	return nil
}

// trailerN parses the row count from a complete result body.
func trailerN(body []byte) (int, bool) {
	const tail = "}\n"
	i := bytes.LastIndex(body, []byte(`],"n":`))
	if i < 0 || !bytes.HasSuffix(body, []byte(tail)) || !bytes.HasPrefix(body, []byte(`{"cols":`)) {
		return 0, false
	}
	n, err := strconv.Atoi(string(body[i+6 : len(body)-len(tail)]))
	return n, err == nil
}

func (e *expect) addDoc(id int64, xml string) {
	e.mu.Lock()
	e.live[id] = xml
	e.mu.Unlock()
}

func (e *expect) removeDoc(id int64) {
	e.mu.Lock()
	delete(e.live, id)
	e.mu.Unlock()
}

// setTitle records an acknowledged UPDATE of a root book's title.
func (e *expect) setTitle(t *updTarget, title string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	old := "<book><booktitle>" + t.title + "</booktitle>"
	e.live[t.doc] = strings.Replace(e.live[t.doc], old, "<book><booktitle>"+title+"</booktitle>", 1)
	t.title = title
}

func (e *expect) liveDocs() map[int64]string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[int64]string, len(e.live))
	for k, v := range e.live {
		out[k] = v
	}
	return out
}
