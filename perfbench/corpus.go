package main

import (
	"fmt"
	"math/rand"

	"xmlrdb/internal/dtd"
	"xmlrdb/internal/paper"
	"xmlrdb/internal/wgen"
	"xmlrdb/internal/xmltree"
)

// genDoc is one generated input document.
type genDoc struct {
	name  string
	root  string // "book" or "article"
	xml   string // canonical rendering: what /doc must serve back
	title string // text of the root's booktitle (books only)
}

// corpus is everything a run loads: the base documents loaded at set-up
// and a pool of further documents the run loads while it measures.
type corpus struct {
	base []genDoc
	pool []genDoc
}

// makeCorpus generates base and pool documents from seed with wgen over
// the paper's Example 1 DTD, half books and half articles. wgen numbers
// author ids per document (id0, id1, ...); they are rewritten to be
// unique across the corpus, with contactauthor references following, so
// every author row names exactly one document.
func makeCorpus(seed int64, base, pool int) (*corpus, error) {
	d, err := dtd.Parse(paper.Example1DTD)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{}
	gen := func(prefix string, i int) (genDoc, error) {
		root := "book"
		if rng.Intn(2) == 0 {
			root = "article"
		}
		doc, err := wgen.GenerateDoc(d, root, rng, wgen.DocConfig{})
		if err != nil {
			return genDoc{}, err
		}
		renumberAuthors(doc.Root, fmt.Sprintf("%s%d", prefix, i))
		g := genDoc{name: fmt.Sprintf("%s-%d", prefix, i), root: root,
			xml: doc.Render(xmltree.WriteOptions{})}
		if root == "book" {
			g.title = doc.Root.FirstChildElement("booktitle").Text()
		}
		return g, nil
	}
	for i := 0; i < base; i++ {
		g, err := gen("b", i)
		if err != nil {
			return nil, err
		}
		c.base = append(c.base, g)
	}
	for i := 0; i < pool; i++ {
		g, err := gen("n", i)
		if err != nil {
			return nil, err
		}
		c.pool = append(c.pool, g)
	}
	return c, nil
}

// renumberAuthors gives every author id under root the prefix, and
// rewrites IDREF attributes that pointed at the old ids.
func renumberAuthors(root *xmltree.Node, prefix string) {
	ids := map[string]string{}
	root.Descendants(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.ElementNode && n.Name == "author" {
			if old, ok := n.Attr("id"); ok {
				ids[old] = fmt.Sprintf("%s-a%d", prefix, len(ids))
				n.SetAttr("id", ids[old])
			}
		}
		return true
	})
	root.Descendants(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.ElementNode && n.Name == "contactauthor" {
			if old, ok := n.Attr("authorid"); ok {
				n.SetAttr("authorid", ids[old])
			}
		}
		return true
	})
}
