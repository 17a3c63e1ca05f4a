package main

import (
	"math/rand"
	"time"
)

// op is one scheduled operation.
type op struct {
	kind opKind
	due  time.Duration // offset from the generator's start (open loop only)
	// arg selects the target: path query index, read-document index,
	// author index, update sequence number, load slot, or (for a
	// delete) the load slot whose document goes.
	arg    int
	verify bool // follow an acknowledged write with a read-your-write check
}

// opGen deals a workload's operations from its seed. Kinds and path
// queries come from shuffled decks, so every deck holds each in its
// exact share; point targets are Zipf-skewed over a seeded permutation,
// so the hot documents are spread over the id space.
type opGen struct {
	rng     *rand.Rand
	rate    float64
	kinds   []opKind
	kpos    int
	queries []int
	qpos    int
	zDoc    *rand.Zipf
	zAuth   *rand.Zipf
	docPerm []int
	auPerm  []int
	lag     int // loads a delete trails behind
	held    *op // dealt past the end of the last phase; next returns it first

	updates, loads, writes int
	pending                []int // load slots not yet deleted, oldest first
	t                      time.Duration
}

func newOpGen(seed int64, nDocs, nAuthors int) *opGen {
	rng := rand.New(rand.NewSource(seed))
	g := &opGen{rng: rng, docPerm: rng.Perm(nDocs), auPerm: rng.Perm(nAuthors)}
	for q := range pathQueries {
		g.queries = append(g.queries, q)
	}
	g.qpos = len(g.queries)
	g.zDoc = rand.NewZipf(rng, zipfS, 1, uint64(nDocs-1))
	g.zAuth = rand.NewZipf(rng, zipfS, 1, uint64(nAuthors-1))
	return g
}

// setMix switches the generator to another mix and arrival rate. Write
// sequence numbers, pending loads and an operation held over from the
// last phase carry over, so later phases never reuse a load slot or an
// update's title, and no dealt load goes missing.
func (g *opGen) setMix(m []mixEntry, rate float64, lag int) {
	g.kinds = g.kinds[:0]
	for _, e := range m {
		for i := 0; i < e.Weight; i++ {
			g.kinds = append(g.kinds, e.Kind)
		}
	}
	g.kpos, g.rate, g.lag = len(g.kinds), rate, lag
}

func (g *opGen) deal(deck []int, pos *int) int {
	if *pos == len(deck) {
		g.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		*pos = 0
	}
	*pos++
	return deck[*pos-1]
}

// next returns the next operation, due one exponential inter-arrival
// time after the previous one.
func (g *opGen) next() op {
	if o := g.held; o != nil {
		g.held = nil
		return *o
	}
	if g.rate > 0 {
		g.t += time.Duration(g.rng.ExpFloat64() / g.rate * float64(time.Second))
	}
	if g.kpos == len(g.kinds) {
		g.rng.Shuffle(len(g.kinds), func(i, j int) { g.kinds[i], g.kinds[j] = g.kinds[j], g.kinds[i] })
		g.kpos = 0
	}
	k := g.kinds[g.kpos]
	g.kpos++
	if k == kDelete && len(g.pending) < g.lag {
		k = kLoad // nothing old enough to delete yet
	}
	o := op{kind: k, due: g.t}
	switch k {
	case kPath:
		o.arg = g.deal(g.queries, &g.qpos)
	case kDoc:
		o.arg = g.docPerm[g.zDoc.Uint64()]
	case kPK:
		o.arg = g.auPerm[g.zAuth.Uint64()]
	case kUpdate:
		o.arg = g.updates
		g.updates++
	case kLoad:
		o.arg = g.loads
		g.pending = append(g.pending, g.loads)
		g.loads++
	case kDelete:
		o.arg = g.pending[0]
		g.pending = g.pending[1:]
	}
	if !k.isRead() {
		o.verify = g.writes%verifyEvery == 0
		g.writes++
	}
	return o
}

// until deals the operations due before end, measured from the
// generator's start. A vacuum pass is added every vacuumEvery (0: none)
// after start.
func (g *opGen) until(start, end, vacuumEvery time.Duration) []op {
	var ops []op
	nextVac := start + vacuumEvery
	for {
		o := g.next()
		for vacuumEvery > 0 && nextVac <= o.due && nextVac < end {
			ops = append(ops, op{kind: kVacuum, due: nextVac})
			nextVac += vacuumEvery
		}
		if o.due >= end {
			g.held = &o
			return ops
		}
		ops = append(ops, o)
	}
}

// forget drops the loads among ops, dealt but never run, from the
// pending loads, so no later delete waits for them.
func (g *opGen) forget(ops []op) {
	skip := map[int]bool{}
	for _, o := range ops {
		if o.kind == kLoad {
			skip[o.arg] = true
		}
	}
	kept := g.pending[:0]
	for _, s := range g.pending {
		if !skip[s] {
			kept = append(kept, s)
		}
	}
	g.pending = kept
}

// take deals n operations, ignoring their due times.
func (g *opGen) take(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// readMix is the read part of a workload's mix: the saturation phase
// sends only reads.
func readMix(m []mixEntry) []mixEntry {
	var out []mixEntry
	for _, e := range m {
		if e.Kind.isRead() {
			out = append(out, e)
		}
	}
	return out
}

// probeMix is the serial write probe that ends the read-only workloads.
var probeMix = mix(mixEntry{Kind: kUpdate, Weight: 1}, mixEntry{Kind: kLoad, Weight: 1}, mixEntry{Kind: kDelete, Weight: 1})
