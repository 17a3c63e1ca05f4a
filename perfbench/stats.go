package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of v by linear
// interpolation between closest ranks.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 50) }

func minOf(v []float64) float64 { return percentile(v, 0) }

func maxOf(v []float64) float64 { return percentile(v, 100) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(v, n=4) does (its default, exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := i * (n + 1)
		j := m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tailLadder lists the percentiles a tail may be reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPct is the highest ladder percentile with at least ten samples
// beyond it when n samples are taken.
func tailPct(n float64) float64 {
	for _, p := range tailLadder {
		if n*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// rtStats is a sample of the Go runtime's own counters.
type rtStats struct {
	allocs, allocBytes, gcCycles uint64
	pauses                       *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtStats{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		pauses:     s[3].Value.Float64Histogram(),
	}
}

// pauseTailMs is the 99th percentile GC pause between two samples, in
// milliseconds, read from the runtime's pause histogram (bucket upper
// bound).
func pauseTailMs(a, b rtStats) float64 {
	var total uint64
	counts := make([]uint64, len(b.pauses.Counts))
	for i := range counts {
		counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= target {
			hi := b.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.pauses.Buckets[i]
			}
			return hi * 1000
		}
	}
	return 0
}

// liveHeapMB collects garbage and returns the live heap in MB. It
// collects twice: objects parked in a sync.Pool survive the first
// collection in the pool's victim cache, and churn's live heap read 10,
// 16 or 22 MB from run to run with one.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
