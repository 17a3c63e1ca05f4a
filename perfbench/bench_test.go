package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// The deterministic-count pass must repeat exactly: same seed, one
// client, no timers.
func TestCountPassRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full corpus twice")
	}
	a, err := countPass(t.TempDir(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := countPass(t.TempDir(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("counts differ between passes:\n%v\n%v", a, b)
	}
	for _, k := range []string{"path.join_rows_per_req", "pk.index_hits_per_req", "doc.rows_scanned_per_doc",
		"docload.wal_frames_per_op", "docload.rows_per_doc", "update.wal_frames_per_op", "docdelete.wal_frames_per_op"} {
		if a[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, a[k])
		}
	}
}

// BENCHMARK.json must describe the workloads and metrics this harness
// runs and reports.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness %q: %q", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	strip := func(ds []metricDef) []metricDef {
		out := make([]metricDef, len(ds))
		for i, d := range ds {
			out[i] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
		}
		return out
	}
	if !reflect.DeepEqual(b.EndToEnd, strip(endToEnd)) {
		t.Errorf("end_to_end differs:\n%v\n%v", b.EndToEnd, strip(endToEnd))
	}
	if !reflect.DeepEqual(b.PerLayer, strip(perLayer)) {
		t.Errorf("per_layer differs:\n%v\n%v", b.PerLayer, strip(perLayer))
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
	} {
		q1, q3 := quartiles(c.v)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}
