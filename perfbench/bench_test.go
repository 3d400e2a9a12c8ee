package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"github.com/neuro-c/neuroc/internal/dataset"
	"github.com/neuro-c/neuroc/internal/tensor"
)

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Name: "timed", ID: 0, Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "farm.Map", ID: 1, Parent: 0, StartNS: 10, EndNS: 40},
		{Name: "quant.Infer", ID: 2, Parent: 0, StartNS: 30, EndNS: 60}, // overlaps span 1
		{Name: "device.New", ID: 3, Parent: 1, StartNS: 15, EndNS: 20},  // nested in span 1
		{Name: "quant.Load", ID: 4, Parent: 0, StartNS: 90, EndNS: 120}, // runs past its parent
		{Name: "nn.Train", ID: 5, Parent: 0, StartNS: 35, EndNS: 38},    // inside the overlap
	}
	got := selfTimes(spans)
	// Children of the root cover [10,60] and [90,100]: 60 ns.
	want := []int64{40, 25, 30, 5, 30, 3}
	if !slices.Equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestBreakdownAccountsForWall(t *testing.T) {
	spans := []span{
		{Name: "setup", ID: 0, Parent: -1, StartNS: 0, EndNS: 50},
		{Name: "nn.Train", ID: 1, Parent: 0, StartNS: 5, EndNS: 45},
		{Name: "timed", ID: 2, Parent: -1, StartNS: 50, EndNS: 150},
		{Name: "farm.Map", ID: 3, Parent: 2, StartNS: 55, EndNS: 100},
		{Name: "modelimg.Build", ID: 4, Parent: 2, StartNS: 100, EndNS: 140},
		{Name: "asmcheck.Certify", ID: 5, Parent: 4, StartNS: 110, EndNS: 130},
	}
	phases := breakdown(spans)
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(phases))
	}
	for _, p := range phases {
		sum := p.Uncovered
		for _, ns := range p.LayerNS {
			sum += ns
		}
		if sum != p.WallNS {
			t.Errorf("%s: self times sum to %d, wall %d", p.Phase, sum, p.WallNS)
		}
	}
	timed := phases[1]
	if timed.LayerNS["toolchain"] != 40 || timed.LayerNS["farm"] != 45 || timed.Uncovered != 15 {
		t.Errorf("timed breakdown = %v uncovered %d", timed.LayerNS, timed.Uncovered)
	}
	merged := mergePhases(append(phases, phases[0]))
	if len(merged) != 2 || merged[0].WallNS != 100 || merged[0].LayerNS["training"] != 80 {
		t.Errorf("mergePhases = %+v", merged)
	}
}

func TestTracerRecordsParents(t *testing.T) {
	r := &run{tr: newTracer()}
	r.call("timed", -1, func() {
		r.call("farm.Map", 7, func() {})
		r.call("quant.Infer", 8, func() {})
	})
	s := r.tr.spans
	if len(s) != 3 || s[1].Parent != 0 || s[2].Parent != 0 || s[0].Parent != -1 || s[1].Op != 7 {
		t.Fatalf("spans = %+v", s)
	}
	for _, sp := range s {
		if sp.EndNS < sp.StartNS {
			t.Errorf("span %s ends before it starts", sp.Name)
		}
	}
	var untraced run
	untraced.call("timed", -1, func() {}) // a nil tracer records nothing
}

func TestPercentileSelection(t *testing.T) {
	samples := []int64{5000, 1000, 4000, 2000, 3000}
	if got := percentileUS(samples, 0.5); got != 3 {
		t.Errorf("p50 = %v µs, want 3", got)
	}
	if got := percentileUS(samples, 0.99); got != 5 {
		t.Errorf("p99 = %v µs, want 5", got)
	}
	if got := percentileUS(nil, 0.5); got != 0 {
		t.Errorf("p50 of no samples = %v", got)
	}
	// Two boards at different speeds: the pooled median would sit on
	// whichever board took more items; the per-board average does not.
	fast, slow := []int64{1000, 1000, 1000, 1000, 1000}, []int64{3000, 3000, 3000}
	if got := boardPercentileUS([][]int64{fast, slow}, 0.5); got != 2 {
		t.Errorf("board p50 = %v µs, want 2", got)
	}
	if got := boardPercentileUS([][]int64{nil, slow}, 0.5); got != 3 {
		t.Errorf("board p50 with an idle board = %v µs, want 3", got)
	}
	if boardPercentileUS(nil, 0.5) != 0 {
		t.Error("percentile of no boards is not 0")
	}
	// Per pass, then the median over passes: one disturbed pass does not
	// move the result.
	lat := newPassLatency(2)
	for _, scale := range []int64{1, 50, 1} {
		for i, d := range fast {
			lat.add(0, d*scale)
			if i < len(slow) {
				lat.add(1, slow[i]*scale)
			}
		}
		lat.endPass()
	}
	if median(lat.p50) != 2 || median(lat.p90) != 2 || median(lat.p99) != 2 || lat.fewest != 3 {
		t.Errorf("pass latency: p50 %v p90 %v p99 %v fewest %d", lat.p50, lat.p90, lat.p99, lat.fewest)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if median(nil) != 0 || median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median wrong")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if !slices.Equal(xs, []float64{3, 1, 2}) {
		t.Error("median reordered its input")
	}
}

func TestFailedRatio(t *testing.T) {
	for _, c := range []struct {
		failed, attempted int
		want              float64
	}{{0, 0, 1}, {0, 10, 0}, {3, 12, 0.25}} {
		if got := failedRatio(c.failed, c.attempted); got != c.want {
			t.Errorf("failedRatio(%d, %d) = %v, want %v", c.failed, c.attempted, got, c.want)
		}
	}
	if ratePer(5, 0) != 0 || ratePer(6, 2) != 3 {
		t.Error("ratePer wrong")
	}
}

func TestRepetitionChecks(t *testing.T) {
	r := &run{exact: map[string]float64{}}
	r.same("cycles", 100)
	r.same("cycles", 100)
	if r.attempted != 1 || r.failed != 0 {
		t.Fatalf("equal repetition: attempted %d failed %d", r.attempted, r.failed)
	}
	r.same("cycles", 101)
	if r.attempted != 2 || r.failed != 1 || len(r.failures) != 1 {
		t.Fatalf("differing repetition: attempted %d failed %d", r.attempted, r.failed)
	}
}

func TestSeededTestRows(t *testing.T) {
	ds := &dataset.Dataset{TestX: tensor.NewMat(50, 2), TestY: make([]int, 50)}
	for i := range ds.TestY {
		ds.TestY[i] = i
		ds.TestX.Row(i)[0] = float32(i)
	}
	a, b, c := seededTest(ds, 1, 10), seededTest(ds, 1, 10), seededTest(ds, 2, 10)
	if !slices.Equal(a.TestY, b.TestY) {
		t.Error("same seed chose different rows")
	}
	if slices.Equal(a.TestY, c.TestY) {
		t.Error("different seeds chose the same rows")
	}
	for i, y := range a.TestY {
		if a.TestX.Row(i)[0] != float32(y) {
			t.Errorf("row %d: features do not follow label %d", i, y)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program has %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), program has %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
