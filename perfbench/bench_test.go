package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/poly"
	"repro/internal/workloads"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{5000, 99, 50},
		{1000, 99, 10},
		{999, 95, 49},
		{200, 95, 10},
		{199, 90, 19},
		{100, 90, 10},
		{99, 75, 24},
		{20, 50, 10},
		{5, 50, 2},
	} {
		p, beyond := tailPercentile(c.n)
		if p != c.p || beyond != c.beyond {
			t.Errorf("tailPercentile(%d) = p%g with %d beyond, want p%g with %d", c.n, p, beyond, c.p, c.beyond)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := percentile(xs, 50); math.Abs(got-5.5) > 1e-6 {
		t.Errorf("median of 1..10 = %g, want 5.5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile([]float64{3, 3, 3, 3}, 90); math.Abs(got-3) > 1e-9 {
		t.Errorf("p90 of a constant sample = %g", got)
	}
	// Percentiles rise with p and stay inside the sample's range.
	prev := 0.0
	for _, p := range []float64{10, 25, 50, 75, 90, 95} {
		got := percentile(xs, p)
		if got < prev || got < 1 || got > 10 {
			t.Errorf("p%g = %g after %g", p, got, prev)
		}
		prev = got
	}
	// Swapping the two middle samples' values by a little moves the median
	// by a little: no rank jump.
	lumpy := []float64{1, 1, 1, 1, 100, 101, 200, 200, 200, 200}
	if d := percentile(lumpy, 50) - percentile(append([]float64{1, 1, 1, 1, 100, 102}, 200, 200, 200, 200), 50); math.Abs(d) > 1 {
		t.Errorf("median moved by %g for a 1-unit change", d)
	}
	if got := geomean([]float64{0.5, 2}); got != 1 {
		t.Errorf("geomean(0.5, 2) = %g, want 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ns := func(n int) time.Duration { return time.Duration(n) }
	spans := []span{
		{ID: 0, Parent: -1, Name: "repro.evaluate", Start: ns(0), End: ns(10)},
		{ID: 1, Parent: 0, Name: "tags.compute", Start: ns(1), End: ns(3)},
		{ID: 2, Parent: 0, Name: "deps.analyze", Start: ns(2), End: ns(5)},
		{ID: 3, Parent: 0, Name: "core.distribute", Start: ns(8), End: ns(12)},
		{ID: 4, Parent: 2, Name: "poly.points", Start: ns(3), End: ns(4)},
		{ID: 5, Parent: -1, Name: "lang.compile", Start: ns(20), End: ns(27)},
	}
	want := []time.Duration{4, 2, 2, 4, 1, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	self := moduleSelf(spans, map[int]bool{0: true})
	if self["repro"] != 4 || self["deps"] != 2 || self["poly"] != 1 {
		t.Errorf("module self times = %v", self)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark's code must
// agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(kind string, defs []metricDef, listed map[string]string) {
		if len(defs) != len(listed) {
			t.Errorf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(defs), len(listed))
		}
		for _, d := range defs {
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
				t.Errorf("%s: bad name or unit %q %q", kind, d.Name, d.Unit)
			}
			if seen[d.Name] {
				t.Errorf("%s: metric %s defined twice", kind, d.Name)
			}
			seen[d.Name] = true
			if u, ok := listed[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s: %s [%s] is listed as [%s] in BENCHMARK.json", kind, d.Name, d.Unit, u)
			}
		}
	}
	e2e := make(map[string]string)
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
	}
	layer := make(map[string]string)
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("end_to_end", endToEndMetrics, e2e)
	check("per_layer", perLayerMetrics, layer)

	if len(b.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code runs %d", len(b.Workloads), len(benchWorkloads))
	}
	for i, w := range b.Workloads {
		if w.Name != benchWorkloads[i].name || !name.MatchString(w.Name) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, benchWorkloads[i].name)
		}
	}
}

func TestLedgerNamesKnownMetrics(t *testing.T) {
	data, err := os.ReadFile("ledger.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger struct {
		Predictions []struct {
			Layer []string `json:"layer"`
			Moves []struct {
				Metric   string `json:"metric"`
				Workload string `json:"workload"`
			} `json:"moves"`
		} `json:"predictions"`
		Unmeasured map[string]string `json:"unmeasured"`
	}
	if err := json.Unmarshal(data, &ledger); err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		known[d.Name] = true
	}
	workloadNames := make(map[string]bool)
	for _, w := range benchWorkloads {
		workloadNames[w.name] = true
	}
	if len(ledger.Predictions) == 0 || len(ledger.Unmeasured) == 0 {
		t.Fatal("ledger.json has no predictions or no unmeasured modules")
	}
	for _, p := range ledger.Predictions {
		for _, l := range p.Layer {
			if !known[l] {
				t.Errorf("prediction names unknown layer metric %s", l)
			}
		}
		for _, m := range p.Moves {
			if !known[m.Metric] || !workloadNames[m.Workload] {
				t.Errorf("prediction for %v names unknown %s on %s", p.Layer, m.Metric, m.Workload)
			}
		}
	}
}

func TestRequestStreamIsAPureFunctionOfTheSeed(t *testing.T) {
	warm := warmBodies()
	a, b, other := newStream(7, 0, warm), newStream(7, 0, warm), newStream(8, 0, warm)
	same := true
	sizes := make(map[uint64]int)
	for i := 0; i < 500; i++ {
		ra, rb, ro := a.next(), b.next(), other.next()
		if !bytes.Equal(ra.body, rb.body) || ra.warm != rb.warm {
			t.Fatalf("request %d differs between two streams of seed 7", i)
		}
		same = same && bytes.Equal(ra.body, ro.body)
		if ra.warm < 0 {
			sizes[ra.accesses]++
		}
		if i%adhocEvery == adhocEvery-1 && a.adhoc != (i+1)/adhocEvery {
			t.Fatalf("after %d requests %d were ad-hoc, want one in %d", i+1, a.adhoc, adhocEvery)
		}
	}
	if same {
		t.Error("seeds 7 and 8 gave the same stream")
	}
	// 50 ad-hoc requests visit each of the five sizes ten times.
	if len(sizes) != len(adhocSizes) {
		t.Errorf("ad-hoc sizes drawn: %v", sizes)
	}
	for acc, n := range sizes {
		if n != 10 {
			t.Errorf("size with %d accesses drawn %d times, want 10", acc, n)
		}
	}
}

func TestIterCountMatchesEnumeration(t *testing.T) {
	kernels := workloads.All()
	tri := *workloads.Galgel()
	tri.Nest = poly.NewNest(poly.RectLoop("i", 0, 40),
		poly.Loop{Name: "j", Lower: poly.Var(0, 2), Upper: poly.Constant(40), Step: 3})
	kernels = append(kernels, &tri)
	for _, k := range kernels {
		if got, want := iterCount(k.Nest), uint64(len(k.Nest.Points())); got != want {
			t.Errorf("%s: iterCount %d, enumeration %d", k.Name, got, want)
		}
	}
}

func TestGridOrderIsFixed(t *testing.T) {
	a, err := mapGridSpec()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mapGridSpec()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.cells {
		if a.cells[i].Key() != b.cells[i].Key() || a.expected[i] != b.expected[i] {
			t.Fatalf("cell %d: %s vs %s", i, a.cells[i].Key(), b.cells[i].Key())
		}
	}
	if a.minPasses*len(a.cells) < tailOps {
		t.Errorf("%d passes of %d cells are under the %d-op floor", a.minPasses, len(a.cells), tailOps)
	}
}

func TestStressAndWarmChecksFail(t *testing.T) {
	ns := func(n int) time.Duration { return time.Duration(n) }
	// One op of 10 ns: tags 3 ns and cachesim 2 ns of self time, the rest
	// in the root span.
	spans := []span{
		{ID: 0, Parent: -1, Op: 0, Name: "repro.evaluate", Start: ns(0), End: ns(10)},
		{ID: 1, Parent: 0, Op: 0, Name: "tags.compute", Start: ns(0), End: ns(3)},
		{ID: 2, Parent: 0, Op: 0, Name: "cachesim.simulate", Start: ns(5), End: ns(7)},
	}
	shares := moduleShares(spans, opSet(1))
	if got := stressCheck("map_grid", shares, []string{"tags", "deps", "core"}); got != 1 {
		t.Errorf("a 0.3 share passed the stress check (shares %v)", shares)
	}
	if got := stressCheck("sim_steady", shares, []string{"tags", "cachesim"}); got != 1 {
		t.Errorf("a 0.5 share passed the stress check (shares %v)", shares)
	}
	spans[1].End = ns(4)
	if got := stressCheck("map_grid", moduleShares(spans, opSet(1)), []string{"tags", "cachesim"}); got != 0 {
		t.Error("a 0.6 share failed the stress check")
	}
	if warmCheck(20, 20) != 0 || warmCheck(21, 20) != 1 || warmCheck(19, 20) != 1 {
		t.Error("warm check does not fail exactly when computed differs from the cold count")
	}
}

func TestSpeedFactor(t *testing.T) {
	t0 := time.Now().Add(-time.Minute)
	p := &speedProbe{}
	for i := 0; i < 40; i++ {
		cpu := refBurst
		if i >= 20 {
			cpu = 2 * refBurst // the host ran at half speed from the 20th burst on
		}
		p.samples = append(p.samples, speedSample{at: t0.Add(time.Duration(i) * probeEvery), cpu: cpu})
	}
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * probeEvery) }
	for _, c := range []struct {
		from, to int
		want     float64
	}{
		{0, 19, 1},
		{20, 39, 0.5},
		{10, 29, 2.0 / 3},
		// A window shorter than minWindow is widened around its middle.
		{9, 10, 1},
		{19, 20, 2.0 / 3},
	} {
		got, err := p.factor(at(c.from), at(c.to))
		if err != nil || math.Abs(got-c.want) > 1e-9 {
			t.Errorf("factor over bursts %d-%d = %g (%v), want %g", c.from, c.to, got, err, c.want)
		}
	}
	if _, err := p.factor(at(-100), at(-90)); err == nil {
		t.Error("a window without bursts gave a factor")
	}
}
