package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"faultstudy/internal/experiment"
	"faultstudy/internal/supervise"
)

func TestTailQuantilePicksHighestWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, maxPermille int
		wantQ          float64
		wantOK         bool
	}{
		{n: 10000, maxPermille: 999, wantQ: 0.999, wantOK: true},
		{n: 10000, maxPermille: 990, wantQ: 0.99, wantOK: true},
		{n: 9999, maxPermille: 999, wantQ: 0.99, wantOK: true},
		{n: 1000, maxPermille: 990, wantQ: 0.99, wantOK: true},
		{n: 999, maxPermille: 990, wantQ: 0.95, wantOK: true},
		{n: 200, maxPermille: 990, wantQ: 0.95, wantOK: true},
		{n: 100, maxPermille: 990, wantQ: 0.9, wantOK: true},
		{n: 40, maxPermille: 990, wantQ: 0.75, wantOK: true},
		{n: 20, maxPermille: 990, wantQ: 0.5, wantOK: true},
		{n: 19, maxPermille: 990, wantQ: 0.5, wantOK: false},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		q, v, ok := tailQuantile(xs, tc.maxPermille)
		if q != tc.wantQ || ok != tc.wantOK {
			t.Errorf("n=%d max=%d: got q=%v ok=%v, want q=%v ok=%v", tc.n, tc.maxPermille, q, ok, tc.wantQ, tc.wantOK)
		}
		if want := quantile(xs, q); v != want {
			t.Errorf("n=%d: value %v, want the q-quantile %v", tc.n, v, want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Errorf("quantile sorted its input in place")
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimesOverlappingAndNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(1), End: ms(4)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(3), End: ms(6)}, // overlaps a
		{ID: 4, Parent: 2, Name: "a.inner", Start: ms(2), End: ms(3)},
		{ID: 5, Parent: 1, Name: "late", Start: ms(9), End: ms(12)}, // sticks out of root
		{ID: 6, Name: "other", Start: ms(0), End: ms(5)},
	}
	want := []time.Duration{
		ms(10) - ms(5) - ms(1), // children cover [1,6] and [9,10]
		ms(3) - ms(1),          // a minus its inner span
		ms(3),
		ms(1),
		ms(3),
		ms(5),
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNestsAndClosesInnerSpans(t *testing.T) {
	tr := newTracer()
	tr.beginRun()
	root := tr.begin("root")
	tr.begin("child")
	tr.begin("supervise.rung.retry")
	tr.endInnermostPrefix("supervise.rung.")
	tr.begin("left-open")
	tr.end(root)
	if len(tr.open) != 0 {
		t.Fatalf("open spans after closing the root: %v", tr.open)
	}
	want := []struct {
		name   string
		parent int
	}{{"root", 0}, {"child", 1}, {"supervise.rung.retry", 2}, {"left-open", 2}}
	for i, s := range tr.spans {
		if s.Name != want[i].name || s.Parent != want[i].parent || s.Run != 1 || s.End < s.Start {
			t.Errorf("span %d = %+v, want name %s parent %d run 1", i, s, want[i].name, want[i].parent)
		}
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x"); id != 0 {
		t.Errorf("nil tracer begin = %d, want 0", id)
	}
	nilTracer.end(0)
}

func TestParEfficiencyFromRunPair(t *testing.T) {
	const units, nproc = 1000, 2
	serial, par := 2*time.Second, 1250*time.Millisecond
	got := parEfficiency(serial, par, nproc)
	if math.Abs(got-0.8) > 1e-12 {
		t.Errorf("parEfficiency = %v, want 0.8", got)
	}
	tput, tputSerial := units/par.Seconds(), units/serial.Seconds()
	if want := tput / (tputSerial * nproc); math.Abs(got-want) > 1e-12 {
		t.Errorf("parEfficiency = %v, want throughput/(throughput_serial*nproc) = %v", got, want)
	}
	m := pairMetrics([]pairSample{{
		serial: runSample{wall: serial, units: units},
		par:    runSample{wall: par, units: units},
	}}, nproc)
	if m["par_efficiency"].Value != got {
		t.Errorf("pairMetrics par_efficiency = %v, want %v", m["par_efficiency"].Value, got)
	}
}

// plantedWorkload is a workload whose output or gate can be made to fail.
type plantedWorkload struct {
	mismatch bool  // output depends on the worker count
	gate     error // every run's gate verdict
}

func (p *plantedWorkload) config() any     { return nil }
func (p *plantedWorkload) plan() layerPlan { return defaultPlan(1) }
func (p *plantedWorkload) run(workers int, tr *tracer) (result, error) {
	out := []byte("report")
	if p.mismatch && workers > 1 {
		out = []byte("report, reordered")
	}
	return result{units: 10, parts: [][]byte{out}, gate: p.gate}, nil
}

func measurePair(w workload) (ops, bool) {
	var o ops
	ok := checkPair(pairSample{serial: measureRun(w, 1), par: measureRun(w, 2)}, &o)
	return o, ok
}

func TestPlantedFailuresCountAsFailedOperations(t *testing.T) {
	o, ok := measurePair(&plantedWorkload{})
	if !ok || o.attempted != 2 || len(o.failures) != 0 {
		t.Fatalf("clean pair: ok=%v attempted=%d failures=%v", ok, o.attempted, o.failures)
	}
	o, ok = measurePair(&plantedWorkload{mismatch: true})
	if ok || o.attempted != 2 || len(o.failures) != 1 {
		t.Errorf("digest mismatch: ok=%v attempted=%d failures=%v, want one failure", ok, o.attempted, o.failures)
	}
	o, ok = measurePair(&plantedWorkload{gate: errors.New("gate tripped")})
	if ok || o.attempted != 2 || len(o.failures) != 2 {
		t.Errorf("gate failure: ok=%v attempted=%d failures=%v, want both runs failed", ok, o.attempted, o.failures)
	}
	res := o.result(io.Discard, nil, "")
	if res.Correct || res.Failed != 2 || res.Attempted != 2 {
		t.Errorf("result = %+v, want incorrect with 2 of 2 failed", res)
	}
}

// tinyWorkloads are each workload at a size a test can afford.
func tinyWorkloads(t *testing.T) map[string]workload {
	t.Helper()
	serve, err := newServe(experiment.ServeConfig{Seed: 7, Users: 300, Requests: 600, Arrival: "poisson:1ms"})
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := newCorpus(experiment.CorpusConfig{Seed: 7, Spec: "faults=50;episodes=5",
		SiteFaults: 200, CrawlPages: 20, Supervise: supervise.Config{GrowResources: true}})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]workload{"serve": serve, "corpus": corpus, "durable": newDurable(7, 2)}
}

func TestSmokeEachWorkloadAtTinySize(t *testing.T) {
	for name, w := range tinyWorkloads(t) {
		o, ok := measurePair(w)
		if !ok {
			t.Errorf("%s: failed operations: %v", name, o.failures)
		}
		s := measureRun(w, 1)
		if s.units <= 0 || s.wall <= 0 || s.allocBytes == 0 || s.peakLive == 0 || len(s.digest) != 64 {
			t.Errorf("%s: implausible sample %+v", name, s)
		}
	}
}

func TestLayerPassReportsEveryCatalogedMetric(t *testing.T) {
	w := tinyWorkloads(t)["durable"]
	if _, err := w.run(1, nil); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	lp, err := runLayerPass(w.plan(), tr)
	if err != nil {
		t.Fatal(err)
	}
	aggs := aggregate(tr.spans[lp.firstSpan:])
	m := layerMetrics(lp, aggs, gcDelta{cycles: 1, cpuFrac: 0.1, pauses: []float64{1e-4}})
	for _, c := range layerCatalog {
		if c.name == "trace.accounted_frac" || c.name == "trace.overhead_frac" {
			continue
		}
		v, ok := m[c.name]
		if !ok || v.Unit != c.unit {
			t.Errorf("%s: got %+v, want a value in %s", c.name, v, c.unit)
		}
		if c.unit == "us" || c.unit == "ms" {
			if v.Value <= 0 {
				t.Errorf("%s: time %v, want positive", c.name, v.Value)
			}
		}
	}
	for _, name := range []string{"supervise.run.calls", "apps.httpd.serve_arrival.calls",
		"apps.sqldb.serve_arrival.calls", "durable.open.repairs", "scrape.crawl.pages"} {
		if m[name].Value <= 0 {
			t.Errorf("%s = %v, want positive", name, m[name].Value)
		}
	}
	if f := accountedFrac(lp, aggs, 1); f <= 0 {
		t.Errorf("accounted_frac = %v, want positive", f)
	}
}

// benchmarkJSON is the part of BENCHMARK.json this program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloadNames))
	}
	for i, wl := range b.Workloads {
		if wl.Name != workloadNames[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the program", i, wl.Name, workloadNames[i])
		}
	}
	units := pairMetrics(nil, 1)
	units["setup_s"] = metric{Unit: "s"}
	if len(b.EndToEnd) != len(endToEndOrder) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEndOrder))
	}
	for i, e := range b.EndToEnd {
		if i < len(endToEndOrder) && (e.Name != endToEndOrder[i] || e.Unit != units[e.Name].Unit) {
			t.Errorf("end-to-end %d: %s/%s in BENCHMARK.json, %s/%s in the program",
				i, e.Name, e.Unit, endToEndOrder[i], units[endToEndOrder[i]].Unit)
		}
	}
	if len(b.PerLayer) != len(layerCatalog) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(layerCatalog))
	}
	for i, p := range b.PerLayer {
		if i < len(layerCatalog) && (p.Name != layerCatalog[i].name || p.Unit != layerCatalog[i].unit) {
			t.Errorf("per-layer %d: %s/%s in BENCHMARK.json, %s/%s in the program",
				i, p.Name, p.Unit, layerCatalog[i].name, layerCatalog[i].unit)
		}
	}
}
