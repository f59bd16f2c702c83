package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"faultstudy/internal/corpusgen"
	"faultstudy/internal/stats"
	"faultstudy/internal/supervise"
	"faultstudy/internal/taxonomy"
)

// corpusTestConfig is a small, fast CORPUS population: every phase runs —
// classification, ladder, episodes, baseline, goodness of fit, site crawl —
// at a fraction of the default scale.
func corpusTestConfig(tel *Telemetry, workers int) CorpusConfig {
	return CorpusConfig{
		Seed:       42,
		Spec:       "faults=120;episodes=30",
		Supervise:  supervise.Config{GrowResources: true},
		SiteFaults: 400,
		CrawlPages: 40,
		Telemetry:  tel,
		Workers:    workers,
	}
}

// corpusDump renders everything a CORPUS run produces: the report and the
// telemetry trace, timeline, and metric dumps.
func corpusDump(t *testing.T, workers int) string {
	t.Helper()
	tel := NewTelemetry()
	rep, err := RunCorpus(corpusTestConfig(tel, workers))
	if err != nil {
		t.Fatalf("RunCorpus(workers=%d): %v", workers, err)
	}
	var b bytes.Buffer
	b.WriteString(rep.String())
	if err := tel.WriteTrace(&b); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if err := tel.WriteTimeline(&b); err != nil {
		t.Fatalf("WriteTimeline: %v", err)
	}
	if err := tel.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

// TestCorpusWorkerInvariance is the determinism contract: the CORPUS report,
// trace, timeline, and metrics dump are byte-identical at 1, 2, and 8
// workers.
func TestCorpusWorkerInvariance(t *testing.T) {
	serial := corpusDump(t, 1)
	for _, workers := range []int{2, 8} {
		if got := corpusDump(t, workers); got != serial {
			t.Fatalf("CORPUS output at %d workers differs from serial run", workers)
		}
	}
}

// TestCorpusGate runs the experiment once and asserts the CI gate plus the
// mechanics behind it: population sizes honour the spec, every class was
// sampled and graded, both episode modes ran, the samplers fit, and the site
// crawl sample is gap-free.
func TestCorpusGate(t *testing.T) {
	tel := NewTelemetry()
	rep, err := RunCorpus(corpusTestConfig(tel, 0))
	if err != nil {
		t.Fatalf("RunCorpus: %v", err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if rep.Faults != 120 || rep.Episodes != 30 {
		t.Fatalf("population %d/%d, want 120/30", rep.Faults, rep.Episodes)
	}
	total := 0
	for _, st := range rep.Classes {
		if st.Agreement.N != st.NotLost.N {
			t.Fatalf("%s graded %d classifications but %d ladder runs", st.Class.Short(), st.Agreement.N, st.NotLost.N)
		}
		if st.NotLost.N == 0 {
			t.Fatalf("class %s never sampled at n=120", st.Class.Short())
		}
		if st.Curated.N == 0 {
			t.Fatalf("class %s has no curated baseline runs", st.Class.Short())
		}
		if st.Covered.N == 0 {
			t.Fatalf("class %s has no curated-covered generated runs", st.Class.Short())
		}
		total += st.NotLost.N
	}
	if total != rep.Faults {
		t.Fatalf("class rows cover %d faults of %d", total, rep.Faults)
	}
	eps := 0
	for _, es := range rep.EpisodeStats {
		if es.NotLost.N == 0 {
			t.Fatalf("no %s episodes at n=30", es.Overlap)
		}
		eps += es.NotLost.N
	}
	if eps != rep.Episodes {
		t.Fatalf("episode rows cover %d episodes of %d", eps, rep.Episodes)
	}
	if len(rep.GOF) != 6 {
		t.Fatalf("%d GOF dimensions, want 6", len(rep.GOF))
	}
	if rep.SiteCrawled != 40 || rep.SiteGaps != 0 {
		t.Fatalf("crawl sample %d ok %d gaps, want 40/0", rep.SiteCrawled, rep.SiteGaps)
	}
	if !strings.Contains(rep.String(), "CORPUS experiment") {
		t.Fatal("report misses headline")
	}
	// The corpus metric family landed on the merged registry.
	var prom bytes.Buffer
	if err := tel.WritePrometheus(&prom); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, metric := range []string{
		MetricCorpusFaults, MetricCorpusClassified, MetricCorpusEpisodes,
		MetricCorpusGOFChi, MetricCorpusDrift, MetricCorpusSitePages, MetricCorpusCrawled,
	} {
		if !strings.Contains(prom.String(), metric) {
			t.Errorf("metrics dump misses %s", metric)
		}
	}
}

// TestCorpusNilTelemetry proves the telemetry hook is optional.
func TestCorpusNilTelemetry(t *testing.T) {
	rep, err := RunCorpus(corpusTestConfig(nil, 1))
	if err != nil {
		t.Fatalf("RunCorpus: %v", err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

// TestCorpusBadSpec propagates parse errors instead of running.
func TestCorpusBadSpec(t *testing.T) {
	if _, err := RunCorpus(CorpusConfig{Spec: "class=100%unknown"}); err == nil {
		t.Fatal("bad spec accepted")
	}
}

// TestCorpusCheckGates exercises every Check failure branch on a synthetic
// report.
func TestCorpusCheckGates(t *testing.T) {
	good := func() *CorpusReport {
		return &CorpusReport{
			Faults: 100, Episodes: 10,
			MinSitePages: 100,
			Classes: []CorpusClassStat{{
				Class:        taxonomy.ClassEnvIndependent,
				Agreement:    stats.Proportion{Hits: 100, N: 100},
				NotLost:      stats.Proportion{Hits: 30, N: 100},
				Covered:      stats.Proportion{Hits: 22, N: 80},
				Curated:      stats.Proportion{Hits: 7, N: 100},
				BaselineRate: 22.0 / 80,
			}},
			EpisodeStats: []CorpusEpisodeStat{
				{Overlap: "concurrent", NotLost: stats.Proportion{Hits: 2, N: 6}},
				{Overlap: "cascade", NotLost: stats.Proportion{Hits: 1, N: 4}},
			},
			GOF:       []corpusgen.GOFResult{{Dimension: "class", N: 100, DOF: 1, ChiSquare: 1, Critical: 10.828}},
			SitePages: 120,
		}
	}
	if err := good().Check(); err != nil {
		t.Fatalf("good report fails: %v", err)
	}
	cases := []struct {
		name  string
		mut   func(*CorpusReport)
		wants string
	}{
		{"gof", func(r *CorpusReport) { r.GOF[0].ChiSquare = math.Inf(1) }, "goodness of fit"},
		{"agreement", func(r *CorpusReport) { r.Classes[0].Agreement.Hits = 90 }, "agreement"},
		{"drift", func(r *CorpusReport) { r.Classes[0].BaselineRate = 0.9 }, "drifts"},
		{"episode-mode", func(r *CorpusReport) { r.EpisodeStats[1].NotLost.N = 0 }, "cascade"},
		{"site-floor", func(r *CorpusReport) { r.SitePages = 99 }, "floor"},
		{"crawl-gap", func(r *CorpusReport) { r.SiteGaps = 3 }, "gap"},
	}
	for _, tc := range cases {
		r := good()
		tc.mut(r)
		err := r.Check()
		if err == nil {
			t.Errorf("%s: mutated report passes", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wants) {
			t.Errorf("%s: error %q misses %q", tc.name, err, tc.wants)
		}
	}
}

// TestCorpusEpisodeSpansApps guards the duet invariant: mechanisms from two
// applications cannot form an episode.
func TestCorpusEpisodeSpansApps(t *testing.T) {
	if _, _, _, _, err := buildCorpusRun("httpd/heap-leak", "sqldb/heap-leak", "concurrent", 0, 1); err == nil {
		t.Fatal("cross-application duet accepted")
	}
}
