package experiment

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"faultstudy/internal/recoveryscope"
	"faultstudy/internal/taxonomy"
)

// runScope42 runs SCOPE at seed 42 with telemetry attached.
func runScope42(workers int) (seedRun[*ScopeReport], error) {
	tel := NewTelemetry()
	rep, err := RunScope(ScopeConfig{Seed: 42, Telemetry: tel, Workers: workers})
	if err != nil {
		return seedRun[*ScopeReport]{}, fmt.Errorf("RunScope(workers=%d): %w", workers, err)
	}
	return newSeedRun(rep, tel, rep.String())
}

// scopeSerial is the serial SCOPE run every test below reads.
var scopeSerial = memoSerial(runScope42)

// TestScopeWorkerInvariance is the determinism contract: every report,
// trace, timeline, and metrics dump of the SCOPE experiment is
// byte-identical at 1, 2, and 8 workers.
func TestScopeWorkerInvariance(t *testing.T) {
	assertWorkerInvariant(t, scopeSerial(t), runScope42)
}

// TestScopeGate asserts the CI gate plus the mechanics behind it on the
// serial run: one scorecard per registered mechanism, one probe arm per
// (mechanism, rung) cell, the documented metric family, and planned-rung
// stamping on the recorded episodes.
func TestScopeGate(t *testing.T) {
	run := scopeSerial(t)
	rep, tel := run.rep, run.tel
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	keys := Registry().Keys()
	if len(rep.Mechs) != len(keys) {
		t.Fatalf("scorecards = %d, want one per mechanism (%d)", len(rep.Mechs), len(keys))
	}
	if len(rep.Arms) != len(keys)*len(recoveryscope.Rungs()) {
		t.Fatalf("arms = %d, want mechanisms x rungs", len(rep.Arms))
	}
	if rep.Sites == 0 {
		t.Fatal("no static fault-raise sites analyzed")
	}

	recall := rep.tally(taxonomy.ClassEnvIndependent, true).recall
	if float64(recall.Hits) < scopeClassRecallFloor*float64(recall.N) {
		t.Fatalf("class recall %d/%d below gate floor", recall.Hits, recall.N)
	}
	var cured, probed int
	for _, a := range rep.Arms {
		probed += a.Episodes
		if a.Cured {
			cured++
		}
	}
	if probed == 0 {
		t.Fatal("probe arms saw no fault episodes")
	}
	if cured == 0 {
		t.Fatal("no probe arm cured its mechanism — ground truth degenerate")
	}
	for _, m := range rep.Mechs {
		if m.Curable && m.TruthRung == recoveryscope.RungNone {
			t.Fatalf("%s: curable with no truth rung", m.Mechanism)
		}
	}

	s := rep.String()
	for _, want := range []string{"SCOPE experiment", "class recall", "rung exact", "Headline"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}

	var prom bytes.Buffer
	if err := tel.WritePrometheus(&prom); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, metric := range []string{
		MetricScopeSites, MetricScopeClassVerdicts,
		MetricScopeRungVerdicts, MetricScopeProbeEpisodes,
	} {
		if !strings.Contains(prom.String(), metric) {
			t.Fatalf("metrics dump missing %s", metric)
		}
	}
	if len(tel.Episodes()) == 0 {
		t.Fatal("no episodes recorded")
	}
	var planned bool
	for _, ep := range tel.Episodes() {
		if ep.PlannedRung != "" {
			planned = true
		}
	}
	if !planned {
		t.Fatal("no recorded episode carries the statically planned rung")
	}
	if sum := tel.Summary(); !strings.Contains(sum, "planned rungs") {
		t.Fatalf("telemetry summary missing the planned-rungs column:\n%s", sum)
	}
}

// TestScopeRungVerdict pins the verdict semantics: exact on agreement, over
// when the prediction pays more than measured, under when it pays less.
func TestScopeRungVerdict(t *testing.T) {
	cases := []struct {
		static, truth recoveryscope.Rung
		want          string
	}{
		{recoveryscope.RungRetry, recoveryscope.RungRetry, "exact"},
		{recoveryscope.RungRestart, recoveryscope.RungMicroreboot, "over"},
		{recoveryscope.RungRetry, recoveryscope.RungRestore, "under"},
		{recoveryscope.RungNone, recoveryscope.RungRetry, "under"},
	}
	for _, c := range cases {
		m := ScopeMech{StaticRung: c.static, TruthRung: c.truth}
		if got := m.RungVerdict(); got != c.want {
			t.Errorf("RungVerdict(%s vs %s) = %q, want %q", c.static, c.truth, got, c.want)
		}
	}
}

// TestScopeCheckFails exercises the gate's failure paths on synthetic
// scorecards.
func TestScopeCheckFails(t *testing.T) {
	mech := func(classOK bool, verdict string) ScopeMech {
		m := ScopeMech{TruthClass: taxonomy.ClassEnvIndependent,
			StaticClass: taxonomy.ClassEnvIndependent,
			StaticRung:  recoveryscope.RungRetry, TruthRung: recoveryscope.RungRetry}
		if !classOK {
			m.StaticClass = taxonomy.ClassEnvDependentTransient
		}
		if verdict == "under" {
			m.TruthRung = recoveryscope.RungRestart
		}
		return m
	}

	empty := &ScopeReport{}
	if err := empty.Check(); err == nil {
		t.Error("Check on empty report passed, want failure")
	}

	badRecall := &ScopeReport{Mechs: []ScopeMech{
		mech(false, "exact"), mech(false, "exact"), mech(true, "exact")}}
	if err := badRecall.Check(); err == nil || !strings.Contains(err.Error(), "class recall") {
		t.Errorf("Check with 1/3 recall = %v, want class-recall failure", err)
	}

	badUnder := &ScopeReport{Mechs: []ScopeMech{
		mech(true, "under"), mech(true, "exact"), mech(true, "exact")}}
	if err := badUnder.Check(); err == nil || !strings.Contains(err.Error(), "under-scoped") {
		t.Errorf("Check with 1/3 EI under-scoping = %v, want under-scope failure", err)
	}

	good := &ScopeReport{Mechs: []ScopeMech{
		mech(true, "exact"), mech(true, "exact"), mech(true, "exact")}}
	if err := good.Check(); err != nil {
		t.Errorf("Check on clean report: %v", err)
	}
}
