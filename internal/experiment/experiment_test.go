package experiment

import (
	"strings"
	"testing"

	"faultstudy/internal/classify"
	"faultstudy/internal/corpus"
	"faultstudy/internal/recovery"
	"faultstudy/internal/taxonomy"
)

func TestTablesMatchPaper(t *testing.T) {
	for _, app := range taxonomy.Applications() {
		res := Table(app, classify.Options{})
		if !res.Matches() {
			t.Errorf("%s table does not match the paper:\n%s", app, res)
		}
	}
}

func TestAggregateMatchesDiscussion(t *testing.T) {
	agg := ComputeAggregate(classify.Options{})
	if agg.Total != 139 {
		t.Errorf("total = %d, want 139", agg.Total)
	}
	if agg.Counts[taxonomy.ClassEnvDependentNonTransient] != 14 {
		t.Errorf("EDN = %d, want 14", agg.Counts[taxonomy.ClassEnvDependentNonTransient])
	}
	if agg.Counts[taxonomy.ClassEnvDependentTransient] != 12 {
		t.Errorf("EDT = %d, want 12", agg.Counts[taxonomy.ClassEnvDependentTransient])
	}
	for app, share := range agg.EIShare {
		if v := share.Value(); v < 0.72 || v > 0.87 {
			t.Errorf("%s EI share %.2f outside the paper's 72-87%% band", app, v)
		}
	}
	if agg.String() == "" {
		t.Error("empty aggregate rendering")
	}
}

func TestFigure1Shape(t *testing.T) {
	fig := Figure1Apache()
	if len(fig.Buckets) != 6 {
		t.Fatalf("Apache releases = %d, want 6", len(fig.Buckets))
	}
	totals := fig.Totals()
	sum := 0
	for i := 1; i < len(totals); i++ {
		if totals[i] < totals[i-1] {
			t.Errorf("totals not nondecreasing: %v", totals)
		}
	}
	for _, n := range totals {
		sum += n
	}
	if sum != 50 {
		t.Errorf("figure covers %d faults, want 50", sum)
	}
	for i, share := range fig.EIShare() {
		if share < 0.5 {
			t.Errorf("bucket %d EI share %.2f; should stay a majority", i, share)
		}
	}
	if !strings.Contains(fig.Render(), "#") {
		t.Error("render missing bars")
	}
}

func TestFigure2Shape(t *testing.T) {
	fig := Figure2Gnome()
	totals := fig.Totals()
	sum := 0
	for _, n := range totals {
		sum += n
	}
	if sum != 45 {
		t.Errorf("figure covers %d faults, want 45", sum)
	}
	// The paper's dip-then-rise.
	dipped := false
	for i := 1; i < len(totals)-1; i++ {
		if totals[i] < totals[i-1] && totals[i+1] > totals[i] {
			dipped = true
		}
	}
	if !dipped {
		t.Errorf("GNOME series %v shows no dip", totals)
	}
}

func TestFigure3Shape(t *testing.T) {
	fig := Figure3MySQL()
	totals := fig.Totals()
	sum := 0
	for _, n := range totals {
		sum += n
	}
	if sum != 44 {
		t.Errorf("figure covers %d faults, want 44", sum)
	}
	last := totals[len(totals)-1]
	prev := totals[len(totals)-2]
	if last >= prev/2 {
		t.Errorf("last release count %d vs %d; should drop substantially", last, prev)
	}
}

func TestBuildScenarioErrors(t *testing.T) {
	cases := []struct {
		mechanism string
		err       string // "" when the mechanism must build
		class     string // ClassFor's label
	}{
		{"kernel/unknown", `experiment: unknown mechanism namespace "kernel/unknown"`, "?"},
		{"httpd", `experiment: unknown mechanism namespace "httpd"`, "?"},
		{"httpd/not-a-mechanism", "experiment: no httpd scenario for httpd/not-a-mechanism", "?"},
		{"httpd/dns-error", "", "EDT"},
		// The extension archetype resolves through the same catalogue for
		// building and for labelling.
		{"cache/empty-key-deref", "", "EI"},
	}
	// Every mechanism of the extended catalogue builds and is labelled with
	// its own class.
	reg := CorpusRegistry()
	for _, key := range reg.Keys() {
		m, _ := reg.Lookup(key)
		cases = append(cases, struct{ mechanism, err, class string }{key, "", m.Class().Short()})
	}
	for _, tc := range cases {
		_, _, err := BuildScenario(tc.mechanism, 1)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("BuildScenario(%q): %v", tc.mechanism, err)
		case tc.err != "" && (err == nil || err.Error() != tc.err):
			t.Errorf("BuildScenario(%q) error = %v, want %q", tc.mechanism, err, tc.err)
		}
		if got := ClassFor(tc.mechanism); got != tc.class {
			t.Errorf("ClassFor(%q) = %q, want %q", tc.mechanism, got, tc.class)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	r := Registry()
	keys := r.Keys()
	if len(keys) < 27+17+18 {
		t.Errorf("registry has %d mechanisms", len(keys))
	}
	// Every corpus mechanism must exist in the registry with a scenario.
	for _, key := range keys {
		if _, _, err := BuildScenario(key, 1); err != nil {
			t.Errorf("mechanism %s has no scenario: %v", key, err)
		}
	}
}

func TestRecoveryMatrixHeadline(t *testing.T) {
	m, err := RunMatrix(recovery.Policy{}, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PerFault) != 139 {
		t.Fatalf("matrix covers %d faults, want 139", len(m.PerFault))
	}

	// No recovery never survives.
	none := m.Rate(recovery.StrategyNone, taxonomy.ClassUnknown)
	if none.Hits != 0 {
		t.Errorf("no-recovery survived %d faults", none.Hits)
	}

	// The paper's headline: generic recovery survives the transients and
	// nothing else.
	pp := m.Rate(recovery.StrategyProcessPairs, taxonomy.ClassEnvIndependent)
	if pp.Hits != 0 {
		t.Errorf("process pairs survived %d/%d EI faults; must be 0", pp.Hits, pp.N)
	}
	pp = m.Rate(recovery.StrategyProcessPairs, taxonomy.ClassEnvDependentNonTransient)
	if pp.Hits != 0 {
		t.Errorf("process pairs survived %d/%d EDN faults; must be 0", pp.Hits, pp.N)
	}
	pp = m.Rate(recovery.StrategyProcessPairs, taxonomy.ClassEnvDependentTransient)
	if pp.Value() < 0.9 {
		t.Errorf("process pairs survived only %d/%d EDT faults", pp.Hits, pp.N)
	}

	// Overall generic survival lands in the paper's 5-14%+epsilon band.
	overall := m.Rate(recovery.StrategyProcessPairs, taxonomy.ClassUnknown)
	if v := overall.Value(); v < 0.04 || v > 0.15 {
		t.Errorf("overall generic survival %.3f outside the expected band", v)
	}

	// Progressive retry dominates plain process pairs.
	for _, c := range taxonomy.Classes() {
		plain := m.Rate(recovery.StrategyProcessPairs, c)
		prog := m.Rate(recovery.StrategyProgressiveRetry, c)
		if prog.Hits < plain.Hits {
			t.Errorf("%s: progressive (%d) < plain (%d)", c.Short(), prog.Hits, plain.Hits)
		}
	}

	// Clean restart beats generic recovery on leak faults but still cannot
	// fix deterministic request-triggered faults.
	cr := m.Rate(recovery.StrategyCleanRestart, taxonomy.ClassEnvDependentNonTransient)
	ppEDN := m.Rate(recovery.StrategyProcessPairs, taxonomy.ClassEnvDependentNonTransient)
	if cr.Hits <= ppEDN.Hits {
		t.Errorf("clean restart EDN survival %d should beat generic %d", cr.Hits, ppEDN.Hits)
	}
	crEI := m.Rate(recovery.StrategyCleanRestart, taxonomy.ClassEnvIndependent)
	if crEI.Value() > 0.25 {
		t.Errorf("clean restart survived %d/%d EI faults; deterministic faults should mostly recur", crEI.Hits, crEI.N)
	}

	if !strings.Contains(m.String(), "process-pairs") {
		t.Error("matrix rendering incomplete")
	}
}

func TestLee93Reconciliation(t *testing.T) {
	m, err := RunMatrix(recovery.Policy{}, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	l := ComputeLee93(m)
	if l.TandemReported != 0.82 || l.TandemAdjusted != 0.29 {
		t.Error("published Tandem constants wrong")
	}
	// Our generic rate must sit at or below the transient share (its
	// ceiling), and both land in the paper's 5-14% band.
	if l.OurGenericRate.Value() > l.OurTransientShare.Value() {
		t.Errorf("generic rate %.3f exceeds its transient ceiling %.3f",
			l.OurGenericRate.Value(), l.OurTransientShare.Value())
	}
	if v := l.OurTransientShare.Value(); v < 0.05 || v > 0.14 {
		t.Errorf("transient share %.3f outside 5-14%%", v)
	}
	for app, p := range l.PerApp {
		if p.Value() > 0.2 {
			t.Errorf("%s generic survival %.2f implausibly high", app, p.Value())
		}
	}
	if !strings.Contains(l.String(), "Tandem") {
		t.Error("rendering incomplete")
	}
}

func TestRetryAblation(t *testing.T) {
	ab, err := RunRetryAblation(3, 77)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Plain.N != ab.Progressive.N || ab.Plain.N != 12*3 {
		t.Fatalf("trial counts: plain %d, progressive %d", ab.Plain.N, ab.Progressive.N)
	}
	if ab.Progressive.Hits < ab.Plain.Hits {
		t.Errorf("progressive (%d) should not lose to plain (%d)", ab.Progressive.Hits, ab.Plain.Hits)
	}
	if ab.Progressive.Value() < 0.9 {
		t.Errorf("progressive survival %.2f too low", ab.Progressive.Value())
	}
	if ab.String() == "" {
		t.Error("empty rendering")
	}
}

func TestRejuvenationAblation(t *testing.T) {
	ab, err := RunRejuvenationAblation([]int{0, 16, 128}, 99)
	if err != nil {
		t.Fatal(err)
	}
	baseline := ab.Intervals[0]
	if baseline.Hits != 0 {
		t.Errorf("without rejuvenation %d/%d leak faults survived; want 0", baseline.Hits, baseline.N)
	}
	frequent := ab.Intervals[16]
	if frequent.Value() != 1.0 {
		t.Errorf("16-op rejuvenation survived %d/%d; want all", frequent.Hits, frequent.N)
	}
	if ab.String() == "" {
		t.Error("empty rendering")
	}
}

func TestClassifierSensitivity(t *testing.T) {
	points := RunClassifierSensitivity([]float64{0.25, 0.5, 1.0, 2.0})
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	// At the study configuration accuracy is perfect.
	for _, p := range points {
		if p.Scale == 1.0 && p.Accuracy != 1.0 {
			t.Errorf("accuracy at scale 1.0 = %.3f", p.Accuracy)
		}
		// The environment-independent majority is robust at every scale.
		total := 0
		for _, n := range p.Counts {
			total += n
		}
		if 2*p.Counts[taxonomy.ClassEnvIndependent] < total {
			t.Errorf("scale %.2f: EI not a majority (%d of %d)", p.Scale,
				p.Counts[taxonomy.ClassEnvIndependent], total)
		}
	}
	// Crushing trigger weights flattens everything to EI.
	low := points[0]
	if low.Counts[taxonomy.ClassEnvDependentTransient] > 12 {
		t.Errorf("scale 0.25 EDT = %d", low.Counts[taxonomy.ClassEnvDependentTransient])
	}
	if RenderSensitivity(points) == "" {
		t.Error("empty rendering")
	}
}

func TestReclaimAblation(t *testing.T) {
	ab, err := RunReclaimAblation(42)
	if err != nil {
		t.Fatal(err)
	}
	if ab.WithReclaim.Value() != 1.0 {
		t.Errorf("with reclaim: %d/%d", ab.WithReclaim.Hits, ab.WithReclaim.N)
	}
	if ab.WithoutReclaim.Hits >= ab.WithReclaim.Hits {
		t.Errorf("without reclaim (%d) should lose faults vs with (%d)",
			ab.WithoutReclaim.Hits, ab.WithReclaim.Hits)
	}
	if ab.String() == "" {
		t.Error("empty rendering")
	}
}

func TestCSVExports(t *testing.T) {
	m, err := RunMatrix(recovery.Policy{}, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	files, err := ExportAll(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"figure1_apache.csv", "figure2_gnome.csv", "figure3_mysql.csv",
		"table1_apache.csv", "table2_gnome.csv", "table3_mysql.csv",
		"recovery_matrix.csv", "recovery_summary.csv",
	}
	for _, name := range want {
		content, ok := files[name]
		if !ok {
			t.Errorf("missing export %s", name)
			continue
		}
		lines := strings.Count(content, "\n")
		if lines < 2 {
			t.Errorf("%s has only %d lines", name, lines)
		}
	}
	if got := strings.Count(files["recovery_matrix.csv"], "\n"); got != 140 {
		t.Errorf("recovery_matrix.csv has %d lines, want 140 (header + 139 faults)", got)
	}
	if !strings.Contains(files["table1_apache.csv"], "environment-independent,36,36") {
		t.Errorf("table1 csv content wrong:\n%s", files["table1_apache.csv"])
	}
	if !strings.Contains(files["figure3_mysql.csv"], "3.23.2") {
		t.Errorf("figure3 csv missing release:\n%s", files["figure3_mysql.csv"])
	}
	// Without a matrix the recovery files are omitted.
	partial, err := ExportAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := partial["recovery_matrix.csv"]; ok {
		t.Error("nil matrix should omit recovery exports")
	}
}

func TestClassProportionIndependence(t *testing.T) {
	// The paper's reading of Figures 1 and 3: class proportions do not move
	// much across releases. Chi-square should stay well under the rough
	// critical value for the table's degrees of freedom (18.3 at dof=10,
	// alpha=0.05).
	for _, fig := range []*FigureSeries{Figure1Apache(), Figure3MySQL()} {
		chi2, dof := ClassReleaseIndependence(fig)
		if dof == 0 {
			t.Fatalf("%s: degenerate table", fig.App)
		}
		if chi2 > 2.2*float64(dof) {
			t.Errorf("%s: chi2=%.2f at dof=%d; class proportions shift too much across releases",
				fig.App, chi2, dof)
		}
	}
}

func TestMitigationAblation(t *testing.T) {
	ab, err := RunMitigationAblation(42)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Plain.Hits != 0 {
		t.Errorf("plain process pairs survived %d EDN faults; want 0", ab.Plain.Hits)
	}
	if ab.Governed.Hits == 0 {
		t.Error("the governor rescued nothing; the §6.2 mitigation should work for growable resources")
	}
	if ab.Governed.Hits >= ab.Governed.N {
		t.Errorf("governor rescued all %d EDN faults; host-config conditions must remain fatal", ab.Governed.N)
	}
	for _, id := range ab.Rescued {
		f, ok := corpus.ByID(id)
		if !ok {
			t.Fatalf("unknown rescued fault %s", id)
		}
		switch f.Trigger {
		case taxonomy.TriggerHostConfig:
			t.Errorf("%s: the governor cannot fix host configuration", id)
		}
	}
	if ab.String() == "" {
		t.Error("empty rendering")
	}
}

func TestOpsToFailureMonotone(t *testing.T) {
	points, err := RunOpsToFailure(5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("points = %d", len(points))
	}
	// No CGI -> never fails.
	if points[0].Failed {
		t.Errorf("static-only mix failed at op %d", points[0].OpsToFailure)
	}
	// More resource-consuming load -> failure arrives no later.
	for i := 2; i < len(points); i++ {
		if !points[i].Failed {
			t.Errorf("%s never failed", points[i].Label)
			continue
		}
		if points[i].OpsToFailure > points[i-1].OpsToFailure {
			t.Errorf("%s failed at %d ops, later than lighter mix %s at %d",
				points[i].Label, points[i].OpsToFailure, points[i-1].Label, points[i-1].OpsToFailure)
		}
	}
	if RenderOpsToFailure(points) == "" {
		t.Error("empty rendering")
	}
}

func TestRecoveryMatrixDeterministic(t *testing.T) {
	a, err := RunMatrix(recovery.Policy{}, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMatrix(recovery.Policy{}, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.PerFault) != len(b.PerFault) {
		t.Fatal("matrix sizes differ")
	}
	for i := range a.PerFault {
		fa, fb := a.PerFault[i], b.PerFault[i]
		if fa.FaultID != fb.FaultID {
			t.Fatalf("fault order differs at %d", i)
		}
		for _, s := range a.Strategies {
			if fa.Survived[s] != fb.Survived[s] {
				t.Errorf("%s under %s: %v vs %v across identical runs",
					fa.FaultID, s, fa.Survived[s], fb.Survived[s])
			}
		}
	}
}

func TestRecoveryMatrixStableAcrossSeeds(t *testing.T) {
	// The class-level shape must hold for any seed, not just the default:
	// EI and EDN survival are exactly zero under generic recovery, and EDT
	// survival stays near-total (individual race retries are probabilistic
	// within the 3-attempt budget).
	for _, seed := range []int64{1, 1999, 123456} {
		m, err := RunMatrix(recovery.Policy{}, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		if hits := m.Rate(recovery.StrategyProcessPairs, taxonomy.ClassEnvIndependent).Hits; hits != 0 {
			t.Errorf("seed %d: EI survival %d", seed, hits)
		}
		if hits := m.Rate(recovery.StrategyProcessPairs, taxonomy.ClassEnvDependentNonTransient).Hits; hits != 0 {
			t.Errorf("seed %d: EDN survival %d", seed, hits)
		}
		edt := m.Rate(recovery.StrategyProcessPairs, taxonomy.ClassEnvDependentTransient)
		if edt.Value() < 0.9 {
			t.Errorf("seed %d: EDT survival %d/%d", seed, edt.Hits, edt.N)
		}
	}
}

func TestPerAppGenericSurvivalBand(t *testing.T) {
	// The paper's 5-14% per-application band, measured end to end.
	m, err := RunMatrix(recovery.Policy{}, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range taxonomy.Applications() {
		p := m.AppRate(recovery.StrategyProcessPairs, app)
		if v := p.Value(); v < 0.04 || v > 0.15 {
			t.Errorf("%s generic survival %.3f (%d/%d) outside the paper's band",
				app, v, p.Hits, p.N)
		}
	}
}
