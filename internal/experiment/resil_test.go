package experiment

import (
	"bytes"
	"strings"
	"testing"

	"faultstudy/internal/taxonomy"
)

// resilFingerprint runs one telemetry-instrumented RESIL sweep and returns
// its complete observable output.
func resilFingerprint(t *testing.T, seed int64, workers int) []byte {
	t.Helper()
	tel := NewTelemetry()
	rep, err := RunResil(ResilConfig{Seed: seed, Workers: workers, MaxPages: 60, Telemetry: tel})
	if err != nil {
		t.Fatalf("RunResil(seed=%d, workers=%d): %v", seed, workers, err)
	}
	return fingerprint(t, tel, rep.String())
}

// TestResilDeterminism checks the RESIL sweep's full output — report, JSONL
// trace, Prometheus export — is byte-identical at every worker count.
func TestResilDeterminism(t *testing.T) {
	want := resilFingerprint(t, 42, workerArms[0])
	for _, w := range workerArms[1:] {
		got := resilFingerprint(t, 42, w)
		if !bytes.Equal(want, got) {
			t.Errorf("workers=%d output differs from workers=1:\n%s", w, firstDiff(want, got))
		}
	}
}

// TestResilCheck runs the sweep at the default size and asserts the headline
// bounds the CLI gates on: under the full policy, EDT chaos survives and EDN
// chaos does not.
func TestResilCheck(t *testing.T) {
	rep, err := RunResil(ResilConfig{Seed: 42})
	if err != nil {
		t.Fatalf("RunResil: %v", err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v\n%s", err, rep)
	}
}

// TestResilPolicyGradient asserts the sweep separates the policies the way
// the design argues it must: the full client recovers strictly more EDT
// chaos than the naive one, and no policy rescues EDN chaos.
func TestResilPolicyGradient(t *testing.T) {
	rep, err := RunResil(ResilConfig{Seed: 7, MaxPages: 60})
	if err != nil {
		t.Fatalf("RunResil: %v", err)
	}
	edtNaive := rep.SurvivalBy(taxonomy.ClassEnvDependentTransient, "naive")
	edtFull := rep.SurvivalBy(taxonomy.ClassEnvDependentTransient, "full")
	if edtFull.Value() <= edtNaive.Value() {
		t.Errorf("EDT survival full %s not above naive %s", edtFull.Percent(), edtNaive.Percent())
	}
	for _, pol := range ResilPolicies() {
		edn := rep.SurvivalBy(taxonomy.ClassEnvDependentNonTransient, pol)
		if edn.N == 0 {
			t.Errorf("policy %s: no EDN URLs targeted", pol)
		}
		if edn.Value() > 0.1 {
			t.Errorf("policy %s: EDN survival %s above 10%% — nontransient chaos should defeat generic retry", pol, edn.Percent())
		}
	}
}

// TestResilArmAccounting sanity-checks each arm's bookkeeping: coverage
// partitions the attempt count, recovered never exceeds targeted, and every
// (fault, policy) cell is present exactly once.
func TestResilArmAccounting(t *testing.T) {
	rep, err := RunResil(ResilConfig{Seed: 3, MaxPages: 40})
	if err != nil {
		t.Fatalf("RunResil: %v", err)
	}
	seen := make(map[string]bool)
	for _, a := range rep.Arms {
		key := a.Fault + "|" + a.Policy
		if seen[key] {
			t.Errorf("duplicate arm %s", key)
		}
		seen[key] = true
		if a.Fetched+a.NonOK+a.Gaps != a.Attempted {
			t.Errorf("arm %s: coverage %d+%d+%d != attempted %d", key, a.Fetched, a.NonOK, a.Gaps, a.Attempted)
		}
		if a.Recovered > a.Targeted {
			t.Errorf("arm %s: recovered %d > targeted %d", key, a.Recovered, a.Targeted)
		}
		if a.Recovered == 0 && a.MTTR != 0 {
			t.Errorf("arm %s: MTTR %v with nothing recovered", key, a.MTTR)
		}
	}
	if want := 9 * len(ResilPolicies()); len(rep.Arms) != want {
		t.Errorf("got %d arms, want %d", len(rep.Arms), want)
	}
}

// TestResilTelemetry checks the sweep's telemetry carries per-URL episodes
// with the policy as the final rung and the resil metric family.
func TestResilTelemetry(t *testing.T) {
	tel := NewTelemetry()
	if _, err := RunResil(ResilConfig{Seed: 42, MaxPages: 40, Telemetry: tel}); err != nil {
		t.Fatalf("RunResil: %v", err)
	}
	eps := tel.Episodes()
	if len(eps) == 0 {
		t.Fatal("no episodes recorded")
	}
	rungs := make(map[string]bool)
	for _, ep := range eps {
		rungs[ep.FinalRung] = true
		if ep.Class != "EDT" && ep.Class != "EDN" {
			t.Errorf("episode %d: class %q not a chaos class", ep.ID, ep.Class)
		}
		if !strings.HasPrefix(ep.Op, "/bugdb/") {
			t.Errorf("episode %d: op %q is not a crawled path", ep.ID, ep.Op)
		}
	}
	for _, pol := range ResilPolicies() {
		if !rungs[pol] {
			t.Errorf("no episode closed under policy %q", pol)
		}
	}
	var prom bytes.Buffer
	if err := tel.WritePrometheus(&prom); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, metric := range []string{
		"faultstudy_resil_urls_total", "faultstudy_resil_retries_total", "faultstudy_resil_mttr_seconds"} {
		if !strings.Contains(prom.String(), metric) {
			t.Errorf("prometheus export missing %s", metric)
		}
	}
}

// TestResilCheckFails drives every failure branch of ResilReport.Check on
// synthetic reports; a clean report must pass.
func TestResilCheckFails(t *testing.T) {
	edt, edn := taxonomy.ClassEnvDependentTransient, taxonomy.ClassEnvDependentNonTransient
	arm := func(class taxonomy.FaultClass, policy string, recovered, targeted int) ResilArm {
		return ResilArm{Fault: "fault-" + class.Short(), Class: class, Policy: policy,
			Targeted: targeted, Recovered: recovered}
	}
	for _, tc := range []struct {
		name string
		arms []ResilArm
		want string
	}{
		{"clean", []ResilArm{arm(edt, "full", 19, 20), arm(edn, "full", 1, 20), arm(edt, "naive", 2, 20)}, ""},
		{"empty class", []ResilArm{arm(edt, "full", 19, 20), arm(edn, "naive", 0, 20)},
			"experiment: resil check: empty class (EDT 20, EDN 0 targeted URLs)"},
		{"EDT below 90%", []ResilArm{arm(edt, "full", 17, 20), arm(edn, "full", 0, 20)},
			"experiment: resil check: full-policy EDT survival 85% below 90%"},
		{"EDN above 10%", []ResilArm{arm(edt, "full", 20, 20), arm(edn, "full", 3, 20)},
			"experiment: resil check: full-policy EDN survival 15% above 10%"},
	} {
		err := (&ResilReport{Seed: 42, Arms: tc.arms}).Check()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Check = %v, want pass", tc.name, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%s: Check = %v, want %q", tc.name, err, tc.want)
		}
	}
}
