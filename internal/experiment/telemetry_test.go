package experiment

import (
	"bytes"
	"testing"

	"faultstudy/internal/obsv"
	"faultstudy/internal/recovery"
	"faultstudy/internal/supervise"
)

// soakTrace runs a small telemetry-instrumented soak and returns the trace
// JSONL and Prometheus dump it produces.
func soakTrace(t *testing.T, seed int64) (trace, prom []byte) {
	t.Helper()
	tel := NewTelemetry()
	if _, err := RunSoak(SoakConfig{Ops: 60, Faults: 2, Seed: seed, Telemetry: tel}); err != nil {
		t.Fatalf("RunSoak: %v", err)
	}
	var tb, pb bytes.Buffer
	if err := tel.WriteTrace(&tb); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if err := tel.WritePrometheus(&pb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return tb.Bytes(), pb.Bytes()
}

// TestSoakTelemetryDeterministic is the determinism acceptance test: two
// identical seeded runs must produce byte-identical trace JSONL and metric
// dumps — the virtual clock, seeded generators, and sorted exporters leave no
// nondeterminism anywhere in the pipeline.
func TestSoakTelemetryDeterministic(t *testing.T) {
	t1, p1 := soakTrace(t, 11)
	t2, p2 := soakTrace(t, 11)
	if !bytes.Equal(t1, t2) {
		t.Error("trace JSONL differs between identical seeded runs")
	}
	if !bytes.Equal(p1, p2) {
		t.Error("Prometheus dump differs between identical seeded runs")
	}
	if len(t1) == 0 {
		t.Error("trace is empty: the soak recorded no episodes")
	}
}

// TestSoakTraceRoundTrips validates the schema acceptance criterion: the
// trace a soak writes parses back through ReadJSONL and re-encodes
// byte-identically.
func TestSoakTraceRoundTrips(t *testing.T) {
	trace, _ := soakTrace(t, 11)
	eps, err := obsv.ReadJSONL(bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("ReadJSONL rejected the soak trace: %v", err)
	}
	if len(eps) == 0 {
		t.Fatal("no episodes parsed")
	}
	var again bytes.Buffer
	if err := obsv.WriteJSONL(&again, eps); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(trace, again.Bytes()) {
		t.Error("trace does not round-trip byte-identically")
	}
}

// TestSoakTelemetryOffMatchesOn checks the zero-cost-off contract at the
// behavioural level: running with telemetry attached must not change the
// supervision outcome (reports are rendered identically with and without).
func TestSoakTelemetryOffMatchesOn(t *testing.T) {
	plain, err := RunSoak(SoakConfig{Ops: 60, Faults: 2, Seed: 11})
	if err != nil {
		t.Fatalf("RunSoak: %v", err)
	}
	observed, err := RunSoak(SoakConfig{Ops: 60, Faults: 2, Seed: 11, Telemetry: NewTelemetry()})
	if err != nil {
		t.Fatalf("RunSoak observed: %v", err)
	}
	if a, b := RenderSoak(plain), RenderSoak(observed); a != b {
		t.Errorf("telemetry changed the soak outcome\n--- plain ---\n%s\n--- observed ---\n%s", a, b)
	}
}

// TestSupervisedObservedFillsMatrixAndEpisodes checks the matrix path: the
// observed supervised column equals the unobserved one and the telemetry
// carries per-fault identities.
func TestSupervisedObservedFillsMatrixAndEpisodes(t *testing.T) {
	m1, err := RunMatrix(recovery.Policy{}, 5, 1)
	if err != nil {
		t.Fatalf("matrix: %v", err)
	}
	tel := NewTelemetry()
	if err := m1.AddSupervised(5, supervise.Config{GrowResources: true}, tel, 1); err != nil {
		t.Fatalf("AddSupervised: %v", err)
	}
	if !m1.HasSupervised() {
		t.Fatal("supervised column not filled")
	}
	eps := tel.Episodes()
	if len(eps) == 0 {
		t.Fatal("no episodes recorded")
	}
	for _, e := range eps {
		if e.FaultID == "" || e.Class == "" || e.App == "" {
			t.Fatalf("episode missing identity: %+v", e)
		}
	}
	if s := tel.Summary(); len(s) == 0 {
		t.Fatal("empty summary")
	}
}
