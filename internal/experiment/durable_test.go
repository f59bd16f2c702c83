package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// durableOutputs renders everything a DURABLE run emits: the report text,
// the episode trace, and the Prometheus dump.
func durableOutputs(t *testing.T, cfg DurableConfig) (string, []byte, []byte) {
	t.Helper()
	cfg.Telemetry = NewTelemetry()
	rep, err := RunDurable(cfg)
	if err != nil {
		t.Fatalf("RunDurable: %v", err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	var trace, prom bytes.Buffer
	if err := cfg.Telemetry.WriteTrace(&trace); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if err := cfg.Telemetry.WritePrometheus(&prom); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return rep.String(), trace.Bytes(), prom.Bytes()
}

// TestRunDurableGate runs the full experiment once and asserts the gate and
// the arms' headline properties directly.
func TestRunDurableGate(t *testing.T) {
	rep, err := RunDurable(DurableConfig{Seed: 7})
	if err != nil {
		t.Fatalf("RunDurable: %v", err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(rep.Arms) != len(durableArms) {
		t.Fatalf("got %d arms, want %d", len(rep.Arms), len(durableArms))
	}
	byName := make(map[string]DurableArm)
	for _, a := range rep.Arms {
		byName[a.Name] = a
	}
	for _, name := range []string{"crash-drop", "crash-tear"} {
		a := byName[name]
		if a.Boundaries < durableCrashOps*2 {
			t.Errorf("%s: only %d boundaries enumerated", name, a.Boundaries)
		}
		if a.Crashes != a.Boundaries {
			t.Errorf("%s: %d crashes over %d boundaries", name, a.Crashes, a.Boundaries)
		}
	}
	if a := byName["crash-tear"]; a.Repairs == 0 {
		t.Errorf("crash-tear: torn tails never needed repair")
	}
	if a := byName["torn-write"]; a.DetectedLoss != 1 {
		t.Errorf("torn-write: detected loss = %d, want exactly the lied-about record", a.DetectedLoss)
	}
	if a := byName["short-write"]; a.Repairs == 0 {
		t.Errorf("short-write: the persisted prefix never needed repair")
	}
	if a := byName["none"]; a.Repairs != 0 {
		t.Errorf("baseline: %d repairs on a clean close", a.Repairs)
	}
	out := rep.String()
	if !bytes.Contains([]byte(out), []byte("DURABLE experiment")) {
		t.Fatalf("report render missing header:\n%s", out)
	}
}

// TestRunDurableWorkerIdentity asserts the contract the sharded sweeps
// document: report, trace, and metric dumps are byte-identical at every
// worker count.
func TestRunDurableWorkerIdentity(t *testing.T) {
	baseRep, baseTrace, baseProm := durableOutputs(t, DurableConfig{Seed: 11, Workers: 1})
	for _, workers := range []int{2, 8} {
		rep, trace, prom := durableOutputs(t, DurableConfig{Seed: 11, Workers: workers})
		if rep != baseRep {
			t.Fatalf("report differs at %d workers", workers)
		}
		if !bytes.Equal(trace, baseTrace) {
			t.Fatalf("trace differs at %d workers", workers)
		}
		if !bytes.Equal(prom, baseProm) {
			t.Fatalf("metrics differ at %d workers", workers)
		}
	}
}

// TestRunDurableResumeEquivalence is the warehouse claim end to end: halt a
// sweep partway (with a torn tail on the warehouse file, as a real kill
// would leave), resume it, and require the resumed run's report, trace, and
// metrics to be byte-identical to an uninterrupted run's.
func TestRunDurableResumeEquivalence(t *testing.T) {
	full := filepath.Join(t.TempDir(), "full.whs")
	fullRep, fullTrace, fullProm := durableOutputs(t, DurableConfig{Seed: 7, Workers: 2, Warehouse: full})

	resumed := filepath.Join(t.TempDir(), "resumed.whs")
	rep, err := RunDurable(DurableConfig{Seed: 7, Warehouse: resumed, HaltAfter: 4})
	if err != nil {
		t.Fatalf("halted run: %v", err)
	}
	if !rep.Halted || rep.Done != 4 || rep.Total != len(durableArms) {
		t.Fatalf("halted run: got halted=%v done=%d total=%d", rep.Halted, rep.Done, rep.Total)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("halted report must not gate: %v", err)
	}
	// A kill mid-append leaves a torn record; resume must shrug it off.
	f, err := os.OpenFile(resumed, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x2a, 0xff}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resRep, resTrace, resProm := durableOutputs(t, DurableConfig{Seed: 7, Workers: 8, Warehouse: resumed, Resume: true})
	if resRep != fullRep {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- full ---\n%s\n--- resumed ---\n%s", fullRep, resRep)
	}
	if !bytes.Equal(resTrace, fullTrace) {
		t.Fatalf("resumed trace differs from uninterrupted run")
	}
	if !bytes.Equal(resProm, fullProm) {
		t.Fatalf("resumed metrics differ from uninterrupted run")
	}
}

// TestRunDurableFreshWarehouseResets asserts that a non-resume run does not
// inherit stale arms: the warehouse is recreated from scratch.
func TestRunDurableFreshWarehouseResets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.whs")
	if _, err := RunDurable(DurableConfig{Seed: 7, Warehouse: path, HaltAfter: 2}); err != nil {
		t.Fatalf("halted run: %v", err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunDurable(DurableConfig{Seed: 7, Warehouse: path, HaltAfter: 1}); err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("fresh run did not reset the warehouse: %d -> %d bytes", before.Size(), after.Size())
	}
}

// TestDurableCheckFails drives every failure branch of DurableReport.Check
// on synthetic reports: each mutation of a clean report must fail with its
// own message, while the clean report and a halted one pass.
func TestDurableCheckFails(t *testing.T) {
	clean := func() *DurableReport {
		arm := func(name, class string, detected int) DurableArm {
			return DurableArm{Name: name, Class: class, Boundaries: 12, Crashes: 12, Acked: 40,
				DetectedLoss: detected, Episodes: 12, RecoveredEpisodes: 12, MTTRTotal: time.Second}
		}
		return &DurableReport{Seed: 42, Arms: []DurableArm{
			arm("crash-drop", "crash", 0),
			{Name: "crash-before-rename", Class: "crash", Episodes: 1, RecoveredEpisodes: 1, MTTRTotal: time.Second},
			arm("torn-write", "EDT", 1),
		}}
	}
	for _, tc := range []struct {
		name string
		mut  func(*DurableReport)
		want string
	}{
		{"clean", func(*DurableReport) {}, ""},
		{"halted", func(r *DurableReport) { r.Halted, r.Arms[0].SilentLoss = true, 3 }, ""},
		{"silent loss", func(r *DurableReport) { r.Arms[0].SilentLoss = 3 },
			"experiment: durable check: crash-drop: 3 acknowledged records silently lost"},
		{"undetected corruption", func(r *DurableReport) { r.Arms[0].UndetectedCorruption = 2 },
			"experiment: durable check: crash-drop: 2 undetected corruptions"},
		{"no episodes", func(r *DurableReport) { r.Arms[0].Episodes, r.Arms[0].RecoveredEpisodes = 0, 0 },
			"experiment: durable check: crash-drop: no episodes ran"},
		{"unrecovered episodes", func(r *DurableReport) { r.Arms[0].RecoveredEpisodes = 10 },
			"experiment: durable check: crash-drop: 2 of 12 episodes unrecovered"},
		{"torn-write lie undetected", func(r *DurableReport) { r.Arms[2].DetectedLoss = 0 },
			"experiment: durable check: torn-write: the device lie went undetected"},
		{"detected loss outside torn-write", func(r *DurableReport) { r.Arms[0].DetectedLoss = 4 },
			"experiment: durable check: crash-drop: 4 records lost to detected damage"},
		{"crash arm without boundaries", func(r *DurableReport) { r.Arms[0].Boundaries = 0 },
			"experiment: durable check: crash-drop: no write boundaries enumerated"},
		{"zero repair time", func(r *DurableReport) { r.Arms[2].MTTRTotal = 0 },
			"experiment: durable check: torn-write: no repair time accumulated"},
	} {
		r := clean()
		tc.mut(r)
		err := r.Check()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Check = %v, want pass", tc.name, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%s: Check = %v, want %q", tc.name, err, tc.want)
		}
	}
}
