package experiment

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"faultstudy/internal/taxonomy"
)

// runMReboot42 runs MREBOOT at seed 42 with telemetry attached.
func runMReboot42(workers int) (seedRun[*MRebootReport], error) {
	tel := NewTelemetry()
	rep, err := RunMReboot(MRebootConfig{Seed: 42, Telemetry: tel, Workers: workers})
	if err != nil {
		return seedRun[*MRebootReport]{}, fmt.Errorf("RunMReboot(workers=%d): %w", workers, err)
	}
	return newSeedRun(rep, tel, rep.String())
}

// mrebootSerial is the serial MREBOOT run every test below reads.
var mrebootSerial = memoSerial(runMReboot42)

// TestMRebootWorkerInvariance is the determinism contract: every report,
// trace, timeline, and metrics dump of the MREBOOT sweep is byte-identical
// at 1, 2, and 8 workers.
func TestMRebootWorkerInvariance(t *testing.T) {
	assertWorkerInvariant(t, mrebootSerial(t), runMReboot42)
}

// TestMRebootGate asserts the CI gate plus the mechanics behind it on the
// serial run: microreboot strictly beats process restart on EI requests
// lost, repairs faster wherever both recovered, reboots components only
// under the microreboot policy, and is the only policy that serves anything
// during an outage.
func TestMRebootGate(t *testing.T) {
	rep := mrebootSerial(t).rep
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(rep.Arms) != len(Registry().Keys())*len(MRebootPolicies()) {
		t.Fatalf("arms = %d, want mechanisms x policies", len(rep.Arms))
	}

	ei := taxonomy.ClassEnvIndependent
	microLost, restartLost := rep.cell(ei, "microreboot").Lost, rep.cell(ei, "restart").Lost
	if microLost >= restartLost {
		t.Fatalf("EI requests lost: microreboot %d, restart %d — want strict win", microLost, restartLost)
	}

	var microOutageServed, procOutageServed, microReboots, procReboots int
	for _, a := range rep.Arms {
		if a.Policy == "microreboot" {
			microOutageServed += a.OutageServed
			microReboots += a.Reboots
		} else {
			procOutageServed += a.OutageServed
			procReboots += a.Reboots
		}
		if a.Requests < mrebootBgOps {
			t.Fatalf("%s x %s: %d requests, want >= %d scheduled arrivals",
				a.Mechanism, a.Policy, a.Requests, mrebootBgOps)
		}
		if a.Served+a.Lost > a.Requests {
			t.Fatalf("%s x %s: served %d + lost %d > requests %d",
				a.Mechanism, a.Policy, a.Served, a.Lost, a.Requests)
		}
	}
	if microOutageServed == 0 {
		t.Fatal("microreboot arms served nothing during outages — sibling serving is broken")
	}
	if procOutageServed != 0 {
		t.Fatalf("process-level arms served %d requests during outages, want 0", procOutageServed)
	}
	if microReboots == 0 {
		t.Fatal("microreboot arms performed no component reboots")
	}
	if procReboots != 0 {
		t.Fatalf("process-level arms performed %d component reboots, want 0", procReboots)
	}

	for _, class := range taxonomy.Classes() {
		micro, restart := rep.cell(class, "microreboot").MTTR(), rep.cell(class, "restart").MTTR()
		if micro > 0 && restart > 0 && micro >= restart {
			t.Fatalf("%s MTTR: microreboot %s, restart %s — want strictly faster", class.Short(), micro, restart)
		}
	}

	s := rep.String()
	for _, want := range []string{"MREBOOT sweep", "microreboot", "restart", "rollback", "mttr", "Headline"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

// TestMRebootTelemetry asserts the sweep emits the documented metric family
// and episode traces.
func TestMRebootTelemetry(t *testing.T) {
	tel := mrebootSerial(t).tel
	if len(tel.Episodes()) == 0 {
		t.Fatal("no episodes recorded")
	}
	var prom bytes.Buffer
	if err := tel.WritePrometheus(&prom); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, metric := range []string{
		MetricMRebootEpisodes, MetricMRebootRequestsLost,
		MetricMRebootMTTRSeconds, MetricMRebootComponentReboots,
	} {
		if !strings.Contains(prom.String(), metric) {
			t.Fatalf("metrics dump missing %s", metric)
		}
	}
	// Component attribution must reach the trace: some recorded action span
	// names the rebooted component.
	var attributed bool
	for _, ep := range tel.Episodes() {
		for _, sp := range ep.Spans {
			if sp.Kind == "action" && sp.Component != "" {
				attributed = true
			}
		}
	}
	if !attributed {
		t.Fatal("no action span carries a component attribution")
	}
}

// TestSpliceArrivals pins the schedule shape: every scenario op appears once,
// in order, at deterministic positions, with background arrivals filling the
// rest.
func TestSpliceArrivals(t *testing.T) {
	mech, _ := Registry().Lookup("httpd/null-deref")
	drv, sc, err := startComponentArm("mreboot", "microreboot", mech, 1)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	arrivals := spliceArrivals(drv, sc.Ops, mrebootBgOps)
	if len(arrivals) != mrebootBgOps+len(sc.Ops) {
		t.Fatalf("arrivals = %d, want %d", len(arrivals), mrebootBgOps+len(sc.Ops))
	}
	var triggers []string
	for _, a := range arrivals {
		if a.trigger {
			triggers = append(triggers, a.name)
		}
	}
	if len(triggers) != len(sc.Ops) {
		t.Fatalf("triggers = %d, want %d", len(triggers), len(sc.Ops))
	}
	for i, op := range sc.Ops {
		if triggers[i] != op.Name {
			t.Fatalf("trigger %d = %q, want %q (order must be preserved)", i, triggers[i], op.Name)
		}
	}
}

// TestMRebootCheckFails exercises every failure branch of the gate on
// synthetic reports, and passes a clean one.
func TestMRebootCheckFails(t *testing.T) {
	ei, edt := taxonomy.ClassEnvIndependent, taxonomy.ClassEnvDependentTransient
	arm := func(class taxonomy.FaultClass, policy string, lost int, mttr time.Duration) MRebootArm {
		return MRebootArm{Class: class, Policy: policy, Requests: 100, Lost: lost,
			Episodes: 1, Recovered: 1, MTTRTotal: mttr}
	}
	for _, tc := range []struct {
		name string
		arms []MRebootArm
		want string
	}{
		{"clean", []MRebootArm{
			arm(ei, "microreboot", 5, time.Second), arm(ei, "restart", 50, 3*time.Second),
			arm(edt, "microreboot", 5, time.Second), arm(edt, "restart", 50, 3*time.Second)}, ""},
		{"empty EI cell", []MRebootArm{
			arm(ei, "microreboot", 5, time.Second), arm(edt, "restart", 50, 3*time.Second)},
			"experiment: mreboot check: empty EI cell (100/0 requests)"},
		{"EI lost not below restart", []MRebootArm{
			arm(ei, "microreboot", 50, time.Second), arm(ei, "restart", 50, 3*time.Second)},
			"experiment: mreboot check: EI requests lost 50 (microreboot) not below 50 (restart)"},
		{"class MTTR not below restart", []MRebootArm{
			arm(ei, "microreboot", 5, time.Second), arm(ei, "restart", 50, 3*time.Second),
			arm(edt, "microreboot", 5, 3*time.Second), arm(edt, "restart", 50, 2*time.Second)},
			"experiment: mreboot check: EDT MTTR 3s (microreboot) not below 2s (restart)"},
	} {
		err := (&MRebootReport{Arms: tc.arms}).Check()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Check = %v, want pass", tc.name, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%s: Check = %v, want %q", tc.name, err, tc.want)
		}
	}
}
