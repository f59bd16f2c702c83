package experiment

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"faultstudy/internal/taxonomy"
	"faultstudy/internal/traffic"
)

// runServe42 runs SERVE at seed 42 with telemetry attached; its dump
// carries the full request log between the report and the telemetry.
func runServe42(workers int) (seedRun[*ServeReport], error) {
	tel := NewTelemetry()
	rep, err := RunServe(ServeConfig{Seed: 42, Telemetry: tel, Workers: workers})
	if err != nil {
		return seedRun[*ServeReport]{}, fmt.Errorf("RunServe(workers=%d): %w", workers, err)
	}
	var head strings.Builder
	head.WriteString(rep.String())
	if err := rep.WriteRequestLog(&head); err != nil {
		return seedRun[*ServeReport]{}, err
	}
	return newSeedRun(rep, tel, head.String())
}

// serveSerial is the serial SERVE run every test below reads.
var serveSerial = memoSerial(runServe42)

// TestServeWorkerInvariance is the determinism contract: every report,
// request log, trace, timeline, and metrics dump of the SERVE experiment is
// byte-identical at 1, 2, and 8 workers.
func TestServeWorkerInvariance(t *testing.T) {
	assertWorkerInvariant(t, serveSerial(t), runServe42)
}

// TestServeGate asserts the CI gate plus the mechanics behind it on the
// serial run: the EI SLO-burn ordering, full user coverage, at least two
// fault classes striking mid-traffic, and a valid request log.
func TestServeGate(t *testing.T) {
	run := serveSerial(t)
	rep, tel := run.rep, run.tel
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if rep.Users < 1000 {
		t.Fatalf("users = %d, want >= 1000 simulated users", rep.Users)
	}
	if want := len(serveMechanisms()) * len(ServeRungs()); len(rep.Arms) != want {
		t.Fatalf("arms = %d, want %d (mechanisms x rungs)", len(rep.Arms), want)
	}

	// The EI burn ordering behind the headline.
	ei := taxonomy.ClassEnvIndependent
	if micro, restart := rep.cell(ei, "microreboot").Burn, rep.cell(ei, "restart").Burn; micro >= restart {
		t.Fatalf("EI burn: microreboot %.1fx, restart %.1fx — want strict win", micro, restart)
	}

	// At least two fault classes struck mid-traffic (episodes opened).
	classes := map[taxonomy.FaultClass]bool{}
	for _, a := range rep.Arms {
		if a.Episodes > 0 {
			classes[a.Class] = true
		}
	}
	if len(classes) < 2 {
		t.Fatalf("episodes opened in %d fault classes, want >= 2", len(classes))
	}

	// Every arm served the full schedule, every user saw traffic, and the
	// request log round-trips through the schema validator.
	var log bytes.Buffer
	if err := rep.WriteRequestLog(&log); err != nil {
		t.Fatalf("WriteRequestLog: %v", err)
	}
	recs, err := traffic.ReadRecords(&log)
	if err != nil {
		t.Fatalf("ReadRecords on own request log: %v", err)
	}
	if want := len(rep.Arms) * rep.Requests; len(recs) != want {
		t.Fatalf("request log holds %d records, want %d (arms x requests)", len(recs), want)
	}
	users := map[int]bool{}
	for _, rec := range recs {
		users[rec.User] = true
	}
	if len(users) != rep.Users {
		t.Fatalf("request log covers %d users, want %d", len(users), rep.Users)
	}
	for _, a := range rep.Arms {
		if a.Requests != rep.Requests {
			t.Fatalf("%s x %s: %d requests, want %d", a.Mechanism, a.Rung, a.Requests, rep.Requests)
		}
		if got := a.Good + a.Slow + a.Refused + a.Errored + a.Lost; got != a.Requests {
			t.Fatalf("%s x %s: outcomes sum to %d of %d requests", a.Mechanism, a.Rung, got, a.Requests)
		}
	}

	// Only the structural rungs refuse requests mid-reboot; process-level
	// rungs lose them outright.
	for _, a := range rep.Arms {
		if (a.Rung == "restore" || a.Rung == "restart" || a.Rung == "retry") && a.Refused > 0 {
			t.Fatalf("%s x %s: %d refused requests under a non-structural rung", a.Mechanism, a.Rung, a.Refused)
		}
	}

	// The serve metric family made it into telemetry.
	var prom bytes.Buffer
	if err := tel.WritePrometheus(&prom); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, name := range []string{MetricServeRequests, MetricServeRequestLatency,
		MetricServeEpisodes, MetricServeSLOBurn} {
		if !strings.Contains(prom.String(), name) {
			t.Fatalf("telemetry dump missing %s", name)
		}
	}
}

// TestServeMechanismSelection pins the fault axis: per daemon app, two EI
// plus one EDN plus one EDT mechanisms, all with scenarios, in sorted order.
func TestServeMechanismSelection(t *testing.T) {
	mechs := serveMechanisms()
	if len(mechs) != 8 {
		t.Fatalf("selected %d mechanisms, want 8", len(mechs))
	}
	perApp := map[string]map[taxonomy.FaultClass]int{}
	prevKey := map[string]string{}
	for _, m := range mechs {
		ns := strings.SplitN(m.Key, "/", 2)[0]
		if perApp[ns] == nil {
			perApp[ns] = map[taxonomy.FaultClass]int{}
		}
		perApp[ns][m.Class()]++
		if m.Key < prevKey[ns] {
			t.Fatalf("mechanism %q out of sorted order after %q", m.Key, prevKey[ns])
		}
		prevKey[ns] = m.Key
	}
	for _, ns := range []string{"httpd", "sqldb"} {
		got := perApp[ns]
		if got[taxonomy.ClassEnvIndependent] != 2 ||
			got[taxonomy.ClassEnvDependentNonTransient] != 1 ||
			got[taxonomy.ClassEnvDependentTransient] != 1 {
			t.Fatalf("%s selection = %v, want 2 EI + 1 EDN + 1 EDT", ns, got)
		}
	}
	// Only the daemons serve open-loop traffic: the desktop and the cache
	// archetype are refused, as is an unknown namespace.
	for _, tc := range []struct{ mechanism, err string }{
		{"httpd/null-deref", ""},
		{"sqldb/orderby-empty", ""},
		{"desktop/illegal-owner", `experiment: mechanism "desktop/illegal-owner" is not a daemon mechanism`},
		{"cache/empty-key-deref", `experiment: mechanism "cache/empty-key-deref" is not a daemon mechanism`},
		{"kernel/unknown", `experiment: mechanism "kernel/unknown" is not a daemon mechanism`},
	} {
		_, _, _, err := buildServeApp(tc.mechanism, 1)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("buildServeApp(%q): %v", tc.mechanism, err)
		case tc.err != "" && (err == nil || err.Error() != tc.err):
			t.Errorf("buildServeApp(%q) error = %v, want %q", tc.mechanism, err, tc.err)
		}
	}
}

// TestServeConfigDefaults pins the documented defaults and the
// requests >= users floor.
func TestServeConfigDefaults(t *testing.T) {
	c := ServeConfig{}.withDefaults()
	if c.Users != 1200 || c.Requests != 2400 || c.Arrival != "poisson:1ms" {
		t.Fatalf("defaults = %d users, %d requests, %q", c.Users, c.Requests, c.Arrival)
	}
	if c.SLO != traffic.DefaultSLO() {
		t.Fatalf("default SLO = %+v", c.SLO)
	}
	c = ServeConfig{Users: 500, Requests: 100}.withDefaults()
	if c.Requests != 500 {
		t.Fatalf("requests floor = %d, want raised to users (500)", c.Requests)
	}
	if _, err := RunServe(ServeConfig{Arrival: "bogus"}); err == nil {
		t.Fatal("bogus arrival spec accepted")
	}
}

// TestServeCheckFails exercises every failure branch of the gate on
// synthetic reports, and passes a clean one.
func TestServeCheckFails(t *testing.T) {
	ei := taxonomy.ClassEnvIndependent
	arm := func(rung string, good int) ServeArm {
		return ServeArm{Mechanism: "httpd/null-deref", Class: ei, Rung: rung, Requests: 100, Good: good}
	}
	for _, tc := range []struct {
		name string
		arms []ServeArm
		want string
	}{
		{"clean", []ServeArm{arm("microreboot", 99), arm("restart", 50)}, ""},
		{"arm served no traffic", []ServeArm{arm("microreboot", 99), arm("restart", 50),
			{Mechanism: "sqldb/orderby-empty", Class: ei, Rung: "retry"}},
			"experiment: serve check: arm sqldb/orderby-empty × retry served no traffic"},
		{"EI burn not below restart", []ServeArm{arm("microreboot", 50), arm("restart", 99)},
			"experiment: serve check: EI SLO burn 500.0x (microreboot) not below 10.0x (restart)"},
	} {
		err := (&ServeReport{SLO: traffic.DefaultSLO(), Arms: tc.arms}).Check()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Check = %v, want pass", tc.name, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%s: Check = %v, want %q", tc.name, err, tc.want)
		}
	}
}
