package supervise

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"faultstudy/internal/apps/desktop"
	"faultstudy/internal/apps/httpd"
	"faultstudy/internal/apps/sqldb"
	"faultstudy/internal/component"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
	"faultstudy/internal/taxonomy"
)

// Interface compliance: every simulated application supports degraded mode.
var (
	_ Degradable = (*httpd.Server)(nil)
	_ Degradable = (*sqldb.Server)(nil)
	_ Degradable = (*desktop.Desktop)(nil)
)

// httpdUnder builds an httpd server with one active fault mechanism and
// returns it together with the mechanism's staged scenario.
func httpdUnder(t *testing.T, mech string, seed int64) (*httpd.Server, faultinject.Scenario) {
	t.Helper()
	env := simenv.New(seed, simenv.WithFDLimit(64), simenv.WithProcLimit(192))
	srv := httpd.New(env, faultinject.NewSet(mech), httpd.Config{})
	sc, ok := httpd.Scenarios(srv)[mech]
	if !ok {
		t.Fatalf("no scenario for %s", mech)
	}
	return srv, sc
}

// wrapOps converts scenario ops into supervised ops of the given kind.
func wrapOps(ops []faultinject.Op, kind OpKind) []Op {
	out := make([]Op, 0, len(ops))
	for _, op := range ops {
		out = append(out, Op{Name: op.Name, Kind: kind, Do: op.Do})
	}
	return out
}

// backoffShape is the supervisor's unjittered delay sequence: backoffBase
// doubling per attempt until backoffCap.
var backoffShape = []time.Duration{
	time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second,
	16 * time.Second, 32 * time.Second, 64 * time.Second, 128 * time.Second,
	4 * time.Minute, 4 * time.Minute, // capped
}

// TestBackoffScheduleShape: every delay lies in [pure, pure·(1+jitter)] of
// the exponential shape, and the sequence is reproducible from the seed.
func TestBackoffScheduleShape(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i, pure := range backoffShape {
			d := backoff(i+1, a)
			if again := backoff(i+1, b); d != again {
				t.Fatalf("seed %d: schedule not reproducible at %d: %s vs %s", seed, i, d, again)
			}
			if hi := pure + pure/4; d < pure || d > hi {
				t.Errorf("seed %d: jittered delay[%d] = %s outside [%s, %s]", seed, i, d, pure, hi)
			}
		}
	}
}

// TestRetryInPlaceSurvivesTransientRace drives the EDT client-abort race: the
// staged losing interleaving kills the server once, and the first ladder rung
// (retry with a perturbed schedule) must recover it without escalating.
func TestRetryInPlaceSurvivesTransientRace(t *testing.T) {
	srv, sc := httpdUnder(t, httpd.MechClientAbort, 3)
	sc.Stage()
	sup := New(srv, Config{Seed: 3})
	rep, err := sup.Run(wrapOps(sc.Ops, OpRead))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.OpsFailed != 0 || rep.OpsShed != 0 {
		t.Fatalf("ops failed=%d shed=%d, want 0/0\n%s", rep.OpsFailed, rep.OpsShed, rep)
	}
	if rep.Recovered != 1 {
		t.Errorf("recovered = %d, want 1", rep.Recovered)
	}
	if rep.FirstFailureOp != 1 {
		t.Errorf("first failure op = %d, want 1", rep.FirstFailureOp)
	}
	ms := rep.Mechanisms[httpd.MechClientAbort]
	if ms == nil || ms.Retries != 1 || ms.Recoveries != 1 {
		t.Errorf("mech stats = %+v, want 1 retry / 1 recovery", ms)
	}
	if len(rep.Escalations) != 0 {
		t.Errorf("escalations = %v, want none (first rung must suffice)", rep.Escalations)
	}
	if rep.Degraded {
		t.Error("transient race must not degrade the service")
	}
	for _, bs := range rep.Breakers {
		if bs.State != BreakerClosed {
			t.Errorf("breaker %s = %s, want closed", bs.Mechanism, bs.State)
		}
	}
}

// TestBreakerOpensOnEnvironmentIndependentFault drives the EI valist-reuse
// crash: every state-preserving retry recurs, so the failed-recovery streak
// reaches the breaker threshold, the breaker opens, and later occurrences
// fast-fail without spending retries. The threshold is longer than one
// ladder walk, so the streak spans two episodes: a write the ladder walks in
// full and sheds at the degraded rung (which leaves the breaker closed), then
// a read whose retries reach the threshold.
func TestBreakerOpensOnEnvironmentIndependentFault(t *testing.T) {
	srv, sc := httpdUnder(t, httpd.MechValistReuse, 5)
	var opens []Event
	sup := New(srv, Config{Seed: 5, Trace: func(ev Event) {
		if ev.Kind == EventBreakerOpen {
			opens = append(opens, ev)
		}
	}})
	// The same deterministic-crash request, first as a write, then twice as
	// a read.
	read := wrapOps(sc.Ops, OpRead)[0]
	write := read
	write.Kind = OpWrite
	rep, err := sup.Run([]Op{write, read, read})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ms := rep.Mechanisms[httpd.MechValistReuse]
	if ms == nil {
		t.Fatal("no mechanism stats recorded")
	}
	if ms.BreakerOpens != 1 {
		t.Errorf("breaker opens = %d, want 1", ms.BreakerOpens)
	}
	if ms.Retries != breakerThreshold {
		t.Errorf("retries = %d, want %d (threshold reached within the budget)", ms.Retries, breakerThreshold)
	}
	if ms.FastFails != 1 {
		t.Errorf("fast fails = %d, want 1 (the op after the breaker opened)", ms.FastFails)
	}
	if ms.Recoveries != 0 {
		t.Errorf("recoveries = %d, want 0", ms.Recoveries)
	}
	if rep.OpsShed != 1 || rep.OpsFailed != 2 {
		t.Errorf("ops shed/failed = %d/%d, want 1/2", rep.OpsShed, rep.OpsFailed)
	}
	// The threshold opened the breaker on the read's second retry — not the
	// exhausted ladder, which force-opens at the degraded rung.
	if len(opens) != 1 || opens[0].Rung != RungRetry || opens[0].Attempt != 2 {
		t.Errorf("breaker-open events = %+v, want one at the retry rung, attempt 2", opens)
	}
	var open bool
	for _, bs := range rep.Breakers {
		if bs.Mechanism == httpd.MechValistReuse && bs.State == BreakerOpen {
			open = true
		}
	}
	if !open {
		t.Errorf("final breaker states = %+v, want %s open", rep.Breakers, httpd.MechValistReuse)
	}
}

// TestFullDiskEscalatesToDegraded drives the EDN fs-full condition: no rung
// can un-fill a disk another tenant filled, so the ladder climbs to degraded
// mode, where reads are served (logging suspended) and writes are shed.
func TestFullDiskEscalatesToDegraded(t *testing.T) {
	srv, sc := httpdUnder(t, httpd.MechFSFull, 7)
	sc.Stage()
	read := Op{Name: "GET /index.html", Kind: OpRead, Do: sc.Ops[0].Do}
	write := Op{Name: "GET /proxy/page", Kind: OpWrite, Do: func() error {
		_, err := srv.Serve(httpd.Request{Method: "GET", Path: "/proxy/page"})
		return err
	}}
	sup := New(srv, Config{Seed: 7})
	rep, err := sup.Run([]Op{read, read, write, read, write, read})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.Degraded || rep.DegradedAtOp != 1 {
		t.Fatalf("degraded=%v at op %d, want degraded at op 1\n%s", rep.Degraded, rep.DegradedAtOp, rep)
	}
	if rep.OpsFailed != 0 {
		t.Errorf("ops failed = %d, want 0 (degraded mode keeps serving reads)\n%s", rep.OpsFailed, rep)
	}
	if rep.OpsShed != 2 {
		t.Errorf("ops shed = %d, want 2 (both proxy writes)", rep.OpsShed)
	}
	if rep.OpsOK != 4 {
		t.Errorf("ops ok = %d, want 4 (every read served)", rep.OpsOK)
	}
	if !rep.Served() {
		t.Error("Served() = false, want true: nothing was lost")
	}
	if rep.Healthy() {
		t.Error("Healthy() = true, want false: service is degraded")
	}
	// The ladder was walked in full: every intermediate rung was tried.
	for _, rung := range []Rung{RungMicroreboot, RungRestore, RungRestart, RungDegraded} {
		if rep.Escalations[rung] == 0 {
			t.Errorf("escalations[%s] = 0, want > 0", rung)
		}
	}
	if !srv.Degraded() {
		t.Error("server not left in degraded mode")
	}
}

// TestDegradedRetryFailureReverts drives an EI crash all the way up the
// ladder, which the breaker threshold (longer than one ladder walk) lets it
// climb in full: degraded mode is entered, the degraded retry still fails
// (the fault is not a resource condition), so degraded mode is reverted, the
// breaker force-opens, and full service resumes for the rest of the workload.
func TestDegradedRetryFailureReverts(t *testing.T) {
	srv, sc := httpdUnder(t, httpd.MechValistReuse, 11)
	sup := New(srv, Config{Seed: 11})
	bad := wrapOps(sc.Ops, OpRead)[0]
	good := Op{Name: "GET /index.html", Kind: OpRead, Do: func() error {
		_, err := srv.Serve(httpd.Request{Method: "GET", Path: "/index.html"})
		return err
	}}
	rep, err := sup.Run([]Op{bad, good, bad, good})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Degraded {
		t.Error("degraded mode should have been reverted (the degraded retry failed)")
	}
	if srv.Degraded() {
		t.Error("server left degraded")
	}
	ms := rep.Mechanisms[httpd.MechValistReuse]
	if ms == nil || ms.BreakerOpens != 1 {
		t.Errorf("mech stats = %+v, want exactly 1 (forced) breaker open", ms)
	}
	if ms != nil && ms.FastFails != 1 {
		t.Errorf("fast fails = %d, want 1 (second bad op)", ms.FastFails)
	}
	if rep.OpsFailed != 2 {
		t.Errorf("ops failed = %d, want 2 (both bad ops)", rep.OpsFailed)
	}
	if rep.OpsOK != 2 {
		t.Errorf("ops ok = %d, want 2 (good ops served at full service)", rep.OpsOK)
	}
}

// TestBackoffTraceMatchesSchedule asserts the supervisor's first recovery
// episode sleeps exactly the delays a generator seeded from its config seed
// predicts.
func TestBackoffTraceMatchesSchedule(t *testing.T) {
	var delays []time.Duration
	cfg := Config{Seed: 21,
		Trace: func(ev Event) {
			if ev.Kind == EventBackoff {
				delays = append(delays, ev.Delay)
			}
		}}
	srv, sc := httpdUnder(t, httpd.MechValistReuse, 21)
	sup := New(srv, cfg)
	rep, err := sup.Run(wrapOps(sc.Ops, OpRead))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(delays) == 0 {
		t.Fatal("no backoff events traced")
	}
	ref := rand.New(rand.NewSource(21))
	var total time.Duration
	for i := range delays {
		if want := backoff(i+1, ref); delays[i] != want {
			t.Errorf("backoff[%d] = %s, want %s", i, delays[i], want)
		}
		total += delays[i]
	}
	if rep.BackoffTotal != total {
		t.Errorf("BackoffTotal = %s, want %s", rep.BackoffTotal, total)
	}
}

// stubApp is a minimal Application for watchdog tests.
type stubApp struct {
	env     *simenv.Env
	running bool
}

func newStubApp(seed int64) *stubApp         { return &stubApp{env: simenv.New(seed)} }
func (a *stubApp) Name() string              { return "stub" }
func (a *stubApp) Env() *simenv.Env          { return a.env }
func (a *stubApp) Running() bool             { return a.running }
func (a *stubApp) Start() error              { a.running = true; return nil }
func (a *stubApp) Stop()                     { a.running = false }
func (a *stubApp) Snapshot() ([]byte, error) { return []byte("{}"), nil }
func (a *stubApp) Restore([]byte) error      { a.running = true; return nil }
func (a *stubApp) Reset() error              { a.running = true; return nil }

// TestWatchdogChargesHangSymptom: a failure reporting the hang symptom
// charges the virtual clock with the watchdog timeout — the modeled time the
// application sat unresponsive — before recovery proceeds.
func TestWatchdogChargesHangSymptom(t *testing.T) {
	app := newStubApp(31)
	const mech = "stub/hang"
	fails := 1
	op := Op{Name: "hang-once", Kind: OpRead, Do: func() error {
		if fails > 0 {
			fails--
			return faultinject.Fail(mech, taxonomy.SymptomHang, "stuck in a loop")
		}
		return nil
	}}
	sup := New(app, Config{Seed: 31})
	rep, err := sup.Run([]Op{op})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.OpsFailed != 0 || rep.Recovered != 1 {
		t.Fatalf("failed=%d recovered=%d, want 0/1\n%s", rep.OpsFailed, rep.Recovered, rep)
	}
	ms := rep.Mechanisms[mech]
	if ms == nil || ms.WatchdogTimeouts != 1 {
		t.Errorf("mech stats = %+v, want 1 watchdog timeout", ms)
	}
	if got := app.env.Monotonic(); got < watchdogTimeout {
		t.Errorf("virtual clock advanced %s, want >= %s (the hang was charged)", got, watchdogTimeout)
	}
}

// wedged is an op that always fails with the hang symptom under mech.
func wedged(name, mech string, kind OpKind) Op {
	return Op{Name: name, Kind: kind, Do: func() error {
		return faultinject.Fail(mech, taxonomy.SymptomHang, "wedged")
	}}
}

// TestCrashLoopOnRecurringHang: ops that hang on every execution walk the
// ladder until the retry budget runs out. The first op's full ladder walk
// and degraded retry spend 9 of the 12 retries the window allows, so the
// second op's episode trips the crash-loop guard on its fourth attempt; its
// degraded retry hangs too, which reverts degraded mode and opens the
// mechanism's breaker — both ops are lost but the supervisor survives.
func TestCrashLoopOnRecurringHang(t *testing.T) {
	app := newStubApp(37)
	const first, second = "stub/wedge-a", "stub/wedge-b"
	sup := New(app, Config{Seed: 37})
	rep, err := sup.Run([]Op{wedged("a", first, OpRead), wedged("b", second, OpRead)})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.OpsFailed != 2 {
		t.Errorf("ops failed = %d, want 2\n%s", rep.OpsFailed, rep)
	}
	ms := rep.Mechanisms[second]
	if ms == nil || ms.WatchdogTimeouts != 5 {
		t.Fatalf("mech stats = %+v, want 5 watchdog timeouts (initial, 3 retries, degraded retry)", ms)
	}
	if rep.CrashLoopTrips != 1 {
		t.Errorf("crash loop trips = %d, want 1 (retry budget of %d exhausted)", rep.CrashLoopTrips, retryBudget)
	}
	if rep.Degraded {
		t.Error("degraded mode should have been reverted after the degraded retry also hung")
	}
	var open bool
	for _, bs := range rep.Breakers {
		if bs.Mechanism == second && bs.State == BreakerOpen {
			open = true
		}
	}
	if !open {
		t.Errorf("breakers = %+v, want %s open", rep.Breakers, second)
	}
}

// TestPanicIsSupervised: a panicking op is converted into a failure and
// survives supervision instead of unwinding the harness.
func TestPanicIsSupervised(t *testing.T) {
	app := newStubApp(41)
	panics := 1
	op := Op{Name: "panicky", Kind: OpRead, Do: func() error {
		if panics > 0 {
			panics--
			panic("boom")
		}
		return nil
	}}
	sup := New(app, Config{Seed: 41})
	rep, err := sup.Run([]Op{op})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Recovered != 1 || rep.OpsFailed != 0 {
		t.Fatalf("recovered=%d failed=%d, want 1/0\n%s", rep.Recovered, rep.OpsFailed, rep)
	}
	if ms := rep.Mechanisms[MechPanic]; ms == nil || ms.Failures != 1 {
		t.Errorf("mech stats = %+v, want 1 panic failure", ms)
	}
}

// TestBreakerHalfOpenTrialCloses: after the cooldown an open breaker admits
// one trial episode; a successful recovery closes it again.
func TestBreakerHalfOpenTrialCloses(t *testing.T) {
	app := newStubApp(43)
	const mech = "stub/heals-later"
	// The fault fails a fixed number of executions, then heals: 10 in the
	// first run (initial, 8 ladder retries and the degraded retry, after
	// which the exhausted ladder force-opens the breaker), 1 fast-failed
	// initial in the second run, and 1 more initial failure in the third run
	// whose half-open trial retry then succeeds.
	failsLeft := 12
	op := Op{Name: "heals-later", Kind: OpRead, Do: func() error {
		if failsLeft > 0 {
			failsLeft--
			return faultinject.Fail(mech, taxonomy.SymptomError, "still broken")
		}
		return nil
	}}
	sup := New(app, Config{Seed: 43})
	// First run: breaker opens.
	if rep, err := sup.Run([]Op{op}); err != nil || rep.Mechanisms[mech].BreakerOpens != 1 {
		t.Fatalf("first run: err=%v report=\n%s", err, rep)
	}
	// Second run on the same supervisor, before cooldown: fast-fail.
	rep, err := sup.Run([]Op{op})
	if err != nil || rep.Mechanisms[mech].FastFails != 1 {
		t.Fatalf("pre-cooldown run: err=%v report=\n%s", err, rep)
	}
	// Let the cooldown pass: the next failure is admitted as a half-open
	// trial, and its successful recovery closes the breaker.
	app.env.Advance(breakerCooldown)
	rep, err = sup.Run([]Op{op})
	if err != nil {
		t.Fatalf("post-cooldown run: %v", err)
	}
	if rep.OpsOK != 1 || rep.Recovered != 1 {
		t.Errorf("post-cooldown ok=%d recovered=%d, want 1/1\n%s", rep.OpsOK, rep.Recovered, rep)
	}
	for _, bs := range rep.Breakers {
		if bs.Mechanism == mech && bs.State != BreakerClosed {
			t.Errorf("breaker %s = %s, want closed after successful trial", mech, bs.State)
		}
	}
}

// TestRunDeterminism: identical seeds produce identical reports.
func TestRunDeterminism(t *testing.T) {
	render := func() string {
		srv, sc := httpdUnder(t, httpd.MechFSFull, 53)
		sc.Stage()
		sup := New(srv, Config{Seed: 53})
		rep, err := sup.Run(wrapOps(sc.Ops, OpRead))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return rep.String()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("two identical runs diverged:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

// TestSqldbDegradedReadOnly: the database's degraded mode rejects writes with
// ErrReadOnly and keeps answering SELECTs.
func TestSqldbDegradedReadOnly(t *testing.T) {
	env := simenv.New(61)
	db := sqldb.New(env, faultinject.NewSet())
	if err := db.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer db.Stop()
	mustExec := func(sql string) {
		t.Helper()
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE t (id INT, name TEXT)")
	mustExec("INSERT INTO t VALUES (1, 'a')")
	db.SetDegraded(true)
	if _, err := db.Exec("INSERT INTO t VALUES (2, 'b')"); !errors.Is(err, sqldb.ErrReadOnly) {
		t.Errorf("degraded INSERT err = %v, want ErrReadOnly", err)
	}
	rs, err := db.Exec("SELECT id, name FROM t")
	if err != nil {
		t.Fatalf("degraded SELECT: %v", err)
	}
	if len(rs.Rows) != 1 {
		t.Errorf("degraded SELECT rows = %d, want 1", len(rs.Rows))
	}
	db.SetDegraded(false)
	mustExec("INSERT INTO t VALUES (2, 'b')")
}

// TestHttpdDegradedServesOnFullDisk: with the disk full and logging the only
// blocked path, degraded mode serves static content that full service cannot.
func TestHttpdDegradedServesOnFullDisk(t *testing.T) {
	srv, sc := httpdUnder(t, httpd.MechFSFull, 67)
	sc.Stage()
	if err := srv.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Stop()
	if _, err := srv.Serve(httpd.Request{Method: "GET", Path: "/index.html"}); err == nil {
		t.Fatal("full-service GET on a full disk should fail")
	}
	srv.SetDegraded(true)
	resp, err := srv.Serve(httpd.Request{Method: "GET", Path: "/index.html"})
	if err != nil || resp.Status != 200 {
		t.Errorf("degraded GET = (%+v, %v), want 200", resp, err)
	}
}

// TestRungAndEventNames pins the human-readable names reports rely on.
func TestRungAndEventNames(t *testing.T) {
	wantRungs := []string{"retry", "microreboot", "restore", "restart", "degraded"}
	for i, r := range Rungs() {
		if r.String() != wantRungs[i] {
			t.Errorf("rung %d = %q, want %q", i, r, wantRungs[i])
		}
	}
	if !strings.Contains((&Report{Mechanisms: map[string]*MechStats{}, Escalations: map[Rung]int{}}).String(), "Supervisor report") {
		t.Error("report header missing")
	}
}

// TestBackoffInjectedRandReproducible: the jittered sequence is a function
// of the generator's seed — equal seeds agree, different seeds differ.
func TestBackoffInjectedRandReproducible(t *testing.T) {
	mk := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		out := make([]time.Duration, 0, 6)
		for i := 1; i <= 6; i++ {
			out = append(out, backoff(i, rng))
		}
		return out
	}
	a, b := mk(7), mk(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", i+1, a[i], b[i])
		}
	}
	c := mk(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jittered sequences")
	}
}

// TestBackoffScheduleMatchesEagerSeeding checks, across seeds, that every
// jittered delay a supervisor draws is the one a dedicated
// rand.New(rand.NewSource(seed)) would make it, so the schedule depends on
// the config seed alone.
func TestBackoffScheduleMatchesEagerSeeding(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		sup := New(newStubApp(seed), Config{Seed: seed})
		ref := rand.New(rand.NewSource(seed))
		for i, pure := range backoffShape {
			want := pure + time.Duration(float64(pure)*backoffJitter*ref.Float64())
			if d := backoff(i+1, sup.rng); d != want {
				t.Fatalf("seed %d attempt %d: delay %v, want %v", seed, i+1, d, want)
			}
		}
	}
}

// TestEpisodeDurationStampedAtDecisionTime is the regression test for the
// percentile misreport: an episode's duration must be stamped when the
// supervisor reaches its verdict — after every backoff slept and every
// watchdog charge incurred — not when the last recovery action ran. An
// episode that ends mid-ladder (crash-loop trip into a shed) previously
// excluded its trailing watchdog charge from the percentile sample.
func TestEpisodeDurationStampedAtDecisionTime(t *testing.T) {
	// backoffs collects the traced backoff delays per op.
	backoffs := map[string][]time.Duration{}
	cfg := Config{Trace: func(ev Event) {
		if ev.Kind == EventBackoff {
			backoffs[ev.Op] = append(backoffs[ev.Op], ev.Delay)
		}
	}}
	sum := func(ds []time.Duration) (total time.Duration) {
		for _, d := range ds {
			total += d
		}
		return total
	}

	// Served case: one hang, one backoff, then success. The repair duration
	// must be hang + first backoff exactly.
	srv, _ := httpdUnder(t, httpd.MechNullDeref, 7) // mechanism unused; no scenario ops run
	failures := 1
	op := Op{Name: "flaky", Kind: OpRead, Do: func() error {
		if failures > 0 {
			failures--
			return faultinject.Fail("httpd/test-hang", taxonomy.SymptomHang, "wedged")
		}
		return nil
	}}
	sup := New(srv, cfg)
	rep, err := sup.Run([]Op{op})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(backoffs["flaky"]) != 1 {
		t.Fatalf("backoffs = %v, want exactly one", backoffs["flaky"])
	}
	wantServed := watchdogTimeout + backoffs["flaky"][0] // initial hang charge + backoff(1)
	if len(rep.EpisodeDurations) != 1 || rep.EpisodeDurations[0] != wantServed {
		t.Fatalf("EpisodeDurations = %v, want [%s]", rep.EpisodeDurations, wantServed)
	}
	if len(rep.RepairDurations) != 1 || rep.RepairDurations[0] != wantServed {
		t.Fatalf("RepairDurations = %v, want [%s]", rep.RepairDurations, wantServed)
	}
	if s := rep.String(); !strings.Contains(s, "episodes: 1") || !strings.Contains(s, "MTTR (served episodes)") {
		t.Fatalf("report missing episode percentiles:\n%s", s)
	}

	// Mid-ladder case: a read that always hangs spends 9 of the retry
	// budget, so the always-hanging write after it trips the crash loop on
	// its fourth budget check and is shed at the degraded rung. The write's
	// episode duration must still include its last retry's trailing watchdog
	// charge: hang + 3 × (backoff + hang).
	srv2, _ := httpdUnder(t, httpd.MechNullDeref, 8)
	sup2 := New(srv2, cfg)
	rep2, err := sup2.Run([]Op{
		wedged("wedged-read", "httpd/test-hang", OpRead),
		wedged("wedged-write", "httpd/test-hang-write", OpWrite),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep2.OpsShed != 1 || rep2.CrashLoopTrips != 1 {
		t.Fatalf("OpsShed = %d, CrashLoopTrips = %d, want 1/1 (crash loop should shed the write)",
			rep2.OpsShed, rep2.CrashLoopTrips)
	}
	writeBackoffs := backoffs["wedged-write"]
	if len(writeBackoffs) != 3 {
		t.Fatalf("write backoffs = %v, want 3 before the crash loop", writeBackoffs)
	}
	wantShed := watchdogTimeout + sum(writeBackoffs) + 3*watchdogTimeout
	if len(rep2.EpisodeDurations) != 2 || rep2.EpisodeDurations[1] != wantShed {
		t.Fatalf("EpisodeDurations = %v, want [_ %s] (must include the trailing watchdog charge)",
			rep2.EpisodeDurations, wantShed)
	}
	if len(rep2.RepairDurations) != 0 {
		t.Fatalf("RepairDurations = %v, want empty (no op was served)", rep2.RepairDurations)
	}
}

// TestMicrorebootTargetsFaultyComponent drives the EDN fd-exhaustion leak
// against the componentized httpd: in-place retries cannot un-leak
// descriptors, so the ladder escalates to the microreboot rung, which must
// reboot only the attributed core component — after which the retry succeeds
// because the crash-only kill closed every leaked descriptor. Sessions,
// living in the externalized store, must survive the whole run.
func TestMicrorebootTargetsFaultyComponent(t *testing.T) {
	env := simenv.New(7, simenv.WithFDLimit(16), simenv.WithProcLimit(192))
	c := httpd.Componentize(
		httpd.New(env, faultinject.NewSet(httpd.MechFDExhaustion), httpd.Config{}),
		component.NewStore())

	var actions []Event
	cfg := Config{Seed: 7, Trace: func(ev Event) {
		if ev.Kind == EventAction {
			actions = append(actions, ev)
		}
	}}
	sup := New(c, cfg)

	ops := make([]Op, 0, 40)
	for i := 0; i < 40; i++ {
		ops = append(ops, Op{Name: fmt.Sprintf("GET-/-%02d", i), Kind: OpRead, Do: func() error {
			_, err := c.Serve(httpd.Request{Method: "GET", Path: "/", Session: "alice"})
			return err
		}})
	}
	rep, err := sup.Run(ops)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.OpsFailed != 0 || rep.OpsShed != 0 {
		t.Fatalf("ops failed=%d shed=%d, want 0/0\n%s", rep.OpsFailed, rep.OpsShed, rep)
	}
	if rep.Recovered == 0 {
		t.Fatal("expected at least one recovered episode")
	}
	if rep.Escalations[RungMicroreboot] == 0 {
		t.Fatalf("escalations = %v, want microreboot reached", rep.Escalations)
	}
	for _, r := range []Rung{RungRestore, RungRestart, RungDegraded} {
		if rep.Escalations[r] != 0 {
			t.Fatalf("escalated past microreboot (%v): the component reboot must suffice", rep.Escalations)
		}
	}
	var targeted int
	for _, ev := range actions {
		if ev.Rung == RungMicroreboot {
			if ev.Component != httpd.CompCore {
				t.Fatalf("microreboot action component = %q, want %q", ev.Component, httpd.CompCore)
			}
			targeted++
		} else if ev.Component != "" {
			t.Fatalf("%s action carries component %q, want empty", ev.Rung, ev.Component)
		}
	}
	if targeted == 0 {
		t.Fatal("no microreboot action events recorded")
	}
	if got := c.Tree().Reboots(httpd.CompCore); got == 0 {
		t.Fatal("core component was never rebooted")
	}
	// Siblings were never cycled: only the attributed component rebooted.
	for _, name := range []string{httpd.CompLogger, httpd.CompCache, httpd.CompCGI, httpd.CompListener} {
		if got := c.Tree().Reboots(name); got != 0 {
			t.Fatalf("sibling %s rebooted %d times, want 0", name, got)
		}
	}
	// The session counter counted every served op: it survived each reboot.
	if got := c.SessionDepth("alice"); got != int64(rep.OpsOK) {
		t.Fatalf("session depth = %d, want %d (one per served op)", got, rep.OpsOK)
	}
}

// TestMicrorebootWidensToSubtree drives the EI null-deref crash: the first
// microreboot attempt cycles only the attributed core component, and when
// the deterministic bug recurs the rung's second attempt must widen to the
// core's dependent subtree before the ladder escalates past it.
func TestMicrorebootWidensToSubtree(t *testing.T) {
	env := simenv.New(9, simenv.WithFDLimit(64), simenv.WithProcLimit(192))
	c := httpd.Componentize(
		httpd.New(env, faultinject.NewSet(httpd.MechNullDeref), httpd.Config{}),
		component.NewStore())

	var microAttempts int
	cfg := Config{Seed: 9, Trace: func(ev Event) {
		if ev.Kind == EventAction && ev.Rung == RungMicroreboot {
			if ev.Component != httpd.CompCore {
				t.Errorf("microreboot component = %q, want %q", ev.Component, httpd.CompCore)
			}
			microAttempts++
		}
	}}
	sup := New(c, cfg)
	_, err := sup.Run([]Op{{Name: "GET /bug/null-deref", Kind: OpRead, Do: func() error {
		_, err := c.Serve(httpd.Request{Method: "GET", Path: "/bug/null-deref"})
		return err
	}}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if microAttempts != 2 {
		t.Fatalf("microreboot attempts = %d, want 2", microAttempts)
	}
	// Attempt 1 rebooted core alone; attempt 2 widened to the subtree, which
	// cycles core's dependents exactly once each.
	if got := c.Tree().Reboots(httpd.CompCore); got != 2 {
		t.Fatalf("core reboots = %d, want 2", got)
	}
	for _, name := range []string{httpd.CompLogger, httpd.CompCache, httpd.CompCGI, httpd.CompListener} {
		if got := c.Tree().Reboots(name); got != 1 {
			t.Fatalf("%s reboots = %d, want 1 (subtree widening only)", name, got)
		}
	}
}
