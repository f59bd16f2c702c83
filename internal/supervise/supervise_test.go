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

func TestBackoffScheduleShape(t *testing.T) {
	cfg := Config{BackoffBase: time.Second, BackoffCap: 8 * time.Second, BackoffJitter: -1}
	got := BackoffSchedule(cfg, 6)
	want := []time.Duration{
		time.Second, 2 * time.Second, 4 * time.Second,
		8 * time.Second, 8 * time.Second, 8 * time.Second, // capped
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("delay[%d] = %s, want %s", i, got[i], want[i])
		}
	}

	// With jitter: every delay lies in [pure, pure*(1+jitter)] and the
	// sequence is reproducible from the seed.
	cfg = Config{BackoffBase: time.Second, BackoffCap: 8 * time.Second, BackoffJitter: 0.5, Seed: 42}
	a := BackoffSchedule(cfg, 6)
	b := BackoffSchedule(cfg, 6)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule not reproducible at %d: %s vs %s", i, a[i], b[i])
		}
		lo, hi := want[i], want[i]+want[i]/2
		if a[i] < lo || a[i] > hi {
			t.Errorf("jittered delay[%d] = %s outside [%s, %s]", i, a[i], lo, hi)
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
// fast-fail without spending retries.
func TestBreakerOpensOnEnvironmentIndependentFault(t *testing.T) {
	srv, sc := httpdUnder(t, httpd.MechValistReuse, 5)
	cfg := Config{Seed: 5, BreakerThreshold: 3, RungAttempts: 2}
	sup := New(srv, cfg)
	// The same deterministic-crash op three times.
	op := wrapOps(sc.Ops, OpRead)[0]
	rep, err := sup.Run([]Op{op, op, op})
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
	if ms.Retries != 3 {
		t.Errorf("retries = %d, want 3 (threshold reached within the budget)", ms.Retries)
	}
	if ms.FastFails != 2 {
		t.Errorf("fast fails = %d, want 2 (ops after the breaker opened)", ms.FastFails)
	}
	if ms.Recoveries != 0 {
		t.Errorf("recoveries = %d, want 0", ms.Recoveries)
	}
	if rep.OpsFailed != 3 {
		t.Errorf("ops failed = %d, want 3", rep.OpsFailed)
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
	if rep.Degraded {
		t.Error("breaker must stop the ladder before degraded mode")
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
// ladder with an unreachable breaker threshold: degraded mode is entered, the
// degraded retry still fails (the fault is not a resource condition), so
// degraded mode is reverted, the breaker force-opens, and full service
// resumes for the rest of the workload.
func TestDegradedRetryFailureReverts(t *testing.T) {
	srv, sc := httpdUnder(t, httpd.MechValistReuse, 11)
	sup := New(srv, Config{Seed: 11, BreakerThreshold: 99, RungAttempts: 1})
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
// episode sleeps exactly the delays BackoffSchedule predicts for its config.
func TestBackoffTraceMatchesSchedule(t *testing.T) {
	var delays []time.Duration
	cfg := Config{Seed: 21, BreakerThreshold: 3, RungAttempts: 2,
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
	want := BackoffSchedule(Config{Seed: 21}, len(delays))
	if len(delays) == 0 {
		t.Fatal("no backoff events traced")
	}
	var total time.Duration
	for i := range delays {
		if delays[i] != want[i] {
			t.Errorf("backoff[%d] = %s, want %s", i, delays[i], want[i])
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
	wd := 45 * time.Second
	sup := New(app, Config{Seed: 31, WatchdogTimeout: wd})
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
	if got := app.env.Monotonic(); got < wd {
		t.Errorf("virtual clock advanced %s, want >= %s (the hang was charged)", got, wd)
	}
}

// TestWallClockWatchdogAbandonsBlockedOp: an op that genuinely blocks is
// abandoned after WallTimeout, every retry times out too, the retry budget
// trips the crash-loop guard, and the degraded retry failure reverts degraded
// mode — the op is lost but the supervisor survives.
func TestWallClockWatchdogAbandonsBlockedOp(t *testing.T) {
	app := newStubApp(37)
	block := make(chan struct{})
	defer close(block)
	op := Op{Name: "blocked", Kind: OpRead, Do: func() error {
		<-block
		return nil
	}}
	sup := New(app, Config{Seed: 37, WallTimeout: 25 * time.Millisecond, RetryBudget: 2, RungAttempts: 1})
	rep, err := sup.Run([]Op{op})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.OpsFailed != 1 {
		t.Errorf("ops failed = %d, want 1\n%s", rep.OpsFailed, rep)
	}
	ms := rep.Mechanisms[MechWatchdog]
	if ms == nil || ms.WatchdogTimeouts == 0 {
		t.Fatalf("mech stats = %+v, want wall watchdog timeouts", ms)
	}
	if rep.CrashLoopTrips != 1 {
		t.Errorf("crash loop trips = %d, want 1 (retry budget of 2 exhausted)", rep.CrashLoopTrips)
	}
	if rep.Degraded {
		t.Error("degraded mode should have been reverted after the degraded retry also blocked")
	}
	var open bool
	for _, bs := range rep.Breakers {
		if bs.Mechanism == MechWatchdog && bs.State == BreakerOpen {
			open = true
		}
	}
	if !open {
		t.Errorf("breakers = %+v, want %s open", rep.Breakers, MechWatchdog)
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
	// The fault fails a fixed number of executions, then heals: 3 in the
	// first run (initial + two retries, opening the breaker at threshold 2),
	// 1 fast-failed initial in the second run, and 1 more initial failure in
	// the third run whose half-open trial retry then succeeds.
	failsLeft := 5
	op := Op{Name: "heals-later", Kind: OpRead, Do: func() error {
		if failsLeft > 0 {
			failsLeft--
			return faultinject.Fail(mech, taxonomy.SymptomError, "still broken")
		}
		return nil
	}}
	cooldown := 10 * time.Minute
	sup := New(app, Config{Seed: 43, BreakerThreshold: 2, RungAttempts: 1, BreakerCooldown: cooldown})
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
	app.env.Advance(cooldown)
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

func TestBackoffInjectedRandReproducible(t *testing.T) {
	mk := func(seed int64) []time.Duration {
		b := newBackoff(10*time.Millisecond, 500*time.Millisecond, 0.5, seededRand(seed))
		out := make([]time.Duration, 0, 6)
		for i := 1; i <= 6; i++ {
			out = append(out, b.next(i))
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
// jittered delay is the one a dedicated rand.New(rand.NewSource(seed)) would
// make it, so the schedule depends on the config seed alone.
func TestBackoffScheduleMatchesEagerSeeding(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		cfg := Config{Seed: seed, BackoffBase: 10 * time.Millisecond, BackoffCap: time.Second, BackoffJitter: 0.5}
		got := BackoffSchedule(cfg, 12)
		ref := rand.New(rand.NewSource(seed))
		plain := newBackoff(cfg.BackoffBase, cfg.BackoffCap, 0, nil)
		for i, d := range got {
			base := plain.next(i + 1)
			want := base + time.Duration(float64(base)*cfg.BackoffJitter*ref.Float64())
			if d != want {
				t.Fatalf("seed %d attempt %d: delay %v, want %v", seed, i+1, d, want)
			}
		}
	}
}

func TestBackoffNilRandDisablesJitter(t *testing.T) {
	b := newBackoff(10*time.Millisecond, 500*time.Millisecond, 0.5, nil)
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	for i, w := range want {
		if got := b.next(i + 1); got != w {
			t.Errorf("attempt %d: delay %v, want exact %v (nil rng must mean no jitter)", i+1, got, w)
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
	const hangCharge = 30 * time.Second

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
	cfg := Config{
		WatchdogTimeout: hangCharge,
		BackoffBase:     time.Second,
		BackoffJitter:   -1, // exact schedule
		RungAttempts:    1,
	}
	sup := New(srv, cfg)
	rep, err := sup.Run([]Op{op})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantServed := hangCharge + time.Second // initial hang charge + backoff(1)
	if len(rep.EpisodeDurations) != 1 || rep.EpisodeDurations[0] != wantServed {
		t.Fatalf("EpisodeDurations = %v, want [%s]", rep.EpisodeDurations, wantServed)
	}
	if len(rep.RepairDurations) != 1 || rep.RepairDurations[0] != wantServed {
		t.Fatalf("RepairDurations = %v, want [%s]", rep.RepairDurations, wantServed)
	}
	if s := rep.String(); !strings.Contains(s, "episodes: 1") || !strings.Contains(s, "MTTR (served episodes)") {
		t.Fatalf("report missing episode percentiles:\n%s", s)
	}

	// Mid-ladder case: the op always hangs and the retry budget is 1, so the
	// second budget check trips the crash loop and the write is shed at the
	// degraded rung. The episode's duration must still include the retry's
	// trailing watchdog charge: hang + backoff(1) + hang.
	srv2, _ := httpdUnder(t, httpd.MechNullDeref, 8)
	always := Op{Name: "wedged-write", Kind: OpWrite, Do: func() error {
		return faultinject.Fail("httpd/test-hang", taxonomy.SymptomHang, "wedged")
	}}
	cfg2 := cfg
	cfg2.RetryBudget = 1
	sup2 := New(srv2, cfg2)
	rep2, err := sup2.Run([]Op{always})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep2.OpsShed != 1 {
		t.Fatalf("OpsShed = %d, want 1 (crash loop should shed the write)", rep2.OpsShed)
	}
	wantShed := hangCharge + time.Second + hangCharge
	if len(rep2.EpisodeDurations) != 1 || rep2.EpisodeDurations[0] != wantShed {
		t.Fatalf("EpisodeDurations = %v, want [%s] (must include the trailing watchdog charge)",
			rep2.EpisodeDurations, wantShed)
	}
	if len(rep2.RepairDurations) != 0 {
		t.Fatalf("RepairDurations = %v, want empty (op was shed, not served)", rep2.RepairDurations)
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
	cfg := Config{Seed: 9, RungAttempts: 2, Trace: func(ev Event) {
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
