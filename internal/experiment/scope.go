package experiment

import (
	"fmt"
	"strings"
	"time"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/faultlint"
	"faultstudy/internal/obsv"
	"faultstudy/internal/parallel"
	"faultstudy/internal/recoveryscope"
	"faultstudy/internal/stats"
	"faultstudy/internal/taxonomy"
)

// Metric names of the SCOPE experiment; the catalogue entry lives in
// OBSERVABILITY.md.
const (
	// MetricScopeSites counts statically analyzed fault-raise sites by app
	// and predicted class.
	MetricScopeSites = "faultstudy_scope_sites_total"
	// MetricScopeClassVerdicts counts per-mechanism class predictions by
	// predicted/truth class and outcome.
	MetricScopeClassVerdicts = "faultstudy_scope_class_verdicts_total"
	// MetricScopeRungVerdicts counts per-mechanism rung predictions by
	// verdict (exact, over, under).
	MetricScopeRungVerdicts = "faultstudy_scope_rung_verdicts_total"
	// MetricScopeProbeEpisodes counts dynamic probe fault episodes by rung
	// and outcome.
	MetricScopeProbeEpisodes = "faultstudy_scope_probe_episodes_total"
)

// scopeBgOps is the background workload length per probe arm; arrivals
// come every arrivalGap, as in MREBOOT.
const scopeBgOps = 40

// CI gate thresholds: the static class prediction must agree with the
// registry on at least scopeClassRecallFloor of the mechanisms, and on
// environment-independent faults the predicted rung may fall below the
// dynamically measured minimal rung (an under-scoped recovery plan that
// would strand real faults) on at most scopeEIUnderScopeCeil of them.
const (
	scopeClassRecallFloor = 0.85
	scopeEIUnderScopeCeil = 0.05
)

// ScopeConfig tunes the SCOPE experiment: whole-program static prediction of
// every registered mechanism's fault class and minimal recovery rung, scored
// against the registry and a dynamic per-rung probe sweep.
type ScopeConfig struct {
	// Seed drives every probe arm's environment and schedule stream.
	Seed int64
	// Telemetry, when non-nil, receives the scope metric family. Nil costs
	// nothing.
	Telemetry *Telemetry
	// Workers bounds the worker pool the probe arms are sharded over (0 or
	// negative means one per processor; 1 is serial). Reports and telemetry
	// are byte-identical at every worker count.
	Workers int
	// Root overrides the module root the application sources are loaded
	// from ("" walks up from the working directory to the nearest go.mod).
	Root string
}

// ScopeArm is one (mechanism, rung) probe cell: the application run under
// workload with every fault episode recovered at exactly that rung.
type ScopeArm struct {
	// Mechanism is the seeded bug active in this arm.
	Mechanism string
	// App is the application hosting the bug.
	App taxonomy.Application
	// Rung is the recovery rung under test.
	Rung recoveryscope.Rung
	// Episodes counts fault episodes (any arrival failing with a seeded
	// fault).
	Episodes int
	// Recovered counts episodes whose arrival was eventually served.
	Recovered int
	// BgUnserved counts background arrivals that were never served —
	// residue the rung failed to clear.
	BgUnserved int
	// Cured is the arm's verdict: at least one episode, every background
	// arrival served, and the process plus the whole component tree alive
	// at the end of the workload.
	Cured bool
}

// ScopeMech is the per-mechanism scorecard: the static prediction against
// the registry truth and the probe-measured minimal rung.
type ScopeMech struct {
	// Mechanism is the registry key.
	Mechanism string
	// App is the hosting application.
	App taxonomy.Application
	// TruthClass is the registry's class; StaticClass the analysis verdict.
	TruthClass, StaticClass taxonomy.FaultClass
	// StaticRung is the predicted minimal rung; TruthRung the cheapest rung
	// whose probe arm cured (RungRestart when none did — the ladder's
	// ceiling is the honest floor for an uncurable fault).
	StaticRung, TruthRung recoveryscope.Rung
	// Curable reports whether any rung's probe cured the mechanism.
	Curable bool
	// Component is the statically predicted owning component.
	Component string
	// Sites counts the mechanism's raise sites.
	Sites int
	// Interprocedural marks mechanisms whose class needed call-graph
	// evidence.
	Interprocedural bool
}

// ClassOK reports whether the static class matches the registry.
func (m ScopeMech) ClassOK() bool { return m.StaticClass == m.TruthClass }

// RungVerdict compares the predicted rung against the measured one:
// "exact", "over" (paid too much — safe), or "under" (predicted a rung that
// does not cure — the dangerous direction).
func (m ScopeMech) RungVerdict() string {
	switch {
	case m.StaticRung == m.TruthRung:
		return "exact"
	case m.StaticRung > m.TruthRung:
		return "over"
	default:
		return "under"
	}
}

// ScopeReport is the assembled experiment: per-mechanism scorecards in key
// order, the probe arms behind them, and the static site count.
type ScopeReport struct {
	// Seed is the probe sweep's root seed.
	Seed int64
	// Mechs are the scorecards, in registry key order.
	Mechs []ScopeMech
	// Arms are the probe cells, in (mechanism, rung) order.
	Arms []ScopeArm
	// Sites counts the statically analyzed raise sites.
	Sites int
}

// RunScope runs the SCOPE experiment. The static half loads the application
// sources and predicts, per mechanism, the fault class and the minimal
// recovery rung (internal/recoveryscope). The dynamic half probes every
// (mechanism, rung) cell: a componentized application under workload whose
// every fault episode is recovered at exactly that rung, curing when service
// is fully restored. The scorecard compares prediction against the registry
// class and the cheapest curing rung.
//
// Probe arms are independent shards on a pool of cfg.Workers workers, each
// deriving its seed from (Seed, arm index); shards reduce in fixed arm
// order, so reports and telemetry are byte-identical at every worker count.
func RunScope(cfg ScopeConfig) (*ScopeReport, error) {
	root := cfg.Root
	if root == "" {
		var err error
		if root, err = ModuleRoot(); err != nil {
			return nil, err
		}
	}
	pkgs, err := faultlint.Load(root, []string{"internal/apps/..."})
	if err != nil {
		return nil, fmt.Errorf("experiment: scope: load sources: %w", err)
	}
	analysis := recoveryscope.Analyze(pkgs)
	byMech := analysis.ByMechanism()

	reg := Registry()
	keys := reg.Keys()
	rungs := recoveryscope.Rungs()
	rep := &ScopeReport{Seed: cfg.Seed, Sites: len(analysis.Sites)}
	curedAt := make(map[string]recoveryscope.Rung, len(keys))
	err = sweep(cfg.Workers, len(keys)*len(rungs), cfg.Telemetry, func(i int, tel *Telemetry) (ScopeArm, error) {
		mech, _ := reg.Lookup(keys[i/len(rungs)])
		return runScopeArm(cfg, i, mech, rungs[i%len(rungs)], byMech[mech.Key].Rung, tel)
	}, func(_ int, a ScopeArm) {
		rep.Arms = append(rep.Arms, a)
		if _, ok := curedAt[a.Mechanism]; a.Cured && !ok {
			curedAt[a.Mechanism] = a.Rung // arms arrive in ladder order
		}
	})
	if err != nil {
		return nil, err
	}

	for _, key := range keys {
		mech, _ := reg.Lookup(key)
		sm := ScopeMech{Mechanism: key, App: mech.App, TruthClass: mech.Class()}
		if mp, ok := byMech[key]; ok {
			sm.StaticClass = mp.Class
			sm.StaticRung = mp.Rung
			sm.Component = mp.Component
			sm.Sites = mp.Sites
			sm.Interprocedural = mp.Interprocedural
		}
		if rung, ok := curedAt[key]; ok {
			sm.TruthRung, sm.Curable = rung, true
		} else {
			// Nothing cures (a persistent environment condition): the
			// ladder's top is the minimal honest plan.
			sm.TruthRung = recoveryscope.RungRestart
		}
		rep.Mechs = append(rep.Mechs, sm)
	}
	rep.observe(cfg.Telemetry, analysis)
	return rep, nil
}

// observe folds the scorecard into the telemetry registry (deterministic:
// fixed iteration orders only).
func (r *ScopeReport) observe(tel *Telemetry, analysis *recoveryscope.Analysis) {
	if tel == nil {
		return
	}
	for _, s := range analysis.Sites {
		app := ""
		if len(s.Mechanisms) > 0 {
			app, _, _ = strings.Cut(s.Mechanisms[0], "/")
		}
		if app == "" {
			app = "none"
		}
		tel.Registry.Counter(MetricScopeSites,
			obsv.L("app", app, "class", s.Class.Short())...).Inc()
	}
	for _, m := range r.Mechs {
		outcome := "miss"
		if m.ClassOK() {
			outcome = "match"
		}
		tel.Registry.Counter(MetricScopeClassVerdicts,
			obsv.L("app", m.App.String(), "predicted", m.StaticClass.Short(),
				"truth", m.TruthClass.Short(), "outcome", outcome)...).Inc()
		tel.Registry.Counter(MetricScopeRungVerdicts,
			obsv.L("app", m.App.String(), "predicted", m.StaticRung.String(),
				"truth", m.TruthRung.String(), "verdict", m.RungVerdict())...).Inc()
	}
	for _, a := range r.Arms {
		outcome := "uncured"
		if a.Cured {
			outcome = "cured"
		}
		tel.Registry.Counter(MetricScopeProbeEpisodes,
			obsv.L("app", a.App.String(), "rung", a.Rung.String(),
				"outcome", outcome)...).Add(float64(a.Episodes))
	}
}

// scopeRun is the per-arm state shared by the workload loop and the episode
// handler.
type scopeRun struct {
	recoverer
	scopeRung recoveryscope.Rung
	app       componentApp
	arm       *ScopeArm
	preOp     []byte // the checkpoint taken before the arrival in flight
	target    string
	hasTarget bool
}

// runScopeArm probes one (mechanism, rung) cell. Everything it does is a
// pure function of (cfg, arm index); it shares no state with other arms.
// planned is the statically predicted minimal rung for the mechanism
// (RungNone when the analysis found no site), stamped onto the recorded
// episodes so the telemetry summary reads planned against final.
func runScopeArm(cfg ScopeConfig, armIdx int, mech faultinject.Mechanism, rung recoveryscope.Rung, planned recoveryscope.Rung, tel *Telemetry) (ScopeArm, error) {
	arm := ScopeArm{Mechanism: mech.Key, App: mech.App, Rung: rung}
	drv, sc, err := startComponentArm("scope", rung.String(), mech, parallel.Derive(cfg.Seed, uint64(armIdx)))
	if err != nil {
		return arm, err
	}
	app := drv.app
	// Detection is free here: the probe measures which rung cures, not what
	// the wait costs.
	run := &scopeRun{scopeRung: rung, app: app, arm: &arm}
	run.recoverer = recoverer{env: app.Env(), rec: tel.recorder(), key: mech.Key, rung: rung.String(),
		act: run.applyRung}
	ctx := armContext(mech)
	if planned != recoveryscope.RungNone {
		ctx.PlannedRung = planned.String()
	}
	run.rec.SetContext(ctx)
	run.target, run.hasTarget = app.ComponentFor(mech.Key)

	for _, a := range spliceArrivals(drv, sc.Ops, scopeBgOps) {
		run.env.Advance(arrivalGap)
		if run.preOp, err = app.Snapshot(); err != nil {
			return arm, fmt.Errorf("experiment: scope %s × %s: checkpoint: %w", mech.Key, rung, err)
		}
		opErr := a.do()
		if opErr == nil {
			continue
		}
		if _, isFault := faultinject.AsFailure(opErr); isFault && run.episode(a, opErr) {
			continue
		}
		// An abandoned episode, or a plain failure — most often a dead
		// process the rung's action failed to revive. Only unserved
		// background traffic counts against the cure (the trigger is the
		// fault itself).
		if !a.trigger {
			arm.BgUnserved++
		}
	}
	arm.Cured = arm.Episodes >= 1 && arm.BgUnserved == 0 &&
		app.Running() && app.Tree().AllRunning()
	app.Stop()
	return arm, nil
}

// episode recovers one faulted arrival at exactly the arm's rung and closes
// it: a served retry earns an "ok" retry span carrying its attempt; an
// abandoned arrival gets one final rung action (attempt recoverAttempts+1)
// so abandonment still leaves whatever revival the rung can buy. It reports
// whether the arrival was served.
func (r *scopeRun) episode(a arrival, opErr error) bool {
	r.arm.Episodes++
	_, servedOn := r.recoverOp(a.name, opErr, a.do)
	if servedOn > 0 {
		end := r.env.Monotonic()
		r.arm.Recovered++
		r.rec.Note(end, obsv.Span{Kind: obsv.SpanRetry, Rung: r.rung,
			Attempt: servedOn, Outcome: "ok"})
		r.rec.End(end, obsv.OutcomeRecovered, r.rung)
		return true
	}
	final := recoverAttempts + 1
	target := r.applyRung(final)
	perturb(r.env, r.key, final)
	end := r.env.Monotonic()
	r.rec.Note(end, obsv.Span{Kind: obsv.SpanAction, Rung: r.rung,
		Attempt: final, Outcome: "ok", Component: target})
	r.rec.End(end, obsv.OutcomeLost, r.rung)
	return false
}

// applyRung performs one recovery action at the arm's rung and returns the
// component a structural rung targeted ("" for process-level rungs), for
// the action span. Process-level rungs never advance the clock, and restart
// resets without re-warming.
//
// The retry rung deliberately performs no structural recovery — a crashed
// process cannot retry itself back to life; measuring that is the point.
func (r *scopeRun) applyRung(int) string {
	app := r.app
	switch r.scopeRung {
	case recoveryscope.RungMicroreboot, recoveryscope.RungSubtreeReboot:
		app.ContainCrash()
		if r.hasTarget {
			rebootComponent(app.Tree(), r.target, r.scopeRung == recoveryscope.RungSubtreeReboot, func(time.Duration) {})
			return r.target
		}
	case recoveryscope.RungRestore:
		app.Stop()
		reinstate(app, r.preOp)
	case recoveryscope.RungRestart:
		app.Stop()
		app.Env().ReclaimOwner(app.Name())
		_ = app.Reset()
	}
	return ""
}

// scopeTally is the scorecard sum of one truth class, or of every mechanism.
type scopeTally struct {
	// recall counts mechanisms whose static class matches the registry.
	recall stats.Proportion
	// exact, over and under count rung verdicts.
	exact, over, under int
}

// tally sums the scorecards of one truth class, or of every mechanism when
// all is set.
func (r *ScopeReport) tally(class taxonomy.FaultClass, all bool) scopeTally {
	var t scopeTally
	for _, m := range r.Mechs {
		if !all && m.TruthClass != class {
			continue
		}
		t.recall.Add(m.ClassOK())
		switch m.RungVerdict() {
		case "exact":
			t.exact++
		case "over":
			t.over++
		default:
			t.under++
		}
	}
	return t
}

// row renders a tally's recall and verdict columns.
func (t scopeTally) row(label string) []string {
	return []string{label, fmt.Sprint(t.recall.N), fractionCell(t.recall.Hits, t.recall.N),
		fmt.Sprint(t.exact), fmt.Sprint(t.over), fmt.Sprint(t.under)}
}

// Check asserts the SCOPE gates: overall class recall at or above
// scopeClassRecallFloor, and EI under-scoping at or below
// scopeEIUnderScopeCeil.
func (r *ScopeReport) Check() error {
	recall := r.tally(taxonomy.ClassEnvIndependent, true).recall
	if recall.N == 0 {
		return fmt.Errorf("experiment: scope check: no mechanisms scored")
	}
	if float64(recall.Hits) < scopeClassRecallFloor*float64(recall.N) {
		return fmt.Errorf("experiment: scope check: class recall %d/%d below %.0f%%",
			recall.Hits, recall.N, scopeClassRecallFloor*100)
	}
	ei := r.tally(taxonomy.ClassEnvIndependent, false)
	if float64(ei.under) > scopeEIUnderScopeCeil*float64(ei.recall.N) {
		return fmt.Errorf("experiment: scope check: EI under-scoped %d/%d above %.0f%%",
			ei.under, ei.recall.N, scopeEIUnderScopeCeil*100)
	}
	return nil
}

// String renders the scorecard: the per-class recall and rung-verdict
// matrix, the mechanisms the prediction got wrong, and the headline.
func (r *ScopeReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SCOPE experiment (seed %d, %d mechanisms, %d sites, %d probe arms):\n",
		r.Seed, len(r.Mechs), r.Sites, len(r.Arms))
	tbl := &stats.Table{Header: []string{
		"truth class", "mechs", "class recall", "rung exact", "over", "under"}}
	for _, class := range taxonomy.Classes() {
		tbl.Add(r.tally(class, false).row(class.Short())...)
	}
	all := r.tally(taxonomy.ClassEnvIndependent, true)
	tbl.Add(all.row("all")...)
	b.WriteString(tbl.String())

	var misses []string
	for _, m := range r.Mechs {
		if m.ClassOK() && m.RungVerdict() != "under" {
			continue
		}
		misses = append(misses, fmt.Sprintf("  %-28s class %s->%s rung %s->%s (%s)",
			m.Mechanism, m.TruthClass.Short(), m.StaticClass.Short(),
			m.TruthRung, m.StaticRung, m.RungVerdict()))
	}
	if len(misses) > 0 {
		fmt.Fprintf(&b, "\nDisagreements (truth->static):\n%s\n", strings.Join(misses, "\n"))
	}
	ei := r.tally(taxonomy.ClassEnvIndependent, false)
	fmt.Fprintf(&b,
		"\nHeadline: from source alone the analysis recovers the fault class of %d/%d seeded\nmechanisms and under-scopes recovery on %d/%d environment-independent faults —\nthe recovery ladder can be planned before the first failure ever fires.\n",
		all.recall.Hits, all.recall.N, ei.under, ei.recall.N)
	return b.String()
}
