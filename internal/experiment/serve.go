package experiment

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"faultstudy/internal/component"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/obsv"
	"faultstudy/internal/parallel"
	"faultstudy/internal/stats"
	"faultstudy/internal/taxonomy"
	"faultstudy/internal/traffic"
	"faultstudy/internal/workload"
)

// Metric names of the SERVE experiment; the catalogue entry lives in
// OBSERVABILITY.md.
const (
	// MetricServeRequests counts scheduled arrivals by final outcome.
	MetricServeRequests = "faultstudy_serve_requests_total"
	// MetricServeRequestLatency is the per-request latency histogram
	// (RequestLatencyBuckets): service latency for clean serves, service plus
	// the full recovery wait for requests that rode out an episode.
	MetricServeRequestLatency = "faultstudy_serve_request_latency_seconds"
	// MetricServeEpisodes counts fault episodes opened mid-traffic by outcome.
	MetricServeEpisodes = "faultstudy_serve_episodes_total"
	// MetricServeMTTRSeconds is the per-episode repair-time histogram
	// (failure to service restored, virtual clock).
	MetricServeMTTRSeconds = "faultstudy_serve_mttr_seconds"
	// MetricServeSLOBurn is the arm's error-budget burn: multiples of the
	// SLO's error budget the arm's bad requests consumed.
	MetricServeSLOBurn = "faultstudy_serve_slo_burn"
)

// The serving tier's workload model. Detection, process restart, and the
// attempt bound are the platform's (recover.go): arrivals inside a detection
// or process-restart window find nothing serving and are lost.
const (
	// serveBreakerLimit caps recovery episodes per arm: after this many, the
	// arm sheds further fault failures as plain errors instead of walking the
	// ladder again — the supervisor's circuit breaker, keeping an
	// every-request-fails environmental fault from turning the schedule into
	// back-to-back recovery windows.
	serveBreakerLimit = 6
	// serveCheckpointEvery is the arrival stride between state checkpoints
	// while healthy; the restore rung reinstates the most recent one.
	serveCheckpointEvery = 200
	// serveDefaultUsers and serveDefaultRequests size the default schedule:
	// every user serves at least twice.
	serveDefaultUsers    = 1200
	serveDefaultRequests = 2400
	// serveDefaultArrival is the default arrival process: Poisson, one
	// arrival per simulated millisecond on average.
	serveDefaultArrival = "poisson:1ms"
)

// ServeRungs is the recovery-mechanism axis of the SERVE experiment: the
// full escalation ladder, in ascending cost order, matching
// recoveryscope.Rungs.
func ServeRungs() []string {
	return []string{"retry", "microreboot", "subtree-reboot", "restore", "restart"}
}

// ServeConfig tunes the SERVE experiment: sustained open-loop traffic
// against daemonized applications with seeded bugs striking mid-stream, one
// arm per (mechanism, rung) cell.
type ServeConfig struct {
	// Seed drives every arm's environment and traffic schedule.
	Seed int64
	// Users is the simulated-user pool per arm (default 1200).
	Users int
	// Requests is the scheduled arrivals per arm (default 2400, at least
	// Users so round-robin assignment exercises every user).
	Requests int
	// Arrival is the arrival-process spec ("poisson:<gap>" or
	// "fixed:<gap>"; default "poisson:1ms").
	Arrival string
	// SLO is the objective requests are scored against (default
	// traffic.DefaultSLO).
	SLO traffic.SLO
	// Telemetry, when non-nil, receives per-episode traces and the serve
	// metric family from every arm. Nil costs nothing.
	Telemetry *Telemetry
	// Workers bounds the worker pool the arms are sharded over (0 or
	// negative means one per processor; 1 is serial). Reports, telemetry,
	// and request logs are byte-identical at every worker count.
	Workers int
}

// withDefaults fills the zero fields.
func (c ServeConfig) withDefaults() ServeConfig {
	if c.Users <= 0 {
		c.Users = serveDefaultUsers
	}
	if c.Requests <= 0 {
		c.Requests = serveDefaultRequests
	}
	if c.Requests < c.Users {
		c.Requests = c.Users
	}
	if c.Arrival == "" {
		c.Arrival = serveDefaultArrival
	}
	if c.SLO == (traffic.SLO{}) {
		c.SLO = traffic.DefaultSLO()
	}
	return c
}

// ServeArm is one (mechanism, rung) cell: one daemonized application under
// the full traffic schedule with the mechanism's faults striking mid-stream
// and every episode recovered at the arm's rung.
type ServeArm struct {
	// Mechanism is the seeded bug active in this arm.
	Mechanism string
	// App is the application hosting the bug.
	App taxonomy.Application
	// Class is the mechanism's EI/EDN/EDT class.
	Class taxonomy.FaultClass
	// Rung is the recovery mechanism under test.
	Rung string
	// Requests counts scheduled arrivals (the schedule length).
	Requests int
	// Good counts arrivals served within the SLO latency threshold.
	Good int
	// Slow counts arrivals served over the threshold (including requests
	// that rode out a recovery and were eventually answered).
	Slow int
	// Refused counts arrivals fast-failed by a mid-reboot component while
	// siblings kept serving.
	Refused int
	// Errored counts arrivals that failed against a live process.
	Errored int
	// Lost counts arrivals nothing answered: detection windows and
	// process-down windows.
	Lost int
	// Shed counts fault failures the arm's circuit breaker refused to open
	// an episode for (a subset of Errored).
	Shed int
	// OutageArrivals and OutageServed measure goodput during recovery:
	// arrivals landing inside component-reboot windows, and how many of
	// those still served through sibling components.
	OutageArrivals, OutageServed int
	// Episodes and Recovered count recovery episodes opened and those whose
	// failing request was eventually served.
	Episodes, Recovered int
	// MTTRTotal accumulates repair time over recovered episodes.
	MTTRTotal time.Duration
	// Burn is the arm's SLO burn: error-budget multiples consumed.
	Burn float64
	// Records is the arm's complete per-request log, in schedule order.
	Records []traffic.Record
}

// MTTR is the arm's mean time to repair over recovered episodes (0 when
// nothing recovered).
func (a ServeArm) MTTR() time.Duration { return meanRepair(a.MTTRTotal, a.Recovered) }

// ServeReport is the assembled experiment, arms in (mechanism, rung) order.
type ServeReport struct {
	// Seed is the experiment's root seed.
	Seed int64
	// Users and Requests are the per-arm schedule dimensions.
	Users, Requests int
	// Arrival is the arrival-process spec the schedules used.
	Arrival string
	// SLO is the objective every arm was scored against.
	SLO traffic.SLO
	// Arms holds every (mechanism, rung) cell.
	Arms []ServeArm
}

// serveMechanisms picks the experiment's fault axis from the registry: per
// daemonized application (httpd, sqldb), the first two EI, one EDN, and one
// EDT mechanisms in sorted key order — a small cross-class slice of the
// corpus so the sweep stays tractable while still striking every class
// mid-traffic.
func serveMechanisms() []faultinject.Mechanism {
	reg := Registry()
	var out []faultinject.Mechanism
	for _, k := range appKinds {
		if k.category == nil {
			continue
		}
		quota := map[taxonomy.FaultClass]int{
			taxonomy.ClassEnvIndependent:           2,
			taxonomy.ClassEnvDependentNonTransient: 1,
			taxonomy.ClassEnvDependentTransient:    1,
		}
		for _, m := range reg.ByApp(k.app) {
			if quota[m.Class()] <= 0 {
				continue
			}
			quota[m.Class()]--
			out = append(out, m)
		}
	}
	return out
}

// RunServe runs the SERVE experiment: serveMechanisms() × ServeRungs(), one
// arm per cell. Each arm daemonizes a componentized application, precomputes
// an open-loop traffic schedule over cfg.Users simulated users, splices the
// mechanism's trigger ops into the stream at evenly spaced positions, and
// recovers every fault episode at the arm's rung while traffic keeps
// arriving — scoring SLO burn, goodput during recovery, per-request latency,
// and MTTR.
//
// Arms are independent shards on a pool of cfg.Workers workers: each derives
// its seed from (Seed, arm index) and records into a private telemetry, and
// the shards are reduced in fixed arm order — so reports, traces, metric
// dumps, and request logs are byte-identical at every worker count.
func RunServe(cfg ServeConfig) (*ServeReport, error) {
	cfg = cfg.withDefaults()
	if _, err := traffic.ParseArrivals(cfg.Arrival); err != nil {
		return nil, err
	}
	mechs := serveMechanisms()
	rungs := ServeRungs()
	n := len(mechs) * len(rungs)
	rep := &ServeReport{Seed: cfg.Seed, Users: cfg.Users, Requests: cfg.Requests,
		Arrival: cfg.Arrival, SLO: cfg.SLO, Arms: make([]ServeArm, 0, n)}
	err := sweep(cfg.Workers, n, cfg.Telemetry, func(i int, tel *Telemetry) (ServeArm, error) {
		return runServeArm(cfg, i, mechs[i/len(rungs)], rungs[i%len(rungs)], tel)
	}, func(_ int, a ServeArm) { rep.Arms = append(rep.Arms, a) })
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// serveApp is what a SERVE arm needs from an application: the recovery
// lifecycle, the component tree, and the serving contract.
type serveApp interface {
	componentApp
	workload.Server
}

// buildServeApp constructs the daemonized application and its scenario for
// a mechanism, plus the catalogue entry that names its arrivals' categories.
// Only the daemons the catalogue marks as serving open-loop traffic (httpd/,
// sqldb/) are valid here.
func buildServeApp(mechanism string, seed int64) (*appKind, serveApp, faultinject.Scenario, error) {
	k, err := appFor(mechanism)
	if err != nil || k.category == nil {
		return nil, nil, faultinject.Scenario{}, fmt.Errorf("experiment: mechanism %q is not a daemon mechanism", mechanism)
	}
	app, sc, err := k.scenario(mechanism, seed)
	if err != nil {
		return nil, nil, sc, err
	}
	return k, k.componentize(app).(serveApp), sc, nil
}

// serveRun is the per-arm state shared by the traffic loop and the episode
// machinery.
type serveRun struct {
	recoverer
	cfg      ServeConfig
	mech     faultinject.Mechanism
	app      serveApp
	category func(u float64) string // the arrival draw's operation-mix bucket
	arm      *ServeArm
	tel      *Telemetry
	schedule []traffic.Arrival
	next     int           // cursor into schedule
	base     time.Duration // virtual clock at traffic start
	cp       []byte        // most recent healthy checkpoint (restore rung)
}

// runServeArm runs one (mechanism, rung) cell. Everything it does is a pure
// function of (cfg, arm index); it shares no state with other arms.
func runServeArm(cfg ServeConfig, armIdx int, mech faultinject.Mechanism, rung string, tel *Telemetry) (ServeArm, error) {
	arm := ServeArm{Mechanism: mech.Key, App: mech.App, Class: mech.Class(), Rung: rung}
	armSeed := parallel.Derive(cfg.Seed, uint64(armIdx))
	k, app, sc, err := buildServeApp(mech.Key, armSeed)
	if err != nil {
		return arm, err
	}
	if err := app.Start(); err != nil {
		return arm, fmt.Errorf("experiment: serve %s × %s: start: %w", mech.Key, rung, err)
	}
	// Warm to steady state, tolerating an early-firing bug the traffic will
	// then report, and stage the mechanism's environmental precondition.
	if app.ServeWarm() != nil && !app.Running() {
		app.ContainCrash()
		_ = app.ServeWarm()
	}
	if sc.Stage != nil {
		sc.Stage()
	}
	proc, err := traffic.ParseArrivals(cfg.Arrival)
	if err != nil {
		return arm, err
	}
	schedule, err := traffic.Schedule(traffic.GenConfig{
		Seed: armSeed, Users: cfg.Users, Requests: cfg.Requests, Process: proc})
	if err != nil {
		return arm, err
	}
	cp, err := app.Snapshot()
	if err != nil {
		return arm, fmt.Errorf("experiment: serve %s × %s: checkpoint: %w", mech.Key, rung, err)
	}
	run := &serveRun{cfg: cfg, mech: mech, app: app, category: k.category,
		arm: &arm, tel: tel, schedule: schedule, base: app.Env().Monotonic(), cp: cp}
	run.recoverer = recoverer{env: app.Env(), rec: tel.recorder(), key: mech.Key, rung: rung,
		detect: run.detect, act: run.applyServeRung}
	run.rec.SetContext(armContext(mech))

	// The mechanism's trigger ops fire at evenly spaced schedule positions:
	// position -> op, spliced ahead of the arrival at that position.
	triggers := make(map[int]faultinject.Op, len(sc.Ops))
	stride := len(schedule) / (len(sc.Ops) + 1)
	for i, op := range sc.Ops {
		triggers[(i+1)*stride] = op
	}

	for run.next < len(run.schedule) {
		arr := run.schedule[run.next]
		run.next++
		// Advance the clock to the arrival (recovery may already have pushed
		// it past).
		if target := run.base + arr.At; target > run.env.Monotonic() {
			run.env.Advance(target - run.env.Monotonic())
		}
		if arr.Seq%serveCheckpointEvery == 0 {
			run.checkpoint()
		}
		if op, ok := triggers[arr.Seq]; ok {
			run.trigger(op)
		}
		run.serve(arr)
	}
	app.Stop()
	arm.Burn = run.score()
	return arm, nil
}

// checkpoint snapshots a healthy application for the restore rung; unhealthy
// moments keep the previous checkpoint.
func (r *serveRun) checkpoint() {
	if !r.app.Running() || !r.app.Tree().AllRunning() {
		return
	}
	if snap, err := r.app.Snapshot(); err == nil {
		r.cp = snap
	}
}

// trigger fires one spliced scenario op. A fault failure opens a recovery
// episode around the op itself; anything else is the scenario idling.
func (r *serveRun) trigger(op faultinject.Op) {
	err := op.Do()
	if err == nil {
		return
	}
	if _, isFault := faultinject.AsFailure(err); !isFault { //faultlint:ignore swallowfail fault failures proceed to an episode below; only non-fault scenario idling returns here
		return
	}
	if r.breakerOpen() {
		r.arm.Shed++
		r.ensureServing()
		return
	}
	r.episode(op.Name, err, op.Do)
}

// serve drives one scheduled arrival through the daemon and records its
// outcome. A fault failure opens a recovery episode with the arrival itself
// as the retried op — the request waits out the recovery, and its final
// latency includes the full wait.
func (r *serveRun) serve(arr traffic.Arrival) {
	if !r.app.Running() {
		// Nothing is listening; the supervisor of last resort brings the
		// process back for subsequent traffic.
		r.record(arr, traffic.OutcomeLost, "", "process down", 0)
		r.ensureServing()
		return
	}
	_, comp, err := r.app.ServeArrival(arr.Seq, arr.User, arr.U)
	var de *component.DownError
	switch {
	case err == nil:
		r.record(arr, r.cfg.SLO.Outcome(arr.Service), "", "", arr.Service)
	case errors.As(err, &de):
		r.record(arr, traffic.OutcomeRefused, de.Component, err.Error(), 0)
	default:
		if _, isFault := faultinject.AsFailure(err); !isFault { //faultlint:ignore swallowfail fault failures proceed to the breaker/episode paths below; non-fault errors are recorded as error outcomes
			r.record(arr, traffic.OutcomeError, comp, err.Error(), 0)
			return
		}
		if r.breakerOpen() {
			r.arm.Shed++
			r.record(arr, traffic.OutcomeError, comp, err.Error(), 0)
			r.ensureServing()
			return
		}
		arrivedAt := r.base + arr.At
		recovered := r.episode(fmt.Sprintf("arr-%04d", arr.Seq), err, func() error {
			_, _, rerr := r.app.ServeArrival(arr.Seq, arr.User, arr.U)
			return rerr
		})
		if recovered {
			// The user waited from arrival through recovery, then was served.
			latency := r.env.Monotonic() - arrivedAt + arr.Service
			r.record(arr, r.cfg.SLO.Outcome(latency), "", "", latency)
		} else {
			r.record(arr, traffic.OutcomeLost, "", err.Error(), 0)
		}
	}
}

// breakerOpen reports whether the arm's episode budget is spent.
func (r *serveRun) breakerOpen() bool { return r.arm.Episodes >= serveBreakerLimit }

// record appends one request record and folds it into telemetry.
func (r *serveRun) record(arr traffic.Arrival, outcome, comp, errMsg string, latency time.Duration) {
	r.arm.Requests++
	switch outcome {
	case traffic.OutcomeOK:
		r.arm.Good++
	case traffic.OutcomeSlow:
		r.arm.Slow++
	case traffic.OutcomeRefused:
		r.arm.Refused++
	case traffic.OutcomeError:
		r.arm.Errored++
	case traffic.OutcomeLost:
		r.arm.Lost++
	}
	category := r.category(arr.U)
	r.arm.Records = append(r.arm.Records, traffic.Record{
		Seq: arr.Seq, User: arr.User, At: arr.At, Category: category,
		Latency: latency, Outcome: outcome, Component: comp, Err: errMsg,
	})
	if r.tel != nil {
		r.tel.Registry.Counter(MetricServeRequests,
			obsv.L("app", r.mech.App.String(), "rung", r.rung, "outcome", outcome)...).Inc()
		if outcome == traffic.OutcomeOK || outcome == traffic.OutcomeSlow {
			r.tel.Registry.Histogram(MetricServeRequestLatency, obsv.RequestLatencyBuckets,
				obsv.L("app", r.mech.App.String(), "rung", r.rung)...).ObserveDuration(latency)
		}
	}
}

// detect charges the detection window: between the fault firing and
// recovery engaging nothing serves, under every rung alike.
func (r *serveRun) detect() {
	r.env.Advance(detectLatency)
	r.drainLost(r.env.Monotonic(), "detection window")
}

// episode recovers one fault failure at the arm's rung while traffic keeps
// arriving, and closes it without an "ok" retry span (the request record
// carries the served outcome). Reports whether the failing op was
// eventually served.
func (r *serveRun) episode(name string, faultErr error, retry func() error) bool {
	arm := r.arm
	arm.Episodes++
	start, servedOn := r.recoverOp(name, faultErr, retry)
	end := r.env.Monotonic()
	outcome := obsv.OutcomeLost
	if servedOn > 0 {
		outcome = obsv.OutcomeRecovered
		arm.Recovered++
		arm.MTTRTotal += end - start
	} else {
		r.ensureServing()
	}
	r.rec.End(end, outcome, r.rung)
	if r.tel == nil {
		return servedOn > 0
	}
	if servedOn > 0 {
		r.tel.Registry.Histogram(MetricServeMTTRSeconds, obsv.LatencyBuckets,
			obsv.L("rung", r.rung, "class", r.mech.Class().Short())...).ObserveDuration(end - start)
	}
	r.tel.Registry.Counter(MetricServeEpisodes,
		obsv.L("app", r.mech.App.String(), "rung", r.rung,
			"class", r.mech.Class().Short(), "outcome", outcome)...).Inc()
	return servedOn > 0
}

// applyServeRung performs one recovery attempt at the arm's rung and returns
// the component a structural rung targeted ("" for process-level rungs).
//
// The retry rung deliberately performs no structural recovery — a crashed
// process cannot retry itself back to life; measuring that under live
// traffic is part of the point.
func (r *serveRun) applyServeRung(int) string {
	app := r.app
	switch r.rung {
	case "microreboot", "subtree-reboot":
		app.ContainCrash()
		if name, ok := app.ComponentFor(r.mech.Key); ok {
			rebootComponent(app.Tree(), name, r.rung == "subtree-reboot", func(window time.Duration) {
				r.drainOutage(r.env.Monotonic() + window)
			})
			return name
		}
		r.bounceProcess(false)
	case "restore":
		r.bounceProcess(false)
	case "restart":
		r.bounceProcess(true)
	}
	return ""
}

// bounceProcess restarts the whole process: stop, a full restart window
// with every in-window arrival lost, then reinstate state — the latest
// checkpoint for restore (and as the fallback), or pristine state re-warmed
// for restart.
func (r *serveRun) bounceProcess(pristine bool) {
	app := r.app
	app.Stop()
	r.env.Advance(procRestart)
	r.drainLost(r.env.Monotonic(), "process restart")
	if pristine {
		r.env.ReclaimOwner(app.Name())
		_ = app.Reset()
	} else if !reinstate(app, r.cp) {
		return
	}
	// Pristine state re-runs the init script: schema and seed state return,
	// accumulated state does not.
	_ = app.ServeWarm()
}

// ensureServing is the supervisor of last resort: whatever an abandoned
// episode (or a shed failure) left behind, subsequent traffic must find a
// listening process. Component-level damage is rebooted in place; a dead
// process pays the full restart window.
func (r *serveRun) ensureServing() {
	app := r.app
	if app.Running() && app.Tree().AllRunning() {
		return
	}
	app.ContainCrash()
	if app.Running() {
		_ = app.Tree().StartAll()
		return
	}
	r.bounceProcess(false)
}

// drainLost consumes every scheduled arrival at or before the given virtual
// time as lost: the process (or the whole service) was not answering.
func (r *serveRun) drainLost(until time.Duration, why string) {
	for r.next < len(r.schedule) && r.base+r.schedule[r.next].At <= until {
		arr := r.schedule[r.next]
		r.next++
		r.record(arr, traffic.OutcomeLost, "", why, 0)
	}
}

// drainOutage consumes every scheduled arrival up to the given virtual time
// through the partially-down component tree: arrivals routed through the
// dead component are refused fast, arrivals through live siblings still
// serve — the goodput a microreboot preserves and a process restart
// forfeits.
func (r *serveRun) drainOutage(until time.Duration) {
	for r.next < len(r.schedule) && r.base+r.schedule[r.next].At <= until {
		arr := r.schedule[r.next]
		r.next++
		r.arm.OutageArrivals++
		_, comp, err := r.app.ServeArrival(arr.Seq, arr.User, arr.U)
		var de *component.DownError
		switch {
		case err == nil:
			r.arm.OutageServed++
			r.record(arr, r.cfg.SLO.Outcome(arr.Service), "", "", arr.Service)
		case errors.As(err, &de):
			r.record(arr, traffic.OutcomeRefused, de.Component, err.Error(), 0)
		default:
			// The arrival hit the active fault rather than the outage; the
			// episode in progress already owns recovery.
			r.record(arr, traffic.OutcomeError, comp, err.Error(), 0)
		}
	}
}

// score computes the arm's SLO burn and emits the terminal gauge.
func (r *serveRun) score() float64 {
	bad := r.arm.Requests - r.arm.Good
	burn := r.cfg.SLO.Burn(bad, r.arm.Requests)
	if r.tel != nil {
		r.tel.Registry.Gauge(MetricServeSLOBurn,
			obsv.L("app", r.mech.App.String(), "rung", r.rung,
				"mechanism", r.mech.Key)...).Set(burn)
	}
	return burn
}

// cell sums the arms of one class at one rung into one arm; its Burn is the
// cell's bad requests over its requests, as error-budget multiples.
func (r *ServeReport) cell(class taxonomy.FaultClass, rung string) ServeArm {
	c := ServeArm{Class: class, Rung: rung}
	for _, a := range r.Arms {
		if a.Class != class || a.Rung != rung {
			continue
		}
		c.Requests += a.Requests
		c.Good += a.Good
		c.Slow += a.Slow
		c.Refused += a.Refused
		c.Errored += a.Errored
		c.Lost += a.Lost
		c.Shed += a.Shed
		c.OutageArrivals += a.OutageArrivals
		c.OutageServed += a.OutageServed
		c.Episodes += a.Episodes
		c.Recovered += a.Recovered
		c.MTTRTotal += a.MTTRTotal
	}
	c.Burn = r.SLO.Burn(c.Requests-c.Good, c.Requests)
	return c
}

// WriteRequestLog writes every arm's request records as one JSONL stream in
// arm order (sequence numbers restart at each arm boundary). The stream is
// byte-identical at every worker count.
func (r *ServeReport) WriteRequestLog(w io.Writer) error {
	for _, a := range r.Arms {
		if err := traffic.WriteRecords(w, a.Records); err != nil {
			return fmt.Errorf("experiment: serve request log %s × %s: %w", a.Mechanism, a.Rung, err)
		}
	}
	return nil
}

// Check asserts the experiment's headline claim under sustained traffic:
// for environment-independent faults, a targeted microreboot must burn
// strictly less error budget than a whole-process restart, and every cell
// of the sweep must actually have served traffic.
func (r *ServeReport) Check() error {
	for _, a := range r.Arms {
		if a.Requests == 0 {
			return fmt.Errorf("experiment: serve check: arm %s × %s served no traffic", a.Mechanism, a.Rung)
		}
	}
	micro := r.cell(taxonomy.ClassEnvIndependent, "microreboot").Burn
	restart := r.cell(taxonomy.ClassEnvIndependent, "restart").Burn
	if micro >= restart {
		return fmt.Errorf("experiment: serve check: EI SLO burn %.1fx (microreboot) not below %.1fx (restart)",
			micro, restart)
	}
	return nil
}

// String renders the class × rung aggregate and the headline.
func (r *ServeReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SERVE experiment (seed %d, %d arms, %d users × %d requests, %s, SLO %.3g%% @ %s):\n",
		r.Seed, len(r.Arms), r.Users, r.Requests, r.Arrival,
		r.SLO.Objective*100, r.SLO.Latency)
	tbl := &stats.Table{Header: []string{
		"class", "rung", "requests", "good", "refused", "lost", "burn", "reboot-served", "mttr"}}
	for _, class := range taxonomy.Classes() {
		for _, rung := range ServeRungs() {
			c := r.cell(class, rung)
			if c.Requests == 0 {
				continue
			}
			tbl.Add(class.Short(), rung,
				fmt.Sprint(c.Requests), fmt.Sprint(c.Good), fmt.Sprint(c.Refused), fmt.Sprint(c.Lost),
				fmt.Sprintf("%.1fx", c.Burn), fractionCell(c.OutageServed, c.OutageArrivals), mttrCell(c.MTTR()))
		}
	}
	b.WriteString(tbl.String())
	ei := taxonomy.ClassEnvIndependent
	fmt.Fprintf(&b,
		"\nHeadline: under sustained open-loop traffic, recovering EI faults by component\nmicroreboot burns %.1fx the SLO error budget where a process restart burns %.1fx —\nkeeping siblings serving through the reboot window is what an SLO actually buys.\n",
		r.cell(ei, "microreboot").Burn, r.cell(ei, "restart").Burn)
	return b.String()
}
