package experiment

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"faultstudy/internal/component"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/obsv"
	"faultstudy/internal/parallel"
	"faultstudy/internal/simenv"
	"faultstudy/internal/stats"
	"faultstudy/internal/taxonomy"
)

// Metric names of the MREBOOT sweep; the catalogue entry lives in
// OBSERVABILITY.md.
const (
	// MetricMRebootEpisodes counts closed MREBOOT fault episodes by outcome.
	MetricMRebootEpisodes = "faultstudy_mreboot_episodes_total"
	// MetricMRebootRequestsLost counts requests lost across the sweep:
	// arrivals inside outage windows plus abandoned triggers.
	MetricMRebootRequestsLost = "faultstudy_mreboot_requests_lost_total"
	// MetricMRebootMTTRSeconds is the per-episode repair-time histogram
	// (failure detection to service restored, virtual clock).
	MetricMRebootMTTRSeconds = "faultstudy_mreboot_mttr_seconds"
	// MetricMRebootComponentReboots counts component reboots by component.
	MetricMRebootComponentReboots = "faultstudy_mreboot_component_reboots_total"
)

// MRebootPolicies is the fixed recovery-mechanism axis of the MREBOOT sweep,
// in arm order: targeted component microreboot, whole-process restart with
// the pre-failure state, and rollback to the run-start checkpoint.
func MRebootPolicies() []string { return []string{"microreboot", "restart", "rollback"} }

// The sweep's virtual-time model. The asymmetry between rebootCost (per
// component, simulated milliseconds charged by the tree) and
// mrebootProcRestart (simulated seconds) is the experiment's subject: a
// crash-only component cycles in the time a process takes to even exit.
const (
	// mrebootInterval is the arrival spacing of the concurrent workload; every
	// outage window loses (or, under microreboot, re-routes) window/interval
	// arrivals. It is tighter than the cheapest component reboot so even leaf
	// reboots see in-flight traffic.
	mrebootInterval = 2 * time.Millisecond
	// mrebootDetect is the failure-detection latency charged to every episode
	// under every policy: the time between the fault firing and the recovery
	// mechanism engaging, during which nothing serves.
	mrebootDetect = 100 * time.Millisecond
	// mrebootProcRestart is the cost of bouncing the whole process: exit,
	// exec, reinitialize, restore. Both the restart and rollback policies pay
	// it on every attempt.
	mrebootProcRestart = 2 * time.Second
	// mrebootAttempts bounds recovery attempts per episode; the microreboot
	// policy widens from the attributed component to its dependent subtree on
	// the second attempt, mirroring the supervisor's rung.
	mrebootAttempts = 2
	// mrebootBgOps is the background workload length per arm; the scenario's
	// trigger ops are spliced in at evenly spaced positions.
	mrebootBgOps = 60
)

// MRebootConfig tunes the MREBOOT sweep: every registered seeded-bug
// mechanism crossed with every recovery policy, each arm a componentized
// application under concurrent in-flight workload.
type MRebootConfig struct {
	// Seed drives every arm's environment and schedule stream.
	Seed int64
	// Telemetry, when non-nil, receives per-episode traces and the mreboot
	// metric family from every arm. Nil costs nothing.
	Telemetry *Telemetry
	// Workers bounds the worker pool the arms are sharded over (0 or negative
	// means one per processor; 1 is serial). Reports and telemetry are
	// byte-identical at every worker count.
	Workers int
}

// MRebootArm is one (mechanism, policy) cell of the sweep.
type MRebootArm struct {
	// Mechanism is the seeded bug active in this arm.
	Mechanism string
	// App is the application hosting the bug.
	App taxonomy.Application
	// Class is the mechanism's EI/EDN/EDT class.
	Class taxonomy.FaultClass
	// Policy is the recovery mechanism under test.
	Policy string
	// Requests counts every arrival: the scheduled workload plus the modeled
	// in-window arrivals of each outage.
	Requests int
	// Served counts arrivals that were served, including during outages.
	Served int
	// Lost counts requests lost: in-window casualties, detection-window
	// arrivals, and abandoned triggers.
	Lost int
	// OutageArrivals and OutageServed measure the goodput dip: arrivals
	// landing inside recovery windows, and how many of those still served
	// (through sibling components; zero by construction for process-level
	// policies).
	OutageArrivals, OutageServed int
	// Episodes and Recovered count fault episodes and those whose failing
	// request was eventually served.
	Episodes, Recovered int
	// Reboots counts component reboots performed (microreboot arms only).
	Reboots int
	// MTTRTotal accumulates repair time over recovered episodes.
	MTTRTotal time.Duration
}

// MTTR is the arm's mean time to repair over recovered episodes (0 when
// nothing recovered).
func (a MRebootArm) MTTR() time.Duration {
	if a.Recovered == 0 {
		return 0
	}
	return a.MTTRTotal / time.Duration(a.Recovered)
}

// MRebootReport is the assembled sweep, arms in (mechanism, policy) order.
type MRebootReport struct {
	// Seed is the sweep's root seed.
	Seed int64
	// Arms holds every (mechanism, policy) cell.
	Arms []MRebootArm
}

// RunMReboot runs the MREBOOT sweep: Registry() × MRebootPolicies(), one arm
// per cell. Each arm componentizes a fresh application, splices the
// mechanism's trigger ops into a steady background workload arriving on the
// virtual clock, and recovers every fault episode with the arm's policy —
// scoring MTTR, requests lost, and the goodput dip of each mechanism.
//
// Arms are independent shards on a pool of cfg.Workers workers: each derives
// its seed from (Seed, arm index) and records into a private telemetry, and
// the shards are reduced in fixed arm order — so reports, traces, and metric
// dumps are byte-identical at every worker count.
func RunMReboot(cfg MRebootConfig) (*MRebootReport, error) {
	reg := Registry()
	keys := reg.Keys()
	policies := MRebootPolicies()
	n := len(keys) * len(policies)
	rep := &MRebootReport{Seed: cfg.Seed, Arms: make([]MRebootArm, 0, n)}
	err := sweep(cfg.Workers, n, cfg.Telemetry, func(i int, tel *Telemetry) (MRebootArm, error) {
		mech, _ := reg.Lookup(keys[i/len(policies)])
		return runMRebootArm(cfg, i, mech, policies[i%len(policies)], tel)
	}, func(_ int, a MRebootArm) { rep.Arms = append(rep.Arms, a) })
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// mrebootArrival is one scheduled workload arrival.
type mrebootArrival struct {
	name    string
	trigger bool
	do      func() error
}

// spliceArrivals builds the arm's arrival schedule: bg background ops with
// the scenario's trigger ops inserted in order at evenly spaced positions.
func spliceArrivals(drv *mrebootDriver, ops []faultinject.Op, bg int) []mrebootArrival {
	total := bg + len(ops)
	stride := total / (len(ops) + 1)
	arrivals := make([]mrebootArrival, 0, total)
	next, bgIdx := 0, 0
	for i := 0; i < total; i++ {
		if next < len(ops) && i == (next+1)*stride {
			op := ops[next]
			arrivals = append(arrivals, mrebootArrival{name: op.Name, trigger: true, do: op.Do})
			next++
			continue
		}
		idx := bgIdx
		arrivals = append(arrivals, mrebootArrival{
			name: fmt.Sprintf("bg-%03d", idx),
			do:   func() error { return drv.bg(idx) },
		})
		bgIdx++
	}
	return arrivals
}

// mrebootRun is the per-arm state shared by the workload loop and the
// episode handler.
type mrebootRun struct {
	cfg    MRebootConfig
	mech   faultinject.Mechanism
	policy string
	drv    *mrebootDriver
	env    *simenv.Env
	epoch  []byte
	arm    *MRebootArm
	tel    *Telemetry
	bgIdx  int
}

// runMRebootArm runs one (mechanism, policy) cell. Everything it does is a
// pure function of (cfg, arm index); it shares no state with other arms.
func runMRebootArm(cfg MRebootConfig, armIdx int, mech faultinject.Mechanism, policy string, tel *Telemetry) (MRebootArm, error) {
	arm := MRebootArm{Mechanism: mech.Key, App: mech.App, Class: mech.Class(), Policy: policy}
	armSeed := parallel.Derive(cfg.Seed, uint64(armIdx))
	drv, sc, err := buildComponentized(mech.Key, armSeed)
	if err != nil {
		return arm, err
	}
	app := drv.app
	if err := app.Start(); err != nil {
		return arm, fmt.Errorf("experiment: mreboot %s × %s: start: %w", mech.Key, policy, err)
	}
	drv.warm()
	if sc.Stage != nil {
		sc.Stage()
	}
	epoch, err := app.Snapshot()
	if err != nil {
		return arm, fmt.Errorf("experiment: mreboot %s × %s: checkpoint: %w", mech.Key, policy, err)
	}
	run := &mrebootRun{cfg: cfg, mech: mech, policy: policy, drv: drv,
		env: app.Env(), epoch: epoch, arm: &arm, tel: tel, bgIdx: mrebootBgOps}
	if tel != nil {
		obsv.RegisterBridgeHelp(tel.Registry)
		tel.Recorder.SetContext(obsv.Context{
			App: mech.App.String(), FaultID: mech.Key, Class: mech.Class().Short()})
	}

	for _, a := range spliceArrivals(drv, sc.Ops, mrebootBgOps) {
		run.env.Advance(mrebootInterval)
		preOp, err := app.Snapshot()
		if err != nil {
			return arm, fmt.Errorf("experiment: mreboot %s × %s: pre-op checkpoint: %w", mech.Key, policy, err)
		}
		arm.Requests++
		opErr := a.do()
		if opErr == nil {
			arm.Served++
			continue
		}
		if _, isFault := faultinject.AsFailure(opErr); !isFault {
			// A plain failure (e.g. state a rollback discarded): the request
			// is lost but there is nothing for generic recovery to engage.
			arm.Lost++
			continue
		}
		run.episode(a, preOp, opErr)
	}
	app.Stop()
	run.observeArm()
	return arm, nil
}

// lostWindow charges a full-outage window: window/interval concurrent
// arrivals hit a dead process and are lost. When outage is true the
// arrivals also count toward the goodput-dip denominator (recovery windows;
// detection windows hit every policy alike and are excluded).
func (r *mrebootRun) lostWindow(window time.Duration, outage bool) {
	k := int(window / mrebootInterval)
	r.arm.Requests += k
	r.arm.Lost += k
	if outage {
		r.arm.OutageArrivals += k
	}
}

// serveOutage drives the concurrent arrivals that land inside a component
// outage window through the (partially down) component tree: arrivals routed
// through the dead component fail fast and are lost, arrivals through live
// siblings still serve.
func (r *mrebootRun) serveOutage(window time.Duration) {
	k := int(window / mrebootInterval)
	for i := 0; i < k; i++ {
		r.arm.Requests++
		r.arm.OutageArrivals++
		idx := r.bgIdx
		r.bgIdx++
		err := r.drv.bg(idx)
		var de *component.DownError
		switch {
		case err == nil:
			r.arm.Served++
			r.arm.OutageServed++
		case errors.As(err, &de):
			r.arm.Lost++
		default:
			// The arrival hit the active fault rather than the outage; the
			// episode in progress already owns recovery, so it is lost too.
			r.arm.Lost++
		}
	}
}

// perturb forces a fresh interleaving before a retry (Wang93), exactly as
// the supervisor's ladder does.
func perturb(env *simenv.Env, mechanism string, attempt int) {
	env.Sched().UnforceAll()
	env.Reroll()
	env.Sched().Force(mechanism, attempt)
}

// rebootComponent crash-stops target — with subtree, its whole dependent
// subtree in reverse dependency order — lets outage serve the reboot window
// while the component is down, and restarts it forward. A single component
// that cannot be killed is left alone.
func rebootComponent(tree *component.Tree, target string, subtree bool, outage func(window time.Duration)) {
	if !subtree {
		if tree.Kill(target) == nil {
			outage(tree.RebootCost(target))
			_ = tree.Restart(target)
		}
		return
	}
	members := tree.SubtreeOf(target)
	for i := len(members) - 1; i >= 0; i-- {
		_ = tree.Kill(members[i])
	}
	outage(tree.SubtreeCost(target))
	for _, name := range members {
		_ = tree.Restart(name)
	}
}

// episode recovers one failed arrival with the arm's policy: detection
// window, then up to mrebootAttempts (recovery action, outage window, retry)
// rounds, then abandonment.
func (r *mrebootRun) episode(a mrebootArrival, preOp []byte, opErr error) {
	arm := r.arm
	arm.Episodes++
	start := r.env.Monotonic()
	var rec *obsv.Recorder
	if r.tel != nil {
		rec = r.tel.Recorder
		rec.Begin(start, a.name, r.mech.Key)
		rec.Note(start, obsv.Span{Kind: obsv.SpanActivation, Note: opErr.Error()})
	}

	// Detection: between the fault firing and recovery engaging nothing
	// serves, under every policy alike.
	r.env.Advance(mrebootDetect)
	r.lostWindow(mrebootDetect, false)

	recovered := false
	for attempt := 1; attempt <= mrebootAttempts && !recovered; attempt++ {
		target := r.applyPolicy(attempt, preOp)
		if rec != nil {
			rec.Note(r.env.Monotonic(), obsv.Span{Kind: obsv.SpanAction, Rung: r.policy,
				Attempt: attempt, Outcome: "ok", Component: target})
		}
		retryErr := a.do()
		if retryErr == nil {
			recovered = true
			break
		}
		if rec != nil {
			rec.Note(r.env.Monotonic(), obsv.Span{Kind: obsv.SpanRetry, Rung: r.policy,
				Attempt: attempt, Outcome: "fail", Note: retryErr.Error()})
		}
	}
	end := r.env.Monotonic()
	if recovered {
		arm.Served++
		arm.Recovered++
		arm.MTTRTotal += end - start
		if rec != nil {
			rec.Note(end, obsv.Span{Kind: obsv.SpanRetry, Rung: r.policy, Outcome: "ok"})
			rec.End(end, obsv.OutcomeRecovered, r.policy)
		}
		if r.tel != nil {
			r.tel.Registry.Histogram(MetricMRebootMTTRSeconds, obsv.LatencyBuckets,
				obsv.L("policy", r.policy, "class", r.mech.Class().Short())...).ObserveDuration(end - start)
		}
	} else {
		// The trigger is abandoned; make sure the process is alive for the
		// rest of the workload.
		arm.Lost++
		r.ensureRunning(preOp)
		if rec != nil {
			rec.End(end, obsv.OutcomeLost, r.policy)
		}
	}
	if r.tel != nil {
		outcome := obsv.OutcomeLost
		if recovered {
			outcome = obsv.OutcomeRecovered
		}
		r.tel.Registry.Counter(MetricMRebootEpisodes,
			obsv.L("app", r.mech.App.String(), "policy", r.policy,
				"class", r.mech.Class().Short(), "outcome", outcome)...).Inc()
	}
}

// applyPolicy performs one recovery attempt and returns the component a
// microreboot targeted ("" for process-level recovery).
func (r *mrebootRun) applyPolicy(attempt int, preOp []byte) string {
	app := r.drv.app
	if r.policy == "microreboot" {
		if target, ok := app.ComponentFor(r.mech.Key); ok {
			app.ContainCrash()
			// The first attempt reboots the attributed component alone, its
			// siblings serving the arrivals in the window; the rung then widens
			// to the component's dependent subtree.
			rebootComponent(app.Tree(), target, attempt > 1, r.serveOutage)
			perturb(r.env, r.mech.Key, attempt)
			return target
		}
		// No attribution: fall through to a process restart.
	}
	// Process-level recovery: the whole application is down for the bounce.
	app.Stop()
	r.env.Advance(mrebootProcRestart)
	r.lostWindow(mrebootProcRestart, true)
	r.env.ReclaimOwner(app.Name())
	perturb(r.env, r.mech.Key, attempt)
	snap := preOp
	if r.policy == "rollback" {
		snap = r.epoch
	}
	if err := app.Restore(snap); err != nil {
		_ = app.Reset()
	}
	return ""
}

// ensureRunning brings an abandoned episode's application back to life.
func (r *mrebootRun) ensureRunning(preOp []byte) {
	app := r.drv.app
	if app.Running() && app.Tree().AllRunning() {
		return
	}
	if r.policy == "microreboot" {
		app.ContainCrash()
		_ = app.Tree().StartAll()
		return
	}
	app.Stop()
	r.env.ReclaimOwner(app.Name())
	if err := app.Restore(preOp); err != nil {
		_ = app.Reset()
	}
}

// observeArm tallies the arm's component reboots and folds the terminal
// counters into its telemetry.
func (r *mrebootRun) observeArm() {
	tree := r.drv.app.Tree()
	for _, name := range tree.Names() {
		n := tree.Reboots(name)
		if n == 0 {
			continue
		}
		r.arm.Reboots += n
		if r.tel != nil {
			r.tel.Registry.Counter(MetricMRebootComponentReboots,
				obsv.L("app", r.mech.App.String(), "policy", r.policy, "component", name)...).Add(float64(n))
		}
	}
	if r.tel != nil && r.arm.Lost > 0 {
		r.tel.Registry.Counter(MetricMRebootRequestsLost,
			obsv.L("app", r.mech.App.String(), "policy", r.policy,
				"class", r.mech.Class().Short())...).Add(float64(r.arm.Lost))
	}
}

// LostBy aggregates requests lost across the arms of one class under one
// policy.
func (r *MRebootReport) LostBy(class taxonomy.FaultClass, policy string) (lost, requests int) {
	for _, a := range r.Arms {
		if a.Class != class || a.Policy != policy {
			continue
		}
		lost += a.Lost
		requests += a.Requests
	}
	return lost, requests
}

// MTTRBy is the mean time to repair across one class's recovered episodes
// under one policy (0 when nothing recovered).
func (r *MRebootReport) MTTRBy(class taxonomy.FaultClass, policy string) time.Duration {
	var total time.Duration
	var n int
	for _, a := range r.Arms {
		if a.Class != class || a.Policy != policy {
			continue
		}
		total += a.MTTRTotal
		n += a.Recovered
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// recoveredBy aggregates recovered-over-episodes for one class × policy.
func (r *MRebootReport) recoveredBy(class taxonomy.FaultClass, policy string) stats.Proportion {
	var p stats.Proportion
	for _, a := range r.Arms {
		if a.Class != class || a.Policy != policy {
			continue
		}
		p.Hits += a.Recovered
		p.N += a.Episodes
	}
	return p
}

// outageGoodputBy aggregates served-during-outage over outage arrivals for
// one class × policy — the inverse of the goodput dip.
func (r *MRebootReport) outageGoodputBy(class taxonomy.FaultClass, policy string) stats.Proportion {
	var p stats.Proportion
	for _, a := range r.Arms {
		if a.Class != class || a.Policy != policy {
			continue
		}
		p.Hits += a.OutageServed
		p.N += a.OutageArrivals
	}
	return p
}

// Check asserts the sweep's headline claim — the microreboot argument made
// measurable: for environment-independent faults, rebooting only the faulty
// component must lose strictly fewer requests than restarting the process,
// and must repair faster wherever both mechanisms recovered anything.
func (r *MRebootReport) Check() error {
	ei := taxonomy.ClassEnvIndependent
	microLost, microReq := r.LostBy(ei, "microreboot")
	restartLost, restartReq := r.LostBy(ei, "restart")
	if microReq == 0 || restartReq == 0 {
		return fmt.Errorf("experiment: mreboot check: empty EI cell (%d/%d requests)", microReq, restartReq)
	}
	if microLost >= restartLost {
		return fmt.Errorf("experiment: mreboot check: EI requests lost %d (microreboot) not below %d (restart)",
			microLost, restartLost)
	}
	for _, class := range taxonomy.Classes() {
		micro, restart := r.MTTRBy(class, "microreboot"), r.MTTRBy(class, "restart")
		if micro > 0 && restart > 0 && micro >= restart {
			return fmt.Errorf("experiment: mreboot check: %s MTTR %s (microreboot) not below %s (restart)",
				class.Short(), micro, restart)
		}
	}
	return nil
}

// mttrCell renders a mean repair time ("-" when nothing recovered, or the
// repair took no virtual time).
func mttrCell(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// String renders the class × policy aggregate and the headline.
func (r *MRebootReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MREBOOT sweep (seed %d, %d arms, %s arrivals):\n",
		r.Seed, len(r.Arms), mrebootInterval)
	tbl := &stats.Table{Header: []string{
		"class", "policy", "episodes", "recovered", "requests", "lost", "outage-served", "mttr"}}
	for _, class := range taxonomy.Classes() {
		for _, policy := range MRebootPolicies() {
			rec := r.recoveredBy(class, policy)
			lost, req := r.LostBy(class, policy)
			good := r.outageGoodputBy(class, policy)
			tbl.Add(class.Short(), policy,
				fmt.Sprint(rec.N),
				fmt.Sprintf("%d/%d (%s)", rec.Hits, rec.N, rec.Percent()),
				fmt.Sprint(req), fmt.Sprint(lost),
				fmt.Sprintf("%d/%d (%s)", good.Hits, good.N, good.Percent()),
				mttrCell(r.MTTRBy(class, policy)))
		}
	}
	b.WriteString(tbl.String())
	ei := taxonomy.ClassEnvIndependent
	microLost, _ := r.LostBy(ei, "microreboot")
	restartLost, _ := r.LostBy(ei, "restart")
	fmt.Fprintf(&b,
		"\nHeadline: for EI faults a targeted component microreboot loses %d requests where a\nprocess restart loses %d — the crash-only tree turns the same generic recovery into\na strictly cheaper outage, without fixing a single bug.\n",
		microLost, restartLost)
	return b.String()
}
