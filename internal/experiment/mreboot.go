package experiment

import (
	"fmt"
	"strings"
	"time"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/obsv"
	"faultstudy/internal/parallel"
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

// mrebootBgOps is the background workload length per arm; the scenario's
// trigger ops are spliced in at evenly spaced positions. The sweep's subject
// is the virtual-time asymmetry (recover.go) between a component reboot
// (milliseconds) and procRestart (seconds).
const mrebootBgOps = 60

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
func (a MRebootArm) MTTR() time.Duration { return meanRepair(a.MTTRTotal, a.Recovered) }

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

// mrebootRun is the per-arm state shared by the workload loop and the
// episode handler. Its recoverer's rung is the arm's policy.
type mrebootRun struct {
	recoverer
	mech  faultinject.Mechanism
	drv   *componentDriver
	epoch []byte // the run-start checkpoint the rollback policy restores
	preOp []byte // the checkpoint taken before the arrival in flight
	arm   *MRebootArm
	tel   *Telemetry
	bgIdx int
}

// runMRebootArm runs one (mechanism, policy) cell. Everything it does is a
// pure function of (cfg, arm index); it shares no state with other arms.
func runMRebootArm(cfg MRebootConfig, armIdx int, mech faultinject.Mechanism, policy string, tel *Telemetry) (MRebootArm, error) {
	arm := MRebootArm{Mechanism: mech.Key, App: mech.App, Class: mech.Class(), Policy: policy}
	drv, sc, err := startComponentArm("mreboot", policy, mech, parallel.Derive(cfg.Seed, uint64(armIdx)))
	if err != nil {
		return arm, err
	}
	app := drv.app
	epoch, err := app.Snapshot()
	if err != nil {
		return arm, fmt.Errorf("experiment: mreboot %s × %s: checkpoint: %w", mech.Key, policy, err)
	}
	run := &mrebootRun{mech: mech, drv: drv, epoch: epoch, arm: &arm, tel: tel, bgIdx: mrebootBgOps}
	run.recoverer = recoverer{env: app.Env(), rec: tel.recorder(), key: mech.Key, rung: policy,
		detect: run.detect, act: run.applyPolicy}
	run.rec.SetContext(armContext(mech))

	for _, a := range spliceArrivals(drv, sc.Ops, mrebootBgOps) {
		run.env.Advance(arrivalGap)
		if run.preOp, err = app.Snapshot(); err != nil {
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
		run.episode(a, opErr)
	}
	app.Stop()
	run.observeArm()
	return arm, nil
}

// detect charges the detection window: between the fault firing and
// recovery engaging nothing serves, under every policy alike.
func (r *mrebootRun) detect() {
	r.env.Advance(detectLatency)
	r.lostWindow(detectLatency, false)
}

// lostWindow charges a full-outage window: window/arrivalGap concurrent
// arrivals hit a dead process and are lost. When outage is true the
// arrivals also count toward the goodput-dip denominator (recovery windows;
// detection windows hit every policy alike and are excluded).
func (r *mrebootRun) lostWindow(window time.Duration, outage bool) {
	k := int(window / arrivalGap)
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
	k := int(window / arrivalGap)
	for i := 0; i < k; i++ {
		r.arm.Requests++
		r.arm.OutageArrivals++
		idx := r.bgIdx
		r.bgIdx++
		if r.drv.bg(idx) == nil {
			r.arm.Served++
			r.arm.OutageServed++
		} else {
			// Down or hitting the active fault, whose episode already owns
			// recovery: either way the arrival is lost.
			r.arm.Lost++
		}
	}
}

// episode recovers one failed arrival with the arm's policy and closes it: a
// served retry earns an "ok" retry span and counts toward MTTR; an abandoned
// trigger is lost and the process is revived for the rest of the workload.
func (r *mrebootRun) episode(a arrival, opErr error) {
	arm := r.arm
	arm.Episodes++
	start, servedOn := r.recoverOp(a.name, opErr, a.do)
	end := r.env.Monotonic()
	outcome := obsv.OutcomeLost
	if servedOn > 0 {
		outcome = obsv.OutcomeRecovered
		arm.Served++
		arm.Recovered++
		arm.MTTRTotal += end - start
		r.rec.Note(end, obsv.Span{Kind: obsv.SpanRetry, Rung: r.rung, Outcome: "ok"})
	} else {
		arm.Lost++
		r.ensureRunning()
	}
	r.rec.End(end, outcome, r.rung)
	if r.tel == nil {
		return
	}
	if servedOn > 0 {
		r.tel.Registry.Histogram(MetricMRebootMTTRSeconds, obsv.LatencyBuckets,
			obsv.L("policy", r.rung, "class", r.mech.Class().Short())...).ObserveDuration(end - start)
	}
	r.tel.Registry.Counter(MetricMRebootEpisodes,
		obsv.L("app", r.mech.App.String(), "policy", r.rung,
			"class", r.mech.Class().Short(), "outcome", outcome)...).Inc()
}

// applyPolicy performs one recovery attempt and returns the component a
// microreboot targeted ("" for process-level recovery).
func (r *mrebootRun) applyPolicy(attempt int) string {
	app := r.drv.app
	if r.rung == "microreboot" {
		if target, ok := app.ComponentFor(r.mech.Key); ok {
			app.ContainCrash()
			// The first attempt reboots the attributed component alone, its
			// siblings serving the arrivals in the window; the rung then widens
			// to the component's dependent subtree.
			rebootComponent(app.Tree(), target, attempt > 1, r.serveOutage)
			return target
		}
		// No attribution: fall through to a process restart.
	}
	// Process-level recovery: the whole application is down for the bounce.
	app.Stop()
	r.env.Advance(procRestart)
	r.lostWindow(procRestart, true)
	snap := r.preOp
	if r.rung == "rollback" {
		snap = r.epoch
	}
	reinstate(app, snap)
	return ""
}

// ensureRunning brings an abandoned episode's application back to life.
func (r *mrebootRun) ensureRunning() {
	app := r.drv.app
	if app.Running() && app.Tree().AllRunning() {
		return
	}
	if r.rung == "microreboot" {
		app.ContainCrash()
		_ = app.Tree().StartAll()
		return
	}
	app.Stop()
	reinstate(app, r.preOp)
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
				obsv.L("app", r.mech.App.String(), "policy", r.rung, "component", name)...).Add(float64(n))
		}
	}
	if r.tel != nil && r.arm.Lost > 0 {
		r.tel.Registry.Counter(MetricMRebootRequestsLost,
			obsv.L("app", r.mech.App.String(), "policy", r.rung,
				"class", r.mech.Class().Short())...).Add(float64(r.arm.Lost))
	}
}

// cell sums the arms of one class under one policy into one arm.
func (r *MRebootReport) cell(class taxonomy.FaultClass, policy string) MRebootArm {
	c := MRebootArm{Class: class, Policy: policy}
	for _, a := range r.Arms {
		if a.Class != class || a.Policy != policy {
			continue
		}
		c.Requests += a.Requests
		c.Served += a.Served
		c.Lost += a.Lost
		c.OutageArrivals += a.OutageArrivals
		c.OutageServed += a.OutageServed
		c.Episodes += a.Episodes
		c.Recovered += a.Recovered
		c.Reboots += a.Reboots
		c.MTTRTotal += a.MTTRTotal
	}
	return c
}

// Check asserts the sweep's headline claim — the microreboot argument made
// measurable: for environment-independent faults, rebooting only the faulty
// component must lose strictly fewer requests than restarting the process,
// and must repair faster wherever both mechanisms recovered anything.
func (r *MRebootReport) Check() error {
	micro := r.cell(taxonomy.ClassEnvIndependent, "microreboot")
	restart := r.cell(taxonomy.ClassEnvIndependent, "restart")
	if micro.Requests == 0 || restart.Requests == 0 {
		return fmt.Errorf("experiment: mreboot check: empty EI cell (%d/%d requests)", micro.Requests, restart.Requests)
	}
	if micro.Lost >= restart.Lost {
		return fmt.Errorf("experiment: mreboot check: EI requests lost %d (microreboot) not below %d (restart)",
			micro.Lost, restart.Lost)
	}
	for _, class := range taxonomy.Classes() {
		micro, restart := r.cell(class, "microreboot").MTTR(), r.cell(class, "restart").MTTR()
		if micro > 0 && restart > 0 && micro >= restart {
			return fmt.Errorf("experiment: mreboot check: %s MTTR %s (microreboot) not below %s (restart)",
				class.Short(), micro, restart)
		}
	}
	return nil
}

// String renders the class × policy aggregate and the headline.
func (r *MRebootReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MREBOOT sweep (seed %d, %d arms, %s arrivals):\n",
		r.Seed, len(r.Arms), arrivalGap)
	tbl := &stats.Table{Header: []string{
		"class", "policy", "episodes", "recovered", "requests", "lost", "outage-served", "mttr"}}
	for _, class := range taxonomy.Classes() {
		for _, policy := range MRebootPolicies() {
			c := r.cell(class, policy)
			tbl.Add(class.Short(), policy, fmt.Sprint(c.Episodes), fractionCell(c.Recovered, c.Episodes),
				fmt.Sprint(c.Requests), fmt.Sprint(c.Lost),
				fractionCell(c.OutageServed, c.OutageArrivals), mttrCell(c.MTTR()))
		}
	}
	b.WriteString(tbl.String())
	ei := taxonomy.ClassEnvIndependent
	fmt.Fprintf(&b,
		"\nHeadline: for EI faults a targeted component microreboot loses %d requests where a\nprocess restart loses %d — the crash-only tree turns the same generic recovery into\na strictly cheaper outage, without fixing a single bug.\n",
		r.cell(ei, "microreboot").Lost, r.cell(ei, "restart").Lost)
	return b.String()
}
