package experiment

import (
	"fmt"
	"time"

	"faultstudy/internal/component"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/obsv"
	"faultstudy/internal/simenv"
)

// This file is the recovery mechanism the component-level experiments
// (MREBOOT, SCOPE, SERVE) share: one episode engine applied at whatever rung
// an arm measures, the platform's virtual-time model, and the MREBOOT/SCOPE
// arrival schedule (their shared arm setup is startComponentArm, in the app
// catalogue). Each experiment keeps only its own rung actions and its own way
// of closing an episode.

// The platform's virtual-time model. Detection and process restart are
// properties of the platform, not of the experiment asking the question.
const (
	// detectLatency is the failure-detection window charged to every
	// MREBOOT and SERVE episode: the time between the fault firing and the
	// recovery mechanism engaging, during which nothing serves.
	detectLatency = 100 * time.Millisecond
	// procRestart is the cost of bouncing the whole process: exit, exec,
	// reinitialize, restore. Component-level rungs never pay it.
	procRestart = 2 * time.Second
	// recoverAttempts bounds the (action, retry) rounds of one episode;
	// MREBOOT's microreboot widens to the dependent subtree on the second,
	// mirroring the supervisor's rung.
	recoverAttempts = 2
	// arrivalGap is the arrival spacing of the MREBOOT and SCOPE workloads.
	// It is tighter than the cheapest component reboot so even leaf reboots
	// see in-flight traffic.
	arrivalGap = 2 * time.Millisecond
)

// recoverer is one arm's recovery mechanism: detect the failure, act at the
// arm's rung, force a fresh interleaving, retry the failed op.
type recoverer struct {
	env *simenv.Env
	// rec receives the episode's spans; nil records nothing.
	rec *obsv.Recorder
	// key is the mechanism episodes open under and each retry forces.
	key string
	// rung names the recovery mechanism on every span.
	rung string
	// detect charges the detection window before the first action; nil
	// charges nothing.
	detect func()
	// act performs one recovery action and returns the component it
	// targeted ("" for process-level actions).
	act func(attempt int) string
}

// recoverOp runs one recovery episode for an op that failed with faultErr.
// It opens the trace episode, charges detection, then runs up to
// recoverAttempts rounds of action and retry, noting the action span and
// each failed retry. It returns the clock reading the episode began at and
// the attempt whose retry served the op (0 when none did); the episode is
// left open for the caller to close.
func (e *recoverer) recoverOp(op string, faultErr error, retry func() error) (start time.Duration, servedOn int) {
	start = e.env.Monotonic()
	e.rec.Begin(start, op, e.key)
	e.rec.Note(start, obsv.Span{Kind: obsv.SpanActivation, Note: faultErr.Error()})
	if e.detect != nil {
		e.detect()
	}
	for attempt := 1; attempt <= recoverAttempts; attempt++ {
		target := e.act(attempt)
		perturb(e.env, e.key, attempt)
		e.rec.Note(e.env.Monotonic(), obsv.Span{Kind: obsv.SpanAction, Rung: e.rung,
			Attempt: attempt, Outcome: "ok", Component: target})
		err := retry()
		if err == nil {
			return start, attempt
		}
		e.rec.Note(e.env.Monotonic(), obsv.Span{Kind: obsv.SpanRetry, Rung: e.rung,
			Attempt: attempt, Outcome: "fail", Note: err.Error()})
	}
	return start, 0
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

// reinstate reclaims everything a stopped app held in its environment and
// restores snap, falling back to pristine state when snap does not restore.
// It reports whether it fell back.
func reinstate(app componentApp, snap []byte) (reset bool) {
	app.Env().ReclaimOwner(app.Name())
	if app.Restore(snap) == nil {
		return false
	}
	_ = app.Reset()
	return true
}

// armContext is the recorder identity of an arm running one mechanism.
func armContext(mech faultinject.Mechanism) obsv.Context {
	return obsv.Context{App: mech.App.String(), FaultID: mech.Key, Class: mech.Class().Short()}
}

// arrival is one scheduled MREBOOT or SCOPE workload arrival.
type arrival struct {
	name    string
	trigger bool
	do      func() error
}

// spliceArrivals builds an arm's arrival schedule: bg background ops with
// the scenario's trigger ops inserted in order at evenly spaced positions.
func spliceArrivals(drv *componentDriver, ops []faultinject.Op, bg int) []arrival {
	total := bg + len(ops)
	stride := total / (len(ops) + 1)
	arrivals := make([]arrival, 0, total)
	next, bgIdx := 0, 0
	for i := 0; i < total; i++ {
		if next < len(ops) && i == (next+1)*stride {
			op := ops[next]
			arrivals = append(arrivals, arrival{name: op.Name, trigger: true, do: op.Do})
			next++
			continue
		}
		idx := bgIdx
		arrivals = append(arrivals, arrival{
			name: fmt.Sprintf("bg-%03d", idx),
			do:   func() error { return drv.bg(idx) },
		})
		bgIdx++
	}
	return arrivals
}
