// Package supervise is the production supervision layer over the paper's
// one-shot recovery strategies: a supervisor that keeps a simulated
// application serving a sustained workload while faults fire repeatedly.
//
// Where internal/recovery answers the paper's question — *does a single
// generic recovery survive fault X?* — this package answers the operator's
// question the paper's §8 future work points at: what does a supervisor that
// cannot know the fault class in advance have to do to keep the service up?
// The answer assembled here:
//
//   - a watchdog converts the paper's "application hangs" symptom class into
//     recoverable failures instead of stalled workloads;
//   - crash-loop detection applies exponential backoff with jitter and caps
//     retries with a per-window budget, so a recurring fault cannot consume
//     the machine;
//   - per-mechanism circuit breakers open after repeated recurrences — the
//     operational consequence of the paper's headline result that 72–87% of
//     faults are environment-independent and recur under any
//     state-preserving retry;
//   - an escalation ladder (retry-in-place → microreboot → restore-from-
//     snapshot → clean restart → degraded mode) spends the cheapest, most
//     state-preserving recovery first and discards more only when the
//     outcome doesn't change (after Candea & Fox's microreboots);
//   - a SupervisorReport accounts for every op and every recovery action
//     per fault mechanism.
package supervise

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"faultstudy/internal/component"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/recovery"
	"faultstudy/internal/simenv"
)

// Pseudo-mechanism keys for failures the supervisor itself classifies.
const (
	// MechPanic tags operations that panicked.
	MechPanic = "supervise/panic"
	// MechUnmodeled tags failures outside the seeded-fault model (e.g. an
	// operation broken by state-discarding recovery).
	MechUnmodeled = "supervise/unmodeled"
)

// OpKind partitions workload operations for degraded mode: reads must keep
// being served, writes may be shed.
type OpKind int

const (
	// OpRead is an operation degraded mode must keep serving.
	OpRead OpKind = iota
	// OpWrite is an operation degraded mode may shed.
	OpWrite
)

// String names the kind.
func (k OpKind) String() string {
	if k == OpWrite {
		return "write"
	}
	return "read"
}

// Op is one supervised workload operation.
type Op struct {
	// Name identifies the operation in traces.
	Name string
	// Kind says whether degraded mode may shed it.
	Kind OpKind
	// Do executes the operation.
	Do func() error
}

// Degradable is implemented by applications that support a degraded mode —
// serve static/read traffic while suspending the write paths that need the
// exhausted resource. The supervisor engages it at the last ladder rung.
type Degradable interface {
	// SetDegraded switches degraded mode on or off.
	SetDegraded(bool)
}

// Config configures a Supervisor. The supervision policy itself — watchdog
// charge, backoff, retry budget, breaker, ladder pacing — is fixed by the
// package constants below.
type Config struct {
	// Seed seeds the backoff jitter generator.
	Seed int64
	// GrowResources applies the §6.2 resource governor before each recovery
	// action when the failure's cause is a growable environment resource.
	GrowResources bool
	// Trace, when non-nil, receives every supervision event.
	Trace func(Event)
}

// The supervision policy. Every duration is virtual time on the
// application's environment clock.
const (
	// watchdogTimeout is the virtual time the watchdog charges when an
	// operation reports a hang symptom before declaring it failed.
	watchdogTimeout = 30 * time.Second
	// backoffBase is the first backoff delay.
	backoffBase = time.Second
	// backoffCap bounds the exponential backoff.
	backoffCap = 4 * time.Minute
	// backoffJitter is the uniform jitter fraction added to each delay.
	backoffJitter = 0.25
	// retryBudget is the maximum recovery attempts per retryWindow before
	// the supervisor declares a crash loop and degrades.
	retryBudget = 12
	// retryWindow is the sliding window the retry budget applies to.
	retryWindow = 30 * time.Minute
	// breakerThreshold is the failed-recovery streak that opens a
	// mechanism's circuit breaker: 10 is longer than a full ladder walk, so
	// the degraded rung is reached before the breaker counts out (an
	// exhausted ladder force-opens the breaker regardless).
	breakerThreshold = 10
	// breakerCooldown is how long an open breaker waits before admitting a
	// half-open trial.
	breakerCooldown = 20 * time.Minute
	// rungAttempts is how many recovery attempts each ladder rung gets
	// before escalation: with 2, the cumulative backoff across a full ladder
	// walk spans minutes, long enough for the paper's time-healing transient
	// conditions to clear.
	rungAttempts = 2
	// checkpointEvery is how many served ops pass between epoch snapshots —
	// the restore rung's rollback target.
	checkpointEvery = 16
)

// Supervisor drives one application under sustained workload, recovering
// from failures by policy. It is not safe for concurrent Run calls.
type Supervisor struct {
	cfg      Config
	app      recovery.Application
	env      *simenv.Env // the application's environment: its clock paces every policy
	rng      *rand.Rand  // backoff jitter, seeded from cfg.Seed alone
	breakers breakerSet

	report     *Report
	epoch      []byte // last epoch checkpoint (restore rung target)
	sinceEpoch int
	degraded   bool
	retryLog   []time.Duration // monotonic stamps of recent retries
}

// New builds a supervisor over the application. The application may be
// started or stopped; Run starts it if needed.
func New(app recovery.Application, cfg Config) *Supervisor {
	return &Supervisor{
		cfg:      cfg,
		app:      app,
		env:      app.Env(),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		breakers: make(breakerSet),
	}
}

// Report returns the accumulated report (valid during and after Run).
func (s *Supervisor) Report() *Report { return s.report }

// Run drives the ops through the application under supervision and returns
// the report. Errors are reserved for harness problems (checkpointing
// failed, the application cannot be brought up at all); every behaviour of
// the supervision policy itself lands in the report.
func (s *Supervisor) Run(ops []Op) (*Report, error) {
	s.report = newReport()
	s.retryLog = nil
	if !s.app.Running() {
		if err := s.app.Start(); err != nil {
			// One second chance: reclaim leftovers and reinitialize.
			s.env.ReclaimOwner(s.app.Name())
			if rerr := s.app.Reset(); rerr != nil {
				return s.report, fmt.Errorf("supervise: start %s: %w", s.app.Name(), err)
			}
		}
	}
	defer func() {
		s.report.Breakers = s.breakers.states()
		s.app.Stop()
	}()

	snap, err := s.app.Snapshot()
	if err != nil {
		return s.report, fmt.Errorf("supervise: initial checkpoint: %w", err)
	}
	s.epoch = snap
	s.sinceEpoch = 0
	s.trace(Event{Kind: EventCheckpoint})

	for i, op := range ops {
		s.report.OpsTotal++
		if s.degraded && op.Kind == OpWrite {
			s.report.OpsShed++
			s.trace(Event{Kind: EventShed, Op: op.Name, Rung: RungDegraded})
			continue
		}
		preOp, err := s.app.Snapshot()
		if err != nil {
			return s.report, fmt.Errorf("supervise: checkpoint before %q: %w", op.Name, err)
		}
		// The episode clock starts at dispatch: a hang the watchdog has to
		// charge before the failure is even classified belongs to the
		// episode's repair time.
		dispatchedAt := s.env.Monotonic()
		opErr := s.execute(op)
		if opErr == nil {
			s.opServed(op, preOp)
			continue
		}
		if s.report.FirstFailureOp == 0 {
			s.report.FirstFailureOp = i + 1
		}
		res := s.superviseOp(i, op, preOp, opErr)
		// Stamp the episode's end at decision time — the clock reading at
		// which the verdict landed. Reading the clock here (not at the last
		// recovery action) is load-bearing: an episode that ends mid-ladder
		// has already slept its final backoff and charged its watchdog
		// timeouts, and the duration percentiles must include that time.
		s.endEpisode(dispatchedAt, res)
		switch res {
		case opRecovered:
			s.report.OpsOK++
			s.report.Recovered++
			s.sinceEpoch++ // recovered ops advance the epoch cadence too
		case opShed:
			s.report.OpsShed++
		default:
			s.report.OpsFailed++
		}
	}
	return s.report, nil
}

// endEpisode accounts one failure episode's duration, end-stamped at
// decision time.
func (s *Supervisor) endEpisode(dispatchedAt time.Duration, res opResult) {
	dur := s.env.Monotonic() - dispatchedAt
	s.report.EpisodeDurations = append(s.report.EpisodeDurations, dur)
	if res == opRecovered {
		s.report.RepairDurations = append(s.report.RepairDurations, dur)
	}
}

// opServed accounts a cleanly served op and refreshes the epoch checkpoint
// on cadence. preOp — taken immediately before the op — is known good.
func (s *Supervisor) opServed(op Op, preOp []byte) {
	s.report.OpsOK++
	s.sinceEpoch++
	if s.sinceEpoch >= checkpointEvery {
		s.epoch = preOp
		s.sinceEpoch = 0
		s.trace(Event{Kind: EventCheckpoint, Op: op.Name})
	}
}

// opResult is the outcome of one failure episode.
type opResult int

const (
	opRecovered opResult = iota + 1
	opFailed
	opShed
)

// superviseOp walks one failing operation through the escalation ladder.
func (s *Supervisor) superviseOp(idx int, op Op, preOp []byte, initial error) opResult {
	mech := s.classify(initial)
	s.noteFailure(op, mech, 0, initial)

	if !s.breakers.allow(mech, s.env.Monotonic()) {
		s.report.mech(mech).FastFails++
		s.trace(Event{Kind: EventFastFail, Op: op.Name, Mechanism: mech, Err: initial})
		s.ensureRunning(preOp)
		return opFailed
	}

	rung := RungRetry
	attempt := 0   // episode-wide recovery attempts
	attemptAt := 0 // attempts spent on the current rung
	var lastFE *faultinject.FailureError
	lastFE, _ = faultinject.AsFailure(initial)

	for {
		if rung >= RungDegraded {
			return s.degradeAndFinish(idx, op, preOp, mech)
		}
		if !s.budgetAllows() {
			// Crash loop: the retry budget for this window is gone. Protect
			// the service instead of burning more retries.
			s.report.CrashLoopTrips++
			s.escalateTo(op, mech, RungDegraded)
			rung = RungDegraded
			continue
		}
		attempt++
		attemptAt++
		s.noteRetry()
		delay := backoff(attempt, s.rng)
		s.report.BackoffTotal += delay
		s.trace(Event{Kind: EventBackoff, Op: op.Name, Mechanism: mech, Rung: rung, Attempt: attempt, Delay: delay})
		s.env.Advance(delay)

		target, err := s.applyRung(rung, preOp, mech, attempt, attemptAt, lastFE)
		if err != nil {
			// The recovery action itself failed (e.g. restore ran into the
			// same full disk): escalate immediately.
			s.trace(Event{Kind: EventAction, Op: op.Name, Mechanism: mech, Rung: rung, Attempt: attempt, Component: target, Err: err})
			s.escalateTo(op, mech, rung+1)
			rung++
			attemptAt = 0
			continue
		}
		s.trace(Event{Kind: EventAction, Op: op.Name, Mechanism: mech, Rung: rung, Attempt: attempt, Component: target})
		s.report.mech(mech).Retries++

		retryErr := s.execute(op)
		if retryErr == nil {
			s.report.mech(mech).Recoveries++
			s.breakers.success(mech)
			s.trace(Event{Kind: EventRetryOK, Op: op.Name, Mechanism: mech, Rung: rung, Attempt: attempt})
			return opRecovered
		}
		newMech := s.classify(retryErr)
		if newMech != mech {
			mech = newMech
		}
		s.noteFailure(op, mech, rung, retryErr)
		lastFE, _ = faultinject.AsFailure(retryErr)

		if s.breakers.failure(mech, s.env.Monotonic()) {
			s.report.mech(mech).BreakerOpens++
			s.trace(Event{Kind: EventBreakerOpen, Op: op.Name, Mechanism: mech, Rung: rung, Attempt: attempt, Err: retryErr})
			s.ensureRunning(preOp)
			s.trace(Event{Kind: EventGiveUp, Op: op.Name, Mechanism: mech, Rung: rung, Attempt: attempt, Err: retryErr})
			return opFailed
		}
		if attemptAt >= rungAttempts {
			s.escalateTo(op, mech, rung+1)
			rung++
			attemptAt = 0
		}
	}
}

// degradeAndFinish is the last rung: enter degraded mode, shed the op if it
// is a write, otherwise try it once degraded. A degraded retry that still
// fails proves the fault is not a resource/overload condition — degraded
// mode is reverted, full service resumes, and the mechanism's breaker opens.
func (s *Supervisor) degradeAndFinish(idx int, op Op, preOp []byte, mech string) opResult {
	s.enterDegraded(idx)
	s.ensureRunning(preOp)
	if op.Kind == OpWrite {
		s.trace(Event{Kind: EventShed, Op: op.Name, Mechanism: mech, Rung: RungDegraded})
		return opShed
	}
	s.report.mech(mech).Retries++
	s.noteRetry()
	if err := s.execute(op); err == nil {
		s.report.mech(mech).Recoveries++
		s.breakers.success(mech)
		s.trace(Event{Kind: EventRetryOK, Op: op.Name, Mechanism: mech, Rung: RungDegraded})
		return opRecovered
	}
	s.exitDegraded()
	if s.breakers.forceOpen(mech, s.env.Monotonic()) {
		s.report.mech(mech).BreakerOpens++
		s.trace(Event{Kind: EventBreakerOpen, Op: op.Name, Mechanism: mech, Rung: RungDegraded})
	}
	s.ensureRunning(preOp)
	s.trace(Event{Kind: EventGiveUp, Op: op.Name, Mechanism: mech, Rung: RungDegraded})
	return opFailed
}

// applyRung applies one ladder rung's recovery action. The first return
// value names the component a real microreboot targeted ("" for
// process-level actions). attemptAt is the attempt number within the current
// rung: the microreboot rung reboots the attributed component alone first
// and widens to its dependent subtree on the rung's later attempts.
func (s *Supervisor) applyRung(rung Rung, preOp []byte, mech string, attempt, attemptAt int, fe *faultinject.FailureError) (string, error) {
	if s.cfg.GrowResources && fe != nil {
		recovery.GrowResources(s.env, fe)
	}
	perturb := func() {
		// Wang93: each retry deliberately forces a different interleaving at
		// the failing program point, so races are not retried into the same
		// losing schedule.
		s.env.Sched().UnforceAll()
		s.env.Reroll()
		s.env.Sched().Force(mech, attempt)
	}
	switch rung {
	case RungRetry:
		if s.app.Running() {
			perturb()
			return "", nil
		}
		s.app.Stop()
		s.env.ReclaimOwner(s.app.Name())
		perturb()
		return "", s.app.Restore(preOp)
	case RungMicroreboot:
		// A real microreboot, when the application is a component tree and
		// the mechanism attributes to a component: contain the crash to the
		// tree, then cycle the faulty component — its subtree on later
		// attempts — while siblings keep serving. No process stop, no
		// resource reclaim, no state restore: the crash-only contract makes
		// all three unnecessary.
		if host, ok := s.app.(component.Host); ok {
			if target, attributed := host.ComponentFor(mech); attributed {
				host.ContainCrash()
				perturb()
				if attemptAt <= 1 {
					return target, host.Tree().Reboot(target)
				}
				return target, host.Tree().RebootSubtree(target)
			}
		}
		// Monolithic fallback: the coarse component-level reboot that
		// preserves all logical state.
		s.app.Stop()
		s.env.ReclaimOwner(s.app.Name())
		perturb()
		return "", s.app.Restore(preOp)
	case RungRestore:
		s.app.Stop()
		s.env.ReclaimOwner(s.app.Name())
		perturb()
		return "", s.app.Restore(s.epoch)
	case RungRestart:
		s.app.Stop()
		s.env.ReclaimOwner(s.app.Name())
		perturb()
		return "", s.app.Reset()
	default:
		return "", fmt.Errorf("supervise: no action for rung %s", rung)
	}
}

// ensureRunning brings the application back up after an abandoned episode so
// the remaining workload keeps being served: restore the pre-op state, and
// fall back to a clean restart when even that fails.
func (s *Supervisor) ensureRunning(preOp []byte) {
	if s.app.Running() {
		return
	}
	s.app.Stop()
	s.env.ReclaimOwner(s.app.Name())
	s.env.Sched().UnforceAll()
	s.env.Reroll()
	if err := s.app.Restore(preOp); err == nil {
		return
	}
	_ = s.app.Reset()
}

func (s *Supervisor) enterDegraded(idx int) {
	if s.degraded {
		return
	}
	s.degraded = true
	s.report.Degraded = true
	if s.report.DegradedAtOp == 0 {
		s.report.DegradedAtOp = idx + 1
	}
	s.report.Escalations[RungDegraded]++
	if d, ok := s.app.(Degradable); ok {
		d.SetDegraded(true)
	}
	s.trace(Event{Kind: EventDegraded, Rung: RungDegraded})
}

func (s *Supervisor) exitDegraded() {
	if !s.degraded {
		return
	}
	s.degraded = false
	s.report.Degraded = false
	if d, ok := s.app.(Degradable); ok {
		d.SetDegraded(false)
	}
	s.trace(Event{Kind: EventDegradedExit})
}

// escalateTo records a ladder escalation.
func (s *Supervisor) escalateTo(op Op, mech string, to Rung) {
	if to > RungDegraded {
		to = RungDegraded
	}
	s.report.mech(mech).Escalations++
	if to != RungDegraded { // degraded entry is counted by enterDegraded
		s.report.Escalations[to]++
	}
	s.trace(Event{Kind: EventEscalate, Op: op.Name, Mechanism: mech, Rung: to})
}

// budgetAllows prunes the retry log to the sliding window and reports
// whether another retry fits the budget.
func (s *Supervisor) budgetAllows() bool {
	now := s.env.Monotonic()
	keep := s.retryLog[:0]
	for _, t := range s.retryLog {
		if now-t < retryWindow {
			keep = append(keep, t)
		}
	}
	s.retryLog = keep
	return len(s.retryLog) < retryBudget
}

func (s *Supervisor) noteRetry() {
	s.retryLog = append(s.retryLog, s.env.Monotonic())
}

// noteFailure records one observed failure in the report. rung is the
// ladder rung whose retry just failed, or zero for the initial failure
// that opens the episode.
func (s *Supervisor) noteFailure(op Op, mech string, rung Rung, err error) {
	s.report.mech(mech).Failures++
	s.trace(Event{Kind: EventFailure, Op: op.Name, Mechanism: mech, Rung: rung, Err: err})
}

// classify maps an error to its fault mechanism key.
func (s *Supervisor) classify(err error) string {
	if fe, ok := faultinject.AsFailure(err); ok {
		return fe.Mechanism
	}
	var pe *panicError
	if errors.As(err, &pe) {
		return MechPanic
	}
	return MechUnmodeled
}

// trace emits an event to the configured hook, stamping it with the
// supervisor clock. Nothing is computed when no hook is configured.
func (s *Supervisor) trace(ev Event) {
	if s.cfg.Trace != nil {
		ev.At = s.env.Monotonic()
		s.cfg.Trace(ev)
	}
}
