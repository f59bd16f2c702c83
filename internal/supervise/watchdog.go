package supervise

import (
	"fmt"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/taxonomy"
)

// panicError wraps a panic recovered from an operation so it flows through
// the ladder like any other crash symptom.
type panicError struct {
	op    string
	value any
}

// Error describes the recovered panic.
func (e *panicError) Error() string {
	return fmt.Sprintf("supervise: panic in %q: %v", e.op, e.value)
}

// runOp invokes the operation with a panic guard: a panicking op becomes a
// *panicError failure instead of taking the supervisor down.
func (s *Supervisor) runOp(op Op) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &panicError{op: op.Name, value: v}
		}
	}()
	return op.Do()
}

// execute runs one operation under the watchdog. Simulated operations return
// promptly even when they model a hang (the hang is a symptom on the error),
// so the watchdog charges the virtual clock for hang symptoms and moves on.
func (s *Supervisor) execute(op Op) error {
	err := s.runOp(op)
	if err != nil {
		s.chargeHang(op, err)
	}
	return err
}

// chargeHang advances the virtual clock by the watchdog timeout when a
// failure reports the hang symptom: in the modeled world the application sat
// unresponsive until the watchdog expired, and every time-dependent policy
// (backoff windows, breaker cooldowns, time-healing faults) should see that
// time pass.
func (s *Supervisor) chargeHang(op Op, err error) {
	fe, ok := faultinject.AsFailure(err)
	if !ok || fe.Symptom != taxonomy.SymptomHang {
		return
	}
	s.env.Advance(watchdogTimeout)
	s.report.mech(fe.Mechanism).WatchdogTimeouts++
	s.trace(Event{Kind: EventWatchdog, Op: op.Name, Mechanism: fe.Mechanism, Err: err})
}
