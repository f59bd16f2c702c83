package supervise

import (
	"fmt"
	"sort"
	"time"
)

// BreakerState is the lifecycle state of one mechanism's circuit breaker.
type BreakerState int

const (
	// BreakerClosed passes failures into the normal recovery ladder.
	BreakerClosed BreakerState = iota
	// BreakerOpen fails the mechanism fast: no retries are spent on it.
	BreakerOpen
	// BreakerHalfOpen admits one trial recovery episode after the cooldown;
	// its outcome closes or re-opens the breaker.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// breaker is one fault mechanism's circuit breaker. The paper's headline
// result — 72–87% of faults are environment-independent and recur under any
// state-preserving retry — is what the breaker operationalizes: after enough
// recoveries in a row failed to change the outcome, the fault is treated as
// deterministic and retries stop.
type breaker struct {
	state       BreakerState
	consecutive int // failed recovery attempts in a row
	openedAt    time.Duration
}

// breakerSet holds the per-mechanism breakers.
type breakerSet map[string]*breaker

func (s breakerSet) get(mech string) *breaker {
	b, ok := s[mech]
	if !ok {
		b = &breaker{}
		s[mech] = b
	}
	return b
}

// allow reports whether a failure of mech may enter the recovery ladder. An
// open breaker whose cooldown has passed transitions to half-open and admits
// one trial episode.
func (s breakerSet) allow(mech string, now time.Duration) bool {
	b := s.get(mech)
	switch b.state {
	case BreakerOpen:
		if now-b.openedAt >= breakerCooldown {
			b.state = BreakerHalfOpen
			return true
		}
		return false
	default:
		return true
	}
}

// failure records one failed recovery attempt for mech and reports whether
// the breaker newly opened. A half-open trial that fails re-opens
// immediately.
func (s breakerSet) failure(mech string, now time.Duration) bool {
	b := s.get(mech)
	b.consecutive++
	if b.state == BreakerHalfOpen || b.consecutive >= breakerThreshold {
		wasOpen := b.state == BreakerOpen
		b.state = BreakerOpen
		b.openedAt = now
		return !wasOpen
	}
	return false
}

// forceOpen opens the breaker regardless of count — the escalation ladder
// was exhausted without changing the outcome, which is as deterministic as
// evidence gets. Reports whether the breaker newly opened.
func (s breakerSet) forceOpen(mech string, now time.Duration) bool {
	b := s.get(mech)
	wasOpen := b.state == BreakerOpen
	b.state = BreakerOpen
	b.openedAt = now
	b.consecutive = breakerThreshold
	return !wasOpen
}

// success records a recovery that worked: the mechanism is not deterministic
// after all. Closes a half-open breaker and resets the recurrence count.
func (s breakerSet) success(mech string) {
	b := s.get(mech)
	b.state = BreakerClosed
	b.consecutive = 0
}

// states returns a snapshot of every tracked breaker, sorted by mechanism.
func (s breakerSet) states() []BreakerStatus {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]BreakerStatus, 0, len(keys))
	for _, k := range keys {
		b := s[k]
		out = append(out, BreakerStatus{Mechanism: k, State: b.state, Consecutive: b.consecutive})
	}
	return out
}

// BreakerStatus is the externally visible state of one mechanism's breaker.
type BreakerStatus struct {
	// Mechanism is the fault mechanism guarded.
	Mechanism string
	// State is the breaker lifecycle state.
	State BreakerState
	// Consecutive is the current failed-recovery streak.
	Consecutive int
}
