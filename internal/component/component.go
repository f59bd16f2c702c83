// Package component is the crash-only component runtime behind the real
// microreboot rung: applications are restructured into trees of individually
// restartable components so that recovery can reboot exactly the part that
// failed — in simulated milliseconds — while the rest of the application
// keeps serving.
//
// The design follows Candea & Fox ("Microreboot — A Technique for Cheap
// Recovery", and the crash-only software position paper it grew from), the
// 2004 answer to the source paper's §8 question of whether generic recovery
// can get cheaper than whole-process restart:
//
//   - every component implements a crash-only lifecycle: Kill is always safe,
//     always instant, and never negotiates — cleanup happens on the next
//     Start, not on the way down;
//   - components hold no private session state. Sessions, prepared
//     statements, and open-request context live in an externalized Store
//     that survives component death, so rebooting a component loses work in
//     flight but never the user's session;
//   - components declare dependency edges in a Tree, so the runtime can
//     reboot one leaf (or, when that does not help, the subtree above it)
//     in dependency order while siblings keep serving;
//   - reboot time is charged to the injectable virtual clock, which is what
//     makes "a microreboot costs milliseconds, a process restart costs
//     seconds" a measured claim instead of an assertion (the MREBOOT
//     experiment, EXPERIMENTS.md).
//
// internal/apps/{httpd,sqldb,desktop} each provide a componentized
// decomposition built on this runtime, and internal/supervise targets the
// ladder's microreboot rung at the faulty component through the Host
// interface.
package component

import (
	"fmt"
	"time"
)

// Component is one individually restartable unit of an application. The
// contract is crash-only: Kill must always succeed instantly from any state
// (resources the component held are dropped, not handed back gracefully),
// and Start must be able to bring the component up from the wreckage Kill
// leaves behind. Stop exists for orderly shutdown of the whole tree; the
// recovery paths never rely on it.
type Component interface {
	// Name is the component's unique name within its tree, conventionally
	// "app/part" (e.g. "httpd/logger").
	Name() string
	// Start brings the component up, re-acquiring whatever environment
	// resources it owns. Start on a running component is a no-op; that
	// idempotence is what lets a whole-process restore bring the tree back
	// without double-acquiring resources.
	Start() error
	// Stop shuts the component down gracefully (orderly whole-tree shutdown
	// only; recovery uses Kill).
	Stop()
	// Kill crash-stops the component: its in-memory state and in-flight work
	// are gone immediately, resources it held are dropped for the
	// environment to reclaim, and nothing is flushed. Kill never fails.
	Kill()
	// Probe reports the component's health: nil when it is up and its owned
	// resources are intact, an error describing what is wrong otherwise.
	Probe() error
	// Running reports whether the component is up.
	Running() bool
}

// Clock is the virtual clock reboot costs are charged to. *simenv.Env
// satisfies it; tests may supply fakes.
type Clock interface {
	// Advance moves the virtual clock forward by d.
	Advance(d time.Duration)
}

// DownError is the failure an operation observes when a component it routes
// through is down (killed, mid-reboot, or never started). The serving tier
// returns it for requests that arrive while a microreboot is in progress —
// these are the "requests lost" the MREBOOT experiment scores.
type DownError struct {
	// Component is the name of the component that was down.
	Component string
}

// Error implements error.
func (e *DownError) Error() string {
	return fmt.Sprintf("component %s is down", e.Component)
}

// Down builds a DownError for the named component.
func Down(name string) error { return &DownError{Component: name} }

// Host is implemented by applications that have been restructured into a
// component tree. The supervisor's microreboot rung and the MREBOOT
// experiment use it to target recovery at the faulty component instead of
// the whole process.
type Host interface {
	// Tree returns the application's component tree.
	Tree() *Tree
	// ComponentFor maps a fault mechanism key to the component the defect
	// lives in. The second result is false for mechanisms with no component
	// attribution (recovery then falls back to process-level actions).
	ComponentFor(mechanism string) (string, bool)
	// ContainCrash reattributes a process-fatal failure to the component
	// tree. The simulated monolithic applications mark themselves dead when
	// a seeded crash bug fires; in the componentized decomposition only the
	// faulty component's process dies, so containment revives the
	// process-level liveness flag and leaves the caller to reboot the
	// faulty component. Calling it when the process is healthy is a no-op.
	ContainCrash()
}
