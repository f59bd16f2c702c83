package component

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Spec declares one component's position in a Tree: the component itself,
// the components it requires, and what its crash-only reboot costs on the
// virtual clock.
type Spec struct {
	// Component is the unit being added.
	Component Component
	// Deps names the components this one requires. Dependencies must already
	// be in the tree, which keeps the graph acyclic by construction.
	Deps []string
	// StartCost is the virtual time one Start of this component charges —
	// the price of a microreboot, in simulated milliseconds.
	StartCost time.Duration
}

// Tree is a dependency-ordered collection of crash-only components — the
// componentized application's skeleton. It starts components in dependency
// order, stops them in reverse, and reboots a single component (or the
// subtree that depends on it) on demand, charging reboot time to the
// virtual clock.
//
// Tree methods are safe for concurrent use: one goroutine may reboot a
// component while others query liveness and serve through siblings.
type Tree struct {
	clock Clock

	mu    sync.Mutex
	nodes map[string]*node
	order []string // insertion order; dependencies precede dependents
	// reboots counts completed component reboots by name.
	reboots map[string]int
}

// node is one tree entry.
type node struct {
	spec Spec
}

// NewTree builds an empty tree over the given clock.
func NewTree(clock Clock) *Tree {
	return &Tree{
		clock:   clock,
		nodes:   make(map[string]*node),
		reboots: make(map[string]int),
	}
}

// Add inserts a component. It is an error to reuse a name or to depend on a
// component that has not been added yet (the ordering rule that keeps the
// dependency graph acyclic).
func (t *Tree) Add(spec Spec) error {
	if spec.Component == nil {
		return errors.New("component: Add with nil component")
	}
	name := spec.Component.Name()
	if name == "" {
		return errors.New("component: Add with empty name")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.nodes[name]; dup {
		return fmt.Errorf("component: %q already in tree", name)
	}
	for _, dep := range spec.Deps {
		if _, ok := t.nodes[dep]; !ok {
			return fmt.Errorf("component: %q depends on unknown %q (dependencies must be added first)", name, dep)
		}
	}
	t.nodes[name] = &node{spec: spec}
	t.order = append(t.order, name)
	return nil
}

// MustAdd adds and panics on error; for fixed catalogues whose shape is a
// compile-time property of the application.
func (t *Tree) MustAdd(spec Spec) {
	if err := t.Add(spec); err != nil {
		panic(err)
	}
}

// Names returns the component names in dependency order.
func (t *Tree) Names() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.order...)
}

// lookup returns the node for name or an error.
func (t *Tree) lookup(name string) (*node, error) {
	n, ok := t.nodes[name]
	if !ok {
		return nil, fmt.Errorf("component: unknown component %q", name)
	}
	return n, nil
}

// StartAll starts every component in dependency order, charging each
// component's StartCost. It stops at the first failure, leaving earlier
// components up.
func (t *Tree) StartAll() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, name := range t.order {
		n := t.nodes[name]
		if n.spec.Component.Running() {
			continue
		}
		t.clock.Advance(n.spec.StartCost)
		if err := n.spec.Component.Start(); err != nil {
			return fmt.Errorf("component: start %s: %w", name, err)
		}
	}
	return nil
}

// StopAll stops every component in reverse dependency order.
func (t *Tree) StopAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.order) - 1; i >= 0; i-- {
		t.nodes[t.order[i]].spec.Component.Stop()
	}
}

// Running reports whether the named component is up; unknown names are not
// running.
func (t *Tree) Running(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.nodes[name]
	return ok && n.spec.Component.Running()
}

// AllRunning reports whether every component is up.
func (t *Tree) AllRunning() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, name := range t.order {
		if !t.nodes[name].spec.Component.Running() {
			return false
		}
	}
	return true
}

// Probe runs every component's health probe and returns the findings by
// component name (empty map when everything is healthy).
func (t *Tree) Probe() map[string]error {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]error)
	for _, name := range t.order {
		if err := t.nodes[name].spec.Component.Probe(); err != nil {
			out[name] = err
		}
	}
	return out
}

// SubtreeOf returns name followed by every transitive dependent, in
// dependency order — the set a subtree reboot cycles.
func (t *Tree) SubtreeOf(name string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.subtreeLocked(name)
}

func (t *Tree) subtreeLocked(name string) []string {
	in := map[string]bool{name: true}
	// One forward pass over insertion order suffices: dependencies precede
	// dependents, so a dependent of anything already in the set is seen
	// after it.
	var out []string
	for _, n := range t.order {
		if !in[n] {
			for _, dep := range t.nodes[n].spec.Deps {
				if in[dep] {
					in[n] = true
					break
				}
			}
		}
		if in[n] {
			out = append(out, n)
		}
	}
	return out
}

// RebootCost returns the virtual time a Reboot of name charges (zero for
// unknown names).
func (t *Tree) RebootCost(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.nodes[name]
	if !ok {
		return 0
	}
	return n.spec.StartCost
}

// SubtreeCost returns the virtual time a RebootSubtree of name charges: the
// summed StartCost of the component and its transitive dependents.
func (t *Tree) SubtreeCost(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total time.Duration
	for _, n := range t.subtreeLocked(name) {
		total += t.nodes[n].spec.StartCost
	}
	return total
}

// Kill crash-stops one component without restarting it — the first half of
// a windowed reboot. Serving continues through siblings; operations routed
// through the dead component observe DownError until Restart brings it
// back.
func (t *Tree) Kill(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, err := t.lookup(name)
	if err != nil {
		return err
	}
	n.spec.Component.Kill()
	return nil
}

// Restart brings one killed component back up, charging its StartCost to
// the clock and counting the completed reboot.
func (t *Tree) Restart(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.restartLocked(name)
}

func (t *Tree) restartLocked(name string) error {
	n, err := t.lookup(name)
	if err != nil {
		return err
	}
	t.clock.Advance(n.spec.StartCost)
	if err := n.spec.Component.Start(); err != nil {
		return fmt.Errorf("component: restart %s: %w", name, err)
	}
	t.reboots[name]++
	return nil
}

// Reboot microreboots one component: crash-stop, then start, charging the
// StartCost. Siblings are untouched — this is the cheap recovery the
// escalation ladder's microreboot rung engages.
func (t *Tree) Reboot(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, err := t.lookup(name)
	if err != nil {
		return err
	}
	n.spec.Component.Kill()
	return t.restartLocked(name)
}

// RebootSubtree reboots the named component and every transitive dependent:
// all are crash-stopped in reverse dependency order, then restarted in
// dependency order — the escalation between a leaf microreboot and a
// whole-process restart.
func (t *Tree) RebootSubtree(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sub := t.subtreeLocked(name)
	if len(sub) == 0 {
		return fmt.Errorf("component: unknown component %q", name)
	}
	for i := len(sub) - 1; i >= 0; i-- {
		t.nodes[sub[i]].spec.Component.Kill()
	}
	for _, n := range sub {
		if err := t.restartLocked(n); err != nil {
			return err
		}
	}
	return nil
}

// Reboots returns how many completed reboots the named component has had.
func (t *Tree) Reboots(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reboots[name]
}

// TotalReboots returns the completed reboot count across all components.
func (t *Tree) TotalReboots() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0
	for _, n := range t.reboots {
		total += n
	}
	return total
}
