package simenv

import (
	"errors"
	"fmt"
	"sync"
)

// ErrProcTableFull is returned when no process slots remain — the study's
// "child processes ... consume all available slots in the process table"
// condition.
var ErrProcTableFull = errors.New("simenv: process table full")

// PID is a simulated process identifier.
type PID int

// ProcState describes a simulated process.
type ProcState int

const (
	// ProcRunning is a live process.
	ProcRunning ProcState = iota + 1
	// ProcHung is a process that no longer makes progress but still occupies
	// its slot (and any ports it holds).
	ProcHung
	// ProcZombie is an exited child whose slot has not been reaped.
	ProcZombie
)

// String returns the state name.
func (s ProcState) String() string {
	switch s {
	case ProcRunning:
		return "running"
	case ProcHung:
		return "hung"
	case ProcZombie:
		return "zombie"
	default:
		return fmt.Sprintf("ProcState(%d)", int(s))
	}
}

// Proc is one process-table entry.
type Proc struct {
	// PID is the process identifier, unique for the table's lifetime.
	PID PID
	// Owner names the application the process belongs to; KillOwner and
	// Env.ReclaimOwner free its slots by this name.
	Owner string
	// State is whether the process runs, hangs or waits to be reaped.
	State ProcState
}

// ProcTable is the kernel process table. Slots are a global resource:
// applications that spawn children and never reap them eventually exhaust it
// for everyone.
type ProcTable struct {
	mu    sync.Mutex
	limit int
	next  PID
	procs map[PID]*Proc
}

func newProcTable(limit int) *ProcTable {
	return &ProcTable{
		limit: limit,
		next:  2, // PID 1 is init
		procs: make(map[PID]*Proc),
	}
}

// Limit returns the table capacity.
func (t *ProcTable) Limit() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.limit
}

// SetLimit grows or shrinks the process table (the §6.2 "automatically
// increase the resources available" mitigation applied to process slots).
// Shrinking below current occupancy is rejected.
func (t *ProcTable) SetLimit(n int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < len(t.procs) {
		return fmt.Errorf("simenv: proc limit %d below current occupancy %d", n, len(t.procs))
	}
	t.limit = n
	return nil
}

// InUse returns the number of occupied slots (running, hung, and zombie).
func (t *ProcTable) InUse() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.procs)
}

// Spawn allocates a slot for a new process belonging to owner.
func (t *ProcTable) Spawn(owner string) (PID, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.procs) >= t.limit {
		return 0, ErrProcTableFull
	}
	pid := t.next
	t.next++
	t.procs[pid] = &Proc{PID: pid, Owner: owner, State: ProcRunning}
	return pid, nil
}

// Lookup returns a copy of the process entry.
func (t *ProcTable) Lookup(pid PID) (Proc, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.procs[pid]
	if !ok {
		return Proc{}, false
	}
	return *p, true
}

// Hang marks a process as hung: it stops making progress but keeps its slot.
func (t *ProcTable) Hang(pid PID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.procs[pid]
	if !ok {
		return fmt.Errorf("simenv: hang of unknown pid %d", pid)
	}
	p.State = ProcHung
	return nil
}

// Exit turns a process into a zombie; the slot is freed only when reaped.
func (t *ProcTable) Exit(pid PID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.procs[pid]
	if !ok {
		return fmt.Errorf("simenv: exit of unknown pid %d", pid)
	}
	p.State = ProcZombie
	return nil
}

// Reap frees the slot of a zombie.
func (t *ProcTable) Reap(pid PID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.procs[pid]
	if !ok {
		return fmt.Errorf("simenv: reap of unknown pid %d", pid)
	}
	if p.State != ProcZombie {
		return fmt.Errorf("simenv: reap of non-zombie pid %d (%s)", pid, p.State)
	}
	delete(t.procs, pid)
	return nil
}

// Kill removes a process outright regardless of state.
func (t *ProcTable) Kill(pid PID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.procs[pid]; !ok {
		return fmt.Errorf("simenv: kill of unknown pid %d", pid)
	}
	delete(t.procs, pid)
	return nil
}

// KillOwner removes every process belonging to owner — what a generic
// recovery system does when it recovers an application — and returns how many
// slots were freed.
func (t *ProcTable) KillOwner(owner string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for pid, p := range t.procs {
		if p.Owner == owner {
			delete(t.procs, pid)
			n++
		}
	}
	return n
}

// OwnedBy returns how many slots owner occupies.
func (t *ProcTable) OwnedBy(owner string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, p := range t.procs {
		if p.Owner == owner {
			n++
		}
	}
	return n
}

// HungOwnedBy returns how many of owner's processes are hung.
func (t *ProcTable) HungOwnedBy(owner string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, p := range t.procs {
		if p.Owner == owner && p.State == ProcHung {
			n++
		}
	}
	return n
}
