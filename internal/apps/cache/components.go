package cache

import (
	"time"

	"faultstudy/internal/component"
	"faultstudy/internal/simenv"
)

// Component names of the componentized daemon.
const (
	// CompCore is the keyed index and LRU order. Every operation routes
	// through it, and every environment-independent defect lives in it.
	CompCore = "cache/core"
	// CompListener is the accept path: the listening port, the per-connection
	// descriptors, and the replication-peer network preamble.
	CompListener = "cache/listener"
	// CompPersist is the append-only-log writer. When it is down the daemon
	// serves unpersisted rather than failing.
	CompPersist = "cache/persist"
	// CompSweeper is the background expiry sweep; the expiry race lives in
	// it, and crash-stopping it closes the race window.
	CompSweeper = "cache/sweeper"
)

// HotKeyBucket is the externalized-store bucket holding per-session hot-key
// counters — the state that must survive any component reboot.
const HotKeyBucket = "cache/hotkeys"

// Reboot costs on the virtual clock: what one microreboot of each part
// costs, in simulated milliseconds — against whole-process restart measured
// in seconds.
const (
	coreStartCost     = 6 * time.Millisecond
	listenerStartCost = 3 * time.Millisecond
	persistStartCost  = 2 * time.Millisecond
	sweeperStartCost  = 1 * time.Millisecond
)

// componentFor maps each seeded mechanism to the component its defect (or
// the resource it exhausts) lives in.
var componentFor = map[string]string{
	MechEmptyKeyDeref:   CompCore,
	MechEvictOffByOne:   CompCore,
	MechTTLParseLoop:    CompCore,
	MechStatsDivZero:    CompCore,
	MechBigValueBounds:  CompCore,
	MechFlushDoubleFree: CompCore,
	MechWrongHitCount:   CompCore,
	MechShadowCopyLeak:  CompCore,
	MechConnFDLeak:      CompListener,
	MechPeerDNSFlap:     CompListener,
	MechSlowReplFlush:   CompListener,
	MechAOFDiskFull:     CompPersist,
	MechExpiryRace:      CompSweeper,
}

// Componentized is the crash-only decomposition of the cache daemon: the
// same simulated daemon, restructured into a component tree with the hot-key
// counters externalized to a store that survives component death. It
// implements both recovery.Application (the whole-process lifecycle) and the
// per-component one.
type Componentized struct {
	srv   *Server
	store *component.Store
	tree  *component.Tree
}

// Componentize wraps a daemon into its component tree. The store holds the
// externalized hot-key state; passing a shared store across restarts is what
// makes it survive them.
func Componentize(srv *Server, store *component.Store) *Componentized {
	c := &Componentized{
		srv:   srv,
		store: store,
		tree:  component.NewTree(srv.env),
	}
	s := srv
	c.tree.MustAdd(component.Spec{StartCost: coreStartCost, Component: component.NewPart(CompCore, component.Hooks{
		// Crash-stopping the core discards the leaked shadow copies — the
		// microreboot answer to the leak-class mechanisms.
		OnKill: func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.shadowBytes = 0
			s.lastFlush = false
		},
	})})
	c.tree.MustAdd(component.Spec{StartCost: listenerStartCost, Deps: []string{CompCore}, Component: component.NewPart(CompListener, component.Hooks{
		// Crash-stopping the listener drops every (leaked) connection
		// descriptor and the port; restarting rebinds and starts clean.
		OnKill: func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.closeConnFDsLocked()
			s.connFDWant = 0
			if s.portBound {
				_ = s.env.Net().ReleasePort(s.cfg.Port)
				s.portBound = false
			}
		},
		OnStart: func() error {
			s.mu.Lock()
			defer s.mu.Unlock()
			if !s.portBound {
				if err := s.env.Net().BindPort(s.cfg.Port, Owner); err != nil {
					return err
				}
				s.portBound = true
			}
			return nil
		},
	})})
	c.tree.MustAdd(component.Spec{StartCost: persistStartCost, Deps: []string{CompCore}, Component: component.NewPart(CompPersist, component.Hooks{
		// Crash-stopping the persist part really kills the log writer: the
		// store closes without any flush (acknowledged records are already
		// synced), and restarting it reruns durable recovery over the bytes
		// the kill left behind — crash-only for real.
		OnKill: func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.store != nil {
				s.store.Close()
			}
			s.aofSuspended = true
		},
		OnStart: func() error {
			s.mu.Lock()
			defer s.mu.Unlock()
			if err := s.reopenStoreLocked(); err != nil {
				return err
			}
			s.aofSuspended = false
			return nil
		},
	})})
	c.tree.MustAdd(component.Spec{StartCost: sweeperStartCost, Deps: []string{CompCore}, Component: component.NewPart(CompSweeper, component.Hooks{})})
	return c
}

// Name returns the environment owner tag (unchanged by componentization).
func (c *Componentized) Name() string { return Owner }

// Env returns the underlying environment.
func (c *Componentized) Env() *simenv.Env { return c.srv.Env() }

// Running reports whether the simulated process is alive.
func (c *Componentized) Running() bool { return c.srv.Running() }

// Start boots the process and brings every component up.
func (c *Componentized) Start() error {
	if err := c.srv.Start(); err != nil {
		return err
	}
	return c.tree.StartAll()
}

// Stop crash-stops every component in reverse dependency order, then shuts
// the process down.
func (c *Componentized) Stop() {
	c.tree.StopAll()
	c.srv.Stop()
}

// Snapshot captures the process's logical state. The externalized store is
// deliberately absent: it lives outside the process, so neither a crash nor
// a rollback touches it.
func (c *Componentized) Snapshot() ([]byte, error) { return c.srv.Snapshot() }

// Restore replaces the process state from a snapshot, restarts it, and
// brings the component tree back up. Hot-key counters in the store are
// untouched.
func (c *Componentized) Restore(snapshot []byte) error {
	if err := c.srv.Restore(snapshot); err != nil {
		return err
	}
	return c.tree.StartAll()
}

// Reset reinitializes the process to pristine state and brings the tree up.
// The store survives even this: hot keys live in a different failure domain.
func (c *Componentized) Reset() error {
	if err := c.srv.Reset(); err != nil {
		return err
	}
	return c.tree.StartAll()
}

// Tree returns the component tree.
func (c *Componentized) Tree() *component.Tree { return c.tree }

// Store returns the externalized hot-key store.
func (c *Componentized) Store() *component.Store { return c.store }

// ComponentFor maps a mechanism key to the component its defect lives in.
func (c *Componentized) ComponentFor(mechanism string) (string, bool) {
	name, ok := componentFor[mechanism]
	return name, ok
}

// ContainCrash reattributes a process-fatal failure to the component tree:
// in the componentized build only the faulty component's process died, so
// the process-level liveness flag comes back up and the caller reboots the
// component.
func (c *Componentized) ContainCrash() {
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	c.srv.running = true
}
