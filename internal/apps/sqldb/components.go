package sqldb

import (
	"fmt"
	"sort"
	"time"

	"faultstudy/internal/component"
	"faultstudy/internal/simenv"
)

// Component names of the componentized database server.
const (
	// CompExecutor is the query-execution engine — the root every other part
	// depends on, and where the executor-path defects live.
	CompExecutor = "sqldb/executor"
	// CompParser is the SQL parser; ad-hoc statements route through it, but
	// prepared statements do not — they were parsed at Prepare time.
	CompParser = "sqldb/parser"
	// CompListener is the accept path: the listening port and connection
	// admission (reverse DNS, privilege checks).
	CompListener = "sqldb/listener"
	// CompStorage is the table-file layer: datafile descriptors and disk
	// writes. Crash-stopping it releases every table descriptor.
	CompStorage = "sqldb/storage"
)

// Externalized-store buckets: sessions (session -> client address), live
// connection ids (session -> conn id), and prepared statements
// (session/name -> SQL text). All survive any component reboot.
const (
	// SessionBucket maps a session name to its client address.
	SessionBucket = "sqldb/sessions"
	// ConnBucket maps a session name to its current server connection id.
	ConnBucket = "sqldb/conns"
	// PreparedBucket maps "session/name" to prepared SQL text.
	PreparedBucket = "sqldb/prepared"
)

// Reboot costs on the virtual clock, in simulated milliseconds.
const (
	executorStartCost   = 9 * time.Millisecond
	parserStartCost     = 2 * time.Millisecond
	dbListenerStartCost = 4 * time.Millisecond
	storageStartCost    = 6 * time.Millisecond
)

// dbComponentFor maps each seeded mechanism to the component its defect
// lives in.
var dbComponentFor = map[string]string{
	MechIndexUpdateScan: CompExecutor,
	MechOrderByEmpty:    CompExecutor,
	MechCountEmpty:      CompExecutor,
	MechOptimizeCrash:   CompExecutor,
	MechFlushAfterLock:  CompExecutor,
	MechNullDeref:       CompExecutor,
	MechStaleBuffer:     CompExecutor,
	MechBadInit:         CompExecutor,
	MechExecLoop:        CompExecutor,
	MechBounds:          CompExecutor,
	MechMissingCheck:    CompExecutor,
	MechSignalMaskRace:  CompExecutor,
	MechNoReverseDNS:    CompListener,
	MechLoginAdminRace:  CompListener,
	MechFDCompetition:   CompStorage,
	MechDBFileLimit:     CompStorage,
	MechFSFull:          CompStorage,
}

// Componentized is the crash-only decomposition of the database server:
// sessions and prepared statements live in an externalized store, so a
// listener reboot drops TCP connections but not sessions — clients re-attach
// transparently on their next statement.
type Componentized struct {
	srv   *Server
	store *component.Store
	tree  *component.Tree
}

// Componentize wraps a server into its component tree over the given
// externalized store.
func Componentize(srv *Server, store *component.Store) *Componentized {
	c := &Componentized{
		srv:   srv,
		store: store,
		tree:  component.NewTree(srv.env),
	}
	s := srv
	c.tree.MustAdd(component.Spec{StartCost: executorStartCost, Component: component.NewPart(CompExecutor, component.Hooks{})})
	c.tree.MustAdd(component.Spec{StartCost: parserStartCost, Deps: []string{CompExecutor}, Component: component.NewPart(CompParser, component.Hooks{})})
	c.tree.MustAdd(component.Spec{StartCost: dbListenerStartCost, Deps: []string{CompExecutor}, Component: component.NewPart(CompListener, component.Hooks{
		// Crash-stopping the listener drops every TCP connection; sessions
		// survive in the store and re-attach on the next statement.
		OnKill: func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.connections = make(map[int]string)
			if s.portBound {
				_ = s.env.Net().ReleasePort(serverPort)
				s.portBound = false
			}
		},
		OnStart: func() error {
			s.mu.Lock()
			defer s.mu.Unlock()
			if !s.portBound {
				if err := s.env.Net().BindPort(serverPort, Owner); err != nil {
					return err
				}
				s.portBound = true
			}
			return nil
		},
	})})
	c.tree.MustAdd(component.Spec{StartCost: storageStartCost, Deps: []string{CompExecutor}, Component: component.NewPart(CompStorage, component.Hooks{
		OnKill: func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.closeTableFDsLocked()
		},
		OnStart: func() error {
			s.mu.Lock()
			defer s.mu.Unlock()
			names := make([]string, 0, len(s.tables))
			for name := range s.tables {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				t := s.tables[name]
				if !t.hasFD {
					if err := s.openTableFD(t); err != nil {
						return err
					}
				}
			}
			return nil
		},
	})})
	return c
}

// Name returns the environment owner tag.
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

// Stop crash-stops the tree and shuts the process down.
func (c *Componentized) Stop() {
	c.tree.StopAll()
	c.srv.Stop()
}

// Snapshot captures the process's logical state; the store is outside it.
func (c *Componentized) Snapshot() ([]byte, error) { return c.srv.Snapshot() }

// Restore replaces process state from a snapshot and brings the tree up.
func (c *Componentized) Restore(snapshot []byte) error {
	if err := c.srv.Restore(snapshot); err != nil {
		return err
	}
	return c.tree.StartAll()
}

// Reset reinitializes the process and brings the tree up; the store and its
// sessions survive.
func (c *Componentized) Reset() error {
	if err := c.srv.Reset(); err != nil {
		return err
	}
	return c.tree.StartAll()
}

// Tree returns the component tree.
func (c *Componentized) Tree() *component.Tree { return c.tree }

// Store returns the externalized session store.
func (c *Componentized) Store() *component.Store { return c.store }

// ComponentFor maps a mechanism key to the component its defect lives in.
func (c *Componentized) ComponentFor(mechanism string) (string, bool) {
	name, ok := dbComponentFor[mechanism]
	return name, ok
}

// ContainCrash revives the process-level liveness flag after a crash that
// the component tree contains.
func (c *Componentized) ContainCrash() {
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	c.srv.running = true
}

// Connect opens (or re-opens) a named session from the given client address.
// The session is externalized: it survives listener reboots and process
// restarts, re-attaching to a fresh connection id on demand.
func (c *Componentized) Connect(session, clientAddr string) error {
	if !c.tree.Running(CompListener) {
		return component.Down(CompListener)
	}
	id, err := c.srv.Connect(clientAddr)
	if err != nil {
		return err
	}
	c.store.Put(SessionBucket, session, clientAddr)
	c.store.Put(ConnBucket, session, fmt.Sprint(id))
	return nil
}

// reattach ensures the session has a live server connection, transparently
// reconnecting with the externalized client address when the old connection
// died with a rebooted listener.
func (c *Componentized) reattach(session string) error {
	addr, ok := c.store.Get(SessionBucket, session)
	if !ok {
		return fmt.Errorf("sqldb: unknown session %q", session)
	}
	if v, ok := c.store.Get(ConnBucket, session); ok {
		var id int
		if _, err := fmt.Sscanf(v, "%d", &id); err == nil && c.srv.Connected(id) {
			return nil
		}
	}
	if !c.tree.Running(CompListener) {
		return component.Down(CompListener)
	}
	id, err := c.srv.Connect(addr)
	if err != nil {
		return err
	}
	c.store.Put(ConnBucket, session, fmt.Sprint(id))
	return nil
}

// Exec runs one ad-hoc statement on a session: it routes through the parser,
// executor, and storage, re-attaching the session's connection first if a
// listener reboot dropped it.
func (c *Componentized) Exec(session, sql string) (*ResultSet, error) {
	for _, name := range []string{CompParser, CompExecutor, CompStorage} {
		if !c.tree.Running(name) {
			return nil, component.Down(name)
		}
	}
	if err := c.reattach(session); err != nil {
		return nil, err
	}
	return c.srv.Exec(sql)
}

// Prepare validates and externalizes a named statement for the session. The
// parser must be up at Prepare time; afterwards the statement outlives both
// the parser and the process.
func (c *Componentized) Prepare(session, name, sql string) error {
	if !c.tree.Running(CompParser) {
		return component.Down(CompParser)
	}
	if _, err := Parse(sql); err != nil {
		return err
	}
	c.store.Put(PreparedBucket, session+"/"+name, sql)
	return nil
}

// ExecPrepared runs a prepared statement: it routes through the executor and
// storage only — the parse happened at Prepare time — so prepared traffic
// keeps flowing while the parser is mid-reboot.
func (c *Componentized) ExecPrepared(session, name string) (*ResultSet, error) {
	sql, ok := c.store.Get(PreparedBucket, session+"/"+name)
	if !ok {
		return nil, fmt.Errorf("sqldb: no prepared statement %q for session %q", name, session)
	}
	for _, comp := range []string{CompExecutor, CompStorage} {
		if !c.tree.Running(comp) {
			return nil, component.Down(comp)
		}
	}
	if err := c.reattach(session); err != nil {
		return nil, err
	}
	return c.srv.Exec(sql)
}

// SessionAlive reports whether the session exists in the externalized store.
func (c *Componentized) SessionAlive(session string) bool {
	_, ok := c.store.Get(SessionBucket, session)
	return ok
}
