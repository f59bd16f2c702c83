package httpd

import (
	"strings"
	"time"

	"faultstudy/internal/component"
	"faultstudy/internal/simenv"
)

// Component names of the componentized server.
const (
	// CompCore is the request-processing engine: URL parsing, response
	// assembly, and the per-request heap. Every request routes through it,
	// and every environment-independent defect lives in it.
	CompCore = "httpd/core"
	// CompListener is the accept path: the listening port and the
	// per-connection network preamble (interface, DNS, entropy).
	CompListener = "httpd/listener"
	// CompLogger is the access-log writer and its vhost descriptors. When it
	// is down the server serves unlogged rather than failing.
	CompLogger = "httpd/logger"
	// CompCache is the proxy-cache writer; /proxy/ requests route through it.
	CompCache = "httpd/cache"
	// CompCGI is the child-process manager; /cgi-bin/ requests route through
	// it, and crash-stopping it reaps every hung child.
	CompCGI = "httpd/cgi"
)

// SessionBucket is the externalized-store bucket holding per-session request
// counters — the state that must survive any component reboot.
const SessionBucket = "httpd/sessions"

// Reboot costs on the virtual clock: what one microreboot of each part costs,
// in simulated milliseconds — against whole-process restart measured in
// seconds.
const (
	coreStartCost     = 8 * time.Millisecond
	listenerStartCost = 4 * time.Millisecond
	loggerStartCost   = 2 * time.Millisecond
	cacheStartCost    = 3 * time.Millisecond
	cgiStartCost      = 3 * time.Millisecond
)

// componentFor maps each seeded mechanism to the component its defect (or
// the resource it exhausts) lives in.
var componentFor = map[string]string{
	MechLongURLOverflow:  CompCore,
	MechSighupCrash:      CompCore,
	MechValistReuse:      CompCore,
	MechPallocZero:       CompCore,
	MechMemoryLeakHup:    CompCore,
	MechNullDeref:        CompCore,
	MechBounds:           CompCore,
	MechBadInit:          CompCore,
	MechParseLoop:        CompCore,
	MechTypeMismatch:     CompCore,
	MechMissingCheck:     CompCore,
	MechDoubleFree:       CompCore,
	MechWrongStatus:      CompCore,
	MechLoadResourceLeak: CompCore,
	MechFDExhaustion:     CompCore,
	MechLogFileLimit:     CompLogger,
	MechFSFull:           CompLogger,
	MechDiskCacheFull:    CompCache,
	MechProcTableFull:    CompCGI,
	MechClientAbort:      CompCGI,
	MechPortSquat:        CompCGI,
	MechNetResource:      CompListener,
	MechPCMCIARemoval:    CompListener,
	MechDNSError:         CompListener,
	MechDNSSlow:          CompListener,
	MechSlowNetwork:      CompListener,
	MechEntropyStarved:   CompListener,
}

// Componentized is the crash-only decomposition of the web server: the same
// simulated Apache, restructured into a component tree with sessions
// externalized to a store that survives component death. It implements both
// recovery.Application (the whole-process lifecycle) and component.Host (the
// per-component one).
type Componentized struct {
	srv   *Server
	store *component.Store
	tree  *component.Tree
}

// Componentize wraps a server into its component tree. The store holds the
// externalized session state; passing a shared store across restarts is what
// makes sessions survive them.
func Componentize(srv *Server, store *component.Store) *Componentized {
	c := &Componentized{
		srv:   srv,
		store: store,
		tree:  component.NewTree(srv.env),
	}
	s := srv
	c.tree.MustAdd(component.Spec{StartCost: coreStartCost, Component: component.NewPart(CompCore, component.Hooks{
		// Crash-stopping the core discards its heap and every descriptor it
		// leaked — the microreboot answer to the leak-class mechanisms.
		OnKill: func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.closeLeakFDsLocked()
			s.memBytes = 0
			s.leakUnits = 0
			s.leakFDWant = 0
		},
	})})
	c.tree.MustAdd(component.Spec{StartCost: listenerStartCost, Deps: []string{CompCore}, Component: component.NewPart(CompListener, component.Hooks{
		OnKill: func() {
			s.mu.Lock()
			defer s.mu.Unlock()
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
	c.tree.MustAdd(component.Spec{StartCost: loggerStartCost, Deps: []string{CompCore}, Component: component.NewPart(CompLogger, component.Hooks{
		OnKill: func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.closeLogFDsLocked()
			s.logSuspended = true
		},
		OnStart: func() error {
			s.mu.Lock()
			defer s.mu.Unlock()
			if err := s.openLogFDs(); err != nil {
				return err
			}
			s.logSuspended = false
			return nil
		},
	})})
	c.tree.MustAdd(component.Spec{StartCost: cacheStartCost, Deps: []string{CompCore}, Component: component.NewPart(CompCache, component.Hooks{})})
	c.tree.MustAdd(component.Spec{StartCost: cgiStartCost, Deps: []string{CompCore}, Component: component.NewPart(CompCGI, component.Hooks{
		// Crash-stopping the CGI manager reaps every child, hung ones
		// included — freeing the process table (and any squatted port hold).
		OnKill: func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			for _, pid := range s.children {
				_ = s.env.Procs().Kill(pid)
			}
			s.children = nil
		},
	})})
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
// brings the component tree back up. Sessions in the store are untouched.
func (c *Componentized) Restore(snapshot []byte) error {
	if err := c.srv.Restore(snapshot); err != nil {
		return err
	}
	return c.tree.StartAll()
}

// Reset reinitializes the process to pristine state and brings the tree up.
// The store survives even this: sessions live in a different failure domain.
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

// routeOf lists the components a request routes through. The logger is
// deliberately absent: a down logger degrades to unlogged serving instead of
// failing the request.
func routeOf(req Request) []string {
	route := []string{CompListener, CompCore}
	if strings.HasPrefix(req.Path, "/proxy/") {
		route = append(route, CompCache)
	}
	if strings.HasPrefix(req.Path, "/cgi-bin/") {
		route = append(route, CompCGI)
	}
	return route
}

// Serve handles one request through the component tree: requests routed
// through a down component fail fast with a DownError (these are the
// requests a microreboot window loses), everything else serves normally —
// including while a sibling component is mid-reboot. A request carrying a
// session advances its externalized session counter on success.
func (c *Componentized) Serve(req Request) (Response, error) {
	for _, name := range routeOf(req) {
		if !c.tree.Running(name) {
			return Response{}, component.Down(name)
		}
	}
	resp, err := c.srv.Serve(req)
	if err == nil && req.Session != "" {
		c.store.Incr(SessionBucket, req.Session)
	}
	return resp, err
}

// SessionDepth returns a session's externalized request counter (0 when the
// session has never been seen).
func (c *Componentized) SessionDepth(session string) int64 {
	v, ok := c.store.Get(SessionBucket, session)
	if !ok {
		return 0
	}
	var n int64
	for _, ch := range v {
		n = n*10 + int64(ch-'0')
	}
	return n
}
