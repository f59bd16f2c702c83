package experiment

import (
	"fmt"
	"strings"

	"faultstudy/internal/apps/cache"
	"faultstudy/internal/apps/desktop"
	"faultstudy/internal/apps/httpd"
	"faultstudy/internal/apps/sqldb"
	"faultstudy/internal/component"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/recovery"
	"faultstudy/internal/simenv"
	"faultstudy/internal/supervise"
	"faultstudy/internal/taxonomy"
	"faultstudy/internal/workload"
)

// appKind is one application of the catalogue every experiment builds
// through: the mechanism namespace it owns and everything the experiments
// need to construct, drive and classify it. Optional faces are nil where the
// application lacks them.
type appKind struct {
	// ns is the mechanism-key namespace ("httpd" for "httpd/dns-error").
	ns string
	// app is the studied application the namespace simulates.
	app taxonomy.Application
	// extension marks archetypes outside the paper's studied universe;
	// Registry omits them, CorpusRegistry includes them.
	extension bool
	// register adds the namespace's seeded-bug mechanisms to a registry.
	register func(*faultinject.Registry)
	// env sizes the environment scenarios run in, so their exhaustion
	// conditions trigger quickly.
	env []simenv.Option
	// build constructs the application over env with faults armed and
	// returns it with its mechanism→scenario catalogue.
	build func(env *simenv.Env, faults *faultinject.Set) (recovery.Application, map[string]faultinject.Scenario)
	// opKind classifies an op name for degraded-mode shedding:
	// conservative name-based heuristics.
	opKind func(name string) supervise.OpKind
	// componentize wraps a built application in its crash-only component
	// tree.
	componentize func(recovery.Application) componentApp
	// drive binds a componentized application to the MREBOOT and SCOPE
	// background workload.
	drive func(componentApp) (warm func(), bg func(i int) error)
	// category names the operation-mix bucket an open-loop arrival's draw u
	// maps to, without serving anything — pure threshold arithmetic
	// mirroring the daemon's ServeArrival switch. Only the daemons the SERVE
	// experiment drives with open-loop traffic have one.
	category func(u float64) string
	// soak generates the soak run's base workload of n ops against app,
	// observed by hook; soakMinAt is the first position trigger streams may
	// be interleaved at.
	soak      func(app recovery.Application, seed int64, n int, hook workload.Hook) []faultinject.Op
	soakMinAt int
}

// appKinds is the application catalogue, in soak and SERVE presentation
// order.
var appKinds = []*appKind{
	{
		ns: "httpd", app: taxonomy.AppApache, register: httpd.RegisterMechanisms,
		env: []simenv.Option{simenv.WithFDLimit(64), simenv.WithProcLimit(192)},
		build: func(env *simenv.Env, faults *faultinject.Set) (recovery.Application, map[string]faultinject.Scenario) {
			srv := httpd.New(env, faults, httpd.Config{})
			return srv, httpd.Scenarios(srv)
		},
		opKind: func(name string) supervise.OpKind {
			if strings.Contains(name, "/proxy/") || strings.Contains(name, "/cgi-bin/") ||
				strings.Contains(name, "SIGHUP") || strings.Contains(name, "restart") {
				return supervise.OpWrite
			}
			return supervise.OpRead
		},
		componentize: func(a recovery.Application) componentApp {
			return httpd.Componentize(a.(*httpd.Server), component.NewStore())
		},
		drive: func(a componentApp) (func(), func(int) error) {
			c := a.(*httpd.Componentized)
			paths := []string{"/", "/index.html", "/proxy/asset", "/"}
			sessions := []string{"alice", "bob"}
			return func() {}, func(i int) error {
				_, err := c.Serve(httpd.Request{Method: "GET", Path: paths[i%len(paths)], Session: sessions[i%len(sessions)]})
				return err
			}
		},
		category: func(u float64) string {
			switch {
			case u < 0.70:
				return httpd.ServeStatic
			case u < 0.80:
				return httpd.ServeListing
			case u < 0.90:
				return httpd.ServeCGI
			case u < 0.95:
				return httpd.ServeProxy
			default:
				return httpd.ServeNotFound
			}
		},
		soak: func(a recovery.Application, seed int64, n int, hook workload.Hook) []faultinject.Op {
			srv := a.(*httpd.Server)
			var ops []faultinject.Op
			for _, req := range workload.HTTPRequestsObserved(seed, workload.DefaultHTTPMix(), n, hook) {
				req := req
				ops = append(ops, faultinject.Op{Name: req.Method + " " + req.Path, Do: func() error {
					_, err := srv.Serve(req)
					return err
				}})
			}
			return ops
		},
	},
	{
		ns: "sqldb", app: taxonomy.AppMySQL, register: sqldb.RegisterMechanisms,
		env: []simenv.Option{simenv.WithFDLimit(64)},
		build: func(env *simenv.Env, faults *faultinject.Set) (recovery.Application, map[string]faultinject.Scenario) {
			srv := sqldb.New(env, faults)
			return srv, sqldb.Scenarios(srv)
		},
		opKind: func(name string) supervise.OpKind {
			if strings.HasPrefix(name, "SELECT") {
				return supervise.OpRead
			}
			return supervise.OpWrite
		},
		componentize: func(a recovery.Application) componentApp {
			return sqldb.Componentize(a.(*sqldb.Server), component.NewStore())
		},
		drive: func(a componentApp) (func(), func(int) error) {
			c := a.(*sqldb.Componentized)
			exec := func(sql string) func() error {
				return func() error {
					_, err := c.Exec("alice", sql)
					return err
				}
			}
			warm := func() {
				tolerate(c, func() error { return c.Connect("alice", "10.0.0.7") })
				tolerate(c, exec("CREATE TABLE warm (id INT, name TEXT)"))
				tolerate(c, exec("INSERT INTO warm VALUES (1, 'w')"))
			}
			return warm, func(int) error { return exec("SELECT id FROM warm")() }
		},
		category: func(u float64) string {
			switch {
			case u < 0.55:
				return sqldb.ServeSelect
			case u < 0.75:
				return sqldb.ServeInsert
			case u < 0.90:
				return sqldb.ServeCount
			default:
				return sqldb.ServeUpdate
			}
		},
		soak: func(a recovery.Application, seed int64, n int, hook workload.Hook) []faultinject.Op {
			db := a.(*sqldb.Server)
			var ops []faultinject.Op
			for _, stmt := range workload.SQLStatementsObserved(seed, n, hook) {
				stmt := stmt
				ops = append(ops, faultinject.Op{Name: stmt, Do: func() error {
					_, err := db.Exec(stmt)
					return err
				}})
			}
			return ops
		},
		// Keep the schema-creating statements first.
		soakMinAt: 2,
	},
	{
		ns: "desktop", app: taxonomy.AppGnome, register: desktop.RegisterMechanisms,
		build: func(env *simenv.Env, faults *faultinject.Set) (recovery.Application, map[string]faultinject.Scenario) {
			d := desktop.New(env, faults)
			return d, desktop.Scenarios(d)
		},
		opKind: func(name string) supervise.OpKind {
			if strings.Contains(name, "play-sound") || strings.Contains(name, "set-cell") {
				return supervise.OpWrite
			}
			return supervise.OpRead
		},
		componentize: func(a recovery.Application) componentApp {
			return desktop.Componentize(a.(*desktop.Desktop), component.NewStore())
		},
		drive: func(a componentApp) (func(), func(int) error) {
			c := a.(*desktop.Componentized)
			events := []desktop.Event{
				{Widget: "calendar", Action: "next"},
				{Widget: "gnumeric", Action: "get-cell", Arg: "A1"},
				{Widget: "session", Action: "noop"},
			}
			warm := func() {
				tolerate(c, func() error {
					return c.Dispatch(desktop.Event{Widget: "gnumeric", Action: "set-cell", Arg: "A1=1"})
				})
			}
			return warm, func(i int) error { return c.Dispatch(events[i%len(events)]) }
		},
		soak: func(a recovery.Application, seed int64, n int, hook workload.Hook) []faultinject.Op {
			d := a.(*desktop.Desktop)
			var ops []faultinject.Op
			for _, ev := range workload.DesktopEventsObserved(seed, n, hook) {
				ev := ev
				ops = append(ops, faultinject.Op{Name: ev.Widget + " " + ev.Action, Do: func() error {
					return d.Dispatch(ev)
				}})
			}
			return ops
		},
	},
	{
		ns: "cache", app: taxonomy.AppCache, extension: true, register: cache.RegisterMechanisms,
		env: []simenv.Option{simenv.WithFDLimit(64)},
		build: func(env *simenv.Env, faults *faultinject.Set) (recovery.Application, map[string]faultinject.Scenario) {
			srv := cache.New(env, faults, cache.Config{Capacity: 16})
			return srv, cache.Scenarios(srv)
		},
		opKind: func(name string) supervise.OpKind {
			if strings.HasPrefix(name, "SET") || strings.HasPrefix(name, "DEL") ||
				strings.HasPrefix(name, "FLUSH") {
				return supervise.OpWrite
			}
			return supervise.OpRead
		},
	},
}

// appFor resolves a mechanism key's namespace to its catalogue entry.
func appFor(mechanism string) (*appKind, error) {
	if ns, _, ok := strings.Cut(mechanism, "/"); ok {
		for _, k := range appKinds {
			if k.ns == ns {
				return k, nil
			}
		}
	}
	return nil, fmt.Errorf("experiment: unknown mechanism namespace %q", mechanism)
}

// instance constructs the application armed with mechs in an environment
// sized by env (the namespace's own sizing when nil), and returns it with its
// scenario catalogue.
func (k *appKind) instance(seed int64, env []simenv.Option, mechs ...string) (recovery.Application, map[string]faultinject.Scenario) {
	if env == nil {
		env = k.env
	}
	return k.build(simenv.New(seed, env...), faultinject.NewSet(mechs...))
}

// scenario constructs the application armed with one mechanism, plus that
// mechanism's scenario.
func (k *appKind) scenario(mechanism string, seed int64) (recovery.Application, faultinject.Scenario, error) {
	app, scenarios := k.instance(seed, nil, mechanism)
	sc, ok := scenarios[mechanism]
	if !ok {
		return nil, faultinject.Scenario{}, fmt.Errorf("experiment: no %s scenario for %s", k.ns, mechanism)
	}
	return app, sc, nil
}

// wrapOps converts scenario or workload ops into supervised ops classified
// by the application's shedding heuristic.
func (k *appKind) wrapOps(ops []faultinject.Op) []supervise.Op {
	out := make([]supervise.Op, 0, len(ops))
	for _, op := range ops {
		out = append(out, supervise.Op{Name: op.Name, Kind: k.opKind(op.Name), Do: op.Do})
	}
	return out
}

// BuildScenario constructs the simulated application and executable scenario
// for a seeded-bug mechanism of any namespace in the catalogue
// (CorpusRegistry). The environment is sized so the scenario's exhaustion
// conditions trigger quickly.
func BuildScenario(mechanism string, seed int64) (recovery.Application, faultinject.Scenario, error) {
	k, err := appFor(mechanism)
	if err != nil {
		return nil, faultinject.Scenario{}, err
	}
	return k.scenario(mechanism, seed)
}

// Registry returns the full seeded-bug catalogue of all three applications.
func Registry() *faultinject.Registry { return registry(false) }

// CorpusRegistry returns the extended mechanism catalogue the generated
// corpus samples from: the paper's three applications plus the extension
// archetypes. It is deliberately distinct from Registry() so the paper-table
// experiments (matrix, soak, mreboot, lint, scope, serve) keep the studied
// universe untouched.
func CorpusRegistry() *faultinject.Registry { return registry(true) }

// registry builds a catalogue of the paper's applications, plus the
// extension archetypes when extensions is set.
func registry(extensions bool) *faultinject.Registry {
	r := faultinject.NewRegistry()
	for _, k := range appKinds {
		if extensions || !k.extension {
			k.register(r)
		}
	}
	return r
}

// catalogue is the read-only mechanism catalogue BuildScenario accepts,
// built once for label lookups.
var catalogue = CorpusRegistry()

// ClassFor resolves a mechanism key to its EI/EDN/EDT short class name via
// the mechanism catalogue BuildScenario accepts (CorpusRegistry), or "?" for
// keys outside it (the supervisor's pseudo-mechanisms).
func ClassFor(mechanism string) string {
	if m, ok := catalogue.Lookup(mechanism); ok {
		return m.Class().Short()
	}
	return "?"
}

// componentApp is what the component-level experiments need from an
// application: the recovery lifecycle plus the component tree.
type componentApp interface {
	recovery.Application
	component.Host
}

// componentDriver binds a componentized application to its background
// workload: bg serves the i-th background arrival through the component
// routing.
type componentDriver struct {
	app componentApp
	bg  func(i int) error
}

// startComponentArm is the arm setup MREBOOT and SCOPE share: it builds the
// componentized application for mech with its scenario and background
// driver, starts it, warms it, and stages the mechanism's environmental
// precondition. Warmup errors are tolerated (a seeded bug may fire during
// warmup; the workload then reports it), with crashes contained so staging
// still runs against a live process. exp and rung name the arm in errors.
func startComponentArm(exp, rung string, mech faultinject.Mechanism, seed int64) (*componentDriver, faultinject.Scenario, error) {
	k, err := appFor(mech.Key)
	if err == nil && k.drive == nil {
		err = fmt.Errorf("experiment: mechanism %q has no component driver", mech.Key)
	}
	if err != nil {
		return nil, faultinject.Scenario{}, err
	}
	app, sc, err := k.scenario(mech.Key, seed)
	if err != nil {
		return nil, sc, err
	}
	c := k.componentize(app)
	warm, bg := k.drive(c)
	if err := c.Start(); err != nil {
		return nil, sc, fmt.Errorf("experiment: %s %s × %s: start: %w", exp, mech.Key, rung, err)
	}
	warm()
	if sc.Stage != nil {
		sc.Stage()
	}
	return &componentDriver{app: c, bg: bg}, sc, nil
}

// tolerate runs a warmup step, containing any crash it causes so the arm
// still starts from a live process.
func tolerate(app componentApp, f func() error) {
	if f() != nil && !app.Running() {
		app.ContainCrash()
	}
}
