package experiment

import (
	"fmt"

	"faultstudy/internal/corpus"
	"faultstudy/internal/obsv"
	"faultstudy/internal/recovery"
	"faultstudy/internal/stats"
	"faultstudy/internal/supervise"
	"faultstudy/internal/taxonomy"
)

// FaultOutcome records whether each strategy survived one corpus fault's
// executable reproduction.
type FaultOutcome struct {
	// FaultID is the corpus fault.
	FaultID string
	// Mechanism is the seeded bug exercised.
	Mechanism string
	// Class is the fault's oracle class.
	Class taxonomy.FaultClass
	// Survived maps each strategy to its outcome.
	Survived map[recovery.Strategy]bool
	// Supervised is the supervision-layer verdict, when AddSupervised has
	// been run (VerdictNone otherwise).
	Supervised SupervisorVerdict
}

// Matrix is the full recovery-verification experiment: every corpus fault run
// under every strategy.
type Matrix struct {
	// PerFault holds the individual outcomes in corpus order.
	PerFault []FaultOutcome
	// Strategies lists the strategies run, in presentation order.
	Strategies []recovery.Strategy
}

// Rate returns the survival proportion of one strategy over faults of one
// class (all classes when class is ClassUnknown).
func (m *Matrix) Rate(strat recovery.Strategy, class taxonomy.FaultClass) stats.Proportion {
	p := stats.Proportion{}
	for _, fo := range m.PerFault {
		if class != taxonomy.ClassUnknown && fo.Class != class {
			continue
		}
		p.Add(fo.Survived[strat])
	}
	return p
}

// AppRate returns one strategy's survival proportion over one application's
// faults.
func (m *Matrix) AppRate(strat recovery.Strategy, app taxonomy.Application) stats.Proportion {
	prefix := map[taxonomy.Application]string{
		taxonomy.AppApache: "apache/",
		taxonomy.AppGnome:  "gnome/",
		taxonomy.AppMySQL:  "mysql/",
	}[app]
	p := stats.Proportion{}
	for _, fo := range m.PerFault {
		if len(fo.FaultID) < len(prefix) || fo.FaultID[:len(prefix)] != prefix {
			continue
		}
		p.Add(fo.Survived[strat])
	}
	return p
}

// String renders the class-by-strategy survival table.
func (m *Matrix) String() string {
	tbl := &stats.Table{Header: []string{"class", "faults"}}
	for _, s := range m.Strategies {
		tbl.Header = append(tbl.Header, s.String())
	}
	supervised := m.HasSupervised()
	if supervised {
		tbl.Header = append(tbl.Header, "supervised")
	}
	for _, c := range taxonomy.Classes() {
		row := []string{c.String(), fmt.Sprint(m.Rate(m.Strategies[0], c).N)}
		for _, s := range m.Strategies {
			r := m.Rate(s, c)
			row = append(row, fractionCell(r.Hits, r.N))
		}
		if supervised {
			r, degraded := m.SupervisedRate(c)
			cell := fractionCell(r.Hits, r.N)
			if degraded > 0 {
				cell += fmt.Sprintf(" [%d degr]", degraded)
			}
			row = append(row, cell)
		}
		tbl.Add(row...)
	}
	return "Recovery survival by fault class and strategy:\n" + tbl.String()
}

// Lee93 holds the §7 reconciliation with Lee & Iyer's Tandem GUARDIAN study.
type Lee93 struct {
	// TandemReported is the process-pair recovery rate Lee & Iyer report
	// (82%).
	TandemReported float64
	// TandemAdjusted is the rate after removing recoveries that relied on
	// backup state divergence, tasks that were never re-executed, and
	// faults that only affected the backup (29%).
	TandemAdjusted float64
	// OurGenericRate is this study's measured process-pair survival rate
	// over all 139 faults.
	OurGenericRate stats.Proportion
	// OurTransientShare is the corpus share of transient faults (the
	// theoretical ceiling for generic recovery under our model).
	OurTransientShare stats.Proportion
	// PerApp is the measured per-application generic survival rate.
	PerApp map[taxonomy.Application]stats.Proportion
}

// ComputeLee93 reconciles the matrix with the published Tandem numbers.
func ComputeLee93(m *Matrix) *Lee93 {
	l := &Lee93{
		TandemReported: 0.82,
		TandemAdjusted: 0.29,
		OurGenericRate: m.Rate(recovery.StrategyProcessPairs, taxonomy.ClassUnknown),
		PerApp:         make(map[taxonomy.Application]stats.Proportion, 3),
	}
	share := stats.Proportion{}
	for _, fo := range m.PerFault {
		share.Add(fo.Class == taxonomy.ClassEnvDependentTransient)
	}
	l.OurTransientShare = share
	for _, app := range taxonomy.Applications() {
		l.PerApp[app] = m.AppRate(recovery.StrategyProcessPairs, app)
	}
	return l
}

// String renders the reconciliation.
func (l *Lee93) String() string {
	tbl := &stats.Table{Header: []string{"quantity", "value"}}
	tbl.Add("Tandem process pairs, as reported [Lee93]", fmt.Sprintf("%.0f%%", 100*l.TandemReported))
	tbl.Add("  after removing backup-state, unexecuted-task,", "")
	tbl.Add("  and backup-only recoveries (paper §7)", fmt.Sprintf("%.0f%%", 100*l.TandemAdjusted))
	tbl.Add("this study: pure generic recovery, measured", l.OurGenericRate.Percent())
	tbl.Add("this study: transient share of faults", l.OurTransientShare.Percent())
	for _, app := range taxonomy.Applications() {
		tbl.Add("  measured for "+app.String(), l.PerApp[app].Percent())
	}
	return "Reconciliation with Lee & Iyer (Tandem GUARDIAN):\n" + tbl.String()
}

// RunMatrix executes every corpus fault's scenario under every strategy,
// sharded over a worker pool: every corpus fault is one arm, run under every
// strategy with its own freshly seeded environment and application instance,
// so runs are independent and deterministic. workers ≤ 0 means one worker per
// processor. The resulting matrix is byte-identical at every worker count.
//
// With workers > 1 the policy's Trace hook, if any, is invoked concurrently
// from multiple shards; hooks must be safe for concurrent use (the CLI's
// -steps hook is only attached to single-mechanism runs).
func RunMatrix(policy recovery.Policy, seed int64, workers int) (*Matrix, error) {
	faults := corpus.All()
	m := &Matrix{
		Strategies: recovery.Strategies(),
		PerFault:   make([]FaultOutcome, len(faults)),
	}
	err := sweep(workers, len(faults), nil, func(i int, _ *Telemetry) (FaultOutcome, error) {
		f := faults[i]
		mgr := recovery.NewManager(policy)
		fo := FaultOutcome{
			FaultID:   f.ID,
			Mechanism: f.Mechanism,
			Class:     f.Class,
			Survived:  make(map[recovery.Strategy]bool, len(m.Strategies)),
		}
		for si, strat := range m.Strategies {
			app, sc, err := BuildScenario(f.Mechanism, seed+int64(si))
			if err != nil {
				return fo, fmt.Errorf("experiment: %s: %w", f.ID, err)
			}
			out, err := mgr.Run(app, sc, strat)
			if err != nil {
				return fo, fmt.Errorf("experiment: %s under %s: %w", f.ID, strat, err)
			}
			fo.Survived[strat] = out.Survived
		}
		return fo, nil
	}, func(i int, fo FaultOutcome) { m.PerFault[i] = fo })
	if err != nil {
		return nil, err
	}
	return m, nil
}

// AddSupervised runs every corpus fault's scenario under a supervisor and
// records each verdict in the matrix, adding the paper-extension column that
// compares supervision against the bare one-shot strategies. Every fault is
// one arm with a fresh environment, application, and supervisor. When t is
// non-nil every run is observed under its corpus identity (application,
// fault ID, oracle class) and the arms' telemetry is folded into t in corpus
// order, so the merged trace, timeline, summary, and exports are
// byte-identical at every worker count (workers ≤ 0 means one per
// processor).
func (m *Matrix) AddSupervised(seed int64, cfg supervise.Config, t *Telemetry, workers int) error {
	reg := Registry()
	return sweep(workers, len(m.PerFault), t, func(i int, tel *Telemetry) (SupervisorVerdict, error) {
		fo := &m.PerFault[i]
		k, err := appFor(fo.Mechanism)
		if err != nil {
			return VerdictNone, fmt.Errorf("experiment: supervised %s: %w", fo.FaultID, err)
		}
		app, sc, err := k.scenario(fo.Mechanism, seed)
		if err != nil {
			return VerdictNone, fmt.Errorf("experiment: supervised %s: %w", fo.FaultID, err)
		}
		// Start before staging, like the bare-strategy runs: the staged
		// environmental condition hits a running application.
		if err := app.Start(); err != nil {
			return VerdictNone, fmt.Errorf("experiment: supervised %s: start: %w", fo.FaultID, err)
		}
		if sc.Stage != nil {
			sc.Stage()
		}
		mech, _ := reg.Lookup(fo.Mechanism)
		runCfg, obs := tel.superviseConfig(cfg, obsv.Context{
			App:     mech.App.String(),
			FaultID: fo.FaultID,
			Class:   fo.Class.Short(),
		})
		rep, err := supervise.New(app, runCfg).Run(k.wrapOps(sc.Ops))
		if err != nil {
			return VerdictNone, fmt.Errorf("experiment: supervised %s: %w", fo.FaultID, err)
		}
		obs.Flush(app.Env().Monotonic())
		return verdictOf(rep), nil
	}, func(i int, v SupervisorVerdict) { m.PerFault[i].Supervised = v })
}
