package experiment

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"faultstudy/internal/obsv"
	"faultstudy/internal/simenv"
	"faultstudy/internal/stats"
	"faultstudy/internal/supervise"
	"faultstudy/internal/taxonomy"
	"faultstudy/internal/workload"
)

// SupervisorVerdict grades one supervised run for the matrix: unlike the
// bare strategies' binary survived/lost, the supervisor has a middle outcome
// — everything was served or deliberately shed, but at degraded service.
type SupervisorVerdict int

const (
	// VerdictNone means the supervisor was not run for this fault.
	VerdictNone SupervisorVerdict = iota
	// VerdictServed means every op was served at full service.
	VerdictServed
	// VerdictDegraded means no op was lost but the run ended degraded.
	VerdictDegraded
	// VerdictLost means at least one op was abandoned.
	VerdictLost
)

// String names the verdict.
func (v SupervisorVerdict) String() string {
	switch v {
	case VerdictNone:
		return "-"
	case VerdictServed:
		return "served"
	case VerdictDegraded:
		return "degraded"
	case VerdictLost:
		return "lost"
	default:
		return fmt.Sprintf("SupervisorVerdict(%d)", int(v))
	}
}

// verdictOf grades a supervisor report.
func verdictOf(rep *supervise.Report) SupervisorVerdict {
	switch {
	case !rep.Served():
		return VerdictLost
	case rep.Degraded:
		return VerdictDegraded
	default:
		return VerdictServed
	}
}

// HasSupervised reports whether the supervisor column has been filled in.
func (m *Matrix) HasSupervised() bool {
	for _, fo := range m.PerFault {
		if fo.Supervised != VerdictNone {
			return true
		}
	}
	return false
}

// SupervisedRate returns the not-lost proportion (served or degraded) over
// faults of one class (all classes when class is ClassUnknown), plus how
// many of the hits were degraded.
func (m *Matrix) SupervisedRate(class taxonomy.FaultClass) (p stats.Proportion, degraded int) {
	for _, fo := range m.PerFault {
		if fo.Supervised == VerdictNone {
			continue
		}
		if class != taxonomy.ClassUnknown && fo.Class != class {
			continue
		}
		p.Add(fo.Supervised != VerdictLost)
		if fo.Supervised == VerdictDegraded {
			degraded++
		}
	}
	return p, degraded
}

// SoakConfig tunes the sustained-workload soak run.
type SoakConfig struct {
	// Ops is the base workload length per application (0 means 300).
	Ops int
	// Faults is how many seeded mechanisms are activated per application,
	// drawn at random from its catalogue (0 means 3).
	Faults int
	// Seed drives mechanism selection, workloads, and environments.
	Seed int64
	// Supervise tunes the supervisor; its Seed is defaulted from Seed.
	Supervise supervise.Config
	// Telemetry, when non-nil, receives metrics and fault episodes from every
	// application's run — the observability layer's soak wiring. Nil costs
	// nothing.
	Telemetry *Telemetry
	// Workers bounds the worker pool the three applications are sharded
	// over (0 or negative means one worker per processor; 1 is serial).
	// Results and telemetry are byte-identical at every worker count.
	Workers int
}

func (c SoakConfig) withDefaults() SoakConfig {
	if c.Ops <= 0 {
		c.Ops = 300
	}
	if c.Faults <= 0 {
		c.Faults = 3
	}
	if c.Supervise.Seed == 0 {
		c.Supervise.Seed = c.Seed
	}
	return c
}

// SoakResult is one application's soak outcome.
type SoakResult struct {
	// App is the simulated application.
	App taxonomy.Application
	// Mechanisms lists the seeded bugs activated, sorted.
	Mechanisms []string
	// Report is the supervisor's accounting.
	Report *supervise.Report
}

// pickMechanisms draws n distinct mechanism keys for the app from the
// registry with the given generator.
func pickMechanisms(app taxonomy.Application, n int, rng *rand.Rand) []string {
	var keys []string
	for _, mech := range Registry().ByApp(app) {
		keys = append(keys, mech.Key)
	}
	sort.Strings(keys)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if n > len(keys) {
		n = len(keys)
	}
	keys = keys[:n]
	sort.Strings(keys)
	return keys
}

// interleave inserts each trigger stream into the base stream at a random
// position at or past min, preserving each stream's internal order.
func interleave(base []supervise.Op, triggers [][]supervise.Op, min int, rng *rand.Rand) []supervise.Op {
	out := base
	for _, ts := range triggers {
		at := min
		if len(out) > min {
			at = min + rng.Intn(len(out)-min+1)
		}
		merged := make([]supervise.Op, 0, len(out)+len(ts))
		merged = append(merged, out[:at]...)
		merged = append(merged, ts...)
		merged = append(merged, out[at:]...)
		out = merged
	}
	return out
}

// soakFDLimit is the soak's descriptor table: roomier than the scenario
// sizing, because the sustained base workload holds descriptors of its own.
const soakFDLimit = 256

// RunSoak drives all three applications under sustained workload with a
// random subset of their seeded bugs active — the supervision layer's
// integration exercise. Each application gets a fresh environment, the
// chosen mechanisms' environmental preconditions are staged, their trigger
// ops are interleaved into the base workload at random positions, and the
// supervisor keeps the service running as they fire. Deterministic in Seed.
//
// The applications are independent arms run on a pool of cfg.Workers
// workers (0 means one per processor): each draws its randomness from a
// source seeded only by (Seed, app) and records into a private telemetry,
// and the arms are folded in fixed application order — so reports, traces,
// and metric dumps are byte-identical at every worker count.
func RunSoak(cfg SoakConfig) ([]SoakResult, error) {
	cfg = cfg.withDefaults()
	var kinds []*appKind
	for _, k := range appKinds {
		if k.soak != nil {
			kinds = append(kinds, k)
		}
	}
	results := make([]SoakResult, 0, len(kinds))
	err := sweep(cfg.Workers, len(kinds), cfg.Telemetry, func(i int, tel *Telemetry) (SoakResult, error) {
		return runSoakApp(cfg, kinds[i], tel)
	}, func(_ int, r SoakResult) { results = append(results, r) })
	if err != nil {
		return nil, err
	}
	return results, nil
}

// runSoakApp drives one application's soak arm end to end: pick the
// mechanisms, build, start, stage them, interleave their trigger ops into
// the base workload, and supervise the whole stream. Everything it does is a
// pure function of (cfg, app); it shares no state with other arms.
func runSoakApp(cfg SoakConfig, k *appKind, tel *Telemetry) (SoakResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(k.app)))
	mechs := pickMechanisms(k.app, cfg.Faults, rng)
	res := SoakResult{App: k.app, Mechanisms: mechs}
	env := append(k.env[:len(k.env):len(k.env)], simenv.WithFDLimit(soakFDLimit))
	app, scenarios := k.instance(cfg.Seed, env, mechs...)
	var hook workload.Hook // a typed-nil hook would defeat the generators' nil checks
	if tel != nil {
		hook = &obsv.WorkloadHook{Registry: tel.Registry}
	}
	base := k.wrapOps(k.soak(app, cfg.Seed, cfg.Ops, hook))
	if err := app.Start(); err != nil {
		return res, fmt.Errorf("experiment: soak start: %w", err)
	}
	var triggers [][]supervise.Op
	for _, mech := range mechs {
		sc, ok := scenarios[mech]
		if !ok {
			continue
		}
		if sc.Stage != nil {
			sc.Stage()
		}
		triggers = append(triggers, k.wrapOps(sc.Ops))
	}
	// A soak run hosts several mechanisms of different classes at once, so
	// episodes take their class labels from the mechanism catalogue.
	supCfg, obs := tel.superviseConfig(cfg.Supervise, obsv.Context{App: k.app.String(), ClassFor: ClassFor})
	rep, err := supervise.New(app, supCfg).Run(interleave(base, triggers, k.soakMinAt, rng))
	obs.Flush(app.Env().Monotonic())
	res.Report = rep
	return res, err
}

// RenderSoak formats the soak results, one report per application.
func RenderSoak(results []SoakResult) string {
	var b strings.Builder
	for i, r := range results {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "=== %s soak (%d mechanisms active: %s) ===\n",
			r.App, len(r.Mechanisms), strings.Join(r.Mechanisms, ", "))
		b.WriteString(r.Report.String())
	}
	return b.String()
}
