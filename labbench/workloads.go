package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"faultstudy/internal/corpus"
	"faultstudy/internal/corpusgen"
	"faultstudy/internal/experiment"
	"faultstudy/internal/parallel"
	"faultstudy/internal/supervise"
	"faultstudy/internal/traffic"
)

// result is what one workload run produced.
type result struct {
	// units is the work completed: arrivals served, ladder runs, or
	// acknowledged records.
	units int
	// parts are the rendered outputs the byte-identity digest covers.
	parts [][]byte
	// gate is the experiment's Check() verdict.
	gate error
}

// workload is one benchmark workload: a configuration resolved from the seed
// and a run through the experiment's public entry point.
type workload interface {
	// config is the resolved configuration, for the provenance stamp.
	config() any
	// run executes the workload once at the given worker count, recording
	// its phases on tr (a nil tracer records nothing).
	run(workers int, tr *tracer) (result, error)
	// plan returns the inputs of the traced layer pass, drawn from the
	// workload's own configuration and its last run.
	plan() layerPlan
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"serve", "corpus", "durable"}

// durableSeeds is how many derived seeds one durable run covers: one
// RunDurable is ~9 ms, too short to time on its own.
const durableSeeds = 80

// newWorkload resolves a workload's configuration from the seed. This is
// the set-up the setup_s probe times: it touches the lazy tables the first
// call would otherwise build (the mechanism registries, the curated corpus,
// spec and arrival parsing).
func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "serve":
		return newServe(experiment.ServeConfig{Seed: seed, Users: 1200, Requests: 2400, Arrival: "poisson:1ms"})
	case "corpus":
		return newCorpus(experiment.CorpusConfig{Seed: seed, Supervise: supervise.Config{GrowResources: true}})
	case "durable":
		return newDurable(seed, durableSeeds), nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
}

// serveWorkload is RunServe with telemetry attached: the request path.
type serveWorkload struct {
	cfg   experiment.ServeConfig
	mechs []string // the mechanism axis of the last run, in arm order
	// perRun counts the layer calls of the last run.
	perRun map[string]float64
}

func newServe(cfg experiment.ServeConfig) (*serveWorkload, error) {
	if _, err := traffic.ParseArrivals(cfg.Arrival); err != nil {
		return nil, err
	}
	experiment.Registry()
	return &serveWorkload{cfg: cfg}, nil
}

func (w *serveWorkload) config() any {
	return map[string]any{"entry": "experiment.RunServe", "users": w.cfg.Users,
		"requests_per_arm": w.cfg.Requests, "arrival": w.cfg.Arrival, "telemetry": true}
}

func (w *serveWorkload) run(workers int, tr *tracer) (result, error) {
	cfg := w.cfg
	cfg.Workers = workers
	cfg.Telemetry = experiment.NewTelemetry()
	var rep *experiment.ServeReport
	err := tr.do("experiment.run_serve", func() (err error) {
		rep, err = experiment.RunServe(cfg)
		return err
	})
	if err != nil {
		return result{}, err
	}
	var res result
	tr.do("check", func() error { res.gate = rep.Check(); return nil })
	err = tr.do("render", func() error {
		var trace, prom strings.Builder
		if err := cfg.Telemetry.WriteTrace(&trace); err != nil {
			return err
		}
		if err := cfg.Telemetry.WritePrometheus(&prom); err != nil {
			return err
		}
		res.parts = [][]byte{[]byte(rep.String()), []byte(trace.String()), []byte(prom.String())}
		return nil
	})
	w.mechs = w.mechs[:0]
	arms := float64(len(rep.Arms))
	w.perRun = map[string]float64{"traffic.schedule": arms, "parallel.map_ordered": arms,
		"apps.snapshot": arms * float64(cfg.Requests/200), "obsv.merge": 1,
		"obsv.write_trace": 1, "obsv.write_prometheus": 1}
	for _, a := range rep.Arms {
		res.units += a.Requests
		if len(w.mechs) == 0 || w.mechs[len(w.mechs)-1] != a.Mechanism {
			w.mechs = append(w.mechs, a.Mechanism)
		}
		// A lost arrival found nothing listening and made no call.
		w.perRun["apps."+strings.SplitN(a.Mechanism, "/", 2)[0]+".serve_arrival"] += float64(a.Requests - a.Lost)
		w.perRun["obsv.counter_inc"] += float64(a.Requests)
		w.perRun["obsv.histogram_observe"] += float64(a.Good + a.Slow)
	}
	return res, err
}

func (w *serveWorkload) plan() layerPlan {
	p := defaultPlan(w.cfg.Seed)
	p.mechanisms = w.mechs
	p.daemons = w.mechs
	p.users, p.requests, p.arrival = w.cfg.Users, w.cfg.Requests, w.cfg.Arrival
	p.shards = len(w.mechs) * len(experiment.ServeRungs())
	p.perRun = w.perRun
	return p
}

// corpusWorkload is RunCorpus with the default spec and telemetry off: the
// supervised-ladder path.
type corpusWorkload struct {
	cfg  experiment.CorpusConfig
	spec string // the resolved corpus spec
	// faults and runs are the last run's population and ladder runs.
	faults, runs int
}

func newCorpus(cfg experiment.CorpusConfig) (*corpusWorkload, error) {
	spec, err := corpusgen.ParseCorpusSpec(cfg.Spec)
	if err != nil {
		return nil, err
	}
	corpus.All()
	experiment.CorpusRegistry()
	return &corpusWorkload{cfg: cfg, spec: spec.String()}, nil
}

func (w *corpusWorkload) config() any {
	return map[string]any{"entry": "experiment.RunCorpus", "spec": w.spec,
		"grow_resources": w.cfg.Supervise.GrowResources, "site_and_crawl": "experiment defaults",
		"telemetry": false}
}

func (w *corpusWorkload) run(workers int, tr *tracer) (result, error) {
	cfg := w.cfg
	cfg.Workers = workers
	if tr != nil {
		cfg.Supervise.Trace = rungSpans(tr, nil)
	}
	var rep *experiment.CorpusReport
	err := tr.do("experiment.run_corpus", func() (err error) {
		rep, err = experiment.RunCorpus(cfg)
		return err
	})
	if err != nil {
		return result{}, err
	}
	res := result{units: rep.Faults + rep.Episodes}
	for _, c := range rep.Classes {
		res.units += c.Curated.N
	}
	w.faults, w.runs = rep.Faults, res.units
	tr.do("check", func() error { res.gate = rep.Check(); return nil })
	tr.do("render", func() error { res.parts = [][]byte{[]byte(rep.String())}; return nil })
	return res, nil
}

func (w *corpusWorkload) plan() layerPlan {
	p := defaultPlan(w.cfg.Seed)
	p.corpusSpec = w.cfg.Spec
	p.fromPopulation = true
	p.perRun = map[string]float64{"corpusgen.generate": 1, "scrape.crawl": 1,
		"classify.classify": float64(w.faults), "experiment.build_scenario": float64(w.runs),
		"supervise.run": float64(w.runs), "parallel.map_ordered": float64(w.runs)}
	return p
}

// durableWorkload is RunDurable (no warehouse, telemetry off) over derived
// seeds: the write and recovery path.
type durableWorkload struct {
	seed  int64
	seeds []int64
	// acked and total are the last run's acknowledged records for the
	// first seed and for all of them.
	acked, total int
}

func newDurable(seed int64, k int) *durableWorkload {
	w := &durableWorkload{seed: seed}
	for i := range k {
		w.seeds = append(w.seeds, parallel.Derive(seed, uint64(i)))
	}
	return w
}

func (w *durableWorkload) config() any {
	return map[string]any{"entry": "experiment.RunDurable", "seeds": len(w.seeds),
		"seed_derivation": "parallel.Derive(seed, i)", "warehouse": false, "telemetry": false}
}

func (w *durableWorkload) run(workers int, tr *tracer) (result, error) {
	reps := make([]*experiment.DurableReport, 0, len(w.seeds))
	for _, s := range w.seeds {
		var rep *experiment.DurableReport
		err := tr.do("experiment.run_durable", func() (err error) {
			rep, err = experiment.RunDurable(experiment.DurableConfig{Seed: s, Workers: workers})
			return err
		})
		if err != nil {
			return result{}, fmt.Errorf("durable seed %d: %w", s, err)
		}
		reps = append(reps, rep)
	}
	var res result
	tr.do("check", func() error {
		for _, rep := range reps {
			if err := rep.Check(); err != nil {
				res.gate = fmt.Errorf("durable seed %d: %w", rep.Seed, err)
				break
			}
		}
		return nil
	})
	tr.do("render", func() error {
		for _, rep := range reps {
			res.parts = append(res.parts, []byte(rep.String()))
		}
		return nil
	})
	for i, rep := range reps {
		n := 0
		for _, a := range rep.Arms {
			n += a.Acked
		}
		if i == 0 {
			w.acked = n
		}
		res.units += n
	}
	w.total = res.units
	return res, nil
}

func (w *durableWorkload) plan() layerPlan {
	p := defaultPlan(w.seed)
	var keys []string
	for _, k := range experiment.CorpusRegistry().Keys() {
		if strings.HasPrefix(k, "sqldb/") || strings.HasPrefix(k, "cache/") {
			keys = append(keys, k)
		}
	}
	p.mechanisms = seededOrder(keys, w.seed)
	if w.acked > 0 {
		p.durableRecords = w.acked
	}
	p.shards = 12 // RunDurable's arm count
	p.perRun = map[string]float64{"durable.apply": float64(w.total),
		"parallel.map_ordered": float64(p.shards * len(w.seeds))}
	return p
}

// seededOrder returns keys sorted, then shuffled by seed.
func seededOrder(keys []string, seed int64) []string {
	out := append([]string(nil), keys...)
	sort.Strings(out)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// rungSpans returns a supervise.Config.Trace hook that opens a span at each
// recovery action, named for its rung, and closes it at the supervisor's
// next event. With counts non-nil it also tallies attempts and successes.
func rungSpans(tr *tracer, counts *rungCounts) func(supervise.Event) {
	return func(ev supervise.Event) {
		tr.endInnermostPrefix("supervise.rung.")
		switch ev.Kind {
		case supervise.EventAction:
			if counts != nil {
				counts.attempts++
			}
			tr.begin("supervise.rung." + ev.Rung.String())
		case supervise.EventRetryOK:
			if counts != nil {
				counts.ok++
			}
		}
	}
}

// rungCounts tallies the ladder's recovery attempts and those that worked.
type rungCounts struct{ attempts, ok int }
