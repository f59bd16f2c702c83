package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"

	"faultstudy/internal/apps/httpd"
	"faultstudy/internal/apps/sqldb"
	"faultstudy/internal/classify"
	"faultstudy/internal/component"
	"faultstudy/internal/corpusgen"
	"faultstudy/internal/durable"
	"faultstudy/internal/experiment"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/obsv"
	"faultstudy/internal/parallel"
	"faultstudy/internal/recovery"
	"faultstudy/internal/scrape"
	"faultstudy/internal/simenv"
	"faultstudy/internal/supervise"
	"faultstudy/internal/traffic"
)

// Sample sizes of the layer pass. Layers reported with a p99 get at least
// 1,000 calls, the fewest that leave ten samples beyond the 99th percentile.
const (
	ladderSamples   = 1000 // BuildScenario + supervised runs
	observedRuns    = 50   // supervised runs recorded into telemetry for obsv
	rerollSamples   = 2000
	envSamples      = 1000
	classifySamples = 1000
	daemonsPerApp   = 4     // serving arms per daemon when the workload has none
	shardTarget     = 50000 // no-op shards timed for the pool overhead
	ladderSalt      = uint64(1) << 40
)

// layerPlan is the input of the traced layer pass: the workload's own seed,
// mechanisms, schedule sizes and population, or a seed-derived sample of
// them.
type layerPlan struct {
	seed int64
	// mechanisms feed BuildScenario and the supervised runs, cycled to
	// ladderSamples calls.
	mechanisms []string
	// fromPopulation samples mechanisms from the generated faults instead.
	fromPopulation bool
	// daemons are the httpd/ and sqldb/ mechanisms of the serving calls.
	daemons []string
	// users, requests and arrival size each serving arm's schedule.
	users, requests int
	arrival         string
	// corpusSpec, siteFaults and crawlPages size generation and the crawl.
	corpusSpec             string
	siteFaults, crawlPages int
	// durableRecords is how many records the store pass applies.
	durableRecords int
	// shards is the shard count of one entry call's worker pool (0: the
	// generated population).
	shards int
	// perRun is how many calls of each layer one workload run makes, where
	// the workload's inputs say; it weights trace.accounted_frac.
	perRun map[string]float64
}

// defaultPlan sizes every layer the workload does not drive itself: SERVE's
// schedule, CORPUS's default site and crawl, and about one DURABLE seed of
// records.
func defaultPlan(seed int64) layerPlan {
	return layerPlan{seed: seed, users: 1200, requests: 2400, arrival: "poisson:1ms",
		siteFaults: 50000, crawlPages: 400, durableRecords: 1100}
}

// layerPass calls each layer's public functions directly, one span per call.
type layerPass struct {
	plan   layerPlan
	tr     *tracer
	ac     *allocCounter
	alloc  map[string]*[2]uint64 // bytes, objects allocated inside the calls
	counts map[string]float64    // outcome and volume counts by metric name
	rungs  rungCounts
	tels   []*experiment.Telemetry
	faults []*corpusgen.GenFault
	// shardUS is the measured pool overhead per shard, in microseconds.
	shardUS float64
	// firstSpan indexes the pass's first span in the tracer.
	firstSpan int
}

// call times fn as one span named name and charges its allocations to name.
func (lp *layerPass) call(name string, fn func() error) error {
	lp.tr.reserve(1)
	b0, o0 := lp.ac.read()
	id := lp.tr.begin(name)
	err := fn()
	lp.tr.end(id)
	b1, o1 := lp.ac.read()
	a := lp.alloc[name]
	if a == nil {
		a = new([2]uint64)
		lp.alloc[name] = a
	}
	a[0] += b1 - b0
	a[1] += o1 - o0
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// runLayerPass runs every layer once over the plan, recording on tr.
func runLayerPass(plan layerPlan, tr *tracer) (*layerPass, error) {
	lp := &layerPass{plan: plan, tr: tr, ac: newAllocCounter(),
		alloc: map[string]*[2]uint64{}, counts: map[string]float64{}, firstSpan: len(tr.spans)}
	tr.beginRun()
	root := tr.begin("layer_pass")
	defer tr.end(root)
	for _, step := range []func() error{
		lp.generate, lp.simenv, lp.ladder, lp.classify, lp.crawl,
		lp.serving, lp.observed, lp.telemetry, lp.store, lp.pool,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return lp, nil
}

// generate builds the fault population and its episodes from the spec.
func (lp *layerPass) generate() error {
	spec, err := corpusgen.ParseCorpusSpec(lp.plan.corpusSpec)
	if err != nil {
		return err
	}
	return lp.call("corpusgen.generate", func() (err error) {
		gen := corpusgen.New(spec, lp.plan.seed)
		if lp.faults, err = gen.Faults(1); err != nil {
			return err
		}
		_, err = gen.Episodes(1)
		return err
	})
}

// simenv times environment construction and scheduler rerolls.
func (lp *layerPass) simenv() error {
	for i := range envSamples {
		s := parallel.Derive(lp.plan.seed, uint64(i))
		if err := lp.call("simenv.new", func() error {
			simenv.New(s, simenv.WithFDLimit(64))
			return nil
		}); err != nil {
			return err
		}
	}
	env := simenv.New(lp.plan.seed)
	for range rerollSamples {
		if err := lp.call("simenv.reroll", func() error { env.Reroll(); return nil }); err != nil {
			return err
		}
	}
	return nil
}

// ladderMechanisms returns the supervised-run mechanisms: the plan's own, or
// a seed-spread sample of the generated population.
func (lp *layerPass) ladderMechanisms() []string {
	if !lp.plan.fromPopulation {
		return lp.plan.mechanisms
	}
	n := len(lp.faults)
	out := make([]string, 0, ladderSamples)
	start := int(uint64(lp.plan.seed) % uint64(n))
	for k := range min(n, ladderSamples) {
		out = append(out, lp.faults[(start+k*n/ladderSamples)%n].Mechanism)
	}
	return out
}

// ladder times BuildScenario and supervised runs through the full ladder,
// with a rung span per recovery action.
func (lp *layerPass) ladder() error {
	mechs := lp.ladderMechanisms()
	if len(mechs) == 0 {
		return fmt.Errorf("layer pass: no mechanisms for the supervised runs")
	}
	for k := range ladderSamples {
		mech := mechs[k%len(mechs)]
		seed := parallel.Derive(lp.plan.seed, ladderSalt+uint64(k))
		app, ops, err := lp.buildStaged(mech, seed)
		if err != nil {
			return err
		}
		cfg := supervise.Config{GrowResources: true, Trace: rungSpans(lp.tr, &lp.rungs)}
		if err := lp.call("supervise.run", func() error {
			_, err := supervise.New(app, cfg).Run(ops)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", mech, err)
		}
	}
	return nil
}

// buildStaged builds a mechanism's scenario under a span, starts the
// application and stages the fault's precondition.
func (lp *layerPass) buildStaged(mech string, seed int64) (recovery.Application, []supervise.Op, error) {
	var app recovery.Application
	var sc faultinject.Scenario
	if err := lp.call("experiment.build_scenario", func() (err error) {
		app, sc, err = experiment.BuildScenario(mech, seed)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := app.Start(); err != nil {
		return nil, nil, fmt.Errorf("%s: start: %w", mech, err)
	}
	if sc.Stage != nil {
		sc.Stage()
	}
	// Every op is a read: no degraded-mode shedding, so each run walks the
	// ladder as far as the fault takes it.
	ops := make([]supervise.Op, 0, len(sc.Ops))
	for _, op := range sc.Ops {
		ops = append(ops, supervise.Op{Name: op.Name, Kind: supervise.OpRead, Do: op.Do})
	}
	return app, ops, nil
}

// classify times the classifier over generated reports.
func (lp *layerPass) classify() error {
	n := len(lp.faults)
	for k := range min(n, classifySamples) {
		r := lp.faults[k*n/min(n, classifySamples)].Report()
		if err := lp.call("classify.classify", func() error {
			classify.New(classify.Options{}).Classify(r)
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// crawl serves the population as a synthetic PR site and crawls a bounded
// sample through the real crawler, as CORPUS does.
func (lp *layerPass) crawl() error {
	spec, err := corpusgen.ParseCorpusSpec(lp.plan.corpusSpec)
	if err != nil {
		return err
	}
	spec.Faults, spec.Episodes = lp.plan.siteFaults, 0
	srv := httptest.NewServer(corpusgen.NewSite(corpusgen.New(spec, lp.plan.seed)))
	defer srv.Close()
	cr := scrape.NewCrawler(scrape.WithMaxPages(lp.plan.crawlPages), scrape.WithDelay(0),
		scrape.WithPathFilter("/gen"), scrape.WithClient(srv.Client()))
	var pages []*scrape.Page
	if err := lp.call("scrape.crawl", func() (err error) {
		pages, err = cr.Crawl(context.Background(), srv.URL+"/gen/")
		return err
	}); err != nil {
		return err
	}
	for _, p := range pages {
		if p.Err != nil || p.Status != 200 {
			lp.counts["scrape.crawl.gaps"]++
		} else {
			lp.counts["scrape.crawl.pages"]++
		}
	}
	return nil
}

// daemon is a componentized serving application.
type daemon interface {
	recovery.Application
	component.Host
	ServeWarm() error
	ServeArrival(seq, user int, u float64) (category, component string, err error)
}

// buildDaemon constructs a serving application for a mechanism the way
// SERVE's arms do.
func buildDaemon(mech string, seed int64) (daemon, error) {
	switch {
	case strings.HasPrefix(mech, "httpd/"):
		env := simenv.New(seed, simenv.WithFDLimit(64), simenv.WithProcLimit(192))
		return httpd.Componentize(httpd.New(env, faultinject.NewSet(mech), httpd.Config{}), component.NewStore()), nil
	case strings.HasPrefix(mech, "sqldb/"):
		env := simenv.New(seed, simenv.WithFDLimit(64))
		return sqldb.Componentize(sqldb.New(env, faultinject.NewSet(mech)), component.NewStore()), nil
	default:
		return nil, fmt.Errorf("layer pass: %q is not a daemon mechanism", mech)
	}
}

// daemonMechanisms returns the serving arms: the plan's own, or the first
// daemonsPerApp httpd/ and sqldb/ mechanisms among the workload's supervised
// mechanisms, topped up from the seed-shuffled registry.
func (lp *layerPass) daemonMechanisms() []string {
	if len(lp.plan.daemons) > 0 {
		return lp.plan.daemons
	}
	pool := append(append([]string(nil), lp.ladderMechanisms()...),
		seededOrder(experiment.Registry().Keys(), lp.plan.seed)...)
	seen := map[string]bool{}
	quota := map[string]int{"httpd/": daemonsPerApp, "sqldb/": daemonsPerApp}
	var out []string
	for _, m := range pool {
		prefix := m[:strings.IndexByte(m, '/')+1]
		if quota[prefix] > 0 && !seen[m] {
			seen[m] = true
			quota[prefix]--
			out = append(out, m)
		}
	}
	return out
}

// serving drives each serving arm's full schedule through ServeArrival,
// with SERVE's telemetry calls per request, a checkpoint every 200 arrivals
// and a component reboot every 300; sqldb arms then restore each checkpoint.
func (lp *layerPass) serving() error {
	proc, err := traffic.ParseArrivals(lp.plan.arrival)
	if err != nil {
		return err
	}
	rungs := experiment.ServeRungs()
	for i, mech := range lp.daemonMechanisms() {
		seed := parallel.Derive(lp.plan.seed, uint64(i))
		app, err := buildDaemon(mech, seed)
		if err != nil {
			return err
		}
		if err := app.Start(); err != nil {
			return fmt.Errorf("%s: start: %w", mech, err)
		}
		if app.ServeWarm() != nil && !app.Running() {
			app.ContainCrash()
			_ = app.ServeWarm()
		}
		var sched []traffic.Arrival
		if err := lp.call("traffic.schedule", func() (err error) {
			sched, err = traffic.Schedule(traffic.GenConfig{Seed: seed, Users: lp.plan.users,
				Requests: lp.plan.requests, Process: proc})
			return err
		}); err != nil {
			return err
		}
		tel := experiment.NewTelemetry()
		lp.tels = append(lp.tels, tel)
		appName := mech[:strings.IndexByte(mech, '/')]
		name := "apps." + appName + ".serve_arrival"
		rung := rungs[i%len(rungs)]
		comps := app.Tree().Names()
		var snaps [][]byte
		for _, arr := range sched {
			if !app.Running() || !app.Tree().AllRunning() {
				app.ContainCrash()
				_ = app.Tree().StartAll()
			}
			if arr.Seq%200 == 0 {
				if err := lp.call("apps.snapshot", func() error {
					s, err := app.Snapshot()
					snaps = append(snaps, s)
					return err
				}); err != nil {
					return err
				}
			}
			if arr.Seq%300 == 150 {
				c := comps[(arr.Seq/300)%len(comps)]
				if err := lp.call("component.reboot", func() error { return app.Tree().Reboot(c) }); err != nil {
					return err
				}
			}
			var serr error
			_ = lp.call(name, func() error {
				_, _, serr = app.ServeArrival(arr.Seq, arr.User, arr.U)
				return nil
			})
			outcome := traffic.OutcomeOK
			if serr != nil {
				outcome = traffic.OutcomeError
				lp.counts[name+".failed"]++
			} else {
				lp.counts[name+".ok"]++
			}
			_ = lp.call("obsv.counter_inc", func() error {
				tel.Registry.Counter(experiment.MetricServeRequests,
					obsv.L("app", appName, "rung", rung, "outcome", outcome)...).Inc()
				return nil
			})
			if serr == nil {
				_ = lp.call("obsv.histogram_observe", func() error {
					tel.Registry.Histogram(experiment.MetricServeRequestLatency, obsv.RequestLatencyBuckets,
						obsv.L("app", appName, "rung", rung)...).ObserveDuration(arr.Service)
					return nil
				})
			}
		}
		// Restore rolls back a stopped process: newest checkpoint first, so
		// each restore rewinds the log further.
		app.Stop()
		if app.Name() == sqldb.Owner {
			for k := len(snaps) - 1; k >= 0; k-- {
				if err := lp.call("apps.restore", func() error { return app.Restore(snaps[k]) }); err != nil {
					return err
				}
				app.Stop()
			}
		}
	}
	return nil
}

// observed records a few supervised runs into per-run telemetry, so the
// merged trace the obsv writers render carries real episodes.
func (lp *layerPass) observed() error {
	mechs := lp.ladderMechanisms()
	for k := range observedRuns {
		mech := mechs[k%len(mechs)]
		app, ops, err := lp.buildStaged(mech, parallel.Derive(lp.plan.seed, ladderSalt+uint64(k)))
		if err != nil {
			return err
		}
		tel := experiment.NewTelemetry()
		lp.tels = append(lp.tels, tel)
		obs := obsv.NewObserver(tel.Registry, tel.Recorder, obsv.Context{
			App: app.Name(), FaultID: mech, Class: experiment.ClassFor(mech)})
		cfg := supervise.Config{GrowResources: true, Trace: obs.SuperviseTrace(nil)}
		if err := lp.tr.do("obsv.observed_run", func() error {
			_, err := supervise.New(app, cfg).Run(ops)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", mech, err)
		}
		obs.Flush(app.Env().Monotonic())
	}
	return nil
}

// telemetry merges the per-arm telemetries in arm order and renders the
// merged trace and Prometheus text.
func (lp *layerPass) telemetry() error {
	total := experiment.NewTelemetry()
	if err := lp.call("obsv.merge", func() error { return total.Merge(lp.tels...) }); err != nil {
		return err
	}
	var trace, prom strings.Builder
	if err := lp.call("obsv.write_trace", func() error { return total.WriteTrace(&trace) }); err != nil {
		return err
	}
	lp.counts["obsv.write_trace.bytes"] = float64(trace.Len())
	return lp.call("obsv.write_prometheus", func() error { return total.WritePrometheus(&prom) })
}

// store drives the WAL store: applies with a checkpoint every 64 records, a
// crash with a torn tail every 100 and a recovering Open after it, and a
// rollback every 150; then syncs and whole-file reads on the raw disk.
func (lp *layerPass) store() error {
	const owner, dir = "labbench", "/var/labbench"
	env := simenv.New(lp.plan.seed)
	opts := durable.Options{CheckpointEvery: -1}
	var st *durable.Store
	open := func() error {
		return lp.call("durable.open", func() error {
			s, info, err := durable.Open(env, owner, dir, opts)
			if err != nil {
				return err
			}
			st = s
			lp.counts["durable.open.replayed"] += float64(info.Replayed)
			if info.TruncatedBytes > 0 {
				lp.counts["durable.open.repairs"]++
			}
			return nil
		})
	}
	if err := open(); err != nil {
		return err
	}
	for i := range lp.plan.durableRecords {
		op := durable.Op{Kind: durable.OpPut, Key: fmt.Sprintf("k%02d", i%7),
			Value: []byte(fmt.Sprintf("v%04d-%s", i, strings.Repeat("x", i%13)))}
		lp.counts["durable.apply.bytes"] += float64(len(op.Key) + len(op.Value))
		if err := lp.call("durable.apply", func() error { return st.Apply([]durable.Op{op}) }); err != nil {
			return err
		}
		switch {
		case (i+1)%64 == 0:
			if err := lp.call("durable.checkpoint", st.Checkpoint); err != nil {
				return err
			}
		case (i+1)%100 == 0:
			// The write lands, its sync crashes: a torn tail for Open.
			env.Disk().ScheduleCrash(1, 3)
			if err := st.Apply([]durable.Op{op}); err == nil {
				return fmt.Errorf("layer pass: scheduled crash did not fire")
			}
			env.Disk().ClearCrash()
			st.Close()
			if err := open(); err != nil {
				return err
			}
		case (i+1)%150 == 0:
			target := max(st.CheckpointSeq(), st.Seq()-10)
			if err := lp.call("durable.rollback_to", func() error { return st.RollbackTo(target) }); err != nil {
				return err
			}
		}
	}
	st.Close()
	d := env.Disk()
	rec := []byte(strings.Repeat("r", 64))
	for range lp.plan.durableRecords {
		if err := d.Write(dir+"/raw.log", owner, rec); err != nil {
			return err
		}
		if err := lp.call("simenv.disk_sync", func() error { return d.Sync(dir + "/raw.log") }); err != nil {
			return err
		}
	}
	for _, f := range d.Files() {
		if err := lp.call("simenv.disk_read_all", func() error {
			b, err := d.ReadAll(f)
			lp.counts["simenv.disk_read_all.bytes"] += float64(len(b))
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// pool times the worker pool over no-op shards at one worker per CPU, in
// batches the size of one entry call's pool.
func (lp *layerPass) pool() error {
	shards := lp.plan.shards
	if shards <= 0 {
		shards = len(lp.faults)
	}
	reps := max(1, shardTarget/shards)
	workers := runtime.NumCPU()
	for range reps {
		if err := lp.tr.do("parallel.map_ordered", func() error {
			_, err := parallel.MapOrdered(workers, shards, func(i int) (int, error) { return i, nil })
			return err
		}); err != nil {
			return err
		}
	}
	var total float64
	for _, s := range lp.tr.spans {
		if s.Name == "parallel.map_ordered" {
			total += float64(s.End-s.Start) / 1e3
		}
	}
	lp.shardUS = total / float64(reps*shards)
	return nil
}
