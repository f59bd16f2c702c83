// Command recoverylab runs the recovery-verification experiment: every
// corpus fault's executable reproduction under every recovery strategy, or a
// single mechanism for close inspection.
//
// Usage:
//
//	recoverylab                                 # the full 139-fault matrix
//	recoverylab -mechanism httpd/dns-error      # one fault, all strategies
//	recoverylab -lee93                          # the Tandem reconciliation
//	recoverylab -ablate                         # retry + rejuvenation ablations
//	recoverylab -soak -ops 500 -faults 3        # supervised soak of all three apps
//	recoverylab -supervised                     # matrix with the supervision column
//	recoverylab -supervised -metrics            # ... plus the per-class telemetry table
//	recoverylab -soak -trace soak.jsonl         # write the episode trace as JSONL
//	recoverylab -checktrace soak.jsonl          # validate a trace file's schema
//	recoverylab -lint                           # faultlint static classification vs seeded truth
//	recoverylab -supervised -workers 8          # shard the sweep over 8 workers
//	recoverylab -resil                          # chaos faults × client policies over the miner
//	recoverylab -mreboot                        # seeded bugs × recovery mechanisms on the component trees
//	recoverylab -scope                          # static class/rung prediction vs dynamic ground truth
//	recoverylab -serve                          # live-fire serving: open-loop traffic × the recovery ladder
//	recoverylab -serve -users 2000 -arrive fixed:1ms  # bigger user pool, deterministic arrivals
//	recoverylab -serve -reqlog serve_requests.jsonl   # write the per-request log
//	recoverylab -corpus                         # generated corpus: 5000 faults + 500 episodes through the ladder
//	recoverylab -corpus -spec "faults=200;episodes=20"  # a smaller generated population
//	recoverylab -corpus -corpusout corpus.jsonl # also write the generated population as JSONL
//	recoverylab -durable                        # crash matrix + device faults against the WAL store
//	recoverylab -durable -warehouse d.whs       # ... recording finished arms durably
//	recoverylab -durable -warehouse d.whs -haltafter 4  # run 4 arms, then halt (kill simulation)
//	recoverylab -durable -warehouse d.whs -resume       # finish a halted sweep byte-identically
//
// -resil exits non-zero unless the sweep's headline holds: under the full
// client policy, transient (EDT) chaos survival is at least 90% and
// nontransient (EDN) survival at most 10% — the CI chaos gate.
//
// -mreboot exits non-zero unless targeted component microreboots strictly
// beat process restarts on requests lost for environment-independent faults
// (and on MTTR wherever both recovered anything) — the CI microreboot gate.
//
// -scope exits non-zero unless the static analysis recovers the fault class
// of at least 85% of the seeded mechanisms and under-scopes the recovery
// rung on at most 5% of the environment-independent ones — the CI scope
// gate.
//
// -serve exits non-zero unless, for environment-independent faults under
// sustained open-loop traffic, a targeted component microreboot burns
// strictly less SLO error budget than a whole-process restart — the CI
// serve gate. SERVING.md documents the traffic model; -users sizes the
// simulated user pool, -arrive picks the arrival process, and -reqlog
// writes the per-request JSONL log.
//
// -durable exits non-zero unless the durability claims hold: across the
// kill-at-every-write-boundary crash matrix and the device-fault catalogue,
// zero acknowledged records are lost silently, zero corruptions go
// undetected, every episode's store recovers to a writable state, and the
// one deliberate torn-write device lie is detected and bounded — the CI
// durable gate. -warehouse records finished arms durably; -haltafter stops
// after N arms (exit 0) and -resume finishes a halted sweep, reproducing the
// uninterrupted run's report and telemetry byte-identically.
//
// -corpus exits non-zero unless the generated population passes every gate:
// each sampler fits its declared distribution (chi-squared, alpha 0.001),
// the classifier recovers the sampled fault classes, per-class recovery
// rates stay within the drift band of the mechanism-matched curated
// baseline, and the synthetic PR site reaches its page floor and crawls
// without gaps. -spec overrides the corpus specification (CORPUSGEN
// grammar); -corpusout writes the sampled population as JSONL.
//
// The telemetry flags (-metrics, -trace, -prom, -timeline) attach the
// observability layer (internal/obsv) to whichever experiment runs; see
// OBSERVABILITY.md for the metric catalogue and the trace schema.
//
// -workers shards every experiment's arms over a bounded worker pool (0, the
// default, means one worker per processor). Output is byte-identical at
// every worker count: arms derive their seeds from the root seed and the arm
// index alone and are folded in arm order (DESIGN.md §9).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"faultstudy"
	"faultstudy/internal/corpusgen"
	"faultstudy/internal/experiment"
	"faultstudy/internal/obsv"
	"faultstudy/internal/recovery"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "recoverylab:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		mechanism  = flag.String("mechanism", "", "run one seeded bug (e.g. httpd/dns-error)")
		seed       = flag.Int64("seed", 42, "environment seed")
		retries    = flag.Int("retries", 0, "retry budget per failure (0 = default 3)")
		lee93      = flag.Bool("lee93", false, "print the Lee & Iyer reconciliation")
		csvDir     = flag.String("csv", "", "directory to write CSV artifacts into")
		ablate     = flag.Bool("ablate", false, "run the retry and rejuvenation ablations")
		sensitive  = flag.Bool("sensitivity", false, "run the classifier sensitivity sweep")
		steps      = flag.Bool("steps", false, "print each recovery step (with -mechanism)")
		load       = flag.Bool("load", false, "run the ops-to-failure load sweep")
		soak       = flag.Bool("soak", false, "soak all three apps under supervision with random faults active")
		ops        = flag.Int("ops", 300, "base workload length per app (with -soak)")
		nfaults    = flag.Int("faults", 3, "seeded mechanisms activated per app (with -soak)")
		supCol     = flag.Bool("supervised", false, "add the supervision-layer column to the matrix")
		lint       = flag.Bool("lint", false, "validate faultlint's static classification against the registry")
		grow       = flag.Bool("grow", true, "let the supervisor apply the resource governor")
		metrics    = flag.Bool("metrics", false, "print the per-class recovery telemetry summary")
		traceOut   = flag.String("trace", "", "write the fault-episode trace to this file as JSONL")
		promOut    = flag.String("prom", "", "write the metrics registry to this file in Prometheus text format")
		timeline   = flag.Bool("timeline", false, "print human-readable episode timelines")
		checkTrace = flag.String("checktrace", "", "validate a JSONL episode trace file and exit")
		workers    = flag.Int("workers", 0, "worker pool size for the sharded sweeps (0 = one per processor)")
		resil      = flag.Bool("resil", false, "run the RESIL chaos sweep: injected HTTP faults x client policies")
		maxPages   = flag.Int("maxpages", 0, "per-arm crawl page cap (with -resil; 0 = default)")
		mreboot    = flag.Bool("mreboot", false, "run the MREBOOT sweep: seeded bugs x recovery mechanisms on the component trees")
		scope      = flag.Bool("scope", false, "run the SCOPE experiment: static class/rung prediction vs dynamic ground truth")
		serve      = flag.Bool("serve", false, "run the SERVE experiment: open-loop traffic x the recovery ladder on daemonized apps")
		users      = flag.Int("users", 0, "simulated user pool per arm (with -serve; 0 = default 1200)")
		arrive     = flag.String("arrive", "", "arrival process spec, poisson:<gap> or fixed:<gap> (with -serve; default poisson:1ms)")
		reqLog     = flag.String("reqlog", "", "write the per-request log to this file as JSONL (with -serve)")
		corpusRun  = flag.Bool("corpus", false, "run the CORPUS experiment: a generated fault population through classification and the supervised ladder")
		spec       = flag.String("spec", "", "corpus specification (with -corpus; empty = published-distribution defaults)")
		corpusOut  = flag.String("corpusout", "", "write the generated population to this file as JSONL (with -corpus)")
		durableRun = flag.Bool("durable", false, "run the DURABLE experiment: crash matrix + device faults against the WAL store")
		whPath     = flag.String("warehouse", "", "record finished arms in this resumable result store (with -durable)")
		resume     = flag.Bool("resume", false, "preload finished arms from the warehouse instead of rerunning them (with -durable)")
		haltAfter  = flag.Int("haltafter", 0, "run only this many missing arms, then halt (with -durable; 0 = run everything)")
	)
	flag.Parse()

	if *checkTrace != "" {
		return runCheckTrace(*checkTrace)
	}

	// The telemetry sinks are created only when some flag consumes them; a
	// nil telemetry keeps every instrumented path on its zero-cost branch.
	var tel *experiment.Telemetry
	if *metrics || *traceOut != "" || *promOut != "" || *timeline {
		tel = experiment.NewTelemetry()
	}

	policy := faultstudy.RecoveryPolicy{MaxRetries: *retries}
	if *steps {
		policy.Trace = func(ev recovery.TraceEvent) {
			if ev.Err != nil {
				fmt.Printf("    [%s] %s (attempt %d): %v\n", ev.Kind, ev.Op, ev.Attempt, ev.Err)
			} else {
				fmt.Printf("    [%s] %s (attempt %d)\n", ev.Kind, ev.Op, ev.Attempt)
			}
		}
	}

	// gate holds a CI-gated experiment's verdict; it fails the process only
	// after the requested telemetry has been written.
	var gate error
	gated := func(run func() (report, error), after func(report) error) func() error {
		return func() error {
			rep, err := run()
			if err != nil {
				return err
			}
			fmt.Print(rep)
			if after != nil {
				if err := after(rep); err != nil {
					return err
				}
			}
			gate = rep.Check()
			return nil
		}
	}

	// The experiments, in flag precedence order: the first selected one
	// runs; the recovery matrix is the default.
	experiments := []struct {
		on  bool
		run func() error
	}{
		{*durableRun, gated(func() (report, error) {
			return experiment.RunDurable(experiment.DurableConfig{
				Seed: *seed, Telemetry: tel, Workers: *workers,
				Warehouse: *whPath, Resume: *resume, HaltAfter: *haltAfter,
			})
		}, nil)},
		{*corpusRun, gated(func() (report, error) {
			return experiment.RunCorpus(experiment.CorpusConfig{
				Seed: *seed, Spec: *spec,
				Supervise: faultstudy.SupervisorConfig{GrowResources: *grow},
				Telemetry: tel, Workers: *workers,
			})
		}, func(report) error {
			if *corpusOut == "" {
				return nil
			}
			return writeCorpus(*spec, *seed, *workers, *corpusOut)
		})},
		{*serve, gated(func() (report, error) {
			return experiment.RunServe(experiment.ServeConfig{
				Seed: *seed, Users: *users, Arrival: *arrive,
				Telemetry: tel, Workers: *workers,
			})
		}, func(rep report) error {
			if *reqLog == "" {
				return nil
			}
			return writeRequestLog(rep.(*experiment.ServeReport), *reqLog)
		})},
		{*scope, gated(func() (report, error) {
			return experiment.RunScope(experiment.ScopeConfig{Seed: *seed, Telemetry: tel, Workers: *workers})
		}, nil)},
		{*mreboot, gated(func() (report, error) {
			return experiment.RunMReboot(experiment.MRebootConfig{Seed: *seed, Telemetry: tel, Workers: *workers})
		}, nil)},
		{*resil, gated(func() (report, error) {
			return experiment.RunResil(experiment.ResilConfig{
				Seed: *seed, MaxPages: *maxPages, Telemetry: tel, Workers: *workers,
			})
		}, nil)},
		{*mechanism != "", func() error { return runOne(*mechanism, policy, *seed, tel) }},
		{*lint, func() error {
			root, err := experiment.ModuleRoot()
			if err != nil {
				return err
			}
			rep, err := experiment.RunLint(root, *workers)
			if err != nil {
				return err
			}
			fmt.Print(rep)
			return nil
		}},
		{*soak, func() error {
			results, err := faultstudy.RunSoak(faultstudy.SoakConfig{
				Ops: *ops, Faults: *nfaults, Seed: *seed,
				Supervise: faultstudy.SupervisorConfig{GrowResources: *grow},
				Telemetry: tel, Workers: *workers,
			})
			if err != nil {
				return err
			}
			fmt.Println(faultstudy.RenderSoak(results))
			return nil
		}},
		{*load, func() error {
			points, err := experiment.RunOpsToFailure(5000, *seed)
			if err != nil {
				return err
			}
			fmt.Print(experiment.RenderOpsToFailure(points))
			return nil
		}},
		{*sensitive, func() error {
			points := experiment.RunClassifierSensitivity([]float64{0.25, 0.5, 0.75, 1.0, 1.5, 2.0})
			fmt.Print(experiment.RenderSensitivity(points))
			return nil
		}},
		{*ablate, func() error {
			for i, ablation := range []func() (fmt.Stringer, error){
				func() (fmt.Stringer, error) { return experiment.RunRetryAblation(5, *seed) },
				func() (fmt.Stringer, error) {
					return experiment.RunRejuvenationAblation([]int{0, 16, 32, 64, 128}, *seed)
				},
				func() (fmt.Stringer, error) { return experiment.RunReclaimAblation(*seed) },
				func() (fmt.Stringer, error) { return experiment.RunMitigationAblation(*seed) },
			} {
				if i > 0 {
					fmt.Println()
				}
				ab, err := ablation()
				if err != nil {
					return err
				}
				fmt.Print(ab)
			}
			return nil
		}},
		{true, func() error { return runMatrix(policy, *seed, *workers, *supCol, *grow, *lee93, *csvDir, tel) }},
	}
	for _, e := range experiments {
		if e.on {
			if err := e.run(); err != nil {
				return err
			}
			break
		}
	}

	if err := emitTelemetry(tel, *metrics, *timeline, *traceOut, *promOut); err != nil {
		return err
	}
	return gate
}

// runMatrix runs the recovery matrix — plus the supervised column, the Lee &
// Iyer reconciliation, and the CSV artifacts when asked — and prints it.
func runMatrix(policy faultstudy.RecoveryPolicy, seed int64, workers int, supCol, grow, lee93 bool, csvDir string, tel *experiment.Telemetry) error {
	matrix, err := faultstudy.RunRecoveryMatrixWorkers(policy, seed, workers)
	if err != nil {
		return err
	}
	if supCol {
		cfg := faultstudy.SupervisorConfig{GrowResources: grow}
		if err := matrix.AddSupervised(seed, cfg, tel, workers); err != nil {
			return err
		}
	}
	fmt.Print(matrix)
	if lee93 {
		fmt.Println()
		fmt.Print(faultstudy.CompareLee93(matrix))
	}
	if csvDir == "" {
		return nil
	}
	files, err := faultstudy.ExportArtifacts(matrix)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return err
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(csvDir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("\nwrote %d CSV artifacts to %s\n", len(files), csvDir)
	return nil
}

// report is what every CI-gated experiment returns: a printable report and
// its gate verdict.
type report interface {
	String() string
	Check() error
}

// emitTelemetry renders whatever telemetry outputs were requested after the
// selected experiment ran.
func emitTelemetry(tel *experiment.Telemetry, metrics, timeline bool, traceOut, promOut string) error {
	if tel == nil {
		return nil
	}
	if metrics {
		fmt.Println()
		fmt.Print(tel.Summary())
	}
	if timeline {
		fmt.Println()
		if err := tel.WriteTimeline(os.Stdout); err != nil {
			return err
		}
	}
	if traceOut != "" {
		if err := writeFile(traceOut, tel.WriteTrace); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d episodes to %s\n", len(tel.Episodes()), traceOut)
	}
	if promOut != "" {
		if err := writeFile(promOut, tel.WritePrometheus); err != nil {
			return err
		}
		fmt.Printf("wrote metrics to %s\n", promOut)
	}
	return nil
}

// writeCorpus re-samples the generated population deterministically and
// writes it as JSONL: one line per fault, then one per episode.
func writeCorpus(specText string, seed int64, workers int, path string) error {
	parsed, err := corpusgen.ParseCorpusSpec(specText)
	if err != nil {
		return err
	}
	err = writeFile(path, func(w io.Writer) error { return corpusgen.New(parsed, seed).WriteJSONL(w, workers) })
	if err != nil {
		return err
	}
	fmt.Printf("\nwrote %d faults and %d episodes to %s\n", parsed.Faults, parsed.Episodes, path)
	return nil
}

// writeRequestLog writes the SERVE experiment's per-request JSONL log.
func writeRequestLog(rep *experiment.ServeReport, path string) error {
	if err := writeFile(path, rep.WriteRequestLog); err != nil {
		return err
	}
	fmt.Printf("\nwrote %d request records to %s\n", len(rep.Arms)*rep.Requests, path)
	return nil
}

// writeFile creates path and fills it with write, closing it either way.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runCheckTrace validates a JSONL episode trace: every line parses against
// the documented schema and the file is non-empty. Exit status is the CI
// gate.
func runCheckTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	episodes, err := obsv.ReadJSONL(f)
	if err != nil {
		return fmt.Errorf("checktrace %s: %w", path, err)
	}
	if len(episodes) == 0 {
		return fmt.Errorf("checktrace %s: trace is empty", path)
	}
	fmt.Printf("trace OK: %d episodes, %d spans\n", len(episodes), countSpans(episodes))
	return nil
}

// countSpans totals the spans across episodes.
func countSpans(episodes []*obsv.Episode) int {
	n := 0
	for _, e := range episodes {
		n += len(e.Spans)
	}
	return n
}

// runOne runs one mechanism under every strategy, instrumenting each run when
// telemetry is enabled.
func runOne(mechanism string, policy faultstudy.RecoveryPolicy, seed int64, tel *experiment.Telemetry) error {
	for _, strat := range recovery.Strategies() {
		app, sc, err := faultstudy.BuildScenario(mechanism, seed)
		if err != nil {
			return err
		}
		runPolicy := policy
		var ro *obsv.RecoveryObserver
		if tel != nil {
			mech, _ := experiment.CorpusRegistry().Lookup(mechanism)
			ro = obsv.NewRecoveryObserver(tel.Registry, tel.Recorder, obsv.Context{
				App:     mech.App.String(),
				FaultID: mechanism,
				Class:   experiment.ClassFor(mechanism),
			}, strat.String())
			runPolicy.Trace = ro.Trace(policy.Trace)
		}
		mgr := faultstudy.NewRecoveryManager(runPolicy)
		out, err := mgr.Run(app, sc, strat)
		if err != nil {
			return err
		}
		if ro != nil {
			ro.Flush(app.Env().Monotonic())
		}
		status := "LOST"
		if out.Survived {
			status = "survived"
		}
		fmt.Printf("%-18s %-9s failures=%d recoveries=%d attempts=%d",
			strat, status, out.Failures, out.Recoveries, out.Attempts)
		if out.FirstFailure != nil {
			fmt.Printf("  first failure: %s", out.FirstFailure.Msg)
		}
		fmt.Println()
	}
	return nil
}
