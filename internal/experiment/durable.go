package experiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"faultstudy/internal/apps/cache"
	"faultstudy/internal/apps/sqldb"
	"faultstudy/internal/component"
	"faultstudy/internal/durable"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/obsv"
	"faultstudy/internal/parallel"
	"faultstudy/internal/simenv"
	"faultstudy/internal/stats"
	"faultstudy/internal/warehouse"
)

// Metric names of the DURABLE experiment; the catalogue entry lives in
// OBSERVABILITY.md.
const (
	// MetricDurableEpisodes counts closed DURABLE fault episodes by outcome.
	MetricDurableEpisodes = "faultstudy_durable_episodes_total"
	// MetricDurableAckedLost counts acknowledged records silently missing
	// after recovery — the loss class the experiment gates at zero.
	MetricDurableAckedLost = "faultstudy_durable_acked_lost_total"
	// MetricDurableDetectedLoss counts acknowledged records whose loss the
	// recovery path detected and reported (the torn-write device lie).
	MetricDurableDetectedLoss = "faultstudy_durable_detected_loss_total"
	// MetricDurableRepairs counts tail truncations recovery performed over
	// torn or corrupt log bytes.
	MetricDurableRepairs = "faultstudy_durable_repairs_total"
	// MetricDurableMTTRSeconds is the per-episode repair-time histogram
	// (fault detection to store recovered and writable, virtual clock).
	MetricDurableMTTRSeconds = "faultstudy_durable_mttr_seconds"
)

// The experiment's fixed workload and virtual-time model.
const (
	// durableOwner and durableDir root the store every non-app arm drives.
	durableOwner = "durablelab"
	durableDir   = "/var/durablelab"
	// durableCrashOps is the workload length of the crash-matrix arms; every
	// write boundary it produces (including the checkpoint writes forced by
	// durableCrashCkptEvery) hosts one crash episode.
	durableCrashOps       = 18
	durableCrashCkptEvery = 6
	// durableOps is the workload length of the environmental-fault arms.
	durableOps = 24
	// durableDetect is the failure-detection latency charged to every
	// episode, and durableRestart the cost of replacing the process before
	// recovery (durable.Open) runs.
	durableDetect  = 100 * time.Millisecond
	durableRestart = 500 * time.Millisecond
)

// DurableConfig tunes the DURABLE experiment.
type DurableConfig struct {
	// Seed drives every arm's environment stream.
	Seed int64
	// Telemetry, when non-nil, receives per-episode traces and the durable
	// metric family, derived from the finished arms in fixed arm order — so
	// resumed and uninterrupted runs emit byte-identical telemetry.
	Telemetry *Telemetry
	// Workers bounds the worker pool the arms are sharded over (0 or
	// negative means one per processor; 1 is serial). Reports and telemetry
	// are byte-identical at every worker count.
	Workers int
	// Warehouse, when non-empty, is the resumable result store: every
	// finished arm is durably recorded there before the sweep moves on.
	Warehouse string
	// Resume preloads finished arms from the warehouse instead of rerunning
	// them; with an empty warehouse it is a full run.
	Resume bool
	// HaltAfter, when positive, runs only that many missing arms (serially)
	// and then halts — the harness-kill half of the resume-equivalence
	// check.
	HaltAfter int
}

// DurableEpisode is one fault-recovery episode of an arm, kept in the arm
// record so traces and histograms can be re-derived from warehoused arms.
type DurableEpisode struct {
	// Op names the failing operation (e.g. "crash@007").
	Op string
	// Note is the activation detail recorded on the episode.
	Note string
	// Start and End bound the episode on the arm's virtual clock.
	Start, End time.Duration
	// Recovered reports whether the store came back consistent and writable.
	Recovered bool
}

// DurableArm is one fault-injection cell of the DURABLE experiment.
type DurableArm struct {
	// Name is the arm's fault condition.
	Name string
	// Class buckets the condition: "none", "crash", "EDN", "EDT", or "app".
	Class string
	// Boundaries is the number of write boundaries the crash matrix
	// enumerated (crash arms only).
	Boundaries int
	// Crashes is the number of injected process crashes.
	Crashes int
	// Acked is the total number of acknowledged records across episodes.
	Acked int
	// Recovered is how many acknowledged records were present after
	// recovery.
	Recovered int
	// SilentLoss counts acknowledged records missing after recovery without
	// the recovery path reporting damage — gated at zero everywhere.
	SilentLoss int
	// DetectedLoss counts acknowledged records lost to detected, reported
	// damage — allowed only in the torn-write arm, where the device lies.
	DetectedLoss int
	// UndetectedCorruption counts recoveries that returned a state different
	// from any acknowledged prefix without reporting damage — gated at zero.
	UndetectedCorruption int
	// Repairs counts tail truncations performed over damaged log bytes.
	Repairs int
	// Episodes and RecoveredEpisodes count fault episodes and those whose
	// store came back consistent and writable.
	Episodes, RecoveredEpisodes int
	// MTTRTotal accumulates repair time over recovered episodes.
	MTTRTotal time.Duration
	// Eps holds the per-episode records telemetry is derived from.
	Eps []DurableEpisode
}

// MTTR is the arm's mean time to repair over recovered episodes (0 when
// nothing recovered).
func (a DurableArm) MTTR() time.Duration { return meanRepair(a.MTTRTotal, a.RecoveredEpisodes) }

// DurableReport is the assembled experiment, arms in fixed order.
type DurableReport struct {
	// Seed is the experiment's root seed.
	Seed int64
	// Arms holds every fault-condition cell, in durableArms order.
	Arms []DurableArm
	// Halted is true when HaltAfter stopped the sweep early; the report then
	// carries no arms and gates nothing — resume to finish.
	Halted bool
	// Done and Total count warehoused arms at the halt (Halted only).
	Done, Total int
}

// durableArms is the fixed arm axis, in report order: each arm's fault
// condition and how to run it from its derived seed. Everything an arm does
// is a pure function of (name, seed); it shares no state with other arms.
var durableArms = []struct {
	name string
	run  func(name string, seed int64) (DurableArm, error)
}{
	{"none", runDurableBaselineArm},
	{"crash-drop", func(name string, seed int64) (DurableArm, error) { return runDurableCrashArm(name, seed, 0) }},
	{"crash-tear", func(name string, seed int64) (DurableArm, error) { return runDurableCrashArm(name, seed, 3) }},
	{"disk-full", runDurableDiskFullArm},
	{"fd-exhaustion", runDurableFDArm},
	{"file-limit", runDurableFileLimitArm},
	{"short-write", func(name string, seed int64) (DurableArm, error) { return runDurableWriteFaultArm(name, seed, "short") }},
	{"sync-fail", func(name string, seed int64) (DurableArm, error) { return runDurableWriteFaultArm(name, seed, "sync") }},
	{"torn-write", runDurableTornArm},
	{"crash-before-rename", runDurableRenameArm},
	{"app-sqldb-restore", runDurableSQLArm},
	{"app-cache-reboot", runDurableCacheArm},
}

// durableArmKey is an arm's record key in the warehouse.
func durableArmKey(idx int, name string) string {
	return fmt.Sprintf("arm/%02d-%s", idx, name)
}

// RunDurable runs the DURABLE experiment: a kill-at-every-write-boundary
// crash matrix and the environmental fault catalogue (disk-full, descriptor
// exhaustion, file-size limit, short write, sync failure, torn write,
// crash-before-rename) against the WAL + checkpoint store, plus restore and
// persist-reboot probes of the two store-backed applications. Every episode
// crashes or wounds the store, recovers it through durable.Open, and
// verifies the recovered state against the acknowledged-prefix model —
// scoring silent loss (gated at zero), detected loss, undetected corruption
// (gated at zero), repairs, and MTTR.
//
// Arms are independent shards: each derives its seed from (Seed, arm index)
// alone, and traces and metrics are derived from the finished arm records in
// fixed arm order — so reports and telemetry are byte-identical at every
// worker count, and identical whether the sweep ran uninterrupted or was
// killed and resumed from the warehouse.
func RunDurable(cfg DurableConfig) (*DurableReport, error) {
	n := len(durableArms)
	var wh *warehouse.Warehouse
	if cfg.Warehouse != "" {
		if !cfg.Resume {
			// A fresh sweep starts from a fresh warehouse; stale arms from a
			// previous run must not leak into this one.
			if err := os.Remove(cfg.Warehouse); err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, fmt.Errorf("experiment: durable: reset warehouse: %w", err)
			}
		}
		var err error
		wh, _, err = warehouse.Open(cfg.Warehouse)
		if err != nil {
			return nil, fmt.Errorf("experiment: durable: %w", err)
		}
		defer wh.Close()
	}
	done := make(map[int]DurableArm)
	if wh != nil && cfg.Resume {
		for i, a := range durableArms {
			raw, ok := wh.Get(durableArmKey(i, a.name))
			if !ok {
				continue
			}
			var arm DurableArm
			if err := json.Unmarshal(raw, &arm); err != nil {
				return nil, fmt.Errorf("experiment: durable: warehouse arm %s: %w", a.name, err)
			}
			done[i] = arm
		}
	}
	ran := 0 // missing arms run, for HaltAfter
	runArm := func(i int, _ *Telemetry) (DurableArm, error) {
		if arm, ok := done[i]; ok {
			return arm, nil
		}
		if cfg.HaltAfter > 0 {
			if ran == cfg.HaltAfter {
				return DurableArm{}, errDurableHalt
			}
			ran++
		}
		arm, err := durableArms[i].run(durableArms[i].name, parallel.Derive(cfg.Seed, uint64(i)))
		if err != nil || wh == nil {
			return arm, err
		}
		raw, err := json.Marshal(arm)
		if err != nil {
			return arm, fmt.Errorf("experiment: durable: encode arm %s: %w", arm.Name, err)
		}
		if err := wh.Put(durableArmKey(i, arm.Name), raw); err != nil {
			return arm, fmt.Errorf("experiment: durable: %w", err)
		}
		return arm, nil
	}
	if cfg.HaltAfter > 0 {
		// The halt runs serially so "the first HaltAfter missing arms" is
		// well defined; it derives no report and no telemetry.
		if err := sweep(1, n, nil, runArm, nil); err != nil && !errors.Is(err, errDurableHalt) {
			return nil, err
		}
		return &DurableReport{Seed: cfg.Seed, Halted: true, Done: len(done) + ran, Total: n}, nil
	}
	// Traces and metrics are derived from the finished arm records in fixed
	// arm order — rather than recorded during the sweep — which is what makes
	// them invariant under worker count and resume.
	tel := cfg.Telemetry
	if tel != nil {
		obsv.RegisterBridgeHelp(tel.Registry)
		tel.Registry.Help(MetricDurableEpisodes, "Durable-store fault episodes, by arm, class and outcome.")
		tel.Registry.Help(MetricDurableAckedLost, "Acknowledged records silently missing after recovery.")
		tel.Registry.Help(MetricDurableDetectedLoss, "Acknowledged records lost to detected, reported damage.")
		tel.Registry.Help(MetricDurableRepairs, "Tail truncations performed over damaged log bytes.")
		tel.Registry.Help(MetricDurableMTTRSeconds, "Per-episode store repair time: detection to recovered and writable.")
	}
	rep := &DurableReport{Seed: cfg.Seed, Arms: make([]DurableArm, 0, n)}
	err := sweep(cfg.Workers, n, nil, runArm, func(_ int, a DurableArm) {
		rep.Arms = append(rep.Arms, a)
		observeDurableArm(tel, a)
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// errDurableHalt stops a HaltAfter sweep once its quota of arms has run.
var errDurableHalt = errors.New("experiment: durable: halted")

// observeDurableArm replays one finished arm record into the experiment's
// telemetry (a nil telemetry records nothing).
func observeDurableArm(tel *Telemetry, a DurableArm) {
	if tel == nil {
		return
	}
	mech := "durable/" + a.Name
	tel.Recorder.SetContext(obsv.Context{App: "durable", FaultID: mech, Class: a.Class})
	labels := obsv.L("arm", a.Name, "class", a.Class)
	for _, ep := range a.Eps {
		tel.Recorder.Begin(ep.Start, ep.Op, mech)
		tel.Recorder.Note(ep.Start, obsv.Span{Kind: obsv.SpanActivation, Note: ep.Note})
		outcome := obsv.OutcomeLost
		if ep.Recovered {
			outcome = obsv.OutcomeRecovered
			tel.Registry.Histogram(MetricDurableMTTRSeconds, obsv.LatencyBuckets, labels...).
				ObserveDuration(ep.End - ep.Start)
		}
		tel.Recorder.Note(ep.End, obsv.Span{Kind: obsv.SpanAction, Rung: "reopen", Attempt: 1, Outcome: outcome})
		tel.Recorder.End(ep.End, outcome, "reopen")
		tel.Registry.Counter(MetricDurableEpisodes,
			obsv.L("arm", a.Name, "class", a.Class, "outcome", outcome)...).Inc()
	}
	if a.SilentLoss > 0 {
		tel.Registry.Counter(MetricDurableAckedLost, labels...).Add(float64(a.SilentLoss))
	}
	if a.DetectedLoss > 0 {
		tel.Registry.Counter(MetricDurableDetectedLoss, labels...).Add(float64(a.DetectedLoss))
	}
	if a.Repairs > 0 {
		tel.Registry.Counter(MetricDurableRepairs, labels...).Add(float64(a.Repairs))
	}
}

// durableWorkload builds the deterministic record-batch sequence every store
// arm applies: a mix of single puts, overwrite-heavy keys, multi-op batches,
// and deletes, sized so checkpoints, torn tails, and rollbacks all have
// something to bite on. Batch i carries sequence number i+1.
func durableWorkload(n int) [][]durable.Op {
	batches := make([][]durable.Op, 0, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%02d", i%7)
		val := []byte(fmt.Sprintf("v%04d-%s", i, strings.Repeat("x", i%13)))
		switch {
		case i%11 == 10:
			batches = append(batches, []durable.Op{{Kind: durable.OpDelete, Key: key}})
		case i%5 == 4:
			batches = append(batches, []durable.Op{
				{Kind: durable.OpPut, Key: key, Value: val},
				{Kind: durable.OpPut, Key: "pair-" + key, Value: val},
			})
		default:
			batches = append(batches, []durable.Op{{Kind: durable.OpPut, Key: key, Value: val}})
		}
	}
	return batches
}

// durableModelAt replays the first seq batches into a fresh map — the state
// an honest store must hold after acknowledging record seq.
func durableModelAt(batches [][]durable.Op, seq uint64) map[string][]byte {
	state := make(map[string][]byte)
	for i := uint64(0); i < seq && i < uint64(len(batches)); i++ {
		for _, op := range batches[i] {
			switch op.Kind {
			case durable.OpPut:
				state[op.Key] = op.Value
			case durable.OpDelete:
				delete(state, op.Key)
			case durable.OpClear:
				state = make(map[string][]byte)
			}
		}
	}
	return state
}

// durableStateEqual reports whether the store's state matches the model.
func durableStateEqual(st *durable.Store, want map[string][]byte) bool {
	if st.Len() != len(want) {
		return false
	}
	for k, v := range want {
		got, ok := st.Get(k)
		if !ok || string(got) != string(v) {
			return false
		}
	}
	return true
}

// applyAll applies batches in order, stopping at the first error.
func applyAll(st *durable.Store, batches [][]durable.Op) error {
	for _, b := range batches {
		if err := st.Apply(b); err != nil {
			return err
		}
	}
	return nil
}

// openApplied opens the arm's store on env and applies batches to it.
func openApplied(name string, env *simenv.Env, opts durable.Options, batches [][]durable.Op) (*durable.Store, error) {
	st, _, err := durable.Open(env, durableOwner, durableDir, opts)
	if err != nil {
		return nil, err
	}
	if err := applyAll(st, batches); err != nil {
		return nil, fmt.Errorf("experiment: durable %s: %w", name, err)
	}
	return st, nil
}

// record closes an episode that never reached a verdict at the current
// virtual time and appends it to the arm.
func (a *DurableArm) record(ep DurableEpisode, env *simenv.Env) {
	ep.End = env.Monotonic()
	a.Eps = append(a.Eps, ep)
}

// settle closes an episode that reached a verdict through recovery: it
// accrues the repair time and, when recovered, counts the recovery.
func (a *DurableArm) settle(ep DurableEpisode, env *simenv.Env, recovered bool) {
	if recovered {
		ep.Recovered = true
		a.RecoveredEpisodes++
	}
	ep.End = env.Monotonic()
	a.MTTRTotal += ep.End - ep.Start
	a.Eps = append(a.Eps, ep)
}

// settleWorkload settles an environmental-fault episode after the rest of
// the workload ran (ok) or stopped at a failed append: every record counts
// as acknowledged, and a finished workload must match the full model.
func (a *DurableArm) settleWorkload(ep DurableEpisode, env *simenv.Env, st *durable.Store, batches [][]durable.Op, ok bool) {
	a.Acked += len(batches)
	recovered := ok && durableStateEqual(st, durableModelAt(batches, uint64(len(batches))))
	switch {
	case recovered:
		a.Recovered += len(batches)
	case ok:
		a.UndetectedCorruption++
	}
	a.settle(ep, env, recovered)
}

// verifyReopen closes the damaged store handle, replaces the process on the
// virtual clock, recovers through durable.Open, and scores the episode: the
// recovered sequence number must cover every acknowledged record, the state
// must match the acknowledged-prefix model at that sequence, and the store
// must accept a fresh append. maxSeq bounds the recovered head (acked plus
// any in-flight record the crash may have preserved).
func verifyReopen(arm *DurableArm, env *simenv.Env, old *durable.Store, opts durable.Options,
	batches [][]durable.Op, acked int, maxSeq uint64, op, note string) {
	start := env.Monotonic()
	env.Advance(durableDetect)
	env.Disk().ClearCrash()
	old.Close()
	env.Advance(durableRestart)
	ep := DurableEpisode{Op: op, Note: note, Start: start}
	arm.Episodes++
	arm.Acked += acked
	st, info, err := durable.Open(env, durableOwner, durableDir, opts)
	if err != nil {
		arm.record(ep, env)
		return
	}
	defer st.Close()
	if info.TruncatedBytes > 0 {
		arm.Repairs++
	}
	damage := info.TornTail || info.Corrupt
	seq := st.Seq()
	recovered := int(seq)
	if recovered > acked {
		recovered = acked
	}
	arm.Recovered += recovered
	if seq < uint64(acked) {
		// Acknowledged records are missing. Reported damage makes it
		// detected loss (tolerable only where the device lied); silence is
		// the loss class the experiment exists to rule out.
		if damage {
			arm.DetectedLoss += acked - int(seq)
		} else {
			arm.SilentLoss += acked - int(seq)
		}
	}
	if seq > maxSeq || !durableStateEqual(st, durableModelAt(batches, seq)) {
		arm.UndetectedCorruption++
		arm.record(ep, env)
		return
	}
	// Recovery must hand back a writable store, not just a readable one.
	if err := st.Put("post-recovery", []byte("ok")); err != nil {
		arm.record(ep, env)
		return
	}
	arm.settle(ep, env, true)
}

// runDurableBaselineArm is the control: a clean workload, a clean close, and
// a reopen that must find everything with no repairs.
func runDurableBaselineArm(name string, seed int64) (DurableArm, error) {
	arm := DurableArm{Name: name, Class: "none"}
	batches := durableWorkload(durableOps)
	env := simenv.New(seed)
	opts := durable.Options{CheckpointEvery: durableCrashCkptEvery}
	st, err := openApplied(name, env, opts, batches)
	if err != nil {
		return arm, err
	}
	verifyReopen(&arm, env, st, opts, batches, len(batches), uint64(len(batches)),
		"clean-reopen", "clean close and reopen")
	return arm, nil
}

// runDurableCrashArm is the crash matrix: one episode per write boundary of
// the workload, each killing the process at that boundary with unsynced
// tails torn to keepTail bytes, then recovering and verifying.
func runDurableCrashArm(name string, seed int64, keepTail int64) (DurableArm, error) {
	arm := DurableArm{Name: name, Class: "crash"}
	batches := durableWorkload(durableCrashOps)
	opts := durable.Options{CheckpointEvery: durableCrashCkptEvery}
	// Dry run on a pristine environment to enumerate the workload's write
	// boundaries (WAL appends, syncs, and every checkpoint step).
	dry := simenv.New(seed)
	st, err := openApplied(name, dry, opts, batches)
	if err != nil {
		return arm, err
	}
	st.Close()
	arm.Boundaries = int(dry.Disk().WriteOps())
	for b := 0; b < arm.Boundaries; b++ {
		env := simenv.New(seed)
		st, _, err := durable.Open(env, durableOwner, durableDir, opts)
		if err != nil {
			return arm, err
		}
		env.Disk().ScheduleCrash(b, keepTail)
		acked := 0
		var crashErr error
		for _, batch := range batches {
			if err := st.Apply(batch); err != nil {
				crashErr = err
				break
			}
			acked++
		}
		if crashErr == nil {
			// The crash landed inside a post-acknowledgement checkpoint step
			// of the final record; the workload finished but the disk is
			// down all the same.
			if !env.Disk().Crashed() {
				return arm, fmt.Errorf("experiment: durable crash: boundary %d never fired", b)
			}
		} else if !errors.Is(crashErr, simenv.ErrDiskCrashed) {
			return arm, fmt.Errorf("experiment: durable crash: boundary %d: unexpected %v", b, crashErr)
		}
		arm.Crashes++
		verifyReopen(&arm, env, st, opts, batches, acked, uint64(acked)+1,
			fmt.Sprintf("crash@%03d", b), fmt.Sprintf("killed at write boundary %d, tails torn to %d bytes", b, keepTail))
	}
	return arm, nil
}

// runDurableDiskFullArm fills the partition from under the store
// mid-workload, expects a typed refusal, reclaims the hostile tenant's
// space, and finishes the workload without losing anything.
func runDurableDiskFullArm(name string, seed int64) (DurableArm, error) {
	arm := DurableArm{Name: name, Class: "EDN"}
	batches := durableWorkload(durableOps)
	env := simenv.New(seed)
	half := len(batches) / 2
	st, err := openApplied(name, env, durable.Options{CheckpointEvery: -1}, batches[:half])
	if err != nil {
		return arm, err
	}
	defer st.Close()
	// The margin is smaller than any WAL record, so the next append
	// genuinely hits the full partition.
	if err := env.Disk().FillFrom("other-tenant", 8); err != nil { //faultlint:ignore envcheck staging the hostile environment is the point
		return arm, fmt.Errorf("experiment: durable disk-full: stage: %w", err)
	}
	ferr := st.Apply(batches[half])
	if !errors.Is(ferr, simenv.ErrDiskFull) {
		return arm, fmt.Errorf("experiment: durable disk-full: want ErrDiskFull, got %v", ferr)
	}
	start := env.Monotonic()
	env.Advance(durableDetect)
	env.Disk().RemoveOwner("other-tenant")
	ep := DurableEpisode{Op: "append-enospc", Note: ferr.Error(), Start: start}
	arm.Episodes++
	if applyAll(st, batches[half:]) != nil {
		arm.Acked += len(batches)
		arm.Recovered += half
		arm.record(ep, env)
		return arm, nil
	}
	arm.settleWorkload(ep, env, st, batches, true)
	return arm, nil
}

// runDurableFDArm exhausts the descriptor table before the store opens,
// expects the typed refusal, reclaims the competitor's descriptors, and
// verifies the store then opens and serves the full workload.
func runDurableFDArm(name string, seed int64) (DurableArm, error) {
	arm := DurableArm{Name: name, Class: "EDN"}
	batches := durableWorkload(durableOps)
	env := simenv.New(seed, simenv.WithFDLimit(8))
	for {
		if _, err := env.FDs().Open("competitor"); err != nil {
			break
		}
	}
	_, _, ferr := durable.Open(env, durableOwner, durableDir, durable.Options{})
	if !errors.Is(ferr, simenv.ErrFDExhausted) {
		return arm, fmt.Errorf("experiment: durable fd: want ErrFDExhausted, got %v", ferr)
	}
	start := env.Monotonic()
	env.Advance(durableDetect)
	env.FDs().ReleaseOwner("competitor")
	ep := DurableEpisode{Op: "open-emfile", Note: ferr.Error(), Start: start}
	arm.Episodes++
	st, _, err := durable.Open(env, durableOwner, durableDir, durable.Options{})
	if err != nil {
		arm.record(ep, env)
		return arm, nil
	}
	defer st.Close()
	if applyAll(st, batches) != nil {
		arm.record(ep, env)
		return arm, nil
	}
	arm.settleWorkload(ep, env, st, batches, true)
	return arm, nil
}

// runDurableFileLimitArm lets the uncompacted WAL grow into the per-file
// size limit, expects the typed refusal, compacts (checkpoint + log
// truncation), and finishes the workload.
func runDurableFileLimitArm(name string, seed int64) (DurableArm, error) {
	arm := DurableArm{Name: name, Class: "EDN"}
	batches := durableWorkload(durableOps)
	env := simenv.New(seed, simenv.WithMaxFileSize(512))
	st, _, err := durable.Open(env, durableOwner, durableDir, durable.Options{CheckpointEvery: -1})
	if err != nil {
		return arm, err
	}
	defer st.Close()
	applied := 0
	var ferr error
	for _, b := range batches {
		if err := st.Apply(b); err != nil {
			ferr = err
			break
		}
		applied++
	}
	if !errors.Is(ferr, simenv.ErrFileTooLarge) {
		return arm, fmt.Errorf("experiment: durable file-limit: want ErrFileTooLarge, got %v", ferr)
	}
	start := env.Monotonic()
	env.Advance(durableDetect)
	ep := DurableEpisode{Op: "append-efbig", Note: ferr.Error(), Start: start}
	arm.Episodes++
	// The rewrite: checkpoint the state and truncate the log, then resume —
	// compacting again whenever the tight limit bites (the same condition
	// recurs under a cap this small; recovery is the compaction, not a
	// one-off).
	if err := st.Checkpoint(); err != nil {
		arm.record(ep, env)
		return arm, nil
	}
	ok := true
	for _, b := range batches[applied:] {
		err := st.Apply(b)
		if errors.Is(err, simenv.ErrFileTooLarge) {
			if err = st.Checkpoint(); err == nil {
				err = st.Apply(b)
			}
		}
		if err != nil {
			ok = false
			break
		}
	}
	arm.settleWorkload(ep, env, st, batches, ok)
	return arm, nil
}

// runDurableWriteFaultArm injects one transient device fault mid-workload —
// a short write ("short") or a failed sync ("sync") — expects the typed
// error, retries the same record (the store repairs its own tail first), and
// verifies nothing was lost.
func runDurableWriteFaultArm(name string, seed int64, kind string) (DurableArm, error) {
	arm := DurableArm{Name: name, Class: "EDT"}
	batches := durableWorkload(durableOps)
	env := simenv.New(seed)
	half := len(batches) / 2
	st, err := openApplied(name, env, durable.Options{CheckpointEvery: -1}, batches[:half])
	if err != nil {
		return arm, err
	}
	defer st.Close()
	want := simenv.ErrShortWrite
	if kind == "sync" {
		env.Disk().ArmSyncFail()
		want = simenv.ErrIOFault
	} else {
		env.Disk().ArmShortWrite(3)
	}
	ferr := st.Apply(batches[half])
	if !errors.Is(ferr, want) {
		return arm, fmt.Errorf("experiment: durable %s: want %v, got %v", name, want, ferr)
	}
	start := env.Monotonic()
	env.Advance(durableDetect)
	ep := DurableEpisode{Op: "append-" + kind, Note: ferr.Error(), Start: start}
	arm.Episodes++
	ok := applyAll(st, batches[half:]) == nil
	arm.Repairs += int(st.Stats().Repairs)
	arm.settleWorkload(ep, env, st, batches, ok)
	return arm, nil
}

// runDurableTornArm is the silent device lie: the last record's write is
// torn while reporting success, so the store acknowledges a record the disk
// never fully held. The loss is unavoidable — the gate is that reopening
// DETECTS it (checksum, reported damage, bounded to the lied-about record)
// rather than serving corrupt state.
func runDurableTornArm(name string, seed int64) (DurableArm, error) {
	arm := DurableArm{Name: name, Class: "EDT"}
	batches := durableWorkload(durableOps)
	env := simenv.New(seed)
	opts := durable.Options{CheckpointEvery: -1}
	last := len(batches) - 1
	st, err := openApplied(name, env, opts, batches[:last])
	if err != nil {
		return arm, err
	}
	env.Disk().ArmTornWrite(2)
	if err := st.Apply(batches[last]); err != nil {
		return arm, fmt.Errorf("experiment: durable torn: the device lie surfaced: %v", err)
	}
	// Every record was acknowledged; the disk holds one lie.
	verifyReopen(&arm, env, st, opts, batches, len(batches), uint64(len(batches)),
		"torn-ack", "write torn to 2 bytes while reporting success")
	return arm, nil
}

// runDurableRenameArm crashes the process at the checkpoint commit point:
// the temporary file is written and synced but the rename never lands.
// Recovery must sweep the temporary, keep the old checkpoint, and replay the
// full log — no acknowledged record depends on the failed commit.
func runDurableRenameArm(name string, seed int64) (DurableArm, error) {
	arm := DurableArm{Name: name, Class: "crash"}
	batches := durableWorkload(durableOps)
	env := simenv.New(seed)
	opts := durable.Options{CheckpointEvery: -1}
	half := len(batches) / 2
	st, err := openApplied(name, env, opts, batches[:half])
	if err != nil {
		return arm, err
	}
	if err := st.Checkpoint(); err != nil {
		return arm, fmt.Errorf("experiment: durable rename: baseline checkpoint: %w", err)
	}
	if err := applyAll(st, batches[half:]); err != nil {
		return arm, fmt.Errorf("experiment: durable rename: %w", err)
	}
	env.Disk().ArmCrashBeforeRename()
	cerr := st.Checkpoint()
	if !errors.Is(cerr, simenv.ErrDiskCrashed) {
		return arm, fmt.Errorf("experiment: durable rename: want ErrDiskCrashed, got %v", cerr)
	}
	arm.Crashes++
	verifyReopen(&arm, env, st, opts, batches, len(batches), uint64(len(batches))+1,
		"ckpt-commit-crash", "crashed before the checkpoint rename landed")
	return arm, nil
}

// runDurableSQLArm probes the database's restore rung over the WAL-backed
// engine: snapshot, more writes, a crash, then Restore — which must take the
// log-rollback path (not the logical JSON rebuild) and land exactly on the
// snapshot's rows.
func runDurableSQLArm(name string, seed int64) (DurableArm, error) {
	arm := DurableArm{Name: name, Class: "app"}
	env := simenv.New(seed)
	srv := sqldb.New(env, faultinject.NewSet())
	if err := srv.Start(); err != nil {
		return arm, err
	}
	exec := func(sql string) error {
		_, err := srv.Exec(sql)
		return err
	}
	if err := exec("CREATE TABLE t (id INT, name TEXT)"); err != nil {
		return arm, err
	}
	for i := 0; i < 3; i++ {
		if err := exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'row%d')", i, i)); err != nil {
			return arm, err
		}
	}
	snap, err := srv.Snapshot()
	if err != nil {
		return arm, err
	}
	for i := 3; i < 5; i++ {
		if err := exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'row%d')", i, i)); err != nil {
			return arm, err
		}
	}
	start := env.Monotonic()
	env.Advance(durableDetect)
	srv.Stop()
	env.Advance(durableRestart)
	ep := DurableEpisode{Op: "restore-rollback", Note: "process replaced; restoring the pre-fault snapshot", Start: start}
	arm.Episodes++
	arm.Acked += 3 // the snapshot's rows are the acknowledged state to recover
	if err := srv.Restore(snap); err != nil {
		arm.record(ep, env)
		return arm, nil
	}
	rs, err := srv.Exec("SELECT id FROM t")
	rows := 0
	if err == nil {
		rows = len(rs.Rows)
	}
	recovered := srv.WALReplays() == 1 && rows == 3
	if recovered {
		arm.Recovered += 3
	} else if rows != 3 {
		arm.SilentLoss += 3 - rows
	}
	arm.settle(ep, env, recovered)
	srv.Stop()
	return arm, nil
}

// runDurableCacheArm probes the cache's persist component: kill it
// (crash-only: the store closes with no flush), restart it (real recovery
// over whatever the kill left), and verify every acknowledged SET is in the
// recovered store.
func runDurableCacheArm(name string, seed int64) (DurableArm, error) {
	arm := DurableArm{Name: name, Class: "app"}
	env := simenv.New(seed)
	srv := cache.New(env, faultinject.NewSet(), cache.Config{})
	c := cache.Componentize(srv, component.NewStore())
	if err := c.Start(); err != nil {
		return arm, err
	}
	keys := []string{"alpha", "beta", "gamma", "delta"}
	for i, k := range keys {
		if err := srv.Set(k, fmt.Sprintf("v%d", i)); err != nil {
			return arm, err
		}
	}
	start := env.Monotonic()
	if err := c.Tree().Kill(cache.CompPersist); err != nil {
		return arm, err
	}
	env.Advance(durableDetect)
	ep := DurableEpisode{Op: "persist-reboot", Note: "persist component crash-stopped and restarted", Start: start}
	arm.Episodes++
	arm.Acked += len(keys)
	if err := c.Tree().Restart(cache.CompPersist); err != nil {
		arm.record(ep, env)
		c.Stop()
		return arm, nil
	}
	st := srv.DurableStore()
	got := 0
	for i, k := range keys {
		if v, ok := st.Get(k); ok && string(v) == fmt.Sprintf("v%d", i) {
			got++
		}
	}
	arm.Recovered += got
	if got != len(keys) {
		arm.SilentLoss += len(keys) - got
	}
	arm.settle(ep, env, got == len(keys))
	c.Stop()
	return arm, nil
}

// Check asserts the experiment's headline claims: every episode recovered;
// zero acknowledged records lost silently and zero undetected corruption
// anywhere in the crash matrix or the fault catalogue; detected loss only
// where the device lied about a write (and there it must be detected); and
// the crash matrix actually enumerated boundaries.
func (r *DurableReport) Check() error {
	if r.Halted {
		return nil
	}
	for _, a := range r.Arms {
		if a.SilentLoss > 0 {
			return fmt.Errorf("experiment: durable check: %s: %d acknowledged records silently lost", a.Name, a.SilentLoss)
		}
		if a.UndetectedCorruption > 0 {
			return fmt.Errorf("experiment: durable check: %s: %d undetected corruptions", a.Name, a.UndetectedCorruption)
		}
		if a.Episodes == 0 {
			return fmt.Errorf("experiment: durable check: %s: no episodes ran", a.Name)
		}
		if a.RecoveredEpisodes != a.Episodes {
			return fmt.Errorf("experiment: durable check: %s: %d of %d episodes unrecovered",
				a.Name, a.Episodes-a.RecoveredEpisodes, a.Episodes)
		}
		switch a.Name {
		case "torn-write":
			if a.DetectedLoss == 0 {
				return fmt.Errorf("experiment: durable check: %s: the device lie went undetected", a.Name)
			}
		default:
			if a.DetectedLoss > 0 {
				return fmt.Errorf("experiment: durable check: %s: %d records lost to detected damage", a.Name, a.DetectedLoss)
			}
		}
		if a.Class == "crash" && a.Name != "crash-before-rename" && a.Boundaries == 0 {
			return fmt.Errorf("experiment: durable check: %s: no write boundaries enumerated", a.Name)
		}
		if a.MTTRTotal <= 0 {
			return fmt.Errorf("experiment: durable check: %s: no repair time accumulated", a.Name)
		}
	}
	return nil
}

// String renders the per-arm matrix and the headline.
func (r *DurableReport) String() string {
	var b strings.Builder
	if r.Halted {
		fmt.Fprintf(&b, "DURABLE experiment (seed %d): halted with %d/%d arms warehoused; rerun with -resume to finish.\n",
			r.Seed, r.Done, r.Total)
		return b.String()
	}
	fmt.Fprintf(&b, "DURABLE experiment (seed %d, %d arms):\n", r.Seed, len(r.Arms))
	tbl := &stats.Table{Header: []string{
		"arm", "class", "episodes", "recovered", "crashes", "acked", "silent-loss", "detected-loss", "repairs", "mttr"}}
	for _, a := range r.Arms {
		tbl.Add(a.Name, a.Class,
			fmt.Sprint(a.Episodes),
			fmt.Sprintf("%d/%d", a.RecoveredEpisodes, a.Episodes),
			fmt.Sprint(a.Crashes),
			fmt.Sprint(a.Acked),
			fmt.Sprint(a.SilentLoss),
			fmt.Sprint(a.DetectedLoss),
			fmt.Sprint(a.Repairs),
			mttrCell(a.MTTR()))
	}
	b.WriteString(tbl.String())
	var crashes, acked, silent, detected int
	for _, a := range r.Arms {
		crashes += a.Crashes
		acked += a.Acked
		silent += a.SilentLoss
		detected += a.DetectedLoss
	}
	fmt.Fprintf(&b,
		"\nHeadline: %d injected crashes and device faults over %d acknowledged records lost %d\nof them silently and corrupted none undetected; the one deliberate device lie was caught\nand bounded to %d record(s). Recovery IS the startup path: every reopen replays the log.\n",
		crashes, acked, silent, detected)
	return b.String()
}
