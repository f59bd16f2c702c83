// Command labbench is the recovery laboratory's benchmark. It runs one
// workload (serve, corpus or durable) through the experiment entry points
// back to back for a fixed host time, at one worker and at one worker per
// CPU, checks every run's gate and the byte identity of its output across
// worker counts, and prints the end-to-end metrics. With -trace 1 it instead
// makes one traced run and a pass over each layer's public functions and
// prints the per-layer metrics. The last line of standard output is always
// the JSON result. README.md in this directory defines every metric.
//
// Usage:
//
//	bash labbench/run.sh --workload corpus --seed 42 --seconds 20 --trace 0
//	bash labbench/run.sh --workload serve --trace 1
//	bash labbench/run.sh --workload durable --profile
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"time"
)

// setupProbes is how many fresh processes time the set-up per run. A probe
// takes a few milliseconds, and its spawn time is noisy on a shared host.
const setupProbes = 41

// minPairs is the fewest timed run pairs a measurement makes, however short
// --seconds is.
const minPairs = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	probe    bool
	profile  bool
}

// outDir holds result files, spans and profiles, under the build directory
// run.sh uses.
const outDir = ".bench_build/labbench"

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("labbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: serve, corpus or durable")
	fs.Int64Var(&o.seed, "seed", 42, "workload seed; every input is generated from it")
	fs.IntVar(&o.seconds, "seconds", 10, "host seconds of measurement")
	fs.IntVar(&trace, "trace", 0, "1: the traced run and layer pass, printing per-layer metrics")
	fs.BoolVar(&o.probe, "probe", false, "set the workload up, print ready and exit (the setup_s probe)")
	fs.BoolVar(&o.profile, "profile", false, "write a CPU and a heap profile of one serial run to "+outDir)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, not %d", trace)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	o.trace = trace == 1
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "labbench:", err)
		return 2
	}
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		fmt.Fprintln(stderr, "labbench:", err)
		return 2
	}
	if o.probe {
		fmt.Fprintln(stdout, "ready")
		return 0
	}
	if err := measure(w, o, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "labbench:", err)
		return 1
	}
	return 0
}

// measure runs the mode the options select. A measurement prints its result
// as the last line of standard output and keeps the full record in a result
// file under outDir.
func measure(w workload, o options, stdout, stderr io.Writer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	prov := stamp(o, w)
	if err := printJSONLine(stdout, "provenance: ", prov); err != nil {
		return err
	}
	if o.profile {
		if err := profileRun(w, o); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "profiles written to %s\n", outDir)
		return nil
	}
	measureFn, mode := timedMeasure, "timed"
	if o.trace {
		measureFn, mode = tracedMeasure, "traced"
	}
	rec, err := measureFn(w, o, stdout, stderr)
	if err != nil {
		return err
	}
	rec.Provenance = prov
	name := fmt.Sprintf("result-%s-seed%d-%s.json", o.workload, o.seed, mode)
	if err := writeJSON(filepath.Join(outDir, name), rec); err != nil {
		return err
	}
	return printJSONLine(stdout, "", rec.benchResult)
}

// provenance stamps a result with the host, toolchain, source revision and
// resolved configuration it was taken with.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`
	Config     any    `json:"config"`
}

func stamp(o options, w workload) provenance {
	p := provenance{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Revision: "unknown", Modified: "unknown",
		Config: w.config()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	return p
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchResult is the last line of standard output.
type benchResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultRecord is the result file: the result plus the output digest, the
// reason for every failed run, and the provenance stamp.
type resultRecord struct {
	benchResult
	Digest     string     `json:"digest"`
	Failures   []string   `json:"failures,omitempty"`
	Provenance provenance `json:"provenance"`
}

// ops counts operations (workload runs) attempted and failed.
type ops struct {
	attempted int
	failures  []string
}

// record counts one run and, when it failed, why.
func (o *ops) record(label string, err error) {
	o.attempted++
	if err != nil {
		o.failures = append(o.failures, fmt.Sprintf("%s: %v", label, err))
	}
}

// result prints the output digest, so a re-baseline is visible, and every
// failed run with its reason, and returns the record.
func (o *ops) result(w io.Writer, metrics map[string]metric, digest string) resultRecord {
	fmt.Fprintf(w, "output digest (sha256): %s; %d of %d runs failed\n", digest, len(o.failures), o.attempted)
	for _, f := range o.failures {
		fmt.Fprintln(w, "  failed:", f)
	}
	return resultRecord{
		benchResult: benchResult{Correct: len(o.failures) == 0, Attempted: o.attempted,
			Failed: len(o.failures), Metrics: metrics},
		Digest: digest, Failures: o.failures,
	}
}

// runSample is one untraced, measured workload run.
type runSample struct {
	wall, cpu  time.Duration
	allocBytes uint64
	peakLive   uint64
	units      int
	digest     string
	err        error // the entry point's error or the gate's verdict
}

// digestOf is the SHA-256 of a run's rendered outputs, each length-prefixed.
func digestOf(parts [][]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d\n", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// measureRun runs the workload once, untraced, at workers and measures it.
// The garbage of earlier runs is collected first, outside the measurement.
func measureRun(w workload, workers int) runSample {
	runtime.GC()
	hw := watchHeap()
	ac := newAllocCounter()
	b0, _ := ac.read()
	c0 := cpuTime()
	t0 := hostNow()
	res, err := w.run(workers, nil)
	var s runSample
	if err == nil {
		s.digest = digestOf(res.parts)
	}
	s.wall = hostSince(t0)
	s.cpu = cpuTime() - c0
	b1, _ := ac.read()
	s.allocBytes = b1 - b0
	s.peakLive = hw.stop()
	s.units = res.units
	s.err = err
	if err == nil {
		s.err = res.gate
	}
	return s
}

// pairSample is one timed run pair: workers=1 and workers=nproc.
type pairSample struct{ serial, par runSample }

// checkPair records both runs of a pair: each fails on an entry-point error
// or a gate failure, and the parallel run also fails when its digest differs
// from the serial run's.
func checkPair(p pairSample, o *ops) (ok bool) {
	before := len(o.failures)
	o.record("workers=1", p.serial.err)
	parErr := p.par.err
	if parErr == nil && p.serial.err == nil && p.par.digest != p.serial.digest {
		parErr = fmt.Errorf("output digest %s differs from the workers=1 digest %s", p.par.digest, p.serial.digest)
	}
	o.record("workers=nproc", parErr)
	return len(o.failures) == before
}

// timedMeasure is the --trace 0 measurement: set-up probes, then run pairs
// until --seconds have passed, alternating which worker count goes first.
func timedMeasure(w workload, o options, stdout, stderr io.Writer) (resultRecord, error) {
	setup, err := probeSetup(o)
	if err != nil {
		return resultRecord{}, err
	}
	nproc := runtime.NumCPU()
	var counted ops
	var good []pairSample
	digest := ""
	t0 := hostNow()
	for i := 0; i < minPairs || hostSince(t0) < time.Duration(o.seconds)*time.Second; i++ {
		var p pairSample
		if i%2 == 0 {
			p.serial = measureRun(w, 1)
			p.par = measureRun(w, nproc)
		} else {
			p.par = measureRun(w, nproc)
			p.serial = measureRun(w, 1)
		}
		if checkPair(p, &counted) {
			good = append(good, p)
			digest = p.serial.digest
		}
		fmt.Fprintf(stderr, "pair %d: workers=1 %.4f s, workers=%d %.4f s, cpu %.4f s\n",
			i, p.serial.wall.Seconds(), nproc, p.par.wall.Seconds(), p.par.cpu.Seconds())
	}
	m := pairMetrics(good, nproc)
	m["setup_s"] = metric{setup, "s"}
	printEndToEnd(stdout, m, len(good))
	return counted.result(stdout, m, digest), nil
}

// pairMetrics reduces the good run pairs to the end-to-end metrics, each the
// median over pairs.
func pairMetrics(pairs []pairSample, nproc int) map[string]metric {
	var tput, tputSerial, eff, cpu, alloc, peak []float64
	for _, p := range pairs {
		tput = append(tput, float64(p.par.units)/p.par.wall.Seconds())
		tputSerial = append(tputSerial, float64(p.serial.units)/p.serial.wall.Seconds())
		eff = append(eff, parEfficiency(p.serial.wall, p.par.wall, nproc))
		cpu = append(cpu, p.par.cpu.Seconds())
		alloc = append(alloc, float64(p.serial.allocBytes)/1e6)
		peak = append(peak, float64(p.serial.peakLive)/1e6)
	}
	return map[string]metric{
		"throughput":        {median(tput), "units/s"},
		"throughput_serial": {median(tputSerial), "units/s"},
		"par_efficiency":    {median(eff), "ratio"},
		"cpu_s":             {median(cpu), "s"},
		"alloc_mb":          {median(alloc), "MB"},
		"peak_live_heap_mb": {median(peak), "MB"},
	}
}

// endToEndOrder is the print order of the end-to-end metrics.
var endToEndOrder = []string{"throughput", "throughput_serial", "par_efficiency", "cpu_s",
	"alloc_mb", "peak_live_heap_mb", "setup_s"}

func printEndToEnd(w io.Writer, m map[string]metric, pairs int) {
	fmt.Fprintf(w, "end-to-end metrics (median over %d run pairs):\n", pairs)
	for _, name := range endToEndOrder {
		fmt.Fprintf(w, "  %-18s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}

// probeSetup times setupProbes fresh processes from start until they report
// the workload set up, ready for its first call, and returns the median in
// seconds. Each probe is waited for before the next starts.
func probeSetup(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	var secs []float64
	for range setupProbes {
		cmd := exec.Command(exe, "-probe", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10))
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		t0 := hostNow()
		if err := cmd.Start(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		elapsed := hostSince(t0)
		werr := cmd.Wait()
		if rerr != nil || line != "ready\n" || werr != nil {
			return 0, fmt.Errorf("setup probe: got %q (%v, %v)", line, rerr, werr)
		}
		secs = append(secs, elapsed.Seconds())
	}
	return median(secs), nil
}

// profileRun writes a CPU profile of one serial run, kept apart from any
// timed run, and a heap profile taken when it ends.
func profileRun(w workload, o options) error {
	cpuPath := filepath.Join(outDir, o.workload+".cpu.pprof")
	f, err := os.Create(cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	res, err := w.run(1, nil)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if res.gate != nil {
		return fmt.Errorf("profiled run failed its gate: %w", res.gate)
	}
	h, err := os.Create(filepath.Join(outDir, o.workload+".heap.pprof"))
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(h); err != nil {
		h.Close()
		return err
	}
	return h.Close()
}

func printJSONLine(w io.Writer, prefix string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s%s\n", prefix, b)
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
