package experiment

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"faultstudy/internal/recovery"
	"faultstudy/internal/supervise"
)

// This file is the property-based half of the parallel engine's verification:
// for randomly drawn root seeds, every observable output — rendered reports,
// the JSONL episode trace, the Prometheus export — must be byte-identical at
// every worker count. The worker counts {1, 2, 8} cover the serial fast path,
// the smallest real pool, and a pool larger than any shard count divides
// evenly into.

// workerArms are the pool sizes every property below sweeps.
var workerArms = []int{1, 2, 8}

// soakFingerprint runs one telemetry-instrumented soak and returns its
// complete observable output.
func soakFingerprint(t *testing.T, seed int64, workers int) []byte {
	t.Helper()
	tel := NewTelemetry()
	results, err := RunSoak(SoakConfig{
		Ops: 120, Faults: 3, Seed: seed,
		Supervise: supervise.Config{GrowResources: true},
		Telemetry: tel,
		Workers:   workers,
	})
	if err != nil {
		t.Fatalf("RunSoak(seed=%d, workers=%d): %v", seed, workers, err)
	}
	return fingerprint(t, tel, RenderSoak(results))
}

// fingerprint concatenates a run's report, trace, and metric export into one
// comparable byte string.
func fingerprint(t *testing.T, tel *Telemetry, report string) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(report)
	buf.WriteString("\n--trace--\n")
	if err := tel.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	buf.WriteString("\n--prom--\n")
	if err := tel.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.Bytes()
}

// TestSoakDeterminismProperty draws 32 random root seeds and checks the soak's
// full output is byte-identical across worker counts for every one of them.
func TestSoakDeterminismProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep is long; skipped with -short")
	}
	rng := rand.New(rand.NewSource(20260806))
	for i := 0; i < 32; i++ {
		seed := rng.Int63n(1 << 32)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			want := soakFingerprint(t, seed, workerArms[0])
			for _, w := range workerArms[1:] {
				got := soakFingerprint(t, seed, w)
				if !bytes.Equal(want, got) {
					t.Errorf("workers=%d output differs from workers=1 (seed %d):\n%s",
						w, seed, firstDiff(want, got))
				}
			}
		})
	}
}

// supervisedFingerprint runs one telemetry-instrumented supervised matrix and
// returns its complete observable output.
func supervisedFingerprint(t *testing.T, seed int64, workers int) []byte {
	t.Helper()
	tel := NewTelemetry()
	m, err := RunMatrix(recovery.Policy{}, seed, workers)
	if err != nil {
		t.Fatalf("RunMatrix(seed=%d, workers=%d): %v", seed, workers, err)
	}
	cfg := supervise.Config{GrowResources: true}
	if err := m.AddSupervised(seed, cfg, tel, workers); err != nil {
		t.Fatalf("AddSupervised(seed=%d, workers=%d): %v", seed, workers, err)
	}
	return fingerprint(t, tel, m.String())
}

// TestSupervisedMatrixDeterminismProperty is the matrix-side property: fewer
// seeds (the matrix is the heavier sweep) but the same all-outputs identity.
func TestSupervisedMatrixDeterminismProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep is long; skipped with -short")
	}
	rng := rand.New(rand.NewSource(19990215))
	for i := 0; i < 4; i++ {
		seed := rng.Int63n(1 << 32)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			want := supervisedFingerprint(t, seed, workerArms[0])
			for _, w := range workerArms[1:] {
				got := supervisedFingerprint(t, seed, w)
				if !bytes.Equal(want, got) {
					t.Errorf("workers=%d output differs from workers=1 (seed %d):\n%s",
						w, seed, firstDiff(want, got))
				}
			}
		})
	}
}

// TestLintDeterminism checks the lint sweep renders identically at every
// worker count (one seedless analysis; the analyzer result is shared).
func TestLintDeterminism(t *testing.T) {
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, w := range workerArms {
		rep, err := RunLint(root, w)
		if err != nil {
			t.Fatalf("RunLint(workers=%d): %v", w, err)
		}
		got := rep.String()
		if w == workerArms[0] {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d lint report differs:\n%s", w, firstDiff([]byte(want), []byte(got)))
		}
	}
}

// firstDiff renders the first divergence between two outputs with context —
// a full dump of two multi-kilobyte artifacts would drown the signal.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	at := n
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			at = i
			break
		}
	}
	if at == n && len(a) == len(b) {
		return "(no byte difference)"
	}
	lo := at - 80
	if lo < 0 {
		lo = 0
	}
	hiA, hiB := at+80, at+80
	if hiA > len(a) {
		hiA = len(a)
	}
	if hiB > len(b) {
		hiB = len(b)
	}
	return fmt.Sprintf("first difference at byte %d\n--- a\n…%s…\n--- b\n…%s…", at, a[lo:hiA], b[lo:hiB])
}

// seedRun is one experiment run at seed 42 with telemetry attached: the
// report, the telemetry, and everything the run produced rendered as one
// string (the report, then the trace, timeline, and metric dumps).
type seedRun[R any] struct {
	rep  R
	tel  *Telemetry
	dump string
}

// newSeedRun renders a finished run: head (the report and any
// experiment-specific artifact) followed by the telemetry dumps.
func newSeedRun[R any](rep R, tel *Telemetry, head string) (seedRun[R], error) {
	var b bytes.Buffer
	b.WriteString(head)
	for _, write := range []func(io.Writer) error{tel.WriteTrace, tel.WriteTimeline, tel.WritePrometheus} {
		if err := write(&b); err != nil {
			return seedRun[R]{}, err
		}
	}
	return seedRun[R]{rep: rep, tel: tel, dump: b.String()}, nil
}

// memoSerial runs an experiment's workers-1 seed-42 run once per test
// binary and hands the same run to every test that asks. Tests only read it.
func memoSerial[R any](run func(workers int) (seedRun[R], error)) func(t *testing.T) seedRun[R] {
	once := sync.OnceValues(func() (seedRun[R], error) { return run(1) })
	return func(t *testing.T) seedRun[R] {
		t.Helper()
		r, err := once()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
}

// assertWorkerInvariant is the determinism contract for one experiment: the
// run at 2 and 8 workers renders byte-identically to the serial run.
func assertWorkerInvariant[R any](t *testing.T, serial seedRun[R], run func(workers int) (seedRun[R], error)) {
	t.Helper()
	for _, workers := range workerArms[1:] {
		got, err := run(workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.dump != serial.dump {
			t.Fatalf("output at %d workers differs from the serial run:\n%s",
				workers, firstDiff([]byte(serial.dump), []byte(got.dump)))
		}
	}
}
