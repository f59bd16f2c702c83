package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"faultstudy/internal/obsv"
)

// sweepRun runs a synthetic sweep of n arms whose work is uneven and seeded:
// arm i sleeps and records a seeded amount, so completion order scrambles
// at every worker count while each arm's output stays a pure function of
// (seed, i). fail, when non-nil, may replace arm i's result with an error or
// a panic. It returns the fold order and the merged trace and Prometheus
// dumps.
func sweepRun(t *testing.T, workers, n int, seed int64, fail func(i int) error) (folds []int, trace, prom string, err error) {
	t.Helper()
	tel := NewTelemetry()
	err = sweep(workers, n, tel, func(i int, tel *Telemetry) (int, error) {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		work := rng.Intn(50)
		time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
		if fail != nil {
			if err := fail(i); err != nil {
				return 0, err
			}
		}
		tel.Recorder.SetContext(obsv.Context{App: "sweep", Class: "EI"})
		tel.Recorder.Begin(time.Duration(i)*time.Millisecond, fmt.Sprintf("op-%02d", i), "sweep/arm")
		for j := 0; j < work; j++ {
			tel.Registry.Counter("faultstudy_sweep_ops_total", obsv.L("arm", fmt.Sprint(i%3))...).Inc()
		}
		tel.Registry.Histogram("faultstudy_sweep_work", obsv.LatencyBuckets).Observe(float64(work))
		tel.Registry.Gauge("faultstudy_sweep_last_arm").Set(float64(i))
		tel.Recorder.End(time.Duration(i+work)*time.Millisecond, obsv.OutcomeRecovered, "retry")
		return i * work, nil
	}, func(i int, a int) {
		folds = append(folds, i)
	})
	var tb, pb bytes.Buffer
	if werr := tel.WriteTrace(&tb); werr != nil {
		t.Fatalf("write trace: %v", werr)
	}
	if werr := tel.WritePrometheus(&pb); werr != nil {
		t.Fatalf("write prometheus: %v", werr)
	}
	return folds, tb.String(), pb.String(), err
}

// TestSweepProperty is sweep's order-invariance property: at every worker
// count the fold sees the same index sequence and the merged trace and
// Prometheus dump are byte-identical to the serial run; a failing arm yields
// the first error in shard order with no later arm folded; a panicking arm
// becomes an error.
func TestSweepProperty(t *testing.T) {
	const n = 24
	for _, seed := range []int64{1, 42, 1999} {
		serialFolds, serialTrace, serialProm, err := sweepRun(t, 1, n, seed, nil)
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		if len(serialFolds) != n || strings.Count(serialTrace, "\n") != n {
			t.Fatalf("seed %d serial: %d folds, %d episodes, want %d", seed, len(serialFolds), strings.Count(serialTrace, "\n"), n)
		}
		for i, f := range serialFolds {
			if f != i {
				t.Fatalf("seed %d serial: fold %d got index %d", seed, i, f)
			}
		}
		for _, w := range []int{2, 3, 4, 8} {
			folds, trace, prom, err := sweepRun(t, w, n, seed, nil)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
			if fmt.Sprint(folds) != fmt.Sprint(serialFolds) {
				t.Errorf("seed %d workers %d: fold order %v, want %v", seed, w, folds, serialFolds)
			}
			if trace != serialTrace {
				t.Errorf("seed %d workers %d: merged trace differs from serial", seed, w)
			}
			if prom != serialProm {
				t.Errorf("seed %d workers %d: merged Prometheus dump differs from serial", seed, w)
			}
		}
	}

	errFirst, errLater := errors.New("arm 7 failed"), errors.New("arm 13 failed")
	for _, w := range []int{1, 2, 3, 4, 8} {
		folds, trace, _, err := sweepRun(t, w, n, 42, func(i int) error {
			switch i {
			case 7:
				return errFirst
			case 13:
				return errLater
			}
			return nil
		})
		if !errors.Is(err, errFirst) {
			t.Errorf("workers %d: error %v, want the first in shard order (%v)", w, err, errFirst)
		}
		if fmt.Sprint(folds) != fmt.Sprint([]int{0, 1, 2, 3, 4, 5, 6}) {
			t.Errorf("workers %d: folded %v, want exactly the prefix before the failed arm", w, folds)
		}
		if got := strings.Count(trace, "\n"); got != 7 {
			t.Errorf("workers %d: merged %d episodes, want 7", w, got)
		}

		folds, _, _, err = sweepRun(t, w, n, 42, func(i int) error {
			if i == 3 {
				panic("arm 3 exploded")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("workers %d: panicking arm gave error %v, want a panic error", w, err)
		}
		if len(folds) != 3 {
			t.Errorf("workers %d: folded %v past the panicking arm", w, folds)
		}
	}
}
