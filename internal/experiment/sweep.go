package experiment

import (
	"sync"

	"faultstudy/internal/parallel"
)

// This file is the parallel experiment engine: every experiment's arms run
// through sweep, over a bounded worker pool (internal/parallel). The
// determinism contract is worker-count invariance — every report, trace,
// timeline, and metrics dump an N-worker run produces is byte-identical to
// the 1-worker (serial) run — and it holds because:
//
//   - each arm is one independent unit of an experiment (a corpus fault, an
//     application, a mechanism × policy cell), with its own freshly seeded
//     environment, application instance, and supervisor: no arm shares
//     mutable state with another (verified under -race);
//   - every seed an arm uses is a pure function of the root seed and the
//     arm's position, never of scheduling (see parallel.Derive for the
//     SplitMix64 derivation used where arms need private streams);
//   - each arm writes into its own obsv sinks, and sweep folds results and
//     sinks in arm order with Registry.Merge / Recorder.Append, which
//     reproduces exactly what a serial run sharing one sink would have
//     recorded.

// sweep is the one runner every experiment's arms go through. It runs
// arm(i) for every i in [0, n) on a pool of workers (parallel.ForEach; ≤ 0
// means one per processor) and folds the results in index order: as soon as
// arms 0..i have all finished, fold(i, a) runs and arm i's private telemetry
// is merged into tel, so no slice of every arm's output is ever built and a
// finished prefix is released as it completes.
//
// When tel is non-nil each arm records into its own fresh telemetry (nil
// otherwise). Telemetry.Merge is sequential in argument order, so merging
// each arm as its prefix completes reproduces exactly the serial run — the
// engine's worker-count invariance (DESIGN.md §9). fold (which may be nil)
// is never called concurrently with itself.
//
// Folding stops at the first failed arm; the first error in shard order is
// returned, and a panicking arm becomes an error, as with parallel.ForEach.
func sweep[A any](workers, n int, tel *Telemetry, arm func(i int, tel *Telemetry) (A, error), fold func(i int, a A)) error {
	type slot struct {
		a    A
		tel  *Telemetry
		done bool
	}
	var (
		mu      sync.Mutex
		slots   = make([]slot, n)
		next    int   // first index not yet folded
		folding bool  // one goroutine at a time drains the finished prefix
		foldErr error // a merge failure; it stops folding
	)
	err := parallel.ForEach(workers, n, func(i int) error {
		var own *Telemetry
		if tel != nil {
			own = NewTelemetry()
		}
		a, err := arm(i, own)
		if err != nil {
			return err
		}
		mu.Lock()
		slots[i] = slot{a: a, tel: own, done: true}
		if folding {
			// The goroutine already draining will reach this slot.
			mu.Unlock()
			return nil
		}
		folding = true
		for next < n && slots[next].done && foldErr == nil {
			s, idx := slots[next], next
			slots[next] = slot{} // release the folded result
			next++
			mu.Unlock()
			if fold != nil {
				fold(idx, s.a)
			}
			mergeErr := tel.Merge(s.tel)
			mu.Lock()
			foldErr = mergeErr
		}
		folding = false
		mu.Unlock()
		return nil
	})
	// Folding only ever passes successful arms, so a merge failure precedes
	// every failed arm in shard order.
	if foldErr != nil {
		return foldErr
	}
	return err
}
