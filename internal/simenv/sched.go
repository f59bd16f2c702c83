package simenv

import (
	"fmt"
	"math/rand"
	"sync"
)

// Scheduler simulates the kernel thread scheduler's interleaving decisions.
// Race-condition faults in the simulated applications trigger only under
// particular interleavings; the scheduler supplies those interleavings from a
// seeded generator so a run is deterministic until the environment is
// explicitly rerolled (Env.Reroll), which models the clock interrupt arriving
// at a different moment on retry.
//
// The scheduler also holds the environment's generator, whose first value
// seeds the interleavings and whose later values seed each reroll. Both are
// seeded on first draw: the environment's on the first unforced Interleave or
// reroll, the interleaving generator on the first unforced Interleave after
// creation or a reroll.
type Scheduler struct {
	mu sync.Mutex
	// envSeed seeds env; env is nil until first needed.
	envSeed int64
	env     *rand.Rand
	// rng is nil until the first unforced Interleave.
	rng *rand.Rand
	// seed waits to be applied to rng while pending is set.
	seed    int64
	pending bool
	// forced pins the next Interleave results for adversarial tests:
	// key -> forced choice.
	forced map[string]int
}

func newScheduler(envSeed int64) *Scheduler {
	return &Scheduler{
		envSeed: envSeed,
		forced:  make(map[string]int),
	}
}

// start builds the environment's generator on first use and marks its first
// value, the initial interleaving seed, pending. The caller holds s.mu.
func (s *Scheduler) start() {
	if s.env == nil {
		s.env = rand.New(rand.NewSource(s.envSeed))
		s.seed, s.pending = s.env.Int63(), true
	}
}

// reroll records the environment generator's next value as the seed the next
// unforced Interleave draws from.
func (s *Scheduler) reroll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.start()
	s.seed, s.pending = s.env.Int63(), true
}

// source returns the generator to draw from, seeding it first when a seed is
// pending. Rand.Seed in place yields the same stream as a fresh
// rand.New(rand.NewSource(seed)). The caller holds s.mu.
func (s *Scheduler) source() *rand.Rand {
	s.start()
	if s.pending {
		if s.rng == nil {
			s.rng = rand.New(rand.NewSource(s.seed))
		} else {
			s.rng.Seed(s.seed)
		}
		s.pending = false
	}
	return s.rng
}

// Interleave chooses which of n runnable threads at the named program point
// runs first and returns its index in [0, n). A forced choice, if staged for
// the point, wins.
func (s *Scheduler) Interleave(point string, n int) int {
	if n <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.forced[point]; ok {
		if c >= n {
			c = n - 1
		}
		return c
	}
	return s.source().Intn(n)
}

// Force pins the choice at a program point; used to stage the losing
// interleaving deterministically.
func (s *Scheduler) Force(point string, choice int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.forced[point] = choice
}

// Unforce removes a pinned choice.
func (s *Scheduler) Unforce(point string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.forced, point)
}

// UnforceAll clears every pinned choice.
func (s *Scheduler) UnforceAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.forced)
}

// RaceFires evaluates a two-way race at the named point: it returns true when
// the scheduler picks the losing interleaving. window is the number of
// equally likely interleavings of which exactly one loses; a window of 1
// always fires (the race is certain), larger windows fire with probability
// 1/window.
func (s *Scheduler) RaceFires(point string, window int) bool {
	if window <= 1 {
		return true
	}
	return s.Interleave(point, window) == 0
}

// Describe returns a human-readable summary of the pinned points, for debug
// logs.
func (s *Scheduler) Describe() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.forced) == 0 {
		return "scheduler: free-running"
	}
	return fmt.Sprintf("scheduler: %d forced point(s)", len(s.forced))
}
