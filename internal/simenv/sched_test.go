package simenv

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// eagerEnv is the reference model for an Env's randomness: both generators
// seeded up front, the scheduler's rebuilt from the environment's next value
// at every reroll. The lazily seeded Env must make exactly its choices.
type eagerEnv struct {
	ref    *rand.Rand
	sched  *rand.Rand
	forced map[string]int
}

func newEagerEnv(seed int64) *eagerEnv {
	ref := rand.New(rand.NewSource(seed))
	return &eagerEnv{
		ref:    ref,
		sched:  rand.New(rand.NewSource(ref.Int63())),
		forced: make(map[string]int),
	}
}

func (m *eagerEnv) reroll() { m.sched = rand.New(rand.NewSource(m.ref.Int63())) }

func (m *eagerEnv) interleave(point string, n int) int {
	if n <= 0 {
		return 0
	}
	if c, ok := m.forced[point]; ok {
		return min(c, n-1)
	}
	return m.sched.Intn(n)
}

func (m *eagerEnv) raceFires(point string, window int) bool {
	return window <= 1 || m.interleave(point, window) == 0
}

// TestLazySeedingMatchesEagerModel drives the Env and the eager reference
// model through the same random sequences of rerolls, draws, pins and clock
// moves and requires every choice to agree. Sequences open with a draw or a
// reroll alike, so both first-draw paths are covered.
func TestLazySeedingMatchesEagerModel(t *testing.T) {
	points := []string{"a", "b", "c"}
	for seed := int64(0); seed < 250; seed++ {
		env, ref := New(seed), newEagerEnv(seed)
		ops := rand.New(rand.NewSource(seed ^ 0x5eed))
		var trail []string
		for step := 0; step < 80; step++ {
			point := points[ops.Intn(len(points))]
			switch op := ops.Intn(8); op {
			case 0:
				env.Reroll()
				ref.reroll()
				trail = append(trail, "reroll")
			case 1, 2:
				n := ops.Intn(10)
				got, want := env.Sched().Interleave(point, n), ref.interleave(point, n)
				trail = append(trail, fmt.Sprintf("interleave(%s,%d)=%d", point, n, got))
				if got != want {
					t.Fatalf("seed %d: %v: want %d", seed, trail, want)
				}
			case 3:
				w := ops.Intn(6)
				got, want := env.Sched().RaceFires(point, w), ref.raceFires(point, w)
				trail = append(trail, fmt.Sprintf("racefires(%s,%d)=%v", point, w, got))
				if got != want {
					t.Fatalf("seed %d: %v: want %v", seed, trail, want)
				}
			case 4:
				c := ops.Intn(6)
				env.Sched().Force(point, c)
				ref.forced[point] = c
				trail = append(trail, fmt.Sprintf("force(%s,%d)", point, c))
			case 5:
				env.Sched().UnforceAll()
				clear(ref.forced)
				trail = append(trail, "unforceall")
			case 6:
				env.Sched().Unforce(point)
				delete(ref.forced, point)
				trail = append(trail, "unforce("+point+")")
			case 7:
				env.Advance(time.Duration(ops.Intn(1000)) * time.Millisecond)
				trail = append(trail, "advance")
			}
		}
	}
}

// TestRerollAllocatesNothingOnceWarm pins the cost of a retry's reroll: once
// both generators exist, a Reroll only records a seed and the next draw
// reseeds the scheduler's generator in place.
func TestRerollAllocatesNothingOnceWarm(t *testing.T) {
	env := New(7)
	env.Reroll()
	_ = env.Sched().Interleave("p", 4)
	if a := testing.AllocsPerRun(100, env.Reroll); a != 0 {
		t.Errorf("warm Reroll allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		env.Reroll()
		_ = env.Sched().Interleave("p", 4)
	}); a != 0 {
		t.Errorf("Reroll then Interleave allocates %v times, want 0", a)
	}
}

// Sinks keep the compiler from discarding the benchmarked calls.
var (
	sinkEnv    *Env
	sinkChoice int
)

func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkEnv = New(int64(i))
	}
}

func BenchmarkReroll(b *testing.B) {
	env := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Reroll()
	}
}

func BenchmarkInterleaveAfterReroll(b *testing.B) {
	env := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Reroll()
		sinkChoice = env.Sched().Interleave("p", 8)
	}
}
