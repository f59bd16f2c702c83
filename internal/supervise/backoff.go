package supervise

import (
	"math/rand"
	"time"
)

// backoff returns the delay the supervisor sleeps before the attempt-th
// recovery attempt (1-based): backoffBase·2^(attempt−1), capped at
// backoffCap, plus a uniformly drawn jitter fraction so synchronized
// restarts don't stampede. The jitter generator is the supervisor's own,
// seeded from Config.Seed alone (never the global math/rand source — see
// faultlint's rawrand rule), so soak runs reproduce the full delay sequence
// from the config seed.
func backoff(attempt int, rng *rand.Rand) time.Duration {
	d := backoffBase
	for i := 1; i < attempt && d < backoffCap; i++ {
		d *= 2
	}
	if d > backoffCap {
		d = backoffCap
	}
	return d + time.Duration(float64(d)*backoffJitter*rng.Float64())
}
