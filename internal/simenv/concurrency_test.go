package simenv

import (
	"sync"
	"testing"
	"time"
)

// TestConcurrentEnvironmentUse hammers every environment component from
// multiple goroutines; run with -race this is the package's thread-safety
// proof.
func TestConcurrentEnvironmentUse(t *testing.T) {
	env := New(99, WithFDLimit(1024), WithProcLimit(1024), WithDiskBytes(1<<24))
	const workers = 8
	const iters = 200

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			owner := string(rune('a' + w))
			for i := 0; i < iters; i++ {
				if fd, err := env.FDs().Open(owner); err == nil && i%2 == 0 {
					_ = env.FDs().Close(fd)
				}
				if pid, err := env.Procs().Spawn(owner); err == nil && i%3 == 0 {
					_ = env.Procs().Kill(pid)
				}
				_ = env.Disk().Append("/tmp/"+owner, owner, 16)
				_, _, _ = env.DNS().Lookup("h")
				_ = env.Net().BindPort(1000+w*1000+i, owner)
				_ = env.Sched().Interleave("p", 4)
				_ = env.Entropy().Draw(1)
				env.Advance(time.Millisecond)
				if i%50 == 0 {
					env.ReclaimOwner(owner)
				}
			}
			env.ReclaimOwner(owner)
		}()
	}
	wg.Wait()

	if env.FDs().InUse() < 0 || env.FDs().InUse() > env.FDs().Limit() {
		t.Errorf("fd accounting corrupted: %d", env.FDs().InUse())
	}
	if env.Disk().Used() > env.Disk().Capacity() {
		t.Errorf("disk accounting corrupted: %d > %d", env.Disk().Used(), env.Disk().Capacity())
	}
}

// TestConcurrentRerollAndInterleave drives fresh environments from
// concurrent goroutines through the scheduler — the path the recovery manager
// touches while applications run. Some goroutines open with a Reroll and some
// with an Interleave, so the environment's generator is built on either path.
// Under -race this shows the lazily built generators are never touched
// outside the scheduler's lock.
func TestConcurrentRerollAndInterleave(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		env := New(seed)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					if (w+i)%4 == 0 {
						env.Reroll()
					} else {
						_ = env.Sched().Interleave("x", 8)
					}
				}
			}()
		}
		wg.Wait()
	}
}
