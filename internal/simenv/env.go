// Package simenv simulates the operating environment of the study's
// applications: file-descriptor and process tables, a disk with capacity and
// file-size limits, a DNS service, a network, a thread scheduler, a kernel
// entropy pool, and a virtual clock.
//
// The package is the mechanical embodiment of the paper's §3 argument (after
// Dijkstra): given a fixed operating environment, a set of concurrent
// sequential processes is completely deterministic, and every
// non-deterministic execution is due to a change in the operating
// environment. Everything random in simenv flows from one seeded generator,
// so two Env values built with the same seed behave identically; recovery
// experiments change behaviour only by explicitly perturbing the environment
// (advancing time, re-rolling the scheduler, healing the DNS, ...).
//
// Generators are seeded on first draw. The environment's generator lives in
// its Scheduler, which builds it only at the first unforced Interleave or
// Reroll, and seeds its interleaving generator only at the first unforced
// Interleave after creation or a Reroll. Every drawn stream is the one an
// eagerly seeded generator would produce, so laziness changes cost, never
// behaviour.
package simenv

import (
	"sync"
	"time"
)

// Option configures an Env.
type Option func(*config)

type config struct {
	seed        int64
	fdLimit     int
	procLimit   int
	diskBytes   int64
	maxFileSize int64
	entropyBits int
	hostname    string
}

// WithFDLimit sets the per-process file-descriptor limit.
func WithFDLimit(n int) Option { return func(c *config) { c.fdLimit = n } }

// WithProcLimit sets the process-table size.
func WithProcLimit(n int) Option { return func(c *config) { c.procLimit = n } }

// WithDiskBytes sets the file-system capacity in bytes.
func WithDiskBytes(n int64) Option { return func(c *config) { c.diskBytes = n } }

// WithMaxFileSize sets the maximum allowed size of a single file (the study's
// "size of log file is greater than maximum allowed file size" condition).
func WithMaxFileSize(n int64) Option { return func(c *config) { c.maxFileSize = n } }

// WithEntropyBits sets the initial /dev/random pool size in bits.
func WithEntropyBits(n int) Option { return func(c *config) { c.entropyBits = n } }

// WithHostname sets the machine's hostname.
func WithHostname(h string) Option { return func(c *config) { c.hostname = h } }

// Env is a simulated operating environment. All methods are safe for
// concurrent use.
type Env struct {
	mu       sync.Mutex
	now      time.Time
	start    time.Time
	hostname string

	fds     *FDTable
	procs   *ProcTable
	disk    *Disk
	dns     *DNS
	net     *Network
	sched   *Scheduler
	entropy *EntropyPool
}

// New builds an environment with the given seed. Two environments built with
// the same seed and options are behaviourally identical.
func New(seed int64, opts ...Option) *Env {
	cfg := config{
		seed:        seed,
		fdLimit:     256,
		procLimit:   128,
		diskBytes:   64 << 20, // 64 MiB
		maxFileSize: 16 << 20, // 16 MiB
		entropyBits: 4096,
		hostname:    "darkstar",
	}
	for _, o := range opts {
		o(&cfg)
	}
	epoch := time.Date(1999, 10, 1, 0, 0, 0, 0, time.UTC)
	e := &Env{
		now:      epoch,
		start:    epoch,
		hostname: cfg.hostname,
	}
	e.fds = newFDTable(cfg.fdLimit)
	e.procs = newProcTable(cfg.procLimit)
	e.disk = newDisk(cfg.diskBytes, cfg.maxFileSize)
	e.dns = newDNS()
	e.net = newNetwork()
	e.sched = newScheduler(seed)
	e.entropy = newEntropyPool(cfg.entropyBits)
	return e
}

// FDs returns the file-descriptor table.
func (e *Env) FDs() *FDTable { return e.fds }

// Procs returns the process table.
func (e *Env) Procs() *ProcTable { return e.procs }

// Disk returns the file system.
func (e *Env) Disk() *Disk { return e.disk }

// DNS returns the name service.
func (e *Env) DNS() *DNS { return e.dns }

// Net returns the network.
func (e *Env) Net() *Network { return e.net }

// Sched returns the thread scheduler.
func (e *Env) Sched() *Scheduler { return e.sched }

// Entropy returns the kernel entropy pool.
func (e *Env) Entropy() *EntropyPool { return e.entropy }

// Hostname returns the current hostname.
func (e *Env) Hostname() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hostname
}

// SetHostname changes the hostname while applications may be running — one of
// the study's environment-dependent-nontransient GNOME triggers.
func (e *Env) SetHostname(h string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.hostname = h
}

// Now returns the current virtual time.
func (e *Env) Now() time.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// Monotonic returns how far the virtual clock has advanced since the
// environment was created — a monotonic reading that only Advance moves.
// Supervision layers use it for crash-loop windows, retry budgets, and
// breaker cooldowns, so those policies are deterministic under test: two
// environments built with the same seed advance their monotonic clocks
// identically.
func (e *Env) Monotonic() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now.Sub(e.start)
}

// Advance moves the virtual clock forward and lets time-healing components
// (DNS outages, network slowness, entropy replenishment) progress. It models
// "retry the operation at a later time": the external world changes even
// though the application did nothing.
func (e *Env) Advance(d time.Duration) {
	e.mu.Lock()
	e.now = e.now.Add(d)
	e.mu.Unlock()
	e.dns.advance(d)
	e.net.advance(d)
	e.entropy.advance(d)
}

// Reroll re-seeds the scheduler's interleaving choices from the environment's
// generator. A retry after recovery observes fresh interleavings — the
// mechanism by which race-triggered faults clear on retry.
//
// The scheduler only records the new seed until its next unforced
// Interleave; the interleavings are exactly those of eagerly seeded
// generators.
func (e *Env) Reroll() { e.sched.reroll() }

// ReclaimOwner releases every environment resource held by the given owner:
// file descriptors, processes, and bound ports. This models the recovery
// system killing all processes related to the application and freeing their
// resources (the paper's process-table and port-squatting transients).
func (e *Env) ReclaimOwner(owner string) {
	e.fds.ReleaseOwner(owner)
	e.procs.KillOwner(owner)
	e.net.ReleaseOwnerPorts(owner)
}
