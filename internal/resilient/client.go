// Package resilient is the mining pipeline's tail-tolerant HTTP client
// layer: per-try deadlines, exponential backoff with seeded jitter, a
// token-bucket retry budget, optional hedged re-attempts (after Dean &
// Barroso's "The Tail at Scale"), per-host circuit breakers (the
// supervision layer's breaker state machine extracted to the transport),
// Retry-After honoring, and Content-Length truncation detection.
//
// The layer exists to make the paper's Table 8 logic measurable end-to-end:
// a state-preserving retry survives environment-dependent-transient faults
// because the condition heals between attempts, and survives essentially no
// nontransient ones because it cannot change the environment. The client
// implements exactly that generic recovery — plus the storm-control
// mechanisms (budget, breaker) that keep the unsurvivable case cheap — and
// internal/experiment's RESIL sweep verifies the prediction fault class by
// fault class.
//
// The Client is an http.RoundTripper: wrap it in an http.Client and every
// caller above it (the crawler, the miners) gets resilience without code
// changes. All time flows through an injected Clock, so experiment runs on
// the virtual clock are byte-deterministic in the seed.
package resilient

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Named failure modes, distinguishable with errors.Is.
var (
	// ErrBreakerOpen reports a request declined fast by an open per-host
	// circuit breaker.
	ErrBreakerOpen = errors.New("resilient: circuit breaker open")
	// ErrTryTimeout reports an attempt that exceeded the per-try deadline.
	ErrTryTimeout = errors.New("resilient: per-try deadline exceeded")
	// ErrTruncatedBody reports a response body shorter than its declared
	// Content-Length.
	ErrTruncatedBody = errors.New("resilient: response body truncated")
	// ErrBudgetExhausted reports a retry suppressed by the token-bucket
	// retry budget.
	ErrBudgetExhausted = errors.New("resilient: retry budget exhausted")
)

// Policy is one client configuration. The presets — NaivePolicy,
// RetryPolicy, FullPolicy — are the three arms the RESIL experiment
// crosses with the chaos classes.
type Policy struct {
	// Name labels the policy in reports and metrics.
	Name string
	// MaxAttempts bounds total tries per request, first attempt included.
	// Values below 1 mean 1.
	MaxAttempts int
	// PerTryTimeout bounds each attempt; 0 disables. On a virtual clock the
	// deadline is enforced after the fact (a response that arrived later
	// than the deadline is discarded as a timeout).
	PerTryTimeout time.Duration
	// BackoffBase and BackoffCap shape the exponential retry delay
	// base·2^(attempt−1), capped.
	BackoffBase time.Duration
	// BackoffCap caps the exponential delay.
	BackoffCap time.Duration
	// Jitter adds up to Jitter×delay of seeded random slack to each backoff
	// (0 disables; a nil client rng also disables, as in supervise).
	Jitter float64
	// BudgetBurst is the retry budget's bucket size; 0 means no budget.
	BudgetBurst float64
	// BudgetEarn is the budget credit per first attempt.
	BudgetEarn float64
	// HedgeAfter enables hedged re-attempts: an attempt that failed slow
	// (per-try timeout, or slower than this threshold) is retried
	// immediately, without backoff and without charging the retry budget.
	// 0 disables hedging.
	HedgeAfter time.Duration
	// BreakerThreshold opens a host's breaker after this many consecutive
	// failures; 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the open→half-open cooldown.
	BreakerCooldown time.Duration
	// HonorRetryAfter makes 429/503 Retry-After headers override the
	// backoff delay (capped at RetryAfterCap).
	HonorRetryAfter bool
	// RetryAfterCap bounds an honored Retry-After wait; 0 means no cap.
	RetryAfterCap time.Duration
	// DetectTruncation buffers bodies and fails attempts whose length
	// disagrees with Content-Length (a retryable fault).
	DetectTruncation bool
}

// NaivePolicy is the baseline: one attempt, a generous per-try deadline,
// no detection, no recovery — the pre-chaos crawler's behaviour.
func NaivePolicy() Policy {
	return Policy{Name: "naive", MaxAttempts: 1, PerTryTimeout: 10 * time.Second}
}

// RetryPolicy is plain generic recovery: bounded retries with jittered
// exponential backoff, a retry budget, Retry-After honoring, and truncation
// detection — but no hedging and no breaker.
func RetryPolicy() Policy {
	return Policy{
		Name:             "retry",
		MaxAttempts:      4,
		PerTryTimeout:    5 * time.Second,
		BackoffBase:      100 * time.Millisecond,
		BackoffCap:       2 * time.Second,
		Jitter:           0.2,
		BudgetBurst:      40,
		BudgetEarn:       0.5,
		HonorRetryAfter:  true,
		RetryAfterCap:    2 * time.Second,
		DetectTruncation: true,
	}
}

// FullPolicy is the complete resilient client: RetryPolicy plus a tight
// per-try deadline, hedged re-attempts, and a per-host circuit breaker.
func FullPolicy() Policy {
	p := RetryPolicy()
	p.Name = "full"
	p.PerTryTimeout = 1 * time.Second
	p.HedgeAfter = 500 * time.Millisecond
	p.BreakerThreshold = 5
	p.BreakerCooldown = 30 * time.Second
	return p
}

// PolicyByName resolves "naive", "retry", or "full" to its preset.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "naive":
		return NaivePolicy(), nil
	case "retry":
		return RetryPolicy(), nil
	case "full":
		return FullPolicy(), nil
	default:
		return Policy{}, fmt.Errorf("resilient: unknown policy %q (want naive, retry, or full)", name)
	}
}

// Stats are the client's cumulative counters.
type Stats struct {
	// Requests counts RoundTrip calls admitted past the breaker.
	Requests int
	// Attempts counts individual tries, first attempts included.
	Attempts int
	// Retries counts backoff-paced re-attempts.
	Retries int
	// Hedges counts hedged (immediate) re-attempts.
	Hedges int
	// FastFails counts requests declined by an open breaker.
	FastFails int
	// BudgetDenied counts retries suppressed by the budget.
	BudgetDenied int
	// Truncations counts bodies failing the Content-Length check.
	Truncations int
	// RetryAfterWaits counts backoffs overridden by a Retry-After header.
	RetryAfterWaits int
	// Successes counts requests ultimately served with a success status.
	Successes int
	// GiveUps counts requests abandoned with attempts exhausted.
	GiveUps int
}

// Client is the resilient http.RoundTripper. Build with New; share Breaker
// and Budget across clients via options when several clients talk to the
// same backend.
type Client struct {
	policy  Policy
	next    http.RoundTripper
	clock   Clock
	breaker *Breaker
	budget  *Budget

	mu    sync.Mutex
	rng   *rand.Rand
	stats Stats
}

// Option configures a Client.
type Option func(*Client)

// WithTransport sets the inner transport (default http.DefaultTransport).
func WithTransport(rt http.RoundTripper) Option { return func(c *Client) { c.next = rt } }

// WithClock injects the clock (default the wall clock).
func WithClock(clock Clock) Option { return func(c *Client) { c.clock = clock } }

// WithRand injects the jitter generator; nil disables jitter (the seeded
// convention shared with the supervision layer).
func WithRand(rng *rand.Rand) Option { return func(c *Client) { c.rng = rng } }

// WithBreaker shares a breaker set across clients.
func WithBreaker(b *Breaker) Option { return func(c *Client) { c.breaker = b } }

// WithBudget shares a retry budget across clients.
func WithBudget(b *Budget) Option { return func(c *Client) { c.budget = b } }

// New builds a client for the policy. A breaker and budget are created from
// the policy's parameters unless shared ones are injected.
func New(p Policy, opts ...Option) *Client {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	c := &Client{policy: p, next: http.DefaultTransport, clock: NewRealClock()}
	for _, o := range opts {
		o(c)
	}
	if c.breaker == nil && p.BreakerThreshold > 0 {
		c.breaker = NewBreaker(p.BreakerThreshold, p.BreakerCooldown)
	}
	if c.budget == nil && p.BudgetBurst > 0 {
		c.budget = NewBudget(p.BudgetBurst, p.BudgetEarn)
	}
	return c
}

// Policy returns the client's policy.
func (c *Client) Policy() Policy { return c.policy }

// HTTPClient wraps the client in an *http.Client for callers that want the
// standard interface (the crawler's WithClient option).
func (c *Client) HTTPClient() *http.Client { return &http.Client{Transport: c} }

// Stats returns a snapshot of the cumulative counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// count applies a mutation to the stats under the lock.
func (c *Client) count(f func(*Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// retryableStatus reports whether a status code indicates a fault worth
// retrying: server errors, throttling, and request timeout.
func retryableStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests || code == http.StatusRequestTimeout
}

// RoundTrip performs req with the policy's full recovery ladder. It returns
// the last response for requests that exhausted attempts on a retryable
// status (callers see the real server state), and an error for requests
// that exhausted attempts on transport-level failures.
func (c *Client) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	host := req.URL.Host
	urlStr := req.URL.String()

	if c.breaker != nil && !c.breaker.Allow(host, c.clock.Now()) {
		c.count(func(s *Stats) { s.FastFails++ })
		return nil, fmt.Errorf("resilient: %s: %w", host, ErrBreakerOpen)
	}
	c.budget.Deposit()
	c.count(func(s *Stats) { s.Requests++ })

	attempt := 0
	for {
		attempt++
		resp, elapsed, err := c.try(req)
		c.count(func(s *Stats) { s.Attempts++ })

		if err == nil && !retryableStatus(resp.StatusCode) {
			c.breaker.Success(host)
			c.count(func(s *Stats) { s.Successes++ })
			return resp, nil
		}

		// Failed attempt: transport error, timeout, truncation, or a
		// retryable status.
		c.breaker.Failure(host, c.clock.Now())
		if ctx.Err() != nil {
			closeResp(resp)
			return nil, ctx.Err()
		}

		if attempt >= c.policy.MaxAttempts {
			c.count(func(s *Stats) { s.GiveUps++ })
			if err == nil {
				return resp, nil // the caller sees the real retryable status
			}
			return nil, fmt.Errorf("resilient: %s %s: %d attempt(s) exhausted: %w",
				req.Method, urlStr, attempt, err)
		}

		// A slow failure hedges: immediate re-attempt, no backoff, no
		// budget charge. Everything else pays the budget and backs off.
		hedged := c.policy.HedgeAfter > 0 &&
			(errors.Is(err, ErrTryTimeout) || elapsed >= c.policy.HedgeAfter)
		if hedged {
			closeResp(resp)
			c.count(func(s *Stats) { s.Hedges++ })
			continue
		}

		if !c.budget.Withdraw() {
			c.count(func(s *Stats) { s.BudgetDenied++ })
			if err == nil {
				return resp, nil
			}
			closeResp(resp)
			return nil, fmt.Errorf("resilient: %s %s: %w: %w", req.Method, urlStr, ErrBudgetExhausted, err)
		}

		delay, honored := retryAfterDelay(resp, c.policy)
		if !honored {
			delay = c.backoffDelay(attempt)
		} else {
			c.count(func(s *Stats) { s.RetryAfterWaits++ })
		}
		closeResp(resp)
		if err := c.clock.Sleep(ctx, delay); err != nil {
			return nil, err
		}
		c.count(func(s *Stats) { s.Retries++ })
	}
}

// try performs one attempt: per-try deadline, post-hoc virtual-clock
// timeout enforcement, and (when the policy asks) body buffering with the
// Content-Length truncation check.
func (c *Client) try(req *http.Request) (*http.Response, time.Duration, error) {
	start := c.clock.Now()
	ctx, cancel := req.Context(), func() {}
	if c.policy.PerTryTimeout > 0 {
		ctx, cancel = c.clock.WithTimeout(req.Context(), c.policy.PerTryTimeout)
	}
	defer cancel()
	resp, err := c.next.RoundTrip(req.Clone(ctx))
	elapsed := c.clock.Now() - start
	if err != nil {
		return nil, elapsed, err
	}
	if c.policy.PerTryTimeout > 0 && elapsed > c.policy.PerTryTimeout {
		closeResp(resp)
		return nil, elapsed, fmt.Errorf("resilient: attempt took %s (deadline %s): %w",
			elapsed, c.policy.PerTryTimeout, ErrTryTimeout)
	}
	if !c.policy.DetectTruncation {
		return resp, elapsed, nil
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, elapsed, fmt.Errorf("resilient: read body of %s: %w", req.URL, rerr)
	}
	if resp.ContentLength >= 0 && int64(len(body)) != resp.ContentLength {
		c.count(func(s *Stats) { s.Truncations++ })
		return nil, elapsed, fmt.Errorf("resilient: %s: body %d bytes, Content-Length %d: %w",
			req.URL, len(body), resp.ContentLength, ErrTruncatedBody)
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, elapsed, nil
}

// backoffDelay returns the jittered exponential delay before the retry that
// follows the attempt-th attempt.
func (c *Client) backoffDelay(attempt int) time.Duration {
	d := c.policy.BackoffBase
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= c.policy.BackoffCap || d <= 0 {
			d = c.policy.BackoffCap
			break
		}
	}
	if d > c.policy.BackoffCap {
		d = c.policy.BackoffCap
	}
	if c.policy.Jitter > 0 {
		c.mu.Lock()
		rng := c.rng
		var f float64
		if rng != nil {
			f = rng.Float64()
		}
		c.mu.Unlock()
		d += time.Duration(float64(d) * c.policy.Jitter * f)
	}
	return d
}

// retryAfterDelay extracts an honored Retry-After wait from a 429/503
// response, capped by the policy. Only the delta-seconds form is honored;
// HTTP-dates would reintroduce the wall clock.
func retryAfterDelay(resp *http.Response, p Policy) (time.Duration, bool) {
	if !p.HonorRetryAfter || resp == nil {
		return 0, false
	}
	if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
		return 0, false
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0, false
	}
	d := time.Duration(secs) * time.Second
	if p.RetryAfterCap > 0 && d > p.RetryAfterCap {
		d = p.RetryAfterCap
	}
	return d, true
}

// closeResp drains nothing and closes the body of a response being
// discarded; nil-safe.
func closeResp(resp *http.Response) {
	if resp != nil && resp.Body != nil {
		resp.Body.Close()
	}
}

// Sleeper is the pacing interface the crawler accepts; the Clock satisfies
// it, so one virtual clock paces the whole stack.
type Sleeper interface {
	// Sleep pauses for d, returning early with the context's error.
	Sleep(ctx context.Context, d time.Duration) error
}
