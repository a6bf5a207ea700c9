package resilience

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"github.com/dsl-repro/hydra/internal/obs"
	"github.com/dsl-repro/hydra/internal/trace"
)

// Policy is one request's retry discipline: capped exponential backoff
// with full jitter, a per-request attempt cap, and an optional shared
// Budget that bounds the fleet-wide retry amplification. Policies are
// values; copy freely.
type Policy struct {
	// Base is the first retry's maximum backoff; retry k draws its delay
	// uniformly from [0, min(Max, Base<<k)] — AWS-style "full jitter",
	// which decorrelates a thundering herd that failed together.
	Base time.Duration
	// Max caps the backoff growth.
	Max time.Duration
	// MaxAttempts bounds tries, the first included (<= 1 means no
	// retries); under Do it bounds failures, busy waits being extra.
	MaxAttempts int
	// Budget, when set, must admit every retry; an exhausted budget
	// fails the request immediately instead of sleeping out a backoff
	// that cannot help a fleet-wide outage.
	Budget *Budget
	// Rand is the jitter source, a test seam; nil means math/rand's
	// goroutine-safe global.
	Rand func(n int64) int64

	m *policyMetricSet
}

// policyMetricSet carries the per-layer retry counters, resolved once.
type policyMetricSet struct {
	retries   *obs.Counter
	exhausted *obs.Counter
}

func policyMetrics(reg *obs.Registry, layer string) *policyMetricSet {
	l := obs.L("layer", layer)
	return &policyMetricSet{
		retries: reg.Counter("hydra_fleet_retries_total",
			"request retries issued by the resilience policy, by consumer layer", l),
		exhausted: reg.Counter("hydra_fleet_retry_budget_exhausted_total",
			"retries refused because the shared retry budget was empty, by consumer layer", l),
	}
}

// Delay returns the jittered backoff before retry k (1-based: the delay
// between the first failure and the second attempt is Delay(1)).
func (p Policy) Delay(k int) time.Duration {
	if k < 1 {
		k = 1
	}
	ceil := p.Base
	if ceil <= 0 {
		ceil = DefaultRetryBase
	}
	max := p.Max
	if max <= 0 {
		max = DefaultRetryMax
	}
	for i := 1; i < k && ceil < max; i++ {
		ceil *= 2
	}
	if ceil > max {
		ceil = max
	}
	r := p.Rand
	if r == nil {
		r = rand.Int63n
	}
	return time.Duration(r(int64(ceil) + 1))
}

// Begin starts one request's attempt sequence, depositing into the
// shared budget (a completed request earns the fleet a fraction of a
// retry token — the mechanism that makes the budget a ratio).
func (p Policy) Begin() *Attempt {
	if p.Budget != nil {
		p.Budget.deposit()
	}
	return &Attempt{p: p}
}

// Attempt tracks one request's tries. Not safe for concurrent use; a
// request is sequential by nature.
type Attempt struct {
	p       Policy
	retries int
}

// Retries returns how many retries have been taken so far.
func (a *Attempt) Retries() int { return a.retries }

// Next decides whether the request may retry after a failure, and if so
// sleeps out the jittered backoff first. floor is a server-sent
// Retry-After hint (0 = none): the delay never undercuts it, even past
// the policy cap — the server knows its own saturation better than the
// client's backoff curve does. Next returns false when the attempt cap
// is reached, the shared budget is exhausted, or ctx ends (sleeping the
// rest of the backoff is then skipped).
func (a *Attempt) Next(ctx context.Context, floor time.Duration) bool {
	max := a.p.MaxAttempts
	if max <= 1 {
		return false
	}
	if a.retries+1 >= max {
		return false
	}
	if a.p.Budget != nil && !a.p.Budget.withdraw() {
		if a.p.m != nil {
			a.p.m.exhausted.Inc()
		}
		trace.FromContext(ctx).Event("retry-budget-exhausted")
		return false
	}
	a.retries++
	if a.p.m != nil {
		a.p.m.retries.Inc()
	}
	d := a.p.Delay(a.retries)
	if d < floor {
		d = floor
	}
	// Every retrying fleet consumer funnels through here, so one event
	// site puts backoff waits on whatever span the caller is under.
	trace.FromContext(ctx).Event("retry-backoff",
		trace.Dur("wait", d), trace.Int("retry", int64(a.retries)))
	return Sleep(ctx, d) == nil
}

// Sleep blocks for d or until ctx ends, returning ctx's error in the
// latter case. d <= 0 returns immediately.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Budget is a shared retry budget (Finagle-style token bucket): every
// request deposits ratio tokens, every retry withdraws one. Under
// normal operation the bucket sits full and retries are free; in a
// fleet-wide outage the bucket drains in O(burst) requests and further
// retries fail fast — the property that keeps N clients' retries from
// multiplying a fleet's recovery load by MaxAttempts.
type Budget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	ratio  float64
}

// NewBudget builds a budget allowing a sustained retries-per-request
// ratio with a burst-sized reserve (the bucket starts full, so the
// first failures of a healthy fleet always get their retries).
func NewBudget(ratio float64, burst int) *Budget {
	if burst < 1 {
		burst = 1
	}
	if ratio < 0 {
		ratio = 0
	}
	return &Budget{tokens: float64(burst), max: float64(burst), ratio: ratio}
}

func (b *Budget) deposit() {
	b.mu.Lock()
	if b.tokens += b.ratio; b.tokens > b.max {
		b.tokens = b.max
	}
	b.mu.Unlock()
}

func (b *Budget) withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
