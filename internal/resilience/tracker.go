package resilience

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsl-repro/hydra/internal/obs"
)

// ErrNoMembers is returned (wrapped) by Do when its picks found no
// usable fleet member: every breaker is open and still cooling down.
// Failing fast here — instead of dialing members known to be down — is
// the breaker's whole point during a fleet-wide outage.
var ErrNoMembers = errors.New("resilience: no fleet member available (all breakers open)")

// ewmaAlpha weights each new observation into the member EWMAs; ~0.3
// makes the EWMA settle within a handful of streams without tracking
// every wobble.
const ewmaAlpha = 0.3

// MemberState is a fleet member's position as the tracker sees it.
type MemberState int

const (
	// MemberHealthy members take new streams.
	MemberHealthy MemberState = iota
	// MemberDraining members answered /healthz with status "draining":
	// they finish in-flight streams but refuse new ones, so pick skips
	// them (using one as a last resort only when nothing else admits).
	MemberDraining
	// MemberOpen members have an open (or probing half-open) breaker.
	MemberOpen
)

// String implements fmt.Stringer (and the metric label values).
func (s MemberState) String() string {
	switch s {
	case MemberDraining:
		return "draining"
	case MemberOpen:
		return "open"
	default:
		return "healthy"
	}
}

// Member is one fleet member's tracked state: its breaker, its drain
// flag, and EWMAs of what the consumers observed talking to it.
type Member struct {
	// URL is the member's base URL ("http://host:port").
	URL string

	breaker  *Breaker
	draining atomic.Bool

	mu       sync.Mutex
	latEWMA  float64 // seconds; 0 = no observation yet
	rateEWMA float64 // rows per second
	latG     *obs.FloatGauge
	rateG    *obs.FloatGauge
}

// State returns the member's current position. Draining wins over an
// open breaker: a draining member is leaving deliberately.
func (m *Member) State() MemberState {
	if m.draining.Load() {
		return MemberDraining
	}
	if m.breaker.State() != BreakerClosed {
		return MemberOpen
	}
	return MemberHealthy
}

// Draining reports whether the member's last probe said "draining".
func (m *Member) Draining() bool { return m.draining.Load() }

// ReportSuccess records a request that worked: it closes the breaker
// and, when the consumer measured them, feeds the latency (time to
// first byte or whole-call wall time) and rows/s EWMAs the future
// fleet scheduler reads. Zero-valued measurements are skipped.
func (m *Member) ReportSuccess(latency time.Duration, rowsPerSec float64) {
	m.breaker.Success()
	m.mu.Lock()
	if latency > 0 {
		m.latEWMA = blend(m.latEWMA, latency.Seconds())
		m.latG.Set(m.latEWMA)
	}
	if rowsPerSec > 0 {
		m.rateEWMA = blend(m.rateEWMA, rowsPerSec)
		m.rateG.Set(m.rateEWMA)
	}
	m.mu.Unlock()
}

// ReportFailure records a failed request. Capacity 503s must NOT be
// reported here — a busy member is healthy.
func (m *Member) ReportFailure() { m.breaker.Failure() }

// LatencyEWMA returns the member's smoothed observed latency in
// seconds (0 until the first observation).
func (m *Member) LatencyEWMA() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.latEWMA
}

// RateEWMA returns the member's smoothed observed rows/s (0 until the
// first observation).
func (m *Member) RateEWMA() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rateEWMA
}

func blend(cur, x float64) float64 {
	if cur == 0 {
		return x
	}
	return cur + ewmaAlpha*(x-cur)
}

// trackerMetrics are the substrate's instruments, resolved once.
type trackerMetrics struct {
	transOpen, transHalf, transClosed   *obs.Counter
	probeOK, probeDraining, probeFailed *obs.Counter
	stHealthy, stDraining, stOpen       *obs.Gauge
	pickNone                            *obs.Counter
}

func newTrackerMetrics(reg *obs.Registry) trackerMetrics {
	trans := func(to string) *obs.Counter {
		return reg.Counter("hydra_fleet_breaker_transitions_total",
			"circuit breaker state transitions, by destination state", obs.L("to", to))
	}
	probe := func(result string) *obs.Counter {
		return reg.Counter("hydra_fleet_probes_total",
			"background health probe outcomes", obs.L("result", result))
	}
	st := func(state string) *obs.Gauge {
		return reg.Gauge("hydra_fleet_members",
			"fleet members by tracked state", obs.L("state", state))
	}
	return trackerMetrics{
		transOpen: trans("open"), transHalf: trans("half_open"), transClosed: trans("closed"),
		probeOK: probe("ok"), probeDraining: probe("draining"), probeFailed: probe("failed"),
		stHealthy: st("healthy"), stDraining: st("draining"), stOpen: st("open"),
		pickNone: reg.Counter("hydra_fleet_pick_unavailable_total",
			"member selections that found every breaker open"),
	}
}

// Tracker watches a fixed fleet of members. Construct with NewTracker,
// start the background probes with Start, stop them with Close.
type Tracker struct {
	members []*Member
	opts    Options
	client  *http.Client
	next    atomic.Uint64
	m       trackerMetrics
	budget  *Budget

	cancel context.CancelFunc
	done   chan struct{}
}

// Fleet is the part of a fleet client every consumer shares; embedding
// it gives the consumer Servers, Tracker and Close over one started
// tracker.
type Fleet struct{ t *Tracker }

// Connect validates and normalizes the fleet's base URLs
// (e.g. "http://10.0.0.7:8372"), builds their tracker and starts its
// probes.
func Connect(servers []string, opts Options) (Fleet, error) {
	if len(servers) == 0 {
		return Fleet{}, errors.New("resilience: a fleet needs at least one server URL")
	}
	clean := make([]string, len(servers))
	for i, raw := range servers {
		u, err := url.Parse(strings.TrimSpace(raw))
		if err == nil && ((u.Scheme != "http" && u.Scheme != "https") || u.Host == "") {
			err = errors.New("want http(s)://host[:port]")
		}
		if err != nil {
			return Fleet{}, fmt.Errorf("resilience: server URL %q: %w", raw, err)
		}
		clean[i] = strings.TrimRight(u.String(), "/")
	}
	t := NewTracker(clean, opts)
	t.Start()
	return Fleet{t}, nil
}

// Servers returns the fleet's base URLs.
func (f Fleet) Servers() []string {
	urls := make([]string, len(f.t.members))
	for i, m := range f.t.members {
		urls[i] = m.URL
	}
	return urls
}

// Tracker exposes the fleet tracker (member states, EWMAs) for
// consumers that schedule over it.
func (f Fleet) Tracker() *Tracker { return f.t }

// Close stops the background health probes. The consumer stays usable
// afterwards; member state then moves only on request outcomes.
func (f Fleet) Close() error {
	f.t.Close()
	return nil
}

// NewTracker builds a tracker over the fleet's base URLs, taken as
// given (Connect validates them). Probing does not start until Start.
func NewTracker(urls []string, opts Options) *Tracker {
	opts = opts.withDefaults()
	t := &Tracker{
		opts:   opts,
		m:      newTrackerMetrics(opts.Registry),
		budget: opts.newBudget(),
	}
	onChange := func(to BreakerState) {
		switch to {
		case BreakerOpen:
			t.m.transOpen.Inc()
		case BreakerHalfOpen:
			t.m.transHalf.Inc()
		default:
			t.m.transClosed.Inc()
		}
		t.updateStateGauges()
	}
	for _, u := range urls {
		m := &Member{
			URL:     u,
			breaker: NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown, onChange),
			latG: opts.Registry.FloatGauge("hydra_fleet_member_latency_ewma_seconds",
				"EWMA of observed stream latency per fleet member", obs.L("member", u)),
			rateG: opts.Registry.FloatGauge("hydra_fleet_member_rows_per_sec_ewma",
				"EWMA of observed stream rows/s per fleet member", obs.L("member", u)),
		}
		t.members = append(t.members, m)
	}
	t.client = opts.Client
	if t.client == nil {
		t.client = &http.Client{Timeout: opts.ProbeTimeout}
	}
	t.updateStateGauges()
	return t
}

// Policy returns the retry policy for one consumer layer ("scan",
// "runner"), wired to the tracker's shared budget; attempts is the
// consumer's cap on failures per call (Policy.MaxAttempts).
func (t *Tracker) Policy(layer string, attempts int) Policy {
	return Policy{
		Base:        t.opts.RetryBase,
		Max:         t.opts.RetryMax,
		MaxAttempts: attempts,
		Budget:      t.budget,
		m:           policyMetrics(t.opts.Registry, layer),
	}
}

// Members returns the tracked members in fleet order.
func (t *Tracker) Members() []*Member { return t.members }

// Size returns the fleet size.
func (t *Tracker) Size() int { return len(t.members) }

// pick returns the next usable member for one Do call, in round-robin
// order: healthy members first, then — only when no healthy member's
// breaker admits — draining members (they answer new streams with 503 +
// Retry-After, which Do already honors, so they are a safe last resort).
// Members in tried — those the call already got an error from — are
// passed over while any other admits. When none does the call starts a
// new lap (tried is cleared), which is what lets a one-member busy fleet
// wait and try again. nil means every member's breaker refused: fail
// fast, the fleet is down and the probes will notice recovery.
func (t *Tracker) pick(tried map[*Member]bool) *Member {
	n := len(t.members)
	start := int(t.next.Add(1) - 1)
	for {
		var fallback *Member
		for i := 0; i < n; i++ {
			m := t.members[(start+i)%n]
			if tried[m] {
				continue
			}
			if m.Draining() {
				if fallback == nil && m.breaker.State() == BreakerClosed {
					fallback = m
				}
				continue
			}
			if m.breaker.Allow() {
				return m
			}
		}
		// No healthy member admitted; try draining members' breakers for
		// real (consuming half-open slots only now, not during pass 1).
		if fallback != nil && fallback.breaker.Allow() {
			return fallback
		}
		if len(tried) == 0 {
			t.m.pickNone.Inc()
			return nil
		}
		clear(tried)
	}
}

// Start launches the background probe loop (a no-op when probing is
// disabled or already started).
func (t *Tracker) Start() {
	if t.opts.ProbeInterval < 0 || t.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.cancel = cancel
	t.done = make(chan struct{})
	go t.probeLoop(ctx)
}

// Close stops the probe loop and waits for it to exit.
func (t *Tracker) Close() {
	if t.cancel == nil {
		return
	}
	t.cancel()
	<-t.done
	t.cancel = nil
}

func (t *Tracker) probeLoop(ctx context.Context) {
	defer close(t.done)
	tick := time.NewTicker(t.opts.ProbeInterval)
	defer tick.Stop()
	t.probeAll(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			t.probeAll(ctx)
		}
	}
}

// probeAll probes every member concurrently, so one black-holed member
// cannot stretch the sweep past the probe timeout.
func (t *Tracker) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, m := range t.members {
		wg.Add(1)
		go func(m *Member) {
			defer wg.Done()
			t.probe(ctx, m)
		}(m)
	}
	wg.Wait()
	t.updateStateGauges()
}

// probe issues one GET /healthz and folds the outcome into the member:
// drain flag from the reported status, breaker via ProbeSuccess (which
// respects an open breaker's cooldown) or Failure.
func (t *Tracker) probe(ctx context.Context, m *Member) {
	pctx, cancel := context.WithTimeout(ctx, t.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, m.URL+"/healthz", nil)
	if err != nil {
		t.m.probeFailed.Inc()
		m.breaker.Failure()
		return
	}
	resp, err := t.client.Do(req)
	if err != nil {
		t.m.probeFailed.Inc()
		m.breaker.Failure()
		return
	}
	defer resp.Body.Close()
	var doc struct {
		Status string `json:"status"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&doc) != nil {
		t.m.probeFailed.Inc()
		m.breaker.Failure()
		return
	}
	if doc.Status == "draining" {
		t.m.probeDraining.Inc()
		m.draining.Store(true)
	} else {
		t.m.probeOK.Inc()
		m.draining.Store(false)
	}
	m.breaker.ProbeSuccess()
}

func (t *Tracker) updateStateGauges() {
	var healthy, draining, open int64
	for _, m := range t.members {
		switch m.State() {
		case MemberDraining:
			draining++
		case MemberOpen:
			open++
		default:
			healthy++
		}
	}
	t.m.stHealthy.Set(healthy)
	t.m.stDraining.Set(draining)
	t.m.stOpen.Set(open)
}
