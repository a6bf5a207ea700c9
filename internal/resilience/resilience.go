// Package resilience is the shared fleet-client substrate: the one
// implementation of "talk to a fleet of hydra serve members and keep
// working while some of them misbehave" that every remote consumer —
// scan.RemoteSource, serve.RemoteRunner, the remote:// sqldriver DSN —
// builds on, replacing their previously divergent rotation loops: every
// request any of them makes is one Tracker.Do call, which owns the pick
// → attempt → classify → backoff loop over three cooperating pieces.
//
//   - Tracker: per-member state (healthy / draining / open-breaker) kept
//     current by background GET /healthz probes, plus EWMAs of observed
//     stream latency and rows/s fed by the consumers — the signals a
//     throughput-weighted scheduler reads. Do picks the next usable
//     member in round-robin order, skipping draining members, members
//     whose breaker is open, and members the call already failed on.
//   - Breaker: a per-member circuit breaker. Consecutive failures open
//     it; after a cooldown one probe (a health probe or one admitted
//     request) re-closes it on success or re-opens it on failure.
//     While open, the member costs nothing: no connection attempts, no
//     timeouts, no retry-storm amplification.
//   - Policy: capped exponential backoff with full jitter and a shared
//     retry Budget. The jitter decorrelates clients that failed
//     together; the budget makes a fleet-wide outage fail fast (retries
//     are a bounded fraction of requests, not a multiplier on them). A
//     server-sent Retry-After is honored as a floor under the jittered
//     delay.
//
// Every state change lands in internal/obs: breaker transitions, probe
// outcomes, member-state counts, retries, budget exhaustion, and the
// per-member EWMA gauges — one metric namespace (hydra_fleet_*) for the
// whole client side of the fleet.
package resilience

import (
	"net/http"
	"time"

	"github.com/dsl-repro/hydra/internal/obs"
)

// Defaults for the zero Options value. They suit a LAN fleet serving
// streams that run seconds to minutes; tune via Options for anything
// unusual.
const (
	DefaultProbeInterval    = 1 * time.Second
	DefaultProbeTimeout     = 2 * time.Second
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 2 * time.Second
	DefaultRetryBase        = 100 * time.Millisecond
	DefaultRetryMax         = 5 * time.Second
	DefaultRetryBudget      = 0.2
	DefaultBudgetBurst      = 10
)

// Options tunes the whole substrate. The zero value means "defaults
// everywhere" — which is what the consumers pass unless the operator
// overrides something.
type Options struct {
	// ProbeInterval is how often each member's /healthz is probed in the
	// background. 0 means DefaultProbeInterval; negative disables
	// probing (member state then moves only on request outcomes).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (0 = DefaultProbeTimeout).
	ProbeTimeout time.Duration
	// BreakerThreshold is how many consecutive failures open a member's
	// breaker (0 = DefaultBreakerThreshold; negative disables the
	// breaker — every member always admits requests).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting
	// its half-open probe (0 = DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// RetryBase is the first retry's maximum backoff; each further retry
	// doubles it, capped at RetryMax, and the actual delay is drawn
	// uniformly from [0, cap] ("full jitter"). 0 means DefaultRetryBase.
	RetryBase time.Duration
	// RetryMax caps the backoff growth (0 = DefaultRetryMax).
	RetryMax time.Duration
	// RetryBudget is the sustained retries-per-request ratio the shared
	// budget allows (0 = DefaultRetryBudget; negative = unlimited
	// retries, no budget). The budget is what turns "every client
	// retries N times" into "the fleet as a whole absorbs a bounded
	// amount of retry traffic" during a full outage.
	RetryBudget float64
	// Client issues health probes; nil builds one with ProbeTimeout.
	Client *http.Client
	// Registry receives the substrate's metrics; nil means obs.Default.
	Registry *obs.Registry
}

// withDefaults resolves the zero fields.
func (o Options) withDefaults() Options {
	if o.ProbeInterval == 0 {
		o.ProbeInterval = DefaultProbeInterval
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = DefaultProbeTimeout
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = DefaultBreakerThreshold
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = DefaultBreakerCooldown
	}
	if o.RetryBase <= 0 {
		o.RetryBase = DefaultRetryBase
	}
	if o.RetryMax <= 0 {
		o.RetryMax = DefaultRetryMax
	}
	if o.Registry == nil {
		o.Registry = obs.Default
	}
	return o
}

// newBudget builds the shared retry budget the options describe (nil
// when budgets are disabled).
func (o Options) newBudget() *Budget {
	if o.RetryBudget < 0 {
		return nil
	}
	ratio := o.RetryBudget
	if ratio == 0 {
		ratio = DefaultRetryBudget
	}
	return NewBudget(ratio, DefaultBudgetBurst)
}
