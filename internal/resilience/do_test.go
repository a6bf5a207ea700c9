package resilience

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dsl-repro/hydra/internal/obs"
)

// doTracker builds a two-member tracker for driving Do by hand: no
// probes, near-zero backoff, and a threshold-1 breaker with an hour's
// cooldown, so "this member took a breaker hit" reads as MemberOpen.
func doTracker(opts Options) *Tracker {
	opts.ProbeInterval = -1
	opts.RetryBase, opts.RetryMax = time.Microsecond, time.Microsecond
	opts.BreakerCooldown = time.Hour
	opts.Registry = obs.NewRegistry()
	return NewTracker([]string{"http://a.invalid", "http://b.invalid"}, opts)
}

// TestDoNeverRepicksFailedMember pins the failover invariant: a call
// never returns to a member it already failed on while an untried one
// admits. 64 concurrent calls share one round-robin cursor over
// {always-fails, healthy} with Attempts 2, so any call whose second
// pick could land on the failing member again would give up with the
// healthy member idle — the shared-cursor bug behind the runner's stall
// test, minus the timeouts. Breakers are off so only the call's own
// memory can steer it, and the budget is off so 64 simultaneous retries
// are all admitted.
func TestDoNeverRepicksFailedMember(t *testing.T) {
	tr := doTracker(Options{BreakerThreshold: -1, RetryBudget: -1})
	p := tr.Policy("test", 2)
	bad := tr.Members()[0]
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- tr.Do(context.Background(), p, func(_ context.Context, m *Member) error {
				if m == bad {
					return errors.New("boom")
				}
				return nil
			})
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("call gave up with a healthy member untried: %v", err)
		}
	}
}

// TestDoOutcomes walks Do's classification: what each kind of answer
// costs the member (breaker), the call (attempts, busy waits, sleep),
// and what comes back.
func TestDoOutcomes(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name     string
		attempts int
		// prep runs before the call; it may pre-damage the fleet or swap
		// the policy.
		prep func(tr *Tracker, p *Policy)
		// try is the attempt; call counts from 1.
		try       func(call int, cancel context.CancelFunc) error
		wantCalls int
		wantOpen  int // members whose breaker took a hit
		wantErr   func(error) bool
		wantIn    string        // substring of the error text
		atLeast   time.Duration // the call must take this long…
		atMost    time.Duration // …and, when set, no longer
	}{
		{
			name: "failure: breaker hit, counted", attempts: 2,
			try:       func(int, context.CancelFunc) error { return boom },
			wantCalls: 2, wantOpen: 2,
			wantErr: func(err error) bool { return errors.Is(err, boom) },
			wantIn:  "exhausted after 2 attempts",
		},
		{
			name: "busy: floor honoured, no breaker hit, not counted", attempts: 1,
			try: func(call int, _ context.CancelFunc) error {
				if call == 1 {
					return &Busy{RetryAfter: 30 * time.Millisecond, msg: "answered 503"}
				}
				return nil
			},
			wantCalls: 2, atLeast: 30 * time.Millisecond,
			wantErr: func(err error) bool { return err == nil },
		},
		{
			name: "busy forever: gives up after maxBusyWaits", attempts: 1,
			try: func(int, context.CancelFunc) error {
				return &Busy{msg: "answered 503"}
			},
			wantCalls: maxBusyWaits + 1,
			wantErr:   func(err error) bool { return errors.As(err, new(*Busy)) },
			wantIn:    "exhausted",
		},
		{
			name: "permanent: immediate, no breaker hit", attempts: 3,
			try:       func(int, context.CancelFunc) error { return Permanent(boom) },
			wantCalls: 1,
			wantErr:   func(err error) bool { return IsPermanent(err) && errors.Is(err, boom) },
			wantIn:    ".invalid: boom",
		},
		{
			name: "cancelled: immediate, no breaker hit", attempts: 3,
			try: func(_ int, cancel context.CancelFunc) error {
				cancel()
				return boom
			},
			wantCalls: 1,
			wantErr:   func(err error) bool { return errors.Is(err, boom) },
		},
		{
			name: "all breakers open: ErrNoMembers counted as a failure", attempts: 2,
			prep: func(tr *Tracker, _ *Policy) {
				for _, m := range tr.Members() {
					m.ReportFailure()
				}
			},
			try:       func(int, context.CancelFunc) error { return nil },
			wantCalls: 0, wantOpen: 2,
			wantErr: func(err error) bool { return errors.Is(err, ErrNoMembers) },
			wantIn:  "exhausted after 2 attempts",
		},
		{
			name: "empty budget: no sleep", attempts: 5,
			prep: func(_ *Tracker, p *Policy) {
				p.Base, p.Max = time.Hour, time.Hour
				p.Rand = func(n int64) int64 { return n - 1 }
				p.Budget = NewBudget(0, 1)
				p.Budget.withdraw()
			},
			try:       func(int, context.CancelFunc) error { return boom },
			wantCalls: 1, wantOpen: 1, atMost: 5 * time.Second,
			wantErr: func(err error) bool { return errors.Is(err, boom) },
			wantIn:  "exhausted after 1 attempts",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := doTracker(Options{BreakerThreshold: 1})
			p := tr.Policy("test", tc.attempts)
			if tc.prep != nil {
				tc.prep(tr, &p)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			calls := 0
			start := time.Now()
			err := tr.Do(ctx, p, func(context.Context, *Member) error {
				calls++
				return tc.try(calls, cancel)
			})
			took := time.Since(start)
			if !tc.wantErr(err) || (err != nil && !strings.Contains(err.Error(), tc.wantIn)) {
				t.Errorf("err = %v (want text %q)", err, tc.wantIn)
			}
			if calls != tc.wantCalls {
				t.Errorf("try ran %d times, want %d", calls, tc.wantCalls)
			}
			open := 0
			for _, m := range tr.Members() {
				if m.State() == MemberOpen {
					open++
				}
			}
			if open != tc.wantOpen {
				t.Errorf("%d members took a breaker hit, want %d", open, tc.wantOpen)
			}
			if took < tc.atLeast || (tc.atMost > 0 && took > tc.atMost) {
				t.Errorf("call took %v, want within [%v, %v]", took, tc.atLeast, tc.atMost)
			}
		})
	}
}

// TestBusyRetryAfterEdgeCases: Retry-After is advisory input from the
// network; negative, huge, and malformed values must all collapse into
// the clamped [100ms, 30s] window rather than being trusted.
func TestBusyRetryAfterEdgeCases(t *testing.T) {
	mk := func(v string, set bool) *http.Response {
		h := http.Header{}
		if set {
			h.Set("Retry-After", v)
		}
		return &http.Response{Header: h}
	}
	cases := []struct {
		name string
		hdr  string
		set  bool
		want time.Duration
	}{
		{"absent", "", false, time.Second},
		{"empty", "", true, time.Second},
		{"zero floors", "0", true, 100 * time.Millisecond},
		{"normal", "3", true, 3 * time.Second},
		{"negative means default", "-5", true, time.Second},
		{"huge clamps", "86400", true, 30 * time.Second},
		{"overflow clamps", "99999999999999999999", true, time.Second},
		{"malformed word", "soon", true, time.Second},
		{"http-date form falls back", "Fri, 08 Aug 2026 00:00:00 GMT", true, time.Second},
		{"fractional falls back", "1.5", true, time.Second},
	}
	for _, tc := range cases {
		if got := busyRetryAfter(mk(tc.hdr, tc.set)); got != tc.want {
			t.Errorf("%s: busyRetryAfter(%q) = %v, want %v", tc.name, tc.hdr, got, tc.want)
		}
	}
}
