package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/dsl-repro/hydra/internal/trace"
)

// maxBusyWaits bounds how many 503 capacity answers one call waits out
// before treating saturation as failure.
const maxBusyWaits = 8

// Do runs one request against the fleet: the one pick → attempt →
// classify → backoff loop every consumer shares. try talks to the member
// it is handed, and what it returns decides what happens next:
//
//   - nil ends the call, closes the member's breaker and feeds the
//     attempt's wall time to its latency EWMA.
//   - With ctx done, or marked Permanent, the error is returned at once
//     and costs no breaker hit: no other member would do better.
//   - A *Busy (503) is a healthy member at capacity: no breaker hit, not
//     counted against p.MaxAttempts; its RetryAfter floors the next
//     backoff, and at most maxBusyWaits of them are waited out.
//   - Anything else is a failure: a breaker hit, counted against
//     p.MaxAttempts — as is a pick that finds every breaker open.
//
// What the call has been through lives in the call, only breaker and
// EWMAs on the Member: picks follow the cursor all calls share, but a
// member this call already got an error from is passed over while any
// other admits. The events (failover, busy, no-member, retry-backoff)
// land on ctx's span.
func (t *Tracker) Do(ctx context.Context, p Policy, try func(context.Context, *Member) error) error {
	sp := trace.FromContext(ctx)
	attempts := max(p.MaxAttempts, 1)
	// Next caps tries of both kinds together; fails and busy bound each.
	p.MaxAttempts = attempts + maxBusyWaits
	a := p.Begin()
	var tried map[*Member]bool
	for fails, busy := 0, 0; ; {
		m, err := t.pick(tried), ErrNoMembers
		if m != nil {
			t0 := time.Now()
			if err = try(ctx, m); err == nil {
				m.ReportSuccess(time.Since(t0), 0)
				return nil
			}
			err = fmt.Errorf("%s: %w", m.URL, err)
			if ctx.Err() != nil || IsPermanent(err) {
				return err
			}
			if tried == nil {
				tried = make(map[*Member]bool, len(t.members))
			}
			tried[m] = true
		}
		var floor time.Duration
		var wait *Busy
		switch {
		case m == nil:
			sp.Event("no-member")
			fails++
		case errors.As(err, &wait):
			floor = wait.RetryAfter
			sp.Event("busy", trace.Str("member", m.URL), trace.Dur("retry_after", floor))
			busy++
		default:
			m.ReportFailure()
			sp.Event("failover", trace.Str("member", m.URL), trace.Str("error", err.Error()))
			fails++
		}
		if fails >= attempts || busy > maxBusyWaits || !a.Next(ctx, floor) {
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("%w, last: %v", cerr, err)
			}
			return fmt.Errorf("resilience: fleet exhausted after %d attempts, last: %w", fails+busy, err)
		}
	}
}

// Permanent marks err as one every member would answer alike — the
// request itself is wrong — so Do returns it instead of failing over.
func Permanent(err error) error { return &permanentError{err} }

type permanentError struct{ error }

func (e *permanentError) Unwrap() error { return e.error }

// IsPermanent reports whether err carries the Permanent mark.
func IsPermanent(err error) bool { return errors.As(err, new(*permanentError)) }

// Busy is a member's 503: healthy, but at capacity or draining, and
// asking the caller back after RetryAfter.
type Busy struct {
	RetryAfter time.Duration
	msg        string
}

func (e *Busy) Error() string { return e.msg }

// errorBodyLimit bounds how much of an error response is read back.
const errorBodyLimit = 4 << 10

// StatusError turns a member's non-200 answer into the error Do
// classifies: 503 is *Busy, 400 and 404 are Permanent, the rest plain
// failures. Closing the body stays with the caller.
func StatusError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, errorBodyLimit))
	err := fmt.Errorf("answered %s: %s", resp.Status, strings.TrimSpace(string(body)))
	switch resp.StatusCode {
	case http.StatusBadRequest, http.StatusNotFound:
		return Permanent(err)
	case http.StatusServiceUnavailable:
		return &Busy{RetryAfter: busyRetryAfter(resp), msg: err.Error()}
	}
	return err
}

// busyRetryAfter parses a 503's Retry-After seconds, clamped to
// [100ms, 30s]; absent or malformed values mean 1s.
func busyRetryAfter(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return time.Second
	}
	return min(max(time.Duration(secs)*time.Second, 100*time.Millisecond), 30*time.Second)
}
