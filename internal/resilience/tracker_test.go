package resilience

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsl-repro/hydra/internal/obs"
)

// healthServer is a fake fleet member: its /healthz answer is switchable
// between ok, draining, and down.
type healthServer struct {
	ts    *httptest.Server
	state atomic.Value // "ok" | "draining" | "down"
}

func newHealthServer(t *testing.T) *healthServer {
	t.Helper()
	hs := &healthServer{}
	hs.state.Store("ok")
	hs.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		switch hs.state.Load().(string) {
		case "down":
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		case "draining":
			fmt.Fprintf(w, `{"status": "draining"}`)
		default:
			fmt.Fprintf(w, `{"status": "ok"}`)
		}
	}))
	t.Cleanup(hs.ts.Close)
	return hs
}

func testOptions(interval time.Duration) Options {
	return Options{
		ProbeInterval:    interval,
		ProbeTimeout:     500 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  200 * time.Millisecond,
		Registry:         obs.NewRegistry(),
	}
}

// waitFor polls cond for up to 3s — probe loops are asynchronous.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestTrackerDetectsDrainWithinOneProbeInterval(t *testing.T) {
	a, b := newHealthServer(t), newHealthServer(t)
	tr := NewTracker([]string{a.ts.URL, b.ts.URL}, testOptions(50*time.Millisecond))
	tr.Start()
	defer tr.Close()

	waitFor(t, "both members healthy", func() bool {
		for _, m := range tr.Members() {
			if m.State() != MemberHealthy {
				return false
			}
		}
		return true
	})

	a.state.Store("draining")
	waitFor(t, "member A marked draining", func() bool {
		return tr.Members()[0].State() == MemberDraining
	})

	// pick must now return only B.
	for i := 0; i < 10; i++ {
		m := tr.pick(nil)
		if m == nil || m.URL != b.ts.URL {
			t.Fatalf("pick returned %v, want the non-draining member", m)
		}
	}

	// Drain is reversible: the member comes back.
	a.state.Store("ok")
	waitFor(t, "member A healthy again", func() bool {
		return tr.Members()[0].State() == MemberHealthy
	})
}

func TestTrackerProbesOpenBreakerOnDeadMember(t *testing.T) {
	a, b := newHealthServer(t), newHealthServer(t)
	a.state.Store("down")
	tr := NewTracker([]string{a.ts.URL, b.ts.URL}, testOptions(30*time.Millisecond))
	tr.Start()
	defer tr.Close()

	// Threshold 2: two failed probes open A's breaker without any
	// client traffic ever touching the dead member.
	waitFor(t, "dead member's breaker open", func() bool {
		return tr.Members()[0].State() == MemberOpen
	})
	for i := 0; i < 10; i++ {
		if m := tr.pick(nil); m == nil || m.URL != b.ts.URL {
			t.Fatalf("pick returned %v, want the healthy member", m)
		}
	}

	// Recovery: probes re-admit the member after the cooldown.
	a.state.Store("ok")
	waitFor(t, "recovered member re-admitted", func() bool {
		return tr.Members()[0].State() == MemberHealthy
	})
}

func TestPickFailsFastWhenAllOpen(t *testing.T) {
	// No probing: state moves on reported outcomes only.
	tr := NewTracker([]string{"http://a.invalid", "http://b.invalid"}, Options{
		ProbeInterval:    -1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		Registry:         obs.NewRegistry(),
	})
	for _, m := range tr.Members() {
		m.ReportFailure()
	}
	if m := tr.pick(nil); m != nil {
		t.Fatalf("pick = %v, want nil when every breaker is open", m)
	}
}

func TestPickFallsBackToDrainingMember(t *testing.T) {
	tr := NewTracker([]string{"http://a.invalid", "http://b.invalid"}, Options{
		ProbeInterval:    -1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		Registry:         obs.NewRegistry(),
	})
	ms := tr.Members()
	ms[0].ReportFailure()      // A: breaker open
	ms[1].draining.Store(true) // B: draining but alive
	m := tr.pick(nil)
	if m == nil || m.URL != "http://b.invalid" {
		t.Fatalf("pick = %v, want the draining member as last resort", m)
	}
}

func TestMemberEWMA(t *testing.T) {
	tr := NewTracker([]string{"http://a.invalid"}, Options{
		ProbeInterval: -1, Registry: obs.NewRegistry(),
	})
	m := tr.Members()[0]
	m.ReportSuccess(100*time.Millisecond, 1000)
	if got := m.LatencyEWMA(); got != 0.1 {
		t.Fatalf("first latency observation = %v, want 0.1", got)
	}
	m.ReportSuccess(200*time.Millisecond, 2000)
	if got := m.LatencyEWMA(); got <= 0.1 || got >= 0.2 {
		t.Fatalf("EWMA after 0.1, 0.2 = %v, want strictly between", got)
	}
	if got := m.RateEWMA(); got <= 1000 || got >= 2000 {
		t.Fatalf("rate EWMA = %v, want strictly between 1000 and 2000", got)
	}
}

func TestTrackerMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	opts := testOptions(30 * time.Millisecond)
	opts.Registry = reg
	a := newHealthServer(t)
	a.state.Store("down")
	tr := NewTracker([]string{a.ts.URL}, opts)
	tr.Start()
	defer tr.Close()
	waitFor(t, "breaker open", func() bool { return tr.Members()[0].State() == MemberOpen })

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`hydra_fleet_breaker_transitions_total{to="open"} `,
		`hydra_fleet_probes_total{result="failed"} `,
		`hydra_fleet_members{state="open"} 1`,
		`hydra_fleet_member_latency_ewma_seconds{member="` + a.ts.URL + `"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
