// Package faultinject is a deterministic chaos proxy for fleet tests:
// an http.Handler that forwards to one upstream `hydra serve` member
// and injects composable faults on the way through — connection
// refusal, canned error statuses (500/503 + Retry-After), mid-stream
// cuts, stalls, and byte corruption. Which request draws which fault
// is decided by a Decider, a pure function of the request index (and
// optionally the request itself), so a seeded chaos run injects the
// same fault sequence every time even though request interleaving
// varies.
//
// The proxy exists to prove the resilience layer: a fleet client
// pointed at a faulted member must absorb every injected failure —
// failing over, resuming streams at their row offset, honoring
// Retry-After — with zero client-visible errors and byte-identical
// output. The conformance chaos test and the CI chaos job both drive
// it; `hydra faultproxy` exposes the same proxy as a standalone
// process for manual fleet torture.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"github.com/dsl-repro/hydra/internal/obs"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// KindNone forwards the request untouched.
	KindNone Kind = iota
	// KindRefuse closes the TCP connection without an HTTP response —
	// what a crashed or unreachable member looks like to a client.
	KindRefuse
	// KindStatus answers a canned error status (Fault.Status, default
	// 500) without contacting the upstream; Fault.RetryAfter, when set,
	// is sent as the Retry-After header — the shape of a 503 capacity
	// burst.
	KindStatus
	// KindCut forwards the response but severs the connection after
	// Fault.AfterBytes body bytes — a mid-stream death the client must
	// resume at its row offset.
	KindCut
	// KindStall forwards Fault.AfterBytes body bytes, then goes silent
	// for Fault.StallFor before severing — a hung member that holds a
	// stream open without progress.
	KindStall
	// KindCorrupt forwards the response with every bit of the body byte
	// at offset Fault.AfterBytes inverted — torn data the client's
	// decoder must detect rather than deliver.
	KindCorrupt
)

// String implements fmt.Stringer (and the metric label values).
func (k Kind) String() string {
	switch k {
	case KindRefuse:
		return "refuse"
	case KindStatus:
		return "status"
	case KindCut:
		return "cut"
	case KindStall:
		return "stall"
	case KindCorrupt:
		return "corrupt"
	default:
		return "none"
	}
}

// Fault is one injected failure: a kind plus its parameters.
type Fault struct {
	Kind Kind
	// Status is the canned response code for KindStatus (0 = 500).
	Status int
	// RetryAfter, when non-empty, is sent as the Retry-After header
	// with a KindStatus response.
	RetryAfter string
	// AfterBytes positions KindCut/KindStall/KindCorrupt within the
	// response body.
	AfterBytes int64
	// StallFor is KindStall's silent period before the sever.
	StallFor time.Duration
}

// Decider picks the fault for request n (1-based, counted across all
// paths — health probes included, so a "down" window takes the member
// out for probes and streams alike). Deciders must be safe for
// concurrent use; the provided constructors are pure functions of
// (seed, n) and therefore trivially safe.
type Decider func(n int64, r *http.Request) Fault

// Healthy returns a Decider that never injects.
func Healthy() Decider {
	return func(int64, *http.Request) Fault { return Fault{} }
}

// Always returns a Decider that injects f on every request.
func Always(f Fault) Decider {
	return func(int64, *http.Request) Fault { return f }
}

// Flaky returns a Decider that injects one of faults with probability
// p per request, drawn deterministically from (seed, n): the same seed
// replays the same fault sequence regardless of timing.
func Flaky(seed int64, p float64, faults ...Fault) Decider {
	return func(n int64, _ *http.Request) Fault {
		if len(faults) == 0 {
			return Fault{}
		}
		rng := rand.New(rand.NewSource(seed ^ (n * 0x5851F42D4C957F2D)))
		if rng.Float64() >= p {
			return Fault{}
		}
		return faults[rng.Intn(len(faults))]
	}
}

// Flap returns a Decider that injects f for the first faultyFor of
// every period requests — a member that goes down, comes back, and
// goes down again, keyed to request count so the flap is deterministic
// under a fixed workload.
func Flap(period, faultyFor int64, f Fault) Decider {
	if period < 1 {
		period = 1
	}
	return func(n int64, _ *http.Request) Fault {
		if (n-1)%period < faultyFor {
			return f
		}
		return Fault{}
	}
}

// ExemptHealth wraps a Decider so /healthz probes always pass through
// clean — a member whose data plane misbehaves while its health check
// lies, the hardest case for a breaker-only client.
func ExemptHealth(d Decider) Decider {
	return func(n int64, r *http.Request) Fault {
		if r != nil && r.URL.Path == "/healthz" {
			return Fault{}
		}
		return d(n, r)
	}
}

// injected counts injections by fault kind.
var injected = func() map[Kind]*obs.Counter {
	m := make(map[Kind]*obs.Counter)
	for _, k := range []Kind{KindNone, KindRefuse, KindStatus, KindCut, KindStall, KindCorrupt} {
		m[k] = obs.Default.Counter("hydra_faultinject_injected_total",
			"faults injected by the chaos proxy, by kind", obs.L("kind", k.String()))
	}
	return m
}()

// ctxKey carries the chosen Fault from ServeHTTP to ModifyResponse.
type ctxKey struct{}

// Proxy is the chaos proxy: an http.Handler forwarding to one
// upstream with faults injected per the Decider.
type Proxy struct {
	upstream *url.URL
	decide   Decider
	rp       *httputil.ReverseProxy
	n        atomic.Int64
}

// New builds a Proxy for the upstream base URL. A nil decide means
// Healthy (pure pass-through).
func New(upstream string, decide Decider) (*Proxy, error) {
	u, err := url.Parse(strings.TrimRight(upstream, "/"))
	if err != nil {
		return nil, fmt.Errorf("faultinject: upstream URL %q: %w", upstream, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("faultinject: upstream URL %q: want http(s)://host[:port]", upstream)
	}
	if decide == nil {
		decide = Healthy()
	}
	p := &Proxy{upstream: u, decide: decide}
	p.rp = &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) { pr.SetURL(u) },
		// Streams must flush chunk by chunk, exactly as serve wrote them;
		// buffering would change where a cut lands.
		FlushInterval: -1,
		ModifyResponse: func(resp *http.Response) error {
			f, _ := resp.Request.Context().Value(ctxKey{}).(Fault)
			switch f.Kind {
			case KindCut:
				resp.Body = &cutReader{rc: resp.Body, left: f.AfterBytes}
			case KindStall:
				resp.Body = &stallReader{
					rc: resp.Body, left: f.AfterBytes,
					wait: f.StallFor, ctx: resp.Request.Context(),
				}
			case KindCorrupt:
				resp.Body = &corruptReader{rc: resp.Body, at: f.AfterBytes}
			}
			return nil
		},
		// Upstream dial errors and injected severs are the point of the
		// exercise; keep them off the test log.
		ErrorLog: log.New(io.Discard, "", 0),
	}
	return p, nil
}

// Requests returns how many requests the proxy has seen.
func (p *Proxy) Requests() int64 { return p.n.Load() }

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f := p.decide(p.n.Add(1), r)
	injected[f.Kind].Inc()
	switch f.Kind {
	case KindRefuse:
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		panic(http.ErrAbortHandler)
	case KindStatus:
		status := f.Status
		if status == 0 {
			status = http.StatusInternalServerError
		}
		if f.RetryAfter != "" {
			w.Header().Set("Retry-After", f.RetryAfter)
		}
		http.Error(w, "faultinject: injected "+http.StatusText(status), status)
		return
	}
	// ReverseProxy severs the connection (panic ErrAbortHandler) when a
	// wrapped body errors mid-copy — exactly the torn stream we want the
	// client to see.
	p.rp.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKey{}, f)))
}

// errInjected is what the fault readers fail with; ReverseProxy turns
// it into a severed connection.
var errInjected = errors.New("faultinject: injected stream death")

// cutReader delivers left bytes, then dies.
type cutReader struct {
	rc   io.ReadCloser
	left int64
}

func (c *cutReader) Read(p []byte) (int, error) {
	if c.left <= 0 {
		return 0, errInjected
	}
	if int64(len(p)) > c.left {
		p = p[:c.left]
	}
	n, err := c.rc.Read(p)
	c.left -= int64(n)
	return n, err
}

func (c *cutReader) Close() error { return c.rc.Close() }

// stallReader delivers left bytes, goes silent for wait, then dies —
// unless the request context ends first (client gave up).
type stallReader struct {
	rc   io.ReadCloser
	left int64
	wait time.Duration
	ctx  context.Context
}

func (s *stallReader) Read(p []byte) (int, error) {
	if s.left <= 0 {
		t := time.NewTimer(s.wait)
		defer t.Stop()
		select {
		case <-t.C:
		case <-s.ctx.Done():
		}
		return 0, errInjected
	}
	if int64(len(p)) > s.left {
		p = p[:s.left]
	}
	n, err := s.rc.Read(p)
	s.left -= int64(n)
	return n, err
}

func (s *stallReader) Close() error { return s.rc.Close() }

// corruptReader passes the body through with the byte at offset at
// complemented. An overwrite with a fixed value would be no damage at
// all wherever the body already holds it — NUL is an ordinary byte of a
// binary spans frame — whereas an inverted byte always differs, and it
// is then the frame's CRC (or, for csv, the digit parser) that must
// notice.
type corruptReader struct {
	rc  io.ReadCloser
	at  int64
	off int64
}

func (c *corruptReader) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	if n > 0 && c.at >= c.off && c.at < c.off+int64(n) {
		p[c.at-c.off] ^= 0xff
	}
	c.off += int64(n)
	return n, err
}

func (c *corruptReader) Close() error { return c.rc.Close() }
