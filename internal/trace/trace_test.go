package trace

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dsl-repro/hydra/internal/obs"
)

func newTestTracer(opts Options) *Tracer {
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	return New(opts)
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{}
	copy(sc.TraceID[:], []byte{0x4b, 0xf9, 0x2f, 0x35, 0x77, 0xb3, 0x4d, 0xa6, 0xa3, 0xce, 0x92, 0x9d, 0x0e, 0x0e, 0x47, 0x36})
	copy(sc.SpanID[:], []byte{0x00, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7})
	hdr := sc.Traceparent()
	want := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if hdr != want {
		t.Fatalf("Traceparent() = %q, want %q", hdr, want)
	}
	got, ok := ParseTraceparent(hdr)
	if !ok || got != sc {
		t.Fatalf("ParseTraceparent(%q) = %+v, %v", hdr, got, ok)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	bad := []string{
		"",
		"garbage",
		valid[:54],             // truncated
		"ff" + valid[2:],       // reserved version
		strings.ToUpper(valid), // uppercase hex is invalid per spec
		"00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01",                 // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-" + strings.Repeat("0", 16) + "-01", // zero span id
		strings.Replace(valid, "-", "_", 1),
		valid + "-extra", // version 00 must be exactly 55 bytes
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", s)
		}
	}
	// A future version may carry trailing fields.
	if _, ok := ParseTraceparent("cc" + valid[2:] + "-extra"); !ok {
		t.Errorf("ParseTraceparent rejected future-versioned input with trailing field")
	}
}

// FuzzParseTraceparent holds the parser of a header no one here wrote to
// three things: it never panics; what it accepts names lowercase-hex,
// non-zero ids; and those ids render back through Traceparent and parse
// again to themselves.
func FuzzParseTraceparent(f *testing.F) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	for _, s := range []string{
		valid, "cc" + valid[2:] + "-extra", valid + "-extra", "ff" + valid[2:],
		strings.ToUpper(valid), valid[:54], "",
		"00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseTraceparent(s)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("ParseTraceparent(%q) refused it but returned %+v", s, sc)
			}
			return
		}
		if !sc.Valid() || !isHex(s[3:35]) || !isHex(s[36:52]) {
			t.Fatalf("ParseTraceparent(%q) accepted %+v", s, sc)
		}
		hdr := sc.Traceparent()
		if hdr[3:35] != s[3:35] || hdr[36:52] != s[36:52] {
			t.Fatalf("ParseTraceparent(%q) renders as %q: the ids moved", s, hdr)
		}
		if again, ok := ParseTraceparent(hdr); !ok || again != sc {
			t.Fatalf("%q parses to %+v, renders as %q, which parses to %+v, %v", s, sc, hdr, again, ok)
		}
	})
}

func TestSpanTreeAssembly(t *testing.T) {
	tr := newTestTracer(Options{SampleRate: -1})
	ctx, root := tr.Start(context.Background(), "root", Str("table", "orders"))
	cctx, child := Child(ctx, "child")
	child.Event("retry-backoff", Dur("wait", 5*time.Millisecond))
	_, grand := Start(cctx, "grand") // package-level Start joins the ambient trace
	grand.Fail(errors.New("boom"))
	grand.End()
	child.End()
	root.End()

	got := tr.Get(root.TraceID())
	if got == nil {
		t.Fatal("trace not retained")
	}
	if got.Keep != KeepError {
		t.Fatalf("Keep = %q, want %q (grandchild errored)", got.Keep, KeepError)
	}
	if got.SpansTotal != 3 || got.Tree == nil {
		t.Fatalf("SpansTotal = %d, Tree nil = %v; want 3 spans with a tree", got.SpansTotal, got.Tree == nil)
	}
	if got.Tree.Name != "root" || len(got.Tree.Children) != 1 {
		t.Fatalf("tree root = %q with %d children, want root with 1", got.Tree.Name, len(got.Tree.Children))
	}
	c := got.Tree.Children[0]
	if c.Name != "child" || len(c.Children) != 1 || c.Children[0].Name != "grand" {
		t.Fatalf("unexpected tree shape under root: %+v", c)
	}
	if c.Children[0].Err != "boom" || got.Err != "boom" {
		t.Fatalf("error not propagated: span=%q trace=%q", c.Children[0].Err, got.Err)
	}
	if len(c.Events) != 1 || c.Events[0].Name != "retry-backoff" {
		t.Fatalf("child events = %+v, want one retry-backoff", c.Events)
	}
	for _, rec := range got.Spans {
		if rec.StartOffsetUS < 0 || rec.DurationUS < 0 {
			t.Fatalf("negative offset/duration on %q: %+v", rec.Name, rec)
		}
	}
}

func TestStartRemoteContinuesTrace(t *testing.T) {
	tr := newTestTracer(Options{})
	_, client := tr.Start(context.Background(), "client")
	parent, ok := ParseTraceparent(client.Traceparent())
	if !ok {
		t.Fatalf("client traceparent unparseable: %q", client.Traceparent())
	}
	_, server := tr.StartRemote(context.Background(), "server", parent)
	if server.TraceID() != client.TraceID() {
		t.Fatalf("server trace id %s != client %s", server.TraceID(), client.TraceID())
	}
	server.End()
	client.End()
	// Both fragments complete as distinct traces sharing one id.
	got := tr.Get(client.TraceID())
	if got == nil {
		t.Fatal("no fragment retained")
	}

	// Invalid parent falls back to a fresh root.
	_, fresh := tr.StartRemote(context.Background(), "server", SpanContext{})
	if fresh.TraceID() == "" || fresh.TraceID() == client.TraceID() {
		t.Fatalf("invalid parent should start a fresh trace, got %q", fresh.TraceID())
	}
	fresh.End()
}

func TestNilSpanIsSafe(t *testing.T) {
	var sp *Span
	sp.SetAttrs(Str("a", "b"))
	sp.Event("e")
	sp.Fail(errors.New("x"))
	sp.End()
	if sp.TraceID() != "" || sp.Traceparent() != "" || sp.Context().Valid() {
		t.Fatal("nil span must render empty ids")
	}
	if _, child := Child(context.Background(), "orphan"); child != nil {
		t.Fatal("Child without an ambient span must return nil")
	}
}

// synthetic builds a completed trace directly, so keep-rule tests can
// use exact durations instead of real sleeps.
func synthetic(id byte, sec float64, errText string) *Trace {
	var tid TraceID
	tid[0], tid[15] = id, 1
	return &Trace{
		Summary: Summary{
			TraceID:     tid.String(),
			Root:        "synthetic",
			Start:       time.Unix(int64(id), 0),
			DurationSec: sec,
			Err:         errText,
			SpansTotal:  1,
		},
	}
}

func TestKeepRules(t *testing.T) {
	reg := obs.NewRegistry()
	tr := newTestTracer(Options{
		Registry:   reg,
		SlowN:      2,
		SampleRate: -1, // sampling off: only error/slow rules apply
	})

	tr.offer(synthetic(1, 1.0, ""))  // slow (fresh list)
	tr.offer(synthetic(2, 2.0, ""))  // slow
	tr.offer(synthetic(3, 0.5, ""))  // faster than both, not errored → dropped
	tr.offer(synthetic(4, 3.0, ""))  // slow, evicts the 1.0s trace
	tr.offer(synthetic(5, 0.1, "x")) // errored → always kept

	byID := map[string]string{}
	for _, got := range tr.Traces() {
		byID[got.TraceID[:2]] = got.Keep
	}
	want := map[string]string{"02": KeepSlow, "04": KeepSlow, "05": KeepError}
	if len(byID) != len(want) {
		t.Fatalf("retained %v, want %v", byID, want)
	}
	for id, keep := range want {
		if byID[id] != keep {
			t.Fatalf("trace %s keep = %q, want %q (all: %v)", id, byID[id], keep, byID)
		}
	}

	// Deterministic sampling via the Rand seam.
	always := newTestTracer(Options{SlowN: -1, SampleRate: 0.5, Rand: func() float64 { return 0 }})
	never := newTestTracer(Options{SlowN: -1, SampleRate: 0.5, Rand: func() float64 { return 0.99 }})
	always.offer(synthetic(6, 0.1, ""))
	never.offer(synthetic(7, 0.1, ""))
	if got := always.Traces(); len(got) != 1 || got[0].Keep != KeepSampled {
		t.Fatalf("always-sampler retained %+v", got)
	}
	if got := never.Traces(); len(got) != 0 {
		t.Fatalf("never-sampler retained %+v", got)
	}
}

// TestTracesListsEveryFragment: two root fragments of one distributed
// trace (a client's root and a server's StartRemote root in the same
// process) share a trace id; both are retained, one as errored and one
// as slow, so both must be listed.
func TestTracesListsEveryFragment(t *testing.T) {
	tr := newTestTracer(Options{SlowN: 2, SampleRate: -1})
	client := synthetic(9, 2.0, "")
	server := synthetic(9, 0.1, "boom")
	server.Root = "server"
	tr.offer(client)
	tr.offer(server)
	got := tr.Traces()
	if len(got) != 2 {
		t.Fatalf("listed %d traces, want both fragments", len(got))
	}
	keeps := map[string]bool{got[0].Keep: true, got[1].Keep: true}
	if !keeps[KeepSlow] || !keeps[KeepError] {
		t.Fatalf("listed keeps %q and %q, want slow and error", got[0].Keep, got[1].Keep)
	}
}

func TestRingBounded(t *testing.T) {
	tr := newTestTracer(Options{RingSize: 4, SlowN: -1, SampleRate: -1})
	for i := 0; i < 20; i++ {
		tr.offer(synthetic(byte(i), 0.1, "err")) // errored → ring
	}
	if got := len(tr.Traces()); got != 4 {
		t.Fatalf("ring retained %d traces, want 4", got)
	}
}

func TestHandler(t *testing.T) {
	tr := newTestTracer(Options{})
	ctx, root := tr.Start(context.Background(), "scan.summary", Str("table", "orders"))
	_, child := Child(ctx, "attempt")
	child.End()
	root.End()

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("list status = %d", rec.Code)
	}
	var list struct {
		Traces []Summary `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("list decode: %v", err)
	}
	if len(list.Traces) != 1 || list.Traces[0].TraceID != root.TraceID() || list.Traces[0].SpansTotal != 2 {
		t.Fatalf("list = %+v", list)
	}

	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id="+root.TraceID(), nil))
	var one Trace
	if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil {
		t.Fatalf("tree decode: %v", err)
	}
	if one.Tree == nil || one.Tree.Name != "scan.summary" || len(one.Tree.Children) != 1 {
		t.Fatalf("tree = %+v", one.Tree)
	}

	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id=deadbeef", nil))
	if rec.Code != 404 {
		t.Fatalf("missing id status = %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/debug/traces", nil))
	if rec.Code != 405 {
		t.Fatalf("POST status = %d, want 405", rec.Code)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := newTestTracer(Options{})
	ctx, root := tr.Start(context.Background(), "root")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cctx, sp := Child(ctx, "worker")
			for j := 0; j < 100; j++ {
				sp.Event("tick")
				sp.SetAttrs(Int("j", int64(j)))
			}
			_, g := Child(cctx, "inner")
			g.End()
			sp.End()
		}()
	}
	wg.Wait()
	root.End()
	got := tr.Get(root.TraceID())
	if got == nil || got.SpansTotal != 17 {
		t.Fatalf("retained %+v, want 17 spans", got)
	}
	// Per-span bounds held under the event flood.
	for _, rec := range got.Spans {
		if len(rec.Events) > MaxEvents || len(rec.Attrs) > MaxAttrs {
			t.Fatalf("span %q exceeded bounds: %d events %d attrs", rec.Name, len(rec.Events), len(rec.Attrs))
		}
	}
}

func TestSpanBoundsDropped(t *testing.T) {
	tr := newTestTracer(Options{SampleRate: 1, Rand: func() float64 { return 0 }})
	_, sp := tr.Start(context.Background(), "bounded")
	for i := 0; i < MaxEvents+10; i++ {
		sp.Event("e")
	}
	for i := 0; i < MaxAttrs+10; i++ {
		sp.SetAttrs(Str("k", "v"))
	}
	sp.End()
	got := tr.Get(sp.TraceID())
	if got == nil {
		t.Fatal("trace not retained")
	}
	rec := got.Tree
	if len(rec.Events) != MaxEvents || len(rec.Attrs) != MaxAttrs || rec.Dropped != 20 {
		t.Fatalf("events=%d attrs=%d dropped=%d", len(rec.Events), len(rec.Attrs), rec.Dropped)
	}
}
