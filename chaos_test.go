package hydra_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	hydra "github.com/dsl-repro/hydra"
	"github.com/dsl-repro/hydra/internal/faultinject"
	"github.com/dsl-repro/hydra/internal/loadgen"
	"github.com/dsl-repro/hydra/internal/obs"
	"github.com/dsl-repro/hydra/internal/resilience"
	"github.com/dsl-repro/hydra/internal/scan"
	"github.com/dsl-repro/hydra/internal/serve"
)

// TestChaosFleetZeroErrors is the resilience layer's acceptance test:
// loadgen against a 3-member fleet with one member flapping behind the
// fault proxy must complete with zero client-visible errors, and a
// whole-table scan through the same battered fleet must be
// byte-identical to a healthy in-process scan. Finally, a drained
// member must be skipped by the member tracker within one probe
// interval.
func TestChaosFleetZeroErrors(t *testing.T) {
	res := regenerateFigure1(t, hydra.Config{})
	sum := res.Summary

	// Three real members; member 0 sits behind the chaos proxy, which
	// injects the full fault menu — refusal, 500s, 503 bursts, cuts,
	// stalls, corruption — on roughly a third of its requests,
	// deterministically under the seed.
	var members []*serve.Server
	var urls []string
	for i := 0; i < 3; i++ {
		srv, err := serve.NewServer(sum, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, srv)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	faults := []faultinject.Fault{
		{Kind: faultinject.KindRefuse},
		{Kind: faultinject.KindStatus, Status: http.StatusInternalServerError},
		{Kind: faultinject.KindStatus, Status: http.StatusServiceUnavailable, RetryAfter: "1"},
		// A 500-row spans response is one to three frames of some twenty
		// bytes; the positions below fall inside the first one, so every
		// drawn fault tears a stream (or a metadata answer) for real.
		{Kind: faultinject.KindCut, AfterBytes: 12},
		{Kind: faultinject.KindStall, AfterBytes: 8, StallFor: 200 * time.Millisecond},
		{Kind: faultinject.KindCorrupt, AfterBytes: 6},
	}
	injected := func(k faultinject.Kind) int64 {
		return obs.Default.Counter("hydra_faultinject_injected_total", "", obs.L("kind", k.String())).Value()
	}
	resumes := obs.Default.Counter("hydra_scan_remote_resumes_total", "")
	before := map[faultinject.Kind]int64{}
	for _, f := range faults {
		before[f.Kind] = injected(f.Kind)
	}
	resumesBefore := resumes.Value()
	proxy, err := faultinject.New(urls[0], faultinject.Flaky(7, 0.35, faults...))
	if err != nil {
		t.Fatal(err)
	}
	px := httptest.NewServer(proxy)
	t.Cleanup(px.Close)

	fleet := []string{px.URL, urls[1], urls[2]}
	src, err := scan.NewRemoteSource(fleet, scan.RemoteOptions{
		Fleet: resilience.Options{
			ProbeInterval:   200 * time.Millisecond,
			BreakerCooldown: 400 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	rep, err := loadgen.Run(context.Background(), loadgen.Options{
		Source:         src,
		Concurrency:    4,
		MaxRequests:    48,
		RowsPerRequest: 500,
		Duration:       2 * time.Minute, // bounded by MaxRequests, not time
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("loadgen through the flapping fleet saw %d errors (want 0): %v",
			rep.Errors, rep.ErrorSamples)
	}
	if rep.Requests == 0 || rep.Rows == 0 {
		t.Fatalf("loadgen did no work: %d requests, %d rows", rep.Requests, rep.Rows)
	}
	if proxy.Requests() == 0 {
		t.Fatal("the chaos proxy saw no traffic; the fleet never touched the faulted member")
	}

	// Byte-identity: every row of every table through the battered fleet
	// must equal the healthy in-process regeneration.
	healthy := scan.NewSummarySource(sum)
	defer healthy.Close()
	tables, err := src.Tables()
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range tables {
		want := drainScan(t, healthy, scan.Spec{Table: table})
		got := drainScan(t, src, scan.Spec{Table: table})
		if len(got) != len(want) {
			t.Fatalf("table %s: fleet scan yielded %d rows, healthy %d", table, len(got), len(want))
		}
		for i := range want {
			for c := range want[i] {
				if got[i][c] != want[i][c] {
					t.Fatalf("table %s row %d col %d: fleet %d, healthy %d — chaos broke byte-identity",
						table, i, c, got[i][c], want[i][c])
				}
			}
		}
	}

	// The run above proves nothing unless the faults bit: every kind
	// must have been drawn, and streams must have died mid-body and been
	// resumed at their row (a cut, stall or inverted byte that lands
	// beyond the end of a short body is no fault at all).
	for _, f := range faults {
		if injected(f.Kind) == before[f.Kind] {
			t.Errorf("fault kind %s was never injected", f.Kind)
		}
	}
	if resumes.Value() == resumesBefore {
		t.Error("no stream died mid-body: the cut/stall/corrupt positions miss the spans bodies")
	}

	// Drain skip: put member 2 into drain mode; within one probe
	// interval the tracker must see it and Do must stop picking it.
	members[2].BeginDrain()
	deadline := time.Now().Add(2 * time.Second)
	var drained *resilience.Member
	for time.Now().Before(deadline) && drained == nil {
		for _, m := range src.Tracker().Members() {
			if m.URL == urls[2] && m.State() == resilience.MemberDraining {
				drained = m
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if drained == nil {
		t.Fatal("tracker never marked the drained member draining")
	}
	pol := src.Tracker().Policy("scan", 1)
	for i := 0; i < 12; i++ {
		var got string
		if err := src.Tracker().Do(context.Background(), pol, func(_ context.Context, m *resilience.Member) error {
			got = m.URL
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got == urls[2] {
			t.Fatal("Do picked a draining member while healthy members remain")
		}
	}
}

// drainScan reads a whole scan into row-major tuples.
func drainScan(t *testing.T, src scan.Source, spec scan.Spec) [][]int64 {
	t.Helper()
	sc, err := src.Scan(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var out [][]int64
	for sc.Next() {
		b := sc.Batch()
		for i := 0; i < b.N; i++ {
			row := make([]int64, len(b.Cols))
			for c := range b.Cols {
				row[c] = b.Cols[c][i]
			}
			out = append(out, row)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
