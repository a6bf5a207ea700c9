package scan_test

import (
	"database/sql"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/dsl-repro/hydra/internal/obs"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/resilience"
	"github.com/dsl-repro/hydra/internal/scan"
	"github.com/dsl-repro/hydra/internal/serve"
	_ "github.com/dsl-repro/hydra/internal/sqldriver" // registers the "hydra" database/sql driver
	"github.com/dsl-repro/hydra/internal/summary"
)

// tableRequests counts a fleet's table requests: streams, and info=1
// geometry answers.
type tableRequests struct {
	inner          http.Handler
	streams, infos atomic.Int64
}

func (h *tableRequests) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/tables/") {
		if r.URL.Query().Get("info") == "1" {
			h.infos.Add(1)
		} else {
			h.streams.Add(1)
		}
	}
	h.inner.ServeHTTP(w, r)
}

// take returns the counts since the last call and zeroes them.
func (h *tableRequests) take() (streams, infos int64) {
	return h.streams.Swap(0), h.infos.Swap(0)
}

// remotePlans reads the process-wide plan counter of one geometry source.
func remotePlans(geometry string) int64 {
	return obs.Default.Counter("hydra_scan_remote_plans_total", "", obs.L("geometry", geometry)).Value()
}

// TestRemoteWarmScanIsOneRequest: a source plans a table's scans from
// the geometry it remembers, so on a warm source N scans are N stream
// requests and no info=1 — plain, projected, filtered, spread, and
// through database/sql — while a cold source asks once per table.
func TestRemoteWarmScanIsOneRequest(t *testing.T) {
	sum := testSummary()
	srv, err := serve.NewServer(sum, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := &tableRequests{inner: srv}
	var hosts []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(h)
		defer ts.Close()
		hosts = append(hosts, ts.URL)
	}
	remote, err := scan.NewRemoteSource(hosts, scan.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ref := scan.NewSummarySource(sum)

	for _, table := range []string{"S", "T", "S", "T"} {
		spec := scan.Spec{Table: table}
		diffBatches(t, "cold "+table, drain(t, remote, spec), drain(t, ref, spec))
	}
	if streams, infos := h.take(); streams != 4 || infos != 2 {
		t.Fatalf("cold source: four scans of two tables made %d streams and %d info=1, want 4 and 2", streams, infos)
	}

	const n = 5
	for name, spec := range map[string]scan.Spec{
		"plain":     {Table: "S", BatchRows: 777},
		"projected": {Table: "S", Columns: []string{"t_fk", "B"}},
		"filtered":  {Table: "S", Filter: pred.Col("A").Eq(20)},
		"ranged":    {Table: "S", StartPK: 100, EndPK: 5000},
	} {
		remembered := remotePlans("remembered")
		want := drain(t, ref, spec)
		for i := 0; i < n; i++ {
			diffBatches(t, name, drain(t, remote, spec), want)
		}
		if streams, infos := h.take(); streams != n || infos != 0 {
			t.Errorf("%s: %d warm scans made %d streams and %d info=1, want %d and 0", name, n, streams, infos, n)
		}
		if got := remotePlans("remembered") - remembered; got != n {
			t.Errorf("%s: %d of %d warm scans counted as planned from remembered geometry", name, got, n)
		}
	}

	// A range the remembered row count empties opens no stream to check
	// that count, so it asks for the geometry; one no geometry can fill
	// asks nothing.
	drain(t, remote, scan.Spec{Table: "S", StartPK: 9000})
	if streams, infos := h.take(); streams != 0 || infos != 1 {
		t.Errorf("a range past the remembered rows made %d streams and %d info=1, want 0 and 1", streams, infos)
	}
	for name, spec := range map[string]scan.Spec{
		"inverted":      {Table: "S", StartPK: 5000, EndPK: 100},
		"unsatisfiable": {Table: "S", Filter: pred.Col("A").Eq(20).And(pred.Col("A").Eq(21))},
	} {
		if got := drain(t, remote, spec); len(got) != 0 {
			t.Errorf("%s: %d batches, want none", name, len(got))
		}
		if streams, infos := h.take(); streams != 0 || infos != 0 {
			t.Errorf("%s: an empty range made %d streams and %d info=1, want none", name, streams, infos)
		}
	}

	// database/sql builds its own source: its first query is cold.
	db, err := sql.Open("hydra", "remote://"+strings.TrimPrefix(hosts[0], "http://")+","+strings.TrimPrefix(hosts[1], "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	query := func() {
		rows, err := db.Query("SELECT S_pk, A FROM S WHERE B = 15")
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var got int
		for rows.Next() {
			got++
		}
		if err := rows.Err(); err != nil || got != 3001+2707 {
			t.Fatalf("query returned %d rows (err %v), want %d", got, err, 3001+2707)
		}
	}
	query()
	h.take()
	for i := 0; i < n; i++ {
		query()
	}
	if streams, infos := h.take(); streams != n || infos != 0 {
		t.Errorf("database/sql: %d warm queries made %d streams and %d info=1, want %d and 0", n, streams, infos, n)
	}
}

// swapHandler serves through whichever server it holds: a fleet whose
// members all move to another summary at once.
type swapHandler struct{ cur atomic.Pointer[serve.Server] }

func (h *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.cur.Load().ServeHTTP(w, r)
}

// TestRemoteSummarySwap: when the whole fleet moves to another summary
// between two scans, the next stream contradicts the remembered
// geometry. The scan drops it, fetches the geometry again and returns
// the new database's rows — an expected change, not a member failure,
// so no breaker moves and nothing fails over. A table that shrank (the
// member refuses the remembered range), one that grew past a range the
// remembered row count emptied, and a spec naming a column only the new
// summary has resolve the same way.
func TestRemoteSummarySwap(t *testing.T) {
	sumA, sumB, sumC := testSummary(), testSummary(), testSummary()
	sumB.Relations["S"].Rows[0].Count += 100
	sumB.Relations["S"].Total += 100
	s := sumC.Relations["S"]
	s.Cols = append(s.Cols, "D")
	for i := range s.Rows {
		s.Rows[i].Vals = append(s.Rows[i].Vals, int64(10*i))
	}
	servers := map[*summary.Summary]*serve.Server{}
	for _, sum := range []*summary.Summary{sumA, sumB, sumC} {
		srv, err := serve.NewServer(sum, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		servers[sum] = srv
	}
	h := &swapHandler{}
	h.cur.Store(servers[sumA])
	counted := &tableRequests{inner: h}
	var hosts []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(counted)
		defer ts.Close()
		hosts = append(hosts, ts.URL)
	}
	// A breaker that opens on the first failure, on a registry of the
	// test's own: any breaker hit moves a transition series.
	reg := obs.NewRegistry()
	remote, err := scan.NewRemoteSource(hosts, scan.RemoteOptions{
		Fleet: resilience.Options{ProbeInterval: -1, BreakerThreshold: 1, Registry: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	transitions := func() string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		var series []string
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, "hydra_fleet_breaker_transitions_total{") {
				series = append(series, line)
			}
		}
		if len(series) == 0 {
			t.Fatal("no breaker transition series exported")
		}
		return strings.Join(series, "\n")
	}
	failovers := obs.Default.Counter("hydra_scan_remote_failovers_total", "")

	spec := scan.Spec{Table: "S", BatchRows: 1000}
	diffBatches(t, "before the swap", drain(t, remote, spec), drain(t, scan.NewSummarySource(sumA), spec))
	before, failed := transitions(), failovers.Value()

	h.cur.Store(servers[sumB])
	diffBatches(t, "after the swap", drain(t, remote, spec), drain(t, scan.NewSummarySource(sumB), spec))

	// A range inside the rows sumB added and sumA lacks. Shrinking back
	// to sumA, the remembered geometry opens it and the member refuses
	// the offset; growing to sumB again, the remembered geometry empties
	// it. Both must read the fleet's geometry and answer from it.
	tail := scan.Spec{Table: "S", StartPK: 8250, BatchRows: 1000}
	counted.take()
	for _, step := range []struct {
		name   string
		sum    *summary.Summary
		rows   int
		stream int64
	}{
		{"shrunk to sumA", sumA, 0, 1},
		{"grown to sumB", sumB, 59, 1},
	} {
		h.cur.Store(servers[step.sum])
		got := drain(t, remote, tail)
		diffBatches(t, step.name, got, drain(t, scan.NewSummarySource(step.sum), tail))
		rows := 0
		for _, b := range got {
			rows += len(b.cols[0])
		}
		if rows != step.rows {
			t.Errorf("%s: %d rows, want %d", step.name, rows, step.rows)
		}
		if streams, infos := counted.take(); streams != step.stream || infos != 1 {
			t.Errorf("%s: %d streams and %d info=1, want %d and 1", step.name, streams, infos, step.stream)
		}
	}

	h.cur.Store(servers[sumC])
	specD := scan.Spec{Table: "S", Columns: []string{"S_pk", "D"}}
	diffBatches(t, "a column only the new summary has", drain(t, remote, specD), drain(t, scan.NewSummarySource(sumC), specD))

	if after := transitions(); after != before {
		t.Errorf("breaker transitions moved across the swaps:\n%s\nthen\n%s", before, after)
	}
	if got := failovers.Value() - failed; got != 0 {
		t.Errorf("%d failovers across the swaps, want 0", got)
	}
}
