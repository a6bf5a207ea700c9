package main

import (
	"math"
	"reflect"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}, {11, 2},
	} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: got %g", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("empty sample: got %g, want NaN", got)
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, tail float64
	}{
		{5, 99, 50},    // the median is always supported
		{99, 99, 50},   // p90 of 99 leaves 9 beyond it
		{100, 99, 90},  // p90 of 100 leaves exactly 10
		{100, 50, 50},  // never above what was asked for
		{999, 99, 90},  // p99 of 999 leaves 9
		{1000, 99, 99}, // p99 of 1000 leaves exactly 10
		{1000, 90, 90}, // asked for p90, p99 supported: still p90
		{30000, 99, 99},
	} {
		if got := supportedPercentile(c.n, c.want); got != c.tail {
			t.Errorf("supportedPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.tail)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %g %g %g", q1, q2, q3)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{Trace: 1, ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{Trace: 1, ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{Trace: 1, ID: 5, Parent: 2, Name: "aa", Start: 10, End: 40}, // covers a entirely
		{Trace: 1, ID: 6, Parent: 1, Name: "d", Start: 35, End: 38},  // inside a and b
	}
	self := selfTimes(spans)
	// root: children cover [10,60) and [90,100) = 60, so 40 remain.
	want := map[int64]int64{1: 40, 2: 0, 3: 30, 4: 30, 5: 30, 6: 3}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	if err := checkSpans(spans); err != nil {
		t.Errorf("checkSpans: %v", err)
	}
}

func TestCheckSpansRejectsBadShapes(t *testing.T) {
	for name, spans := range map[string][]span{
		"two roots":        {{Trace: 1, ID: 1}, {Trace: 1, ID: 2}},
		"no root":          {{Trace: 1, ID: 1, Parent: 9}},
		"parent elsewhere": {{Trace: 1, ID: 1}, {Trace: 2, ID: 2}, {Trace: 2, ID: 3, Parent: 1}},
	} {
		if err := checkSpans(spans); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	h := r.root("op")
	r.end(r.child(h, "open"), 1, 2)
	r.end(h, 1, 2)
	rec := newRecorder()
	h = rec.root("op")
	rec.end(rec.child(h, "open"), 3, 4)
	rec.end(h, 5, 6)
	if len(rec.spans) != 2 || rec.spans[1].Parent != rec.spans[0].ID || rec.spans[1].Rows != 3 || rec.spans[0].Bytes != 6 {
		t.Errorf("recorded %+v", rec.spans)
	}
}

func TestPromDelta(t *testing.T) {
	const before = `# HELP hydra_fleet_retries_total retries
# TYPE hydra_fleet_retries_total counter
hydra_fleet_retries_total{consumer="scan"} 3
hydra_fleet_retries_total{consumer="runner"} 1
hydra_serve_busy_total 0
hydra_scan_batch_seconds_bucket{backend="dir",le="+Inf"} 7
`
	const after = `hydra_fleet_retries_total{consumer="scan"} 5
hydra_fleet_retries_total{consumer="runner"} 1
hydra_serve_busy_total 2 1700000000000
hydra_scan_remote_failovers_total{reason="a b}c"} 4
`
	b, err := parseProm(before)
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseProm(after)
	if err != nil {
		t.Fatal(err)
	}
	if b["hydra_fleet_retries_total"] != 4 {
		t.Errorf("series not summed: %v", b)
	}
	got := promDelta(b, a, "hydra_fleet_retries_total", "hydra_serve_busy_total", "hydra_scan_remote_failovers_total")
	want := map[string]float64{"hydra_fleet_retries_total": 2, "hydra_serve_busy_total": 2, "hydra_scan_remote_failovers_total": 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("promDelta = %v, want %v", got, want)
	}
	if _, err := parseProm("hydra_x_total{a=\"b\" 1\n"); err == nil {
		t.Error("unbalanced labels accepted")
	}
	if _, err := parseProm("hydra_x_total notanumber\n"); err == nil {
		t.Error("bad value accepted")
	}
}

func TestVerdicts(t *testing.T) {
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01} }
	for _, c := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"same", tight(100), tight(100), true, 0.10, unchanged},
		{"inside bound", tight(100), tight(108), true, 0.10, unchanged},
		{"slower, lower is better", tight(100), tight(115), true, 0.10, regressed},
		{"faster, lower is better", tight(100), tight(85), true, 0.10, improved},
		{"more, higher is better", tight(100), tight(115), false, 0.10, improved},
		{"less, higher is better", tight(100), tight(85), false, 0.10, regressed},
		{"spread wider than bound, overlapping", []float64{80, 100, 120}, []float64{90, 105, 125}, true, 0.10, unresolved},
		{"spread wider than bound, disjoint", []float64{80, 100, 120}, []float64{150, 180, 210}, true, 0.10, regressed},
		{"spread wider than bound, disjoint and better", []float64{80, 100, 120}, []float64{40, 50, 60}, true, 0.10, improved},
		{"exact count moved past a tight bound", []float64{1000, 1000, 1000}, []float64{1002, 1002, 1002}, true, 0.001, regressed},
		{"exact count identical", []float64{1000, 1000, 1000}, []float64{1000, 1000, 1000}, true, 0.001, unchanged},
	} {
		if got, _ := verdict(c.a, c.b, c.lowerBetter, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsRegressionAndFailures(t *testing.T) {
	sp := &spec{EndToEnd: []specMetric{{"op_p50_s", "lower", 0.10}}}
	runs := func(v float64, failed int) []record {
		var out []record
		for i := 0; i < 3; i++ {
			out = append(out, record{Workload: "scan-dir", result: result{Attempted: 100, Failed: failed,
				Metrics: map[string]metric{"op_p50_s": {v * (1 + 0.001*float64(i)), "s"}}}})
		}
		return out
	}
	var sink discard
	if bad, err := compare(&sink, sp, runs(1, 0), runs(1.05, 0)); err != nil || bad {
		t.Errorf("within bound: regressed=%v err=%v", bad, err)
	}
	if bad, err := compare(&sink, sp, runs(1, 0), runs(1.5, 0)); err != nil || !bad {
		t.Errorf("50%% slower: regressed=%v err=%v", bad, err)
	}
	if bad, err := compare(&sink, sp, runs(1, 0), runs(1, 1)); err != nil || !bad {
		t.Errorf("new failures: regressed=%v err=%v", bad, err)
	}
	if _, err := compare(&sink, sp, runs(1, 0)[:2], runs(1, 0)); err == nil {
		t.Error("two runs accepted as a set")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestLayerUnits(t *testing.T) {
	for name, want := range map[string]string{
		"matgen.stream_csv_rows_per_s": "rows/s", "lp.solve_s": "s", "core.lp_vars": "count",
		"scan.dir_allocs_per_krow": "allocs/krow", "serve.http_self_s_per_mrow": "s/Mrow",
		"matgen.gzip_mb_per_s": "MB/s", "tuplegen.mean_span_rows": "rows", "bench.failed_share": "share",
	} {
		if got := layerUnit(name); got != want {
			t.Errorf("layerUnit(%s) = %s, want %s", name, got, want)
		}
	}
}
