package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRecords reads a result file: one record per line, as -out writes it.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// Verdicts of one (metric, workload) pairing.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved" // the run-to-run spread is wider than the bound
)

// exactMetrics are counts the program makes: with one client they repeat
// exactly, so any difference is a change, however small.
var exactMetrics = map[string]bool{
	"bytes_per_row": true, "cc_exact_share": true, "summary_bytes": true,
	"partition.regions": true, "core.lp_vars": true, "core.lp_rows": true, "core.sub_views": true,
	"lp.bb_nodes": true, "core.soft_views": true, "summary.rows": true,
	// lp.pivots is not here: it varies by half a percent between identical
	// calls that produce identical digests (README, "Excluded inputs").
}

// minRuns is how many runs a side needs before a verdict means anything.
const minRuns = 3

// verdict applies bound to two run sets of one metric. worse-by is the
// relative move of B's median in the bad direction. A move beyond the
// bound is a regression or an improvement; inside it the metric reads
// unchanged. When either side's quartile spread is wider than the bound
// the medians cannot be told apart, so the pairing is unresolved unless
// the two sets do not overlap at all.
func verdict(a, b []float64, lowerBetter bool, bound float64) (string, float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worse := 0.0
	switch {
	case ma != 0:
		worse = (mb - ma) / math.Abs(ma)
	case mb != 0:
		worse = math.Inf(int(math.Copysign(1, mb)))
	}
	if !lowerBetter {
		worse = -worse
	}
	if spread(a) > bound || spread(b) > bound {
		sa, sb := sortedCopy(a), sortedCopy(b)
		switch {
		case sb[0] > sa[len(sa)-1]: // every B above every A
			return pick(lowerBetter, regressed, improved), worse
		case sb[len(sb)-1] < sa[0]: // every B below every A
			return pick(lowerBetter, improved, regressed), worse
		}
		return unresolved, worse
	}
	switch {
	case worse > bound:
		return regressed, worse
	case worse < -bound:
		return improved, worse
	}
	return unchanged, worse
}

func pick(cond bool, yes, no string) string {
	if cond {
		return yes
	}
	return no
}

// spread is the distance between the quartiles as a share of the median,
// the figure the driver bounds.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

type pairing struct {
	workload, name string
}

// collect groups metric values by (workload, metric) and failure shares by
// workload, for runs with the given trace flag.
func collect(recs []record, trace int) (map[pairing][]float64, map[string][]float64) {
	vals := make(map[pairing][]float64)
	failed := make(map[string][]float64)
	for _, r := range recs {
		if r.Trace != trace {
			continue
		}
		for name, m := range r.Metrics {
			k := pairing{r.Workload, name}
			vals[k] = append(vals[k], m.Value)
		}
		if r.Attempted > 0 {
			failed[r.Workload] = append(failed[r.Workload], float64(r.Failed)/float64(r.Attempted))
		}
	}
	return vals, failed
}

// compare prints, per end-to-end (metric, workload) pairing present in both
// files, medians, quartiles and a verdict under the spec's bounds, then the
// per-layer metrics without verdicts (they have no bound; exact counts are
// flagged when they differ). It reports whether anything regressed.
func compare(out io.Writer, sp *spec, a, b []record) (bool, error) {
	av, af := collect(a, 0)
	bv, bf := collect(b, 0)
	regression := false
	fmt.Fprintf(out, "%-13s %-16s %4s %13s %13s %13s %13s %8s  %s\n",
		"workload", "metric", "n", "A q1", "A median", "B median", "B q3", "worse", "verdict")
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			k := pairing{w.name, m.Name}
			x, y := av[k], bv[k]
			if len(x) == 0 && len(y) == 0 {
				continue
			}
			if len(x) < minRuns || len(y) < minRuns {
				return false, fmt.Errorf("%s @ %s: %d and %d runs; need at least %d each", m.Name, w.name, len(x), len(y), minRuns)
			}
			v, worse := verdict(x, y, m.Better == "lower", m.Bound)
			if exactMetrics[m.Name] && v == unchanged && !sameValues(x, y) {
				v = "unchanged (differs within bound)"
			}
			regression = regression || v == regressed
			q1, ma, _ := quartiles(x)
			_, mb, q3 := quartiles(y)
			fmt.Fprintf(out, "%-13s %-16s %4d %13.6g %13.6g %13.6g %13.6g %+7.2f%%  %s\n",
				w.name, m.Name, min(len(x), len(y)), q1, ma, mb, q3, 100*worse, v)
		}
		// failed_share has no bound: any increase is a regression.
		if x, y := af[w.name], bf[w.name]; len(x) > 0 && len(y) > 0 {
			_, ma, _ := quartiles(x)
			_, mb, _ := quartiles(y)
			v := unchanged
			if mb > ma {
				v, regression = regressed, true
			} else if mb < ma {
				v = improved
			}
			fmt.Fprintf(out, "%-13s %-16s %4d %13s %13.6g %13.6g %13s %8s  %s\n", w.name, "failed_share", min(len(x), len(y)), "", ma, mb, "", "", v)
		}
	}

	av, _ = collect(a, 1)
	bv, _ = collect(b, 1)
	var keys []pairing
	for k := range av {
		if len(bv[k]) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].name < keys[j].name
	})
	if len(keys) > 0 {
		fmt.Fprintf(out, "\nper-layer (traced runs; no bounds)\n")
	}
	for _, k := range keys {
		_, ma, _ := quartiles(av[k])
		_, mb, _ := quartiles(bv[k])
		note := ""
		if exactMetrics[k.name] && !sameValues(av[k], bv[k]) {
			note = "  exact count differs"
		}
		fmt.Fprintf(out, "%-13s %-42s %13.6g %13.6g%s\n", k.workload, k.name, ma, mb, note)
	}
	return regression, nil
}

// sameValues reports whether every value in both sets is one value.
func sameValues(a, b []float64) bool {
	for _, v := range append(append([]float64(nil), a...), b...) {
		if v != a[0] {
			return false
		}
	}
	return true
}
