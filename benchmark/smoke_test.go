package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func smokeDataset(t *testing.T) *dataset {
	t.Helper()
	tp, err := newTPCDS()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := buildDataset(smokeScale, tp)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func take(st *stream, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = st.next()
	}
	return out
}

// Equal seeds give equal streams, different seeds different ones, and the
// ranged form every scan-* workload issues is a prefix of one stream
// however many requests a workload gets through.
func TestRequestStreamIsSeededAndShared(t *testing.T) {
	ds := smokeDataset(t)
	a := take(newStream(7, smokeScale, ds.big), 200)
	b := take(newStream(7, smokeScale, ds.big), 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different streams")
	}
	if reflect.DeepEqual(a, take(newStream(8, smokeScale, ds.big), 200)) {
		t.Fatal("different seeds gave one stream")
	}
	// scan-dir gets through fewer requests than scan-summary: its specs
	// are the first ones scan-summary issues.
	short := take(newStream(7, smokeScale, ds.big), 30)
	for i, r := range short {
		if !reflect.DeepEqual(r.rangedSpec(), a[i].rangedSpec()) {
			t.Fatalf("request %d differs between a short and a long run", i)
		}
	}
	seen := map[string]bool{}
	for _, r := range a {
		seen[r.Table] = true
		info, err := ds.table(r.Table)
		if err != nil {
			t.Fatal(err)
		}
		if r.RangeRows != min(smokeScale.rangeRows, info.rows) || r.RangeStart < 1 || r.RangeStart+r.RangeRows-1 > info.rows {
			t.Fatalf("ranged request outside %s: %+v", r.Table, r)
		}
		if r.QueryStart < 1 || r.QueryStart+r.QueryRows-1 > info.rows {
			t.Fatalf("query window outside %s: %+v", r.Table, r)
		}
		if _, err := r.querySpec(); err != nil {
			t.Fatalf("request %d does not parse: %v", r.Seq, err)
		}
	}
	if len(seen) != len(ds.big) {
		t.Errorf("200 requests hit %d of %d targets", len(seen), len(ds.big))
	}
	for _, r := range referenceRequests(smokeScale, ds.big) {
		if r.ValueCol == "" {
			t.Errorf("reference request on %s has no filter", r.Table)
		}
	}
}

// Every workload runs untraced and traced at the smoke scale: all ops pass
// their oracles, every metric BENCHMARK.json names is printed with the
// unit it names, and the span file has the promised shape.
func TestSmokeAllWorkloads(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(def.Workloads), len(workloads))
	}
	tmp := t.TempDir()
	for i, w := range workloads {
		if def.Workloads[i].Name != w.name || def.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q (or their reasons differ)", i, def.Workloads[i].Name, w.name)
		}
		for trace := 0; trace <= 1; trace++ {
			cfg := config{workload: w, seed: 3, seconds: 0.2, trace: trace == 1, sc: smokeScale,
				tmpRoot: tmp, traceOut: filepath.Join(tmp, w.name+".jsonl")}
			var out bytes.Buffer
			rec, err := runWorkload(context.Background(), cfg, &out)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if !rec.Correct || rec.Attempted < 1 || rec.Failed != 0 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w.name, trace, rec.Correct, rec.Attempted, rec.Failed)
			}
			want := def.EndToEnd
			if trace == 1 {
				want = def.PerLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics printed, BENCHMARK.json names %d", w.name, trace, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace %d: metric %s missing", w.name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace %d: %s has unit %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				}
				if trace == 0 && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want a positive value", w.name, m.Name, got.Value)
				}
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Errorf("%s trace %d: last line is not the result object: %v", w.name, trace, err)
			}
			if trace == 1 {
				checkTraceFile(t, cfg.traceOut, w.name)
			}
		}
	}
}

func checkTraceFile(t *testing.T, path, root string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	roots := 0
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.End < s.Start {
			t.Fatalf("%s: span %d ends before it starts", path, s.ID)
		}
		if s.Parent == 0 && s.Name == root {
			roots++
		}
		spans = append(spans, s)
	}
	if err := checkSpans(spans); err != nil {
		t.Errorf("%s: %v", path, err)
	}
	if roots == 0 {
		t.Errorf("%s: no op root named %s", path, root)
	}
}
