// Batches are recycled from closed scans into new ones, across tables
// of any width and across backends. These tests pin what that must never
// change: a batch shows exactly its own rows, whoever used its buffers
// before.
package scan_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/resilience"
	"github.com/dsl-repro/hydra/internal/scan"
	"github.com/dsl-repro/hydra/internal/serve"
	"github.com/dsl-repro/hydra/internal/summary"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// wideSummary is testSummary plus W: 15 columns (pk, twelve values, two
// FKs) over 60 000 rows, the width of the widest benchmark relations.
func wideSummary() *summary.Summary {
	sum := testSummary()
	w := &summary.RelationSummary{Table: "W", FKCols: []string{"s_fk", "t_fk"}, FKRefs: []string{"S", "T"}}
	for c := 1; c <= 12; c++ {
		w.Cols = append(w.Cols, fmt.Sprintf("v%d", c))
	}
	for i, n := range []int64{25000, 20000, 15000} {
		row := summary.RelRow{FKs: []int64{1 + 3001*int64(i), 1}, FKSpans: []int64{3001, 900}, Count: n}
		for c := range w.Cols {
			row.Vals = append(row.Vals, int64(100*i+c))
		}
		w.Rows = append(w.Rows, row)
		w.Total += n
	}
	sum.Relations["W"] = w
	return sum
}

// recycleBackends is one source of each kind over sum: the summary, a
// csv directory, and a one-member fleet.
func recycleBackends(t *testing.T, sum *summary.Summary) map[string]scan.Source {
	t.Helper()
	dir, err := scan.OpenDir(materializeDir(t, sum, "csv", "", 1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(sum, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	remote, err := scan.NewRemoteSource([]string{ts.URL}, scan.RemoteOptions{
		Fleet: resilience.Options{ProbeInterval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	return map[string]scan.Source{"summary": scan.NewSummarySource(sum), "dir": dir, "remote": remote}
}

// checkScan drains one scan and checks every batch against the
// generator: each column holds exactly N rows, and row i of the batch is
// Generator.Row of its pk (column 0; the spec must not project the pk
// away). It returns the rows seen.
func checkScan(ctx context.Context, src scan.Source, spec scan.Spec, g *tuplegen.Generator) (int64, error) {
	sc, err := src.Scan(ctx, spec)
	if err != nil {
		return 0, err
	}
	defer sc.Close()
	width := len(sc.Cols())
	var rows int64
	var row []int64
	for sc.Next() {
		b := sc.Batch()
		if len(b.Cols) != width {
			return rows, fmt.Errorf("%+v: batch at pk %d has %d columns, want %d", spec, b.Start, len(b.Cols), width)
		}
		for c, col := range b.Cols {
			if len(col) != b.N {
				return rows, fmt.Errorf("%+v: batch at pk %d shows %d values in column %d, holds %d rows", spec, b.Start, len(col), c, b.N)
			}
		}
		for i := 0; i < b.N; i++ {
			row = g.Row(b.Cols[0][i], row)
			for c, col := range b.Cols {
				if col[i] != row[c] {
					return rows, fmt.Errorf("%+v: pk %d col %d = %d, Row says %d", spec, b.Cols[0][i], c, col[i], row[c])
				}
			}
		}
		rows += int64(b.N)
	}
	return rows, sc.Err()
}

// TestScanNeverExposesPastN: after a wide, unfiltered scan has filled a
// batch to capacity and handed it back, filtered scans of a narrower
// table — whose cells hold fewer rows than they cover — show no value
// past N on any backend.
func TestScanNeverExposesPastN(t *testing.T) {
	sum := wideSummary()
	ctx := context.Background()
	gS, gW := tuplegen.New(sum.Relations["S"]), tuplegen.New(sum.Relations["W"])
	for name, src := range recycleBackends(t, sum) {
		for _, filt := range []pred.Filter{
			pred.Col("B").Eq(40),
			pred.Col("S_pk").In(4000, 4007),
			pred.Col("A").Eq(61).And(pred.Col("t_fk").AtLeast(1)),
		} {
			if _, err := checkScan(ctx, src, scan.Spec{Table: "W"}, gW); err != nil {
				t.Fatalf("%s: wide scan: %v", name, err)
			}
			rows, err := checkScan(ctx, src, scan.Spec{Table: "S", Filter: filt}, gS)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if rows == 0 {
				t.Fatalf("%s: filter %v matched nothing; the check saw no partial batch", name, filt)
			}
		}
	}
}

// TestScanConcurrentRecycling runs eight goroutines that scan tables of
// three widths on all three backends at once, so batches pass between
// goroutines, tables and backends through the pool; every row must
// still be Generator.Row's. Run it under -race.
func TestScanConcurrentRecycling(t *testing.T) {
	sum := wideSummary()
	srcs := recycleBackends(t, sum)
	names := []string{"summary", "dir", "remote"}
	tables := []string{"T", "S", "W"}
	gens := map[string]*tuplegen.Generator{}
	for _, tb := range tables {
		gens[tb] = tuplegen.New(sum.Relations[tb])
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 12; i++ {
				src, tb := names[(w+i)%len(names)], tables[(w+2*i)%len(tables)]
				g := gens[tb]
				start := rng.Int63n(g.NumRows()) + 1
				spec := scan.Spec{Table: tb, StartPK: start, EndPK: start + rng.Int63n(3000),
					BatchRows: []int{97, 1000, 0}[rng.Intn(3)]}
				if rng.Intn(3) == 0 {
					spec.Filter = pred.Col(tb+"_pk").In(start+10, start+500)
				}
				if _, err := checkScan(context.Background(), srcs[src], spec, g); err != nil {
					t.Errorf("goroutine %d, %s: %v", w, src, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPooledBatchHandOff passes one batch through four scans in turn,
// twice over: a summary scan of the wide table W, a MemSource scan of W
// holding other values, a summary scan of the narrower S, and a summary
// scan of W projected so that most columns sit where the full scan put
// them. Each scan must show its own rows, whatever the batch's memory
// held and its filler recorded before — in particular the MemSource
// fill, which copies columns without FillSpan.
func TestPooledBatchHandOff(t *testing.T) {
	sum := wideSummary()
	ctx := context.Background()
	summ := scan.NewSummarySource(sum)
	info, err := summ.Table("W")
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]int64, len(info.Cols))
	for c := range data {
		data[c] = make([]int64, info.Rows)
		for r := range data[c] {
			data[c][r] = -int64(1000*c + r%7)
			if c == 0 {
				data[c][r] = int64(r) + 1
			}
		}
	}
	mem, err := scan.NewMemSource(scan.MemTable{Name: "W", Cols: info.Cols, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	// W's columns with the first two values swapped and t_fk dropped.
	proj := append([]string{"W_pk", "v2", "v1"}, info.Cols[3:len(info.Cols)-1]...)
	projIdx, err := tuplegen.ProjectCols(info.Cols, proj)
	if err != nil {
		t.Fatal(err)
	}
	gW, gS := tuplegen.New(sum.Relations["W"]), tuplegen.New(sum.Relations["S"])
	var row []int64
	generated := func(g *tuplegen.Generator, idx []int) func(pk int64, c int) int64 {
		return func(pk int64, c int) int64 {
			if row = g.Row(pk, row); idx != nil {
				return row[idx[c]]
			}
			return row[c]
		}
	}
	steps := []struct {
		name string
		src  scan.Source
		spec scan.Spec
		want func(pk int64, c int) int64
	}{
		{"summary W", summ, scan.Spec{Table: "W", EndPK: 20000}, generated(gW, nil)},
		{"mem W", mem, scan.Spec{Table: "W", EndPK: 20000}, func(pk int64, c int) int64 { return data[c][pk-1] }},
		{"summary S", summ, scan.Spec{Table: "S"}, generated(gS, nil)},
		{"projected W", summ, scan.Spec{Table: "W", Columns: proj, EndPK: 20000}, generated(gW, projIdx)},
	}
	b := new(tuplegen.Batch)
	for round := 0; round < 2; round++ {
		for _, st := range steps {
			sc, err := st.src.Scan(ctx, st.spec)
			if err != nil {
				t.Fatal(err)
			}
			scan.HandBatch(sc, b)
			var rows int64
			for sc.Next() {
				bt := sc.Batch()
				for c, col := range bt.Cols {
					for i, v := range col {
						if pk := bt.Start + int64(i); v != st.want(pk, c) {
							t.Fatalf("round %d, %s: pk %d col %d = %d, want %d", round, st.name, pk, c, v, st.want(pk, c))
						}
					}
				}
				rows += int64(bt.N)
			}
			if err := sc.Err(); err != nil {
				t.Fatalf("round %d, %s: %v", round, st.name, err)
			}
			sc.Close()
			if rows != sc.NumRows() {
				t.Fatalf("round %d, %s: %d rows, want %d", round, st.name, rows, sc.NumRows())
			}
		}
	}
}
