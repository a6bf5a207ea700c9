package scan

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/summary"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

func newGeneratorForTest(sum *summary.Summary, table string) *tuplegen.Generator {
	return tuplegen.New(sum.Relations[table])
}

// testSummary mirrors the matgen/serve fixture: two relations with FK
// spans, small enough to compare exhaustively, large enough to cross
// batch and shard boundaries.
func testSummary() *summary.Summary {
	tRel := &summary.RelationSummary{
		Table: "T", Cols: []string{"C"},
		Rows: []summary.RelRow{
			{Vals: []int64{2}, Count: 900},
			{Vals: []int64{7}, Count: 613},
		},
		Total: 1513,
	}
	sRel := &summary.RelationSummary{
		Table: "S", Cols: []string{"A", "B"}, FKCols: []string{"t_fk"}, FKRefs: []string{"T"},
		Rows: []summary.RelRow{
			{Vals: []int64{20, 15}, FKs: []int64{1}, FKSpans: []int64{900}, Count: 3001},
			{Vals: []int64{20, 40}, FKs: []int64{901}, FKSpans: []int64{613}, Count: 2500},
			{Vals: []int64{61, 15}, FKs: []int64{1}, FKSpans: []int64{900}, Count: 2707},
		},
		Total: 8208,
	}
	return &summary.Summary{Relations: map[string]*summary.RelationSummary{"S": sRel, "T": tRel}}
}

func TestResolveDefaults(t *testing.T) {
	info := &TableInfo{Table: "S", Cols: []string{"S_pk", "A", "B", "t_fk"}, Rows: 8208}
	r, err := resolve(Spec{Table: "S"}, info)
	if err != nil {
		t.Fatal(err)
	}
	if r.lo != 0 || r.hi != 8208 || r.step != DefaultBatchRows || r.proj != nil {
		t.Fatalf("resolved %+v", r)
	}
	if len(r.cols) != 4 {
		t.Fatalf("cols = %v", r.cols)
	}
}

func TestResolveRangeAndClamp(t *testing.T) {
	info := &TableInfo{Table: "S", Cols: []string{"S_pk"}, Rows: 100}
	for _, tc := range []struct {
		spec   Spec
		lo, hi int64
	}{
		{Spec{StartPK: 10, EndPK: 20}, 9, 20},
		{Spec{StartPK: 0, EndPK: 1 << 40}, 0, 100}, // EndPK clamps
		{Spec{StartPK: 101}, 100, 100},             // empty, not an error
		{Spec{StartPK: 50, EndPK: 10}, 49, 49},     // inverted → empty
	} {
		tc.spec.Table = "S"
		r, err := resolve(tc.spec, info)
		if err != nil {
			t.Fatalf("%+v: %v", tc.spec, err)
		}
		if r.lo != tc.lo || r.hi != tc.hi {
			t.Fatalf("%+v: range [%d,%d), want [%d,%d)", tc.spec, r.lo, r.hi, tc.lo, tc.hi)
		}
	}
}

// TestResolveShardsTile proves the spec-level split is a partition: the
// shard pieces of any pk range are disjoint, ordered, and cover it.
func TestResolveShardsTile(t *testing.T) {
	info := &TableInfo{Table: "S", Cols: []string{"S_pk"}, Rows: 8208}
	for _, n := range []int{1, 2, 3, 7, 16} {
		var pos int64 = 99 // StartPK 100
		for i := 0; i < n; i++ {
			r, err := resolve(Spec{Table: "S", StartPK: 100, EndPK: 5000, Shards: n, Shard: i}, info)
			if err != nil {
				t.Fatal(err)
			}
			if r.lo != pos {
				t.Fatalf("shards=%d shard=%d starts at %d, want %d", n, i, r.lo, pos)
			}
			pos = r.hi
		}
		if pos != 5000 {
			t.Fatalf("shards=%d cover [99,%d), want [99,5000)", n, pos)
		}
	}
}

func TestResolveErrors(t *testing.T) {
	info := &TableInfo{Table: "S", Cols: []string{"S_pk", "A"}, Rows: 100}
	for _, spec := range []Spec{
		{Table: "S", Shards: 2, Shard: 2},
		{Table: "S", Shards: -1},
		{Table: "S", BatchRows: -5},
		{Table: "S", StartPK: -1},
		{Table: "S", RateLimit: -3},
		{Table: "S", Columns: []string{"nope"}},
		{Table: "S", Columns: []string{"A", "A"}},
	} {
		if _, err := resolve(spec, info); !errors.Is(err, ErrSpec) {
			t.Fatalf("%+v: err = %v, want ErrSpec", spec, err)
		}
	}
}

// TestSummaryScanMatchesGenerator pins the reference backend to the raw
// generator: scanning must see exactly the rows Generator.Row produces.
func TestSummaryScanMatchesGenerator(t *testing.T) {
	sum := testSummary()
	src := NewSummarySource(sum)
	sc, err := src.Scan(context.Background(), Spec{Table: "S", BatchRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	g := newGeneratorForTest(sum, "S")
	var rowBuf []int64
	var pk int64
	for sc.Next() {
		b := sc.Batch()
		if b.Start != pk+1 {
			t.Fatalf("batch starts at %d, want %d", b.Start, pk+1)
		}
		for i := 0; i < b.N; i++ {
			pk++
			rowBuf = g.Row(pk, rowBuf)
			for c := range b.Cols {
				if b.Cols[c][i] != rowBuf[c] {
					t.Fatalf("pk %d col %d = %d, want %d", pk, c, b.Cols[c][i], rowBuf[c])
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if pk != 8208 {
		t.Fatalf("scanned %d rows, want 8208", pk)
	}
}

// TestBatchGrid pins the conformance-critical batch boundaries: fixed
// BatchRows steps anchored at the scanned range's start, short last
// batch.
func TestBatchGrid(t *testing.T) {
	src := NewSummarySource(testSummary())
	sc, err := src.Scan(context.Background(), Spec{Table: "S", StartPK: 11, EndPK: 1000, BatchRows: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var got [][2]int64
	for sc.Next() {
		got = append(got, [2]int64{sc.Batch().Start, int64(sc.Batch().N)})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{11, 300}, {311, 300}, {611, 300}, {911, 90}}
	if len(got) != len(want) {
		t.Fatalf("batches %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestScanCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	src := NewSummarySource(testSummary())
	sc, err := src.Scan(ctx, Spec{Table: "S", BatchRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if !sc.Next() {
		t.Fatal("first Next = false")
	}
	cancel()
	if sc.Next() {
		t.Fatal("Next = true after cancel")
	}
	if !errors.Is(sc.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want Canceled", sc.Err())
	}
}

func TestProjectionOrderAndValues(t *testing.T) {
	in := *testSummary()
	in.FKSpread = true
	src := NewSummarySource(&in)
	sc, err := src.Scan(context.Background(), Spec{
		Table: "S", Columns: []string{"t_fk", "S_pk"}, StartPK: 3000, EndPK: 3010,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if got := sc.Cols(); len(got) != 2 || got[0] != "t_fk" || got[1] != "S_pk" {
		t.Fatalf("cols = %v", got)
	}
	g := newGeneratorForTest(testSummary(), "S")
	g.SetFKSpread(true)
	var row []int64
	for sc.Next() {
		b := sc.Batch()
		for i := 0; i < b.N; i++ {
			pk := b.Start + int64(i)
			row = g.Row(pk, row)
			if b.Cols[0][i] != row[3] || b.Cols[1][i] != pk {
				t.Fatalf("pk %d: got (%d,%d), want (%d,%d)", pk, b.Cols[0][i], b.Cols[1][i], row[3], pk)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamProjectedFilteredMatchesEncodeScan checks matgen's projected,
// filtered stream against an encoder fed by another path: EncodeScan
// over a SummarySource scan of the same spec, which fills batches through
// runFill instead of matgen's chunk loop. The filter cuts rows out of
// both summary-row kinds (constant A, spread t_fk) and binds a column the
// projection drops.
func TestStreamProjectedFilteredMatchesEncodeScan(t *testing.T) {
	sum := testSummary()
	sum.FKSpread = true
	filter := pred.Col("A").Eq(20).And(pred.Col("t_fk").In(100, 700))
	for _, tc := range []struct {
		format string
		cols   []string
	}{
		{"csv", []string{"t_fk", "S_pk", "B"}},
		{"jsonl", []string{"B", "t_fk"}},
	} {
		for _, limit := range []int64{0, 5000} {
			var stream bytes.Buffer
			if _, err := matgen.Stream(context.Background(), sum, matgen.StreamOptions{
				Table: "S", Format: tc.format, Columns: tc.cols, Filter: filter,
				Limit: limit,
			}, &stream); err != nil {
				t.Fatal(err)
			}
			sc, err := NewSummarySource(sum).Scan(context.Background(), Spec{
				Table: "S", Columns: tc.cols, Filter: filter, EndPK: limit,
			})
			if err != nil {
				t.Fatal(err)
			}
			var enc bytes.Buffer
			rows, err := EncodeScan(&enc, sc, tc.format)
			sc.Close()
			if err != nil {
				t.Fatal(err)
			}
			if rows == 0 || !bytes.Equal(stream.Bytes(), enc.Bytes()) {
				t.Fatalf("%s limit %d: stream (%d bytes) != EncodeScan (%d bytes, %d rows)",
					tc.format, limit, stream.Len(), enc.Len(), rows)
			}
		}
	}
}

// raggedFiller places one row fewer than it shaped the batch for and
// leaves the columns at the full length — the slip Batch.Truncate
// exists to prevent, which with recycled batches would show rows of an
// earlier scan past N.
type raggedFiller struct{}

func (raggedFiller) fill(_ context.Context, b *tuplegen.Batch, lo, hi int64) error {
	b.Reshape(4, int(hi-lo), lo+1)
	b.N--
	return nil
}

func (raggedFiller) close() error { return nil }

// TestScanRejectsRaggedBatch: Next's conformance guard refuses a batch
// whose columns are longer than N, even where N itself is legal (a
// filtered cell may hold fewer rows than it covers).
func TestScanRejectsRaggedBatch(t *testing.T) {
	info := &TableInfo{Table: "S", Cols: []string{"S_pk", "A", "B", "t_fk"}, Rows: 100}
	r, err := resolve(Spec{Table: "S", Filter: pred.Col("A").Eq(20)}, info)
	if err != nil {
		t.Fatal(err)
	}
	sc := newScan(context.Background(), r, raggedFiller{}, metricsForBackend("summary"))
	defer sc.Close()
	if sc.Next() {
		t.Fatal("Next accepted a batch with rows past N")
	}
	if err := sc.Err(); err == nil || !strings.Contains(err.Error(), "column 0 at 100 rows in a batch of 99") {
		t.Fatalf("Err = %v, want the ragged column named", err)
	}
}

// fakeRuns is a run backend that hands out the runs it is given, then
// io.EOF — whatever they are, so a test can break the run contract.
type fakeRuns []tuplegen.Span

func (f *fakeRuns) run(context.Context, int64) (*tuplegen.Span, error) {
	if len(*f) == 0 {
		return nil, io.EOF
	}
	sp := &(*f)[0]
	*f = (*f)[1:]
	return sp, nil
}

func (f *fakeRuns) close() error { return nil }

// TestScanRejectsBadRuns: the fill loop checks the runs a backend hands
// it. A run that starts before the scan's position, or, unfiltered, a
// gap or an early end, fails Next naming the rows; under a filter gaps
// are legal.
func TestScanRejectsBadRuns(t *testing.T) {
	info := &TableInfo{Table: "S", Cols: []string{"S_pk", "A"}, Rows: 100}
	a := []int64{7}
	run := func(start, n int64) tuplegen.Span { return tuplegen.Span{Start: start, N: n, Vals: a} }
	filter := pred.Col("A").Eq(7)
	for _, tc := range []struct {
		name   string
		filter pred.Filter
		runs   fakeRuns
		want   string // "" = the scan succeeds
	}{
		{"tiles", pred.Filter{}, fakeRuns{run(1, 40), run(41, 60)}, ""},
		{"backwards", pred.Filter{}, fakeRuns{run(1, 40), run(31, 70)}, "rows [30,100) after row 40 of [0,100)"},
		{"backwards filtered", filter, fakeRuns{run(1, 40), run(31, 70)}, "rows [30,100) after row 40 of [0,100)"},
		{"gap", pred.Filter{}, fakeRuns{run(1, 40), run(51, 50)}, "rows [50,100) after row 40 of [0,100)"},
		{"gap filtered", filter, fakeRuns{run(1, 40), run(51, 50)}, ""},
		{"empty run", filter, fakeRuns{run(1, 0)}, "rows [0,0) after row 0 of [0,100)"},
		{"ends early", pred.Filter{}, fakeRuns{run(1, 40)}, "ran out of runs at row 40 of [0,100)"},
		{"ends early filtered", filter, fakeRuns{run(1, 40)}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := resolve(Spec{Table: "S", BatchRows: 64, Filter: tc.filter}, info)
			if err != nil {
				t.Fatal(err)
			}
			sc := newScan(context.Background(), r, runs(r, &tc.runs, nil, nil), metricsForBackend("summary"))
			defer sc.Close()
			for sc.Next() {
			}
			switch err := sc.Err(); {
			case tc.want == "" && err != nil:
				t.Fatalf("Err = %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("Err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestScanBatchNilAfterClose: Close recycles the batch, so Batch stops
// handing it out — a read after Close fails loudly instead of seeing
// whatever scan uses the buffers next.
func TestScanBatchNilAfterClose(t *testing.T) {
	sc, err := NewSummarySource(testSummary()).Scan(context.Background(), Spec{Table: "S", BatchRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	if b := sc.Batch(); b == nil || b.N != 0 || len(b.Cols) != 4 {
		t.Fatalf("before the first Next, Batch = %+v, want an empty 4-column batch", b)
	}
	if !sc.Next() || sc.Batch() == nil {
		t.Fatal("no first batch")
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if b := sc.Batch(); b != nil {
		t.Fatalf("Batch after Close = %p, want nil", b)
	}
	if sc.Next() {
		t.Fatal("Next after Close = true")
	}
	if err := sc.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
