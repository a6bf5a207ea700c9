package engine

import (
	"context"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/scan"
	"github.com/dsl-repro/hydra/internal/schema"
	"github.com/dsl-repro/hydra/internal/summary"
)

// toySchema is the Figure 1 layout: R → S, R → T.
func toySchema(t testing.TB) *schema.Schema {
	t.Helper()
	return schema.MustNew(
		&schema.Table{Name: "S", Cols: []schema.Column{{Name: "A", Min: 0, Max: 100}, {Name: "B", Min: 0, Max: 50}}},
		&schema.Table{Name: "T", Cols: []schema.Column{{Name: "C", Min: 0, Max: 10}}},
		&schema.Table{Name: "R", FKs: []schema.ForeignKey{{FKCol: "S_fk", Ref: "S"}, {FKCol: "T_fk", Ref: "T"}}},
	)
}

// toyRows builds a small deterministic client database on the toy
// schema, as rows in ColLayout order.
func toyRows(s *schema.Schema, nS, nT, nR int, seed int64) map[string][][]int64 {
	rng := rand.New(rand.NewSource(seed))
	rows := map[string][][]int64{}
	for i := 1; i <= nS; i++ {
		rows["S"] = append(rows["S"], []int64{int64(i), int64(rng.Intn(101)), int64(rng.Intn(51))})
	}
	for i := 1; i <= nT; i++ {
		rows["T"] = append(rows["T"], []int64{int64(i), int64(rng.Intn(11))})
	}
	for i := 1; i <= nR; i++ {
		rows["R"] = append(rows["R"], []int64{int64(i), int64(1 + rng.Intn(nS)), int64(1 + rng.Intn(nT))})
	}
	return rows
}

// rowsDB serves rows (ColLayout order) from memory.
func rowsDB(t testing.TB, s *schema.Schema, rows map[string][][]int64) *Database {
	t.Helper()
	var tables []scan.MemTable
	for _, tab := range s.Tables {
		mt := scan.MemTable{Name: tab.Name, Cols: ColLayout(tab)}
		mt.Data = make([][]int64, len(mt.Cols))
		for _, row := range rows[tab.Name] {
			for c, v := range row {
				mt.Data[c] = append(mt.Data[c], v)
			}
		}
		tables = append(tables, mt)
	}
	src, err := scan.NewMemSource(tables...)
	if err != nil {
		t.Fatal(err)
	}
	return NewDatabase(src)
}

func toyQuery() *Query {
	return &Query{
		Name: "q1",
		Root: "R",
		Joins: []JoinStep{
			{Table: "S", Via: "R"},
			{Table: "T", Via: "R"},
		},
		Filters: map[string]pred.DNF{
			"S": {Terms: []pred.Conjunct{pred.NewConjunct().With(0, pred.Range(20, 59))}},
			"T": {Terms: []pred.Conjunct{pred.NewConjunct().With(0, pred.Range(2, 2))}},
		},
	}
}

// bruteForce recomputes the query result size by nested loops; an FK
// naming no row joins nothing.
func bruteForce(rows map[string][][]int64) (selS, selT, joinRS, joinRST int64) {
	sOK := map[int64]bool{}
	for _, row := range rows["S"] {
		if row[1] >= 20 && row[1] < 60 {
			sOK[row[0]] = true
			selS++
		}
	}
	tOK := map[int64]bool{}
	for _, row := range rows["T"] {
		if row[1] == 2 {
			tOK[row[0]] = true
			selT++
		}
	}
	for _, row := range rows["R"] {
		if sOK[row[1]] {
			joinRS++
			if tOK[row[2]] {
				joinRST++
			}
		}
	}
	return
}

func TestExecuteMatchesBruteForce(t *testing.T) {
	s := toySchema(t)
	rows := toyRows(s, 50, 10, 2000, 42)
	aqp, err := Execute(rowsDB(t, s, rows), s, toyQuery())
	if err != nil {
		t.Fatal(err)
	}
	selS, selT, joinRS, joinRST := bruteForce(rows)
	if aqp.FilterOut["S"] != selS || aqp.FilterOut["T"] != selT {
		t.Fatalf("filters: got S=%d T=%d, want S=%d T=%d", aqp.FilterOut["S"], aqp.FilterOut["T"], selS, selT)
	}
	if aqp.JoinOut[0] != joinRS || aqp.JoinOut[1] != joinRST {
		t.Fatalf("joins: got %v, want [%d %d]", aqp.JoinOut, joinRS, joinRST)
	}
	if aqp.Base["R"] != 2000 || aqp.Base["S"] != 50 || aqp.Base["T"] != 10 {
		t.Fatalf("base cards wrong: %v", aqp.Base)
	}
}

// Property: pipelined hash-join execution equals brute force across random
// databases.
func TestQuickExecuteEqualsBruteForce(t *testing.T) {
	s := toySchema(t)
	f := func(seed int64) bool {
		rows := toyRows(s, 20, 5, 300, seed)
		aqp, err := Execute(rowsDB(t, s, rows), s, toyQuery())
		if err != nil {
			return false
		}
		selS, selT, joinRS, joinRST := bruteForce(rows)
		return aqp.FilterOut["S"] == selS && aqp.FilterOut["T"] == selT &&
			aqp.JoinOut[0] == joinRS && aqp.JoinOut[1] == joinRST
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestToCCsShape(t *testing.T) {
	s := toySchema(t)
	aqp, err := Execute(rowsDB(t, s, toyRows(s, 50, 10, 2000, 7)), s, toyQuery())
	if err != nil {
		t.Fatal(err)
	}
	ccs := aqp.ToCCs(s)
	// 3 size CCs + 2 filter CCs + 2 join CCs = 7, the Figure 1d tally.
	if len(ccs) != 7 {
		t.Fatalf("got %d CCs, want 7: %v", len(ccs), ccs)
	}
	for _, c := range ccs {
		if err := c.Validate(s); err != nil {
			t.Fatalf("CC %s invalid: %v", c.Name, err)
		}
	}
	// The final join CC must be rooted at R with both attrs.
	last := ccs[len(ccs)-1]
	if last.Root != "R" || len(last.Attrs) != 2 {
		t.Fatalf("final join CC malformed: %+v", last)
	}
}

func TestSnowflakeJoinVia(t *testing.T) {
	// C → B → A chain; query root C joins B via C, then A via B.
	s := schema.MustNew(
		&schema.Table{Name: "A", Cols: []schema.Column{{Name: "x", Min: 0, Max: 9}}},
		&schema.Table{Name: "B", Cols: []schema.Column{{Name: "y", Min: 0, Max: 9}}, FKs: []schema.ForeignKey{{FKCol: "a_fk", Ref: "A"}}},
		&schema.Table{Name: "C", FKs: []schema.ForeignKey{{FKCol: "b_fk", Ref: "B"}}},
	)
	db := rowsDB(t, s, map[string][][]int64{
		"A": {{1, 3}, {2, 7}},
		"B": {
			{1, 5, 1}, // y=5 → A1 (x=3)
			{2, 5, 2}, // y=5 → A2 (x=7)
		},
		"C": {{1, 1}, {2, 2}, {3, 2}},
	})
	q := &Query{
		Name: "snow",
		Root: "C",
		Joins: []JoinStep{
			{Table: "B", Via: "C"},
			{Table: "A", Via: "B"},
		},
		Filters: map[string]pred.DNF{
			"A": {Terms: []pred.Conjunct{pred.NewConjunct().With(0, pred.Range(7, 7))}},
		},
	}
	aqp, err := Execute(db, s, q)
	if err != nil {
		t.Fatal(err)
	}
	// Join 1 (C⋈B): all 3 C rows. Join 2 (⋈σA): only C rows whose B row
	// points at A2 (x=7): C2, C3 → 2.
	if aqp.JoinOut[0] != 3 || aqp.JoinOut[1] != 2 {
		t.Fatalf("snowflake joins = %v, want [3 2]", aqp.JoinOut)
	}
}

func TestQueryValidateRejectsBadJoins(t *testing.T) {
	s := toySchema(t)
	bad := []*Query{
		{Name: "noRoot", Root: "Z"},
		{Name: "viaAbsent", Root: "R", Joins: []JoinStep{{Table: "S", Via: "T"}}},
		{Name: "noFK", Root: "S", Joins: []JoinStep{{Table: "T", Via: "S"}}},
		{Name: "dupJoin", Root: "R", Joins: []JoinStep{{Table: "S", Via: "R"}, {Table: "S", Via: "R"}}},
		{Name: "filterOutside", Root: "S", Filters: map[string]pred.DNF{"T": pred.True()}},
		{Name: "filterBadCol", Root: "S", Filters: map[string]pred.DNF{
			"S": {Terms: []pred.Conjunct{pred.NewConjunct().With(9, pred.Range(0, 1))}},
		}},
	}
	for _, q := range bad {
		if err := q.Validate(s); err == nil {
			t.Errorf("query %s should be rejected", q.Name)
		}
	}
}

func TestWorkloadFromQueriesDedupes(t *testing.T) {
	s := toySchema(t)
	db := rowsDB(t, s, toyRows(s, 50, 10, 2000, 3))
	// Two identical queries: size CCs must be deduplicated.
	w, aqps, err := WorkloadFromQueries(db, s, "wl", []*Query{toyQuery(), toyQuery()})
	if err != nil {
		t.Fatal(err)
	}
	if len(aqps) != 2 {
		t.Fatalf("aqps = %d", len(aqps))
	}
	if len(w.CCs) != 7 {
		t.Fatalf("deduped CC count = %d, want 7", len(w.CCs))
	}
}

func TestOptimizeOrdersBySelectivity(t *testing.T) {
	q := toyQuery()
	est := func(table string) float64 {
		if table == "T" {
			return 0.1
		}
		return 0.5
	}
	opt := Optimize(q, est)
	if opt.Joins[0].Table != "T" || opt.Joins[1].Table != "S" {
		t.Fatalf("expected T first, got %v", opt.Joins)
	}
}

func TestOptimizeRespectsVia(t *testing.T) {
	q := &Query{
		Name: "snow",
		Root: "C",
		Joins: []JoinStep{
			{Table: "B", Via: "C"},
			{Table: "A", Via: "B"},
		},
	}
	// Even if A looks maximally selective, it cannot precede B.
	est := func(table string) float64 {
		if table == "A" {
			return 0.01
		}
		return 0.9
	}
	opt := Optimize(q, est)
	if opt.Joins[0].Table != "B" {
		t.Fatalf("A must not precede its Via table B: %v", opt.Joins)
	}
}

// TestExecuteDropsDanglingFKs: an FK of 0 or past the referenced table's
// last pk joins nothing, on the first step and on a snowflake arm alike.
func TestExecuteDropsDanglingFKs(t *testing.T) {
	s := toySchema(t)
	rows := toyRows(s, 50, 10, 200, 11)
	for i, fk := range []int64{0, 51, 1, 50, 0, 51} {
		rows["R"][i][1] = fk
	}
	rows["R"][10][2], rows["R"][11][2] = 0, 11
	aqp, err := Execute(rowsDB(t, s, rows), s, toyQuery())
	if err != nil {
		t.Fatal(err)
	}
	selS, selT, joinRS, joinRST := bruteForce(rows)
	if aqp.FilterOut["S"] != selS || aqp.FilterOut["T"] != selT ||
		aqp.JoinOut[0] != joinRS || aqp.JoinOut[1] != joinRST {
		t.Fatalf("AQP %v %v, want filters S=%d T=%d, joins [%d %d]",
			aqp.FilterOut, aqp.JoinOut, selS, selT, joinRS, joinRST)
	}
	// Unfiltered, the dangling rows are the only ones that drop.
	q := &Query{Name: "all", Root: "R", Joins: []JoinStep{{Table: "S", Via: "R"}, {Table: "T", Via: "R"}}}
	aqp, err = Execute(rowsDB(t, s, rows), s, q)
	if err != nil {
		t.Fatal(err)
	}
	if aqp.JoinOut[0] != 200-4 || aqp.JoinOut[1] != 200-4-2 {
		t.Fatalf("unfiltered joins %v, want [196 194]", aqp.JoinOut)
	}
}

func TestAggregateScan(t *testing.T) {
	s := schema.MustNew(&schema.Table{Name: "x", Cols: []schema.Column{{Name: "v", Min: 0, Max: 100}}})
	db := rowsDB(t, s, map[string][][]int64{"x": {{1, 10}, {2, 20}}})
	count, sum, err := AggregateScan(db, "x", "v")
	if err != nil || count != 2 || sum != 30 {
		t.Fatalf("count=%d sum=%d err=%v", count, sum, err)
	}
	if _, _, err := AggregateScan(db, "x", "nope"); err == nil {
		t.Fatal("an unknown column must be an error")
	}
}

// toySummary is a regenerated database on the toy schema.
func toySummary() *summary.Summary {
	return &summary.Summary{Relations: map[string]*summary.RelationSummary{
		"S": {Table: "S", Cols: []string{"A", "B"}, Total: 50, Rows: []summary.RelRow{
			{Vals: []int64{30, 5}, Count: 30}, {Vals: []int64{70, 20}, Count: 20},
		}},
		"T": {Table: "T", Cols: []string{"C"}, Total: 10, Rows: []summary.RelRow{
			{Vals: []int64{2}, Count: 4}, {Vals: []int64{9}, Count: 6},
		}},
		"R": {Table: "R", FKCols: []string{"S_fk", "T_fk"}, FKRefs: []string{"S", "T"}, Total: 5000, Rows: []summary.RelRow{
			{FKs: []int64{1, 1}, Count: 3100}, {FKs: []int64{31, 5}, Count: 1900},
		}},
	}}
}

// heapDir materializes sum as a heap directory.
func heapDir(t *testing.T, sum *summary.Summary) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := matgen.Materialize(sum, matgen.Options{Dir: dir, Format: "heap", Workers: 2}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestMaterializeAndDiskRoundTrip: a relation read back from its heap
// file is the relation the summary generates, row for row.
func TestMaterializeAndDiskRoundTrip(t *testing.T) {
	sum := toySummary()
	disk, err := scan.OpenDir(heapDir(t, sum))
	if err != nil {
		t.Fatal(err)
	}
	dyn := scan.NewSummarySource(sum)
	count, total, err := AggregateScan(disk, "R", "S_fk")
	if err != nil {
		t.Fatal(err)
	}
	wantCount, wantTotal, err := AggregateScan(dyn, "R", "S_fk")
	if err != nil || count != 5000 || count != wantCount || total != wantTotal {
		t.Fatalf("disk scan (%d,%d) != dynamic scan (%d,%d), err %v", count, total, wantCount, wantTotal, err)
	}
	for _, tab := range []string{"R", "S", "T"} {
		if got, want := drainRows(t, disk, tab), drainRows(t, dyn, tab); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("%s: disk rows differ from generated rows", tab)
		}
	}
}

// drainRows reads a whole relation as rows.
func drainRows(t *testing.T, src scan.Source, table string) [][]int64 {
	t.Helper()
	sc, err := src.Scan(context.Background(), scan.Spec{Table: table})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var rows [][]int64
	for sc.Next() {
		b := sc.Batch()
		for i := 0; i < b.N; i++ {
			rows = append(rows, b.Row(nil, i))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestExecuteReportsReadErrors: a relation that cannot be read is an
// error naming its part, never a smaller count. The part is truncated
// after the source first verified it.
func TestExecuteReportsReadErrors(t *testing.T) {
	s := toySchema(t)
	sum := toySummary()
	dir := heapDir(t, sum)
	disk, err := scan.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(disk)
	want, err := Execute(FromSummary(sum), s, toyQuery())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Execute(db, s, toyQuery())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.JoinOut, want.JoinOut) || !maps.Equal(got.FilterOut, want.FilterOut) {
		t.Fatalf("heap AQP %v %v != summary AQP %v %v", got.FilterOut, got.JoinOut, want.FilterOut, want.JoinOut)
	}
	part := filepath.Join(dir, "R.heap")
	fi, err := os.Stat(part)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(part, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	if aqp, err := Execute(db, s, toyQuery()); err == nil || !strings.Contains(err.Error(), part) {
		t.Fatalf("Execute over a truncated part: AQP %v, err %v; want an error naming %s", aqp, err, part)
	}
	if n, _, err := AggregateScan(db, "R", "S_fk"); err == nil || !strings.Contains(err.Error(), part) {
		t.Fatalf("AggregateScan over a truncated part: %d rows, err %v; want an error naming %s", n, err, part)
	}
}
