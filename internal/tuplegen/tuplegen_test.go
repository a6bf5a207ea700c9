package tuplegen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dsl-repro/hydra/internal/summary"
)

func sampleRS() *summary.RelationSummary {
	return &summary.RelationSummary{
		Table:  "S",
		Cols:   []string{"A", "B"},
		FKCols: []string{"t_fk"},
		FKRefs: []string{"T"},
		Rows: []summary.RelRow{
			{Vals: []int64{20, 15}, FKs: []int64{1}, Count: 150},
			{Vals: []int64{20, 40}, FKs: []int64{9}, Count: 250},
			{Vals: []int64{61, 15}, FKs: []int64{3}, Count: 300},
		},
		Total: 700,
	}
}

func TestRowLookup(t *testing.T) {
	g := New(sampleRS())
	if g.NumRows() != 700 {
		t.Fatalf("NumRows = %d", g.NumRows())
	}
	if g.NumCols() != 4 {
		t.Fatalf("NumCols = %d", g.NumCols())
	}
	cases := []struct {
		pk   int64
		want [4]int64
	}{
		{1, [4]int64{1, 20, 15, 1}},
		{150, [4]int64{150, 20, 15, 1}},
		{151, [4]int64{151, 20, 40, 9}},
		{400, [4]int64{400, 20, 40, 9}},
		{401, [4]int64{401, 61, 15, 3}},
		{700, [4]int64{700, 61, 15, 3}},
	}
	for _, c := range cases {
		got := g.Row(c.pk, nil)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("Row(%d) = %v, want %v", c.pk, got, c.want)
			}
		}
	}
}

// The paper's §6 example: "the 120th row of relation S in Figure 5 would
// be ⟨120, 20, 15⟩" — the row falls in the first summary entry.
func TestPaperSection6Example(t *testing.T) {
	g := New(sampleRS())
	row := g.Row(120, nil)
	if row[0] != 120 || row[1] != 20 || row[2] != 15 {
		t.Fatalf("row 120 = %v, want prefix [120 20 15]", row)
	}
}

func TestRowPanicsOutOfRange(t *testing.T) {
	g := New(sampleRS())
	for _, pk := range []int64{0, -5, 701} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Row(%d) should panic", pk)
				}
			}()
			g.Row(pk, nil)
		}()
	}
}

func TestLinearMatchesBinary(t *testing.T) {
	g := New(sampleRS())
	for pk := int64(1); pk <= g.NumRows(); pk += 7 {
		a := append([]int64(nil), g.Row(pk, nil)...)
		b := g.RowLinear(pk, nil)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("pk %d: binary %v != linear %v", pk, a, b)
			}
		}
	}
}

func TestScanVisitsEveryRowOnce(t *testing.T) {
	g := New(sampleRS())
	b := g.Batch(1, int(g.NumRows()), nil)
	if b.N != 700 {
		t.Fatalf("scanned %d rows, want 700", b.N)
	}
	for i, pk := range b.Cols[0] {
		if pk != int64(i)+1 {
			t.Fatalf("row %d has pk %d", i, pk)
		}
	}
}

func TestScanAgreesWithRandomAccess(t *testing.T) {
	g := New(sampleRS())
	b := g.Batch(1, int(g.NumRows()), nil)
	var row []int64
	for i := 0; i < b.N; i++ {
		row = b.Row(row, i)
		direct := g.Row(row[0], nil)
		for c := range row {
			if row[c] != direct[c] {
				t.Fatalf("pk %d: scan %v != direct %v", row[0], row, direct)
			}
		}
	}
}

// Property: for random summaries, the multiset of generated rows matches
// the summary counts exactly.
func TestQuickGenerationMatchesCounts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := &summary.RelationSummary{Table: "X", Cols: []string{"v"}}
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			rs.Rows = append(rs.Rows, summary.RelRow{
				Vals:  []int64{int64(rng.Intn(10))},
				Count: int64(1 + rng.Intn(50)),
			})
			rs.Total += rs.Rows[i].Count
		}
		g := New(rs)
		got := map[int64]int64{}
		for _, v := range g.Batch(1, int(g.NumRows()), nil).Cols[1] {
			got[v]++
		}
		want := map[int64]int64{}
		for _, r := range rs.Rows {
			want[r.Vals[0]] += r.Count
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyRelation(t *testing.T) {
	g := New(&summary.RelationSummary{Table: "E", Cols: []string{"v"}})
	if g.NumRows() != 0 {
		t.Fatal("empty relation should have 0 rows")
	}
	if b := g.Batch(1, 10, nil); b.N != 0 {
		t.Fatalf("scan of empty relation produced %d rows", b.N)
	}
}

func BenchmarkRowBinary(b *testing.B) {
	g := bigGen(2000)
	b.ResetTimer()
	var buf []int64
	for i := 0; i < b.N; i++ {
		buf = g.Row(int64(i%int(g.NumRows()))+1, buf)
	}
}

func BenchmarkRowLinear(b *testing.B) {
	g := bigGen(2000)
	b.ResetTimer()
	var buf []int64
	for i := 0; i < b.N; i++ {
		buf = g.RowLinear(int64(i%int(g.NumRows()))+1, buf)
	}
}

func bigGen(summaryRows int) *Generator {
	rs := &summary.RelationSummary{Table: "big", Cols: []string{"a", "b", "c"}}
	for i := 0; i < summaryRows; i++ {
		rs.Rows = append(rs.Rows, summary.RelRow{
			Vals:  []int64{int64(i), int64(i * 2), int64(i % 97)},
			Count: int64(10 + i%13),
		})
		rs.Total += rs.Rows[i].Count
	}
	return New(rs)
}
