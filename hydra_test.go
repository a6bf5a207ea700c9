package hydra_test

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	hydra "github.com/dsl-repro/hydra"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/schema"
	"github.com/dsl-repro/hydra/internal/summary"
)

// figure1Schema reproduces the paper's Figure 1a toy scenario:
// R(R_pk, S_fk, T_fk), S(S_pk, A, B), T(T_pk, C).
func figure1Schema(t testing.TB) *hydra.Schema {
	s, err := hydra.NewSchema(
		&hydra.Table{Name: "S", Cols: []hydra.Column{
			{Name: "A", Min: 0, Max: 100},
			{Name: "B", Min: 0, Max: 50},
		}, RowCount: 700},
		&hydra.Table{Name: "T", Cols: []hydra.Column{
			{Name: "C", Min: 0, Max: 10},
		}, RowCount: 1500},
		&hydra.Table{Name: "R", FKs: []hydra.ForeignKey{
			{FKCol: "S_fk", Ref: "S"},
			{FKCol: "T_fk", Ref: "T"},
		}, RowCount: 80000},
	)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	return s
}

// figure1Workload encodes the CCs of Figure 1d.
func figure1Workload() *hydra.Workload {
	sa := hydra.AttrRef{Table: "S", Col: "A"}
	tc := hydra.AttrRef{Table: "T", Col: "C"}
	aIn := pred.DNF{Terms: []pred.Conjunct{pred.NewConjunct().With(0, pred.Range(20, 59))}}
	cIn := pred.DNF{Terms: []pred.Conjunct{pred.NewConjunct().With(0, pred.Range(2, 2))}}
	joinPred := pred.DNF{Terms: []pred.Conjunct{
		pred.NewConjunct().With(0, pred.Range(20, 59)).With(1, pred.Range(2, 2)),
	}}
	return &hydra.Workload{
		Name: "figure1",
		CCs: []hydra.CC{
			{Root: "R", Pred: pred.True(), Count: 80000, Name: "sizeR"},
			{Root: "S", Pred: pred.True(), Count: 700, Name: "sizeS"},
			{Root: "T", Pred: pred.True(), Count: 1500, Name: "sizeT"},
			{Root: "S", Attrs: []hydra.AttrRef{sa}, Pred: aIn, Count: 400, Name: "selS"},
			{Root: "T", Attrs: []hydra.AttrRef{tc}, Pred: cIn, Count: 900, Name: "selT"},
			{Root: "R", Attrs: []hydra.AttrRef{sa}, Pred: aIn, Count: 50000, Name: "joinRS"},
			{Root: "R", Attrs: []hydra.AttrRef{sa, tc}, Pred: joinPred, Count: 30000, Name: "joinRST"},
		},
	}
}

func regenerateFigure1(t testing.TB, cfg hydra.Config) *hydra.Result {
	res, err := hydra.Regenerate(figure1Schema(t), figure1Workload(), cfg)
	if err != nil {
		t.Fatalf("Regenerate: %v", err)
	}
	return res
}

func TestFigure1AllCCsExact(t *testing.T) {
	res := regenerateFigure1(t, hydra.Config{})
	reports, err := res.Evaluate(figure1Workload())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.RelErr != 0 {
			t.Errorf("CC %s: want %d got %d (relerr %.4f)", r.Name, r.Want, r.Got, r.RelErr)
		}
	}
}

func TestFigure1RelationSizes(t *testing.T) {
	res := regenerateFigure1(t, hydra.Config{})
	wantSizes := map[string]int64{"R": 80000, "S": 700, "T": 1500}
	for name, want := range wantSizes {
		rs := res.Summary.Relations[name]
		if rs == nil {
			t.Fatalf("missing relation summary %s", name)
		}
		if rs.Total != want {
			t.Errorf("|%s| = %d, want %d", name, rs.Total, want)
		}
	}
	// No referential-integrity extras should be needed: every R_view
	// combination is present in S_view and T_view by construction.
	for name, extra := range res.Summary.Extra {
		if extra != 0 {
			t.Errorf("unexpected %d extra tuples in %s", extra, name)
		}
	}
}

func TestFigure1SummaryIsMinuscule(t *testing.T) {
	res := regenerateFigure1(t, hydra.Config{})
	if n := res.Summary.NumRows(); n > 50 {
		t.Errorf("summary has %d rows; expected a handful (scale-independent)", n)
	}
	if sz := res.Summary.SizeBytes(); sz > 1<<16 {
		t.Errorf("summary is %d bytes; expected well under 64KiB", sz)
	}
}

// sourceRows drains one scan through the Source read path into
// row-major tuples — the batch-API replacement for the old
// generator-iterator materialization.
func sourceRows(t *testing.T, src hydra.Source, spec hydra.ScanSpec) [][]int64 {
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

// TestFigure1JoinByGeneration is the strongest volumetric check: it
// materializes all of R via the read path, follows the generated FK
// values into S and T, and re-counts the AQP's operator outputs by brute
// force.
func TestFigure1JoinByGeneration(t *testing.T) {
	res := regenerateFigure1(t, hydra.Config{})
	src := hydra.NewSummarySource(res.Summary)

	// Materialize S and T keyed by pk.
	sRows := map[int64][]int64{}
	for _, row := range sourceRows(t, src, hydra.ScanSpec{Table: "S"}) {
		sRows[row[0]] = row
	}
	tRows := map[int64][]int64{}
	for _, row := range sourceRows(t, src, hydra.ScanSpec{Table: "T"}) {
		tRows[row[0]] = row
	}

	// σ(S): A in [20,60) — column layout [pk, A, B].
	var selS int64
	for _, r := range sRows {
		if r[1] >= 20 && r[1] < 60 {
			selS++
		}
	}
	if selS != 400 {
		t.Errorf("|σ(S)| = %d, want 400", selS)
	}
	// The same selection pushed down as a scan filter must count the same.
	filtered := sourceRows(t, src, hydra.ScanSpec{
		Table: "S", Filter: hydra.Col("A").In(20, 59),
	})
	if int64(len(filtered)) != selS {
		t.Errorf("filtered |σ(S)| = %d, want %d", len(filtered), selS)
	}
	// σ(T): C in [2,3) — layout [pk, C].
	var selT int64
	for _, r := range tRows {
		if r[1] >= 2 && r[1] < 3 {
			selT++
		}
	}
	if selT != 900 {
		t.Errorf("|σ(T)| = %d, want 900", selT)
	}

	// R ⋈ σ(S) and R ⋈ σ(S) ⋈ σ(T) — R layout [pk, S_fk, T_fk].
	var joinRS, joinRST int64
	for _, row := range sourceRows(t, src, hydra.ScanSpec{Table: "R"}) {
		s, okS := sRows[row[1]]
		tt, okT := tRows[row[2]]
		if !okS || !okT {
			t.Fatalf("dangling FK in generated R row %v", row)
		}
		if s[1] >= 20 && s[1] < 60 {
			joinRS++
			if tt[1] >= 2 && tt[1] < 3 {
				joinRST++
			}
		}
	}
	if joinRS != 50000 {
		t.Errorf("|R ⋈ σ(S)| = %d, want 50000", joinRS)
	}
	if joinRST != 30000 {
		t.Errorf("|R ⋈ σ(S) ⋈ σ(T)| = %d, want 30000", joinRST)
	}
}

func TestSummarySaveLoadRoundTrip(t *testing.T) {
	res := regenerateFigure1(t, hydra.Config{})
	path := filepath.Join(t.TempDir(), "fig1.summary.json")
	if err := res.Summary.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := summary.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, rs := range res.Summary.Relations {
		lrs := loaded.Relations[name]
		if lrs == nil || lrs.Total != rs.Total || len(lrs.Rows) != len(rs.Rows) {
			t.Fatalf("relation %s did not round-trip", name)
		}
	}
	// The loaded summary must still drive generation.
	info, err := hydra.NewSummarySource(loaded).Table("S")
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 700 {
		t.Fatalf("loaded source rows = %d", info.Rows)
	}
}

func TestInconsistentWorkloadSoftFallback(t *testing.T) {
	s := figure1Schema(t)
	w := figure1Workload()
	// Make it impossible: the join output exceeds |R|.
	for i := range w.CCs {
		if w.CCs[i].Name == "joinRS" {
			w.CCs[i].Count = 90000
		}
	}
	res, err := hydra.Regenerate(s, w, hydra.Config{})
	if err != nil {
		t.Fatalf("soft fallback should succeed: %v", err)
	}
	reports, err := res.Evaluate(w)
	if err != nil {
		t.Fatal(err)
	}
	// Some CC must be off, but the summary exists and most CCs hold.
	bad := 0
	for _, r := range reports {
		if math.Abs(r.RelErr) > 1e-9 {
			bad++
		}
	}
	if bad == 0 {
		t.Fatal("expected at least one violated CC for an inconsistent workload")
	}
	// Strict mode must refuse instead.
	if _, err := hydra.Regenerate(s, w, hydra.Config{Strict: true}); err == nil {
		t.Fatal("Strict mode should fail on inconsistent CCs")
	}
}

func TestEmptyWorkloadUsesSchemaSizes(t *testing.T) {
	s := figure1Schema(t)
	w := &hydra.Workload{Name: "empty"}
	res, err := hydra.Regenerate(s, w, hydra.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Relations["R"].Total != 80000 {
		t.Fatalf("|R| = %d, want schema RowCount 80000", res.Summary.Relations["R"].Total)
	}
}

func TestValidateRejectsForeignAttr(t *testing.T) {
	s := figure1Schema(t)
	w := &hydra.Workload{CCs: []hydra.CC{{
		Root:  "S",
		Attrs: []hydra.AttrRef{{Table: "T", Col: "C"}}, // T is not in S's closure
		Pred:  pred.DNF{Terms: []pred.Conjunct{pred.NewConjunct().With(0, pred.Range(0, 1))}},
		Count: 1, Name: "bad",
	}}}
	if _, err := hydra.Regenerate(s, w, hydra.Config{}); err == nil {
		t.Fatal("expected validation failure for attr outside FK closure")
	}
}

func TestScaleIndependence(t *testing.T) {
	// The same workload at 10^6x the counts must produce a summary of the
	// same shape (row counts in the summary, not the data).
	s := figure1Schema(t)
	w := figure1Workload()
	base, err := hydra.Regenerate(s, w, hydra.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const k = 1_000_000
	for i := range w.CCs {
		w.CCs[i].Count *= k
	}
	for _, tab := range s.Tables {
		tab.RowCount *= k
	}
	big, err := hydra.Regenerate(s, w, hydra.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Summary.NumRows() != big.Summary.NumRows() {
		t.Fatalf("summary rows changed with scale: %d vs %d", base.Summary.NumRows(), big.Summary.NumRows())
	}
	if big.Summary.Relations["R"].Total != 80000*k {
		t.Fatalf("scaled |R| wrong: %d", big.Summary.Relations["R"].Total)
	}
	reports, err := big.Evaluate(w)
	if err != nil {
		t.Fatal(err)
	}
	if m := summary.MaxAbsErr(reports); m != 0 {
		t.Fatalf("scaled workload max relerr = %v", m)
	}
	_ = schema.AttrRef{}
}
