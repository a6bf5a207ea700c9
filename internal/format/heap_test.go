// The heap format's file is written by matgen and read by scan's
// DirSource; these tests round-trip it through both.
package format_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/scan"
	"github.com/dsl-repro/hydra/internal/summary"
)

// pageSize is the heap format's page size.
const pageSize = 8192

// relation is the summary of table "x" whose non-key columns hold vals,
// one row per entry.
func relation(ncols int, vals [][]int64) *summary.Summary {
	rs := &summary.RelationSummary{Table: "x"}
	for c := 1; c < ncols; c++ {
		rs.Cols = append(rs.Cols, string(rune('a'+c)))
	}
	for _, v := range vals {
		rs.Rows = append(rs.Rows, summary.RelRow{Vals: v, Count: 1})
		rs.Total++
	}
	return &summary.Summary{Relations: map[string]*summary.RelationSummary{"x": rs}}
}

// writeHeap materializes sum as a heap directory and returns it.
func writeHeap(t *testing.T, sum *summary.Summary) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := matgen.Materialize(sum, matgen.Options{Dir: dir, Format: "heap", Workers: 2}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// readHeap scans table x of a heap directory back as rows, pk first.
func readHeap(t *testing.T, dir string) ([][]int64, error) {
	t.Helper()
	src, err := scan.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	sc, err := src.Scan(context.Background(), scan.Spec{Table: "x"})
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	var rows [][]int64
	for sc.Next() {
		b := sc.Batch()
		for i := 0; i < b.N; i++ {
			rows = append(rows, b.Row(nil, i))
		}
	}
	return rows, sc.Err()
}

// roundTrip writes vals as relation x and checks the heap file's size
// and that it reads back exactly.
func roundTrip(t *testing.T, ncols int, vals [][]int64) {
	t.Helper()
	dir := writeHeap(t, relation(ncols, vals))
	perPage := pageSize / (8 * ncols)
	fi, err := os.Stat(filepath.Join(dir, "x.heap"))
	if err != nil {
		t.Fatal(err)
	}
	pages := 1 + (len(vals)+perPage-1)/perPage
	if fi.Size() != int64(pages*pageSize) {
		t.Fatalf("%d rows: %d bytes, want %d pages", len(vals), fi.Size(), pages)
	}
	if len(vals) == 0 {
		return // a directory scan has nothing to read of an empty relation
	}
	rows, err := readHeap(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(vals) {
		t.Fatalf("%d rows read back as %d", len(vals), len(rows))
	}
	for i, row := range rows {
		if row[0] != int64(i+1) || !slices.Equal(row[1:], vals[i]) {
			t.Fatalf("row %d read back as %v, want pk %d then %v", i, row, i+1, vals[i])
		}
	}
}

func TestRoundTripExactPageBoundary(t *testing.T) {
	// 2 cols → 16 B/row → 512 rows/page. Test counts around the page
	// boundary, including exactly one page and one page plus one row.
	for _, n := range []int{0, 1, 511, 512, 513, 1024, 1025} {
		vals := make([][]int64, n)
		for i := range vals {
			vals[i] = []int64{int64(i * 3)}
		}
		roundTrip(t, 2, vals)
	}
}

func TestNegativeValues(t *testing.T) {
	roundTrip(t, 2, [][]int64{{-42}, {-9_000_000_000}})
}

func TestHeaderMetadata(t *testing.T) {
	dir := writeHeap(t, relation(3, [][]int64{{2, 3}}))
	b, err := os.ReadFile(filepath.Join(dir, "x.heap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 2*pageSize {
		t.Fatalf("size = %d, want a header page and one row page", len(b))
	}
	var h struct {
		Magic   string   `json:"magic"`
		Name    string   `json:"name"`
		Cols    []string `json:"cols"`
		NumRows int64    `json:"num_rows"`
	}
	if err := json.Unmarshal(b[:bytes.IndexByte(b, 0)], &h); err != nil {
		t.Fatal(err)
	}
	if h.Magic != "HYDRAHF1" || h.Name != "x" || !slices.Equal(h.Cols, []string{"x_pk", "b", "c"}) || h.NumRows != 1 {
		t.Fatalf("header = %+v", h)
	}
}

// TestOpenRejectsGarbage: a heap part whose bytes are not the ones its
// manifest recorded is refused, whatever they are.
func TestOpenRejectsGarbage(t *testing.T) {
	dir := writeHeap(t, relation(2, [][]int64{{1}, {2}}))
	part := filepath.Join(dir, "x.heap")
	for _, junk := range [][]byte{make([]byte, 2*pageSize), []byte("short")} {
		if err := os.WriteFile(part, junk, 0o644); err != nil {
			t.Fatal(err)
		}
		if rows, err := readHeap(t, dir); err == nil {
			t.Fatalf("%d junk bytes read as %v", len(junk), rows)
		}
	}
}

// Property: any random value matrix round-trips exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ncols := 1 + rng.Intn(6)
		vals := make([][]int64, rng.Intn(2000))
		for i := range vals {
			vals[i] = make([]int64, ncols-1)
			for j := range vals[i] {
				vals[i][j] = rng.Int63() - rng.Int63()
			}
		}
		roundTrip(t, ncols, vals)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
