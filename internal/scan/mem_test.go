package scan_test

import (
	"errors"
	"strings"
	"testing"

	"github.com/dsl-repro/hydra/internal/scan"
)

// TestMemSourceRejectsBadShapes: a table whose pk column is not 1..N in
// row order, whose columns differ in length, or that names a column or
// itself twice is an error at construction, not a wrong scan later.
func TestMemSourceRejectsBadShapes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tables []scan.MemTable
		want   string
	}{
		{"pk gap", []scan.MemTable{{Name: "R", Cols: []string{"R_pk", "v"}, Data: [][]int64{{1, 3}, {5, 6}}}}, "row 1 holds pk 3"},
		{"pk from 0", []scan.MemTable{{Name: "R", Cols: []string{"v", "R_pk"}, Data: [][]int64{{5, 6}, {0, 1}}}}, "row 0 holds pk 0"},
		{"ragged", []scan.MemTable{{Name: "R", Cols: []string{"R_pk", "v"}, Data: [][]int64{{1, 2}, {5}}}}, `column "v" holds 1 rows`},
		{"data without names", []scan.MemTable{{Name: "R", Cols: []string{"R_pk"}, Data: [][]int64{{1}, {5}}}}, "2 columns of data for 1 names"},
		{"column twice", []scan.MemTable{{Name: "R", Cols: []string{"v", "v"}, Data: [][]int64{{1}, {5}}}}, `column "v" given twice`},
		{"table twice", []scan.MemTable{{Name: "R", Cols: []string{"v"}, Data: [][]int64{{1}}}, {Name: "R", Cols: []string{"v"}, Data: [][]int64{{1}}}}, `"R" given twice`},
	} {
		if _, err := scan.NewMemSource(tc.tables...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one saying %q", tc.name, err, tc.want)
		}
	}
	src, err := scan.NewMemSource(scan.MemTable{Name: "E", Cols: []string{"E_pk", "v"}, Data: [][]int64{{}, {}}})
	if err != nil {
		t.Fatal(err)
	}
	if info, err := src.Table("E"); err != nil || info.Rows != 0 {
		t.Fatalf("empty table: %+v, %v", info, err)
	}
	if _, err := src.Table("F"); !errors.Is(err, scan.ErrSpec) {
		t.Fatalf("unknown table: %v, want ErrSpec", err)
	}
}
