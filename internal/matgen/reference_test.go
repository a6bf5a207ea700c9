package matgen

import (
	"encoding/binary"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"github.com/dsl-repro/hydra/internal/format"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// referenceBody renders the body (no header or footer) of rows, the
// layout's columns of rows first..first+len(rows)-1, the way each format
// is specified: value by value, every row framed on its own. It shares no
// code with the encoders — strconv, encoding/json and encoding/binary
// only — so it is the independent statement of the formats' bytes.
func referenceBody(t *testing.T, name string, l format.Layout, first int64, rows [][]int64) []byte {
	t.Helper()
	// The sql format's statement size and the heap format's page size.
	const sqlRowsPerStmt, pageSize = 500, 8192
	var dst []byte
	switch name {
	case "csv":
		for _, row := range rows {
			for c, v := range row {
				if c > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendInt(dst, v, 10)
			}
			dst = append(dst, '\n')
		}
	case "jsonl":
		for _, row := range rows {
			dst = append(dst, '{')
			for c, v := range row {
				if c > 0 {
					dst = append(dst, ',')
				}
				key, err := json.Marshal(l.Cols[c])
				if err != nil {
					t.Fatal(err)
				}
				dst = append(dst, key...)
				dst = append(dst, ':')
				dst = strconv.AppendInt(dst, v, 10)
			}
			dst = append(dst, '}', '\n')
		}
	case "sql":
		for i, row := range rows {
			abs := first + int64(i) - l.StartRow
			if abs%sqlRowsPerStmt == 0 {
				dst = append(dst, "INSERT INTO "+l.Table+" ("+strings.Join(l.Cols, ",")+") VALUES\n"...)
			}
			dst = append(dst, '(')
			for c, v := range row {
				if c > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendInt(dst, v, 10)
			}
			if abs+1 == l.TotalRows || (abs+1)%sqlRowsPerStmt == 0 {
				dst = append(dst, ");\n"...)
			} else {
				dst = append(dst, "),\n"...)
			}
		}
	case "heap":
		perPage := pageSize / (8 * len(l.Cols))
		for i, row := range rows {
			for _, v := range row {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
			}
			if abs := first + int64(i) - l.StartRow; (abs+1)%int64(perPage) == 0 {
				dst = append(dst, make([]byte, pageSize-perPage*8*len(l.Cols))...)
			}
		}
	default:
		t.Fatalf("no reference for format %q", name)
	}
	return dst
}

// referenceRows generates rows [lo, hi) a tuple at a time (Generator.Row,
// a binary search per pk, no spans) and projects them onto proj.
func referenceRows(g *tuplegen.Generator, proj []int, lo, hi int64) [][]int64 {
	var rows [][]int64
	var tuple []int64
	for r := lo; r < hi; r++ {
		tuple = g.Row(r+1, tuple)
		row := make([]int64, 0, len(tuple))
		if proj == nil {
			row = append(row, tuple...)
		} else {
			for _, src := range proj {
				row = append(row, tuple[src])
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// referenceLayouts are the column layouts the encoders are checked in:
// every column, the pk in the middle, no pk, and a spread FK ahead of
// the pk.
var referenceLayouts = map[string][][]string{
	"S": {nil, {"A", "S_pk", "t_fk"}, {"B", "t_fk", "A"}, {"t_fk", "S_pk", "B"}},
	"T": {nil, {"C", "T_pk"}, {"C"}},
}

// TestSpanPathMatchesReference: the csv, jsonl, sql and heap encoders —
// csv and jsonl a block of lines at a time where no laid-out FK spreads,
// a line at a time where one does, sql always a line at a time, heap a
// patched row template — write what the value-by-value reference
// renders, in every reference layout, with FKs spread and not, over runs
// of thousands of rows (long enough for blocks of a hundred, which the
// golden fixture's 256-row chunks never reach) cut at chunk boundaries
// of every phase; for the whole table and for a range that starts inside
// a heap page and an sql statement and counts them from its own start,
// as a scan's file does.
func TestSpanPathMatchesReference(t *testing.T) {
	sum := testSummary()
	for table, layouts := range referenceLayouts {
		for _, cols := range layouts {
			for _, spread := range []bool{false, true} {
				g := tuplegen.New(sum.Relations[table])
				g.SetFKSpread(spread)
				proj, err := g.Project(cols)
				if err != nil {
					t.Fatal(err)
				}
				if cols == nil {
					cols = g.ColNames()
				}
				n := g.NumRows()
				for _, first := range []int64{0, 300} {
					l := format.Layout{Table: table, Cols: cols, TotalRows: n - first, Idx: proj, StartRow: first}
					rows := referenceRows(g, proj, first, n)
					for _, name := range []string{"csv", "jsonl", "sql", "heap"} {
						s := formatFor(name)
						align, err := s.Align(l)
						if err != nil {
							t.Fatal(err)
						}
						want := referenceBody(t, name, l, first, rows)
						enc := s.NewEncoder(l)
						for _, chunk := range []int64{n, 1000, 500, 7} {
							chunk = (chunk + int64(align) - 1) / int64(align) * int64(align)
							var got []byte
							for lo := first; lo < n; lo += chunk {
								it := g.Spans(lo+1, min(chunk, n-lo))
								for sp, ok := it.Next(); ok; sp, ok = it.Next() {
									got = appendSpan(t, enc, got, sp)
								}
							}
							if string(got) != string(want) {
								t.Fatalf("%s %s %v spread=%v from row %d in chunks of %d: differs from the reference at byte %d",
									name, table, cols, spread, first, chunk, diffOffset(got, want))
							}
						}
					}
				}
			}
		}
	}
}
