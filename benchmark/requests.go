package main

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/dsl-repro/hydra"
)

// request is one element of the seeded stream. Every workload reads the
// same element differently: the scan-* workloads take the ranged form
// (Table, RangeStart), serve-query the filtered form (Table, QueryStart,
// ValueCol, Value, FKCol). Drawing every field for every element keeps the
// stream identical across workloads, so the three scan-* workloads consume
// prefixes of one stream and their ratios compare like with like.
type request struct {
	Seq        int    `json:"seq"`
	Table      string `json:"table"`
	RangeStart int64  `json:"range_start"` // first pk of the ranged request
	RangeRows  int64  `json:"range_rows"`
	QueryStart int64  `json:"query_start"` // first pk of the serve-query window
	QueryRows  int64  `json:"query_rows"`
	ValueCol   string `json:"value_col"` // filtered column; empty when the relation has no value column
	Value      int64  `json:"value"`     // a value some summary row of the relation holds
	FKCol      string `json:"fk_col"`    // projected FK column; empty when the relation has none
}

// stream generates requests from a seed. It is the only source of
// randomness in the benchmark; the program under test sees only the specs.
//
// What a request costs depends mostly on its relation (row width) and on
// how far into the relation it starts (DirSource skips the prefix). With
// i.i.d. draws the median op of a 130-op run moved by 30 % from seed to
// seed, so targets and start positions are spread evenly instead: targets
// come in blocks of one request each, in a seeded order, and the k-th
// request on a target starts at fraction frac(u + k·φ⁻¹) of the positions
// that fit, u being the target's seeded offset. The golden-ratio sequence
// keeps every prefix of the stream close to uniform over positions, so
// every seed and every run length issues nearly the same mix of work and
// seeds differ in order, offsets, and filter choices.
type stream struct {
	rng     *rand.Rand
	sc      scale
	tables  []tableInfo
	seq     int
	block   []int     // targets of the current block still to issue
	offsets []float64 // per target: u
	issued  []int     // per target: k
}

func newStream(seed int64, sc scale, targets []tableInfo) *stream {
	s := &stream{rng: rand.New(rand.NewSource(seed)), sc: sc, tables: targets,
		offsets: make([]float64, len(targets)), issued: make([]int, len(targets))}
	for i := range s.offsets {
		s.offsets[i] = s.rng.Float64()
	}
	return s
}

// invPhi is φ⁻¹, the step of the most evenly spreading additive sequence.
const invPhi = 0.6180339887498949

// window places n rows (fewer when the relation is smaller) at fraction
// frac of the start positions that keep them inside the relation.
func window(frac float64, rows, n int64) (start, length int64) {
	if n > rows {
		n = rows
	}
	return 1 + min(int64(frac*float64(rows-n+1)), rows-n), n
}

func (s *stream) next() request {
	if len(s.tables) == 0 {
		s.seq++
		return request{Seq: s.seq - 1}
	}
	if len(s.block) == 0 {
		s.block = s.rng.Perm(len(s.tables))
	}
	ti := s.block[0]
	s.block = s.block[1:]
	t := s.tables[ti]
	_, frac := math.Modf(s.offsets[ti] + float64(s.issued[ti])*invPhi)
	s.issued[ti]++
	rowDraw, colDraw, fkDraw := s.rng.Int63(), s.rng.Int63(), s.rng.Int63()
	r := request{Seq: s.seq, Table: t.name}
	s.seq++
	r.RangeStart, r.RangeRows = window(frac, t.rows, s.sc.rangeRows)
	r.QueryStart, r.QueryRows = window(frac, t.rows, s.sc.queryRows)
	if len(t.rs.Cols) > 0 && len(t.rs.Rows) > 0 {
		c := int(colDraw % int64(len(t.rs.Cols)))
		r.ValueCol = t.rs.Cols[c]
		r.Value = t.rs.Rows[rowDraw%int64(len(t.rs.Rows))].Vals[c]
	}
	if len(t.rs.FKCols) > 0 {
		r.FKCol = t.rs.FKCols[fkDraw%int64(len(t.rs.FKCols))]
	}
	return r
}

func pkCol(table string) string { return table + "_pk" }

// rangedSpec is the scan the three scan-* workloads issue for r.
func (r request) rangedSpec() hydra.ScanSpec {
	return hydra.ScanSpec{Table: r.Table, StartPK: r.RangeStart, EndPK: r.RangeStart + r.RangeRows - 1}
}

// queryCols is serve-query's projection: pk, the filtered column, one FK.
func (r request) queryCols() []string {
	cols := []string{pkCol(r.Table)}
	if r.ValueCol != "" {
		cols = append(cols, r.ValueCol)
	}
	if r.FKCol != "" {
		cols = append(cols, r.FKCol)
	}
	return cols
}

// where is serve-query's WHERE clause: a pk window and, when the relation
// has a value column, an equality some summary row satisfies.
func (r request) where() string {
	w := fmt.Sprintf("%s BETWEEN %d AND %d", pkCol(r.Table), r.QueryStart, r.QueryStart+r.QueryRows-1)
	if r.ValueCol != "" {
		w += fmt.Sprintf(" AND %s = %d", r.ValueCol, r.Value)
	}
	return w
}

func (r request) sql() string {
	cols := r.queryCols()
	q := "SELECT " + cols[0]
	for _, c := range cols[1:] {
		q += ", " + c
	}
	return q + " FROM " + r.Table + " WHERE " + r.where()
}

// querySpec is the scan equivalent of sql(): what the oracle runs on a
// SummarySource and what the ladder runs on a RemoteSource.
func (r request) querySpec() (hydra.ScanSpec, error) {
	f, err := hydra.ParseWhere(r.where())
	if err != nil {
		return hydra.ScanSpec{}, fmt.Errorf("request %d: %w", r.Seq, err)
	}
	return hydra.ScanSpec{Table: r.Table, Columns: r.queryCols(), Filter: f}, nil
}

// referenceRequests is the fixed request set bytes_per_row is counted on:
// one request per target at the middle of the relation, filtered on the
// first value column with the value the window's first row carries (so
// the query matches at least one row). It depends on neither the seed nor
// the op count, which is what makes the count exact.
func referenceRequests(sc scale, targets []tableInfo) []request {
	out := make([]request, 0, len(targets))
	for i, t := range targets {
		r := request{Seq: i, Table: t.name}
		r.RangeStart, r.RangeRows = window(0.5, t.rows, sc.rangeRows)
		r.QueryStart, r.QueryRows = window(0.5, t.rows, sc.queryRows)
		if len(t.rs.Cols) > 0 {
			r.ValueCol = t.rs.Cols[0]
			var cum int64
			for _, row := range t.rs.Rows {
				if cum += row.Count; cum >= r.QueryStart {
					r.Value = row.Vals[0]
					break
				}
			}
		}
		if len(t.rs.FKCols) > 0 {
			r.FKCol = t.rs.FKCols[0]
		}
		out = append(out, r)
	}
	return out
}
