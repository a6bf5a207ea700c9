// Package codd is the metadata substrate standing in for the CODD tool the
// paper integrates with (§3, [8]): a "dataless" representation of a
// database consisting purely of catalog statistics. It supports capturing
// metadata from a live database, scaling it to arbitrary volumes (the
// §7.4 exabyte experiment constructs optimizer-grade metadata for a 10¹⁸
// byte database no machine could hold), transferring it between sites, and
// verifying metadata matching — the mechanism that forces the vendor's
// query plans to equal the client's.
package codd

import (
	"fmt"
	"math"
	"sort"

	"github.com/dsl-repro/hydra/internal/engine"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/schema"
)

// Bucket is one equi-depth histogram bucket over [Lo, Hi] holding Rows
// tuples.
type Bucket struct {
	Lo, Hi int64
	Rows   int64
}

// ColumnStats is the catalog entry for one column.
type ColumnStats struct {
	Min, Max int64
	NDV      int64 // number of distinct values
	Buckets  []Bucket
}

// TableStats is the catalog entry for one table.
type TableStats struct {
	RowCount int64
	Cols     map[string]ColumnStats
}

// Metadata is the full catalog snapshot.
type Metadata struct {
	Tables map[string]TableStats
}

// DefaultBuckets is the histogram resolution used by Capture.
const DefaultBuckets = 32

// Capture scans every relation of the database and builds catalog
// statistics for the schema's non-key columns.
func Capture(db *engine.Database, s *schema.Schema) (*Metadata, error) {
	md := &Metadata{Tables: map[string]TableStats{}}
	for _, t := range s.Tables {
		info, err := db.Table(t.Name)
		if err != nil {
			return nil, err
		}
		ts := TableStats{RowCount: info.Rows, Cols: map[string]ColumnStats{}}
		for _, col := range t.Cols {
			vals, err := db.Columns(t.Name, []string{col.Name})
			if err != nil {
				return nil, err
			}
			ts.Cols[col.Name] = buildColumnStats(vals[0])
		}
		md.Tables[t.Name] = ts
	}
	return md, nil
}

func buildColumnStats(vals []int64) ColumnStats {
	if len(vals) == 0 {
		return ColumnStats{}
	}
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	cs := ColumnStats{Min: sorted[0], Max: sorted[len(sorted)-1]}
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			cs.NDV++
		}
	}
	// Equi-depth buckets with distinct boundaries.
	n := len(sorted)
	per := n / DefaultBuckets
	if per == 0 {
		per = 1
	}
	start := 0
	for start < n {
		end := start + per
		if end > n {
			end = n
		}
		hi := sorted[end-1]
		// Extend the bucket through duplicate boundary values so buckets
		// never split a value.
		for end < n && sorted[end] == hi {
			end++
		}
		cs.Buckets = append(cs.Buckets, Bucket{Lo: sorted[start], Hi: hi, Rows: int64(end - start)})
		start = end
	}
	return cs
}

// Scale returns a copy of the metadata with every row count multiplied by
// factor — CODD's "arbitrary metadata scenario" construction used to model
// the exabyte database of §7.4. Histogram bucket masses scale with the
// table; boundaries, NDVs and min/max are preserved (value domains do not
// grow with volume in the paper's model).
func (m *Metadata) Scale(factor int64) *Metadata {
	out := &Metadata{Tables: map[string]TableStats{}}
	for name, ts := range m.Tables {
		nts := TableStats{RowCount: ts.RowCount * factor, Cols: map[string]ColumnStats{}}
		for cn, cs := range ts.Cols {
			ncs := ColumnStats{Min: cs.Min, Max: cs.Max, NDV: cs.NDV}
			for _, b := range cs.Buckets {
				ncs.Buckets = append(ncs.Buckets, Bucket{Lo: b.Lo, Hi: b.Hi, Rows: b.Rows * factor})
			}
			nts.Cols[cn] = ncs
		}
		out.Tables[name] = nts
	}
	return out
}

// Selectivity estimates the fraction of a table's rows satisfying a DNF
// over its own columns (attr id i = Table.Cols[i] name resolution is the
// caller's concern; here sel is computed per named column). Standard
// histogram math with independence across columns and inclusion-exclusion
// avoided by capping disjunct sums at 1.
func (m *Metadata) Selectivity(s *schema.Schema, table string, p pred.DNF) float64 {
	ts, ok := m.Tables[table]
	if !ok || ts.RowCount == 0 {
		return 1
	}
	t := s.MustTable(table)
	total := 0.0
	for _, term := range p.Terms {
		sel := 1.0
		for colID, set := range term.Cols {
			if colID < 0 || colID >= len(t.Cols) {
				continue
			}
			cs, ok := ts.Cols[t.Cols[colID].Name]
			if !ok {
				continue
			}
			sel *= columnSelectivity(cs, set, ts.RowCount)
		}
		total += sel
	}
	if total > 1 {
		total = 1
	}
	return total
}

func columnSelectivity(cs ColumnStats, set pred.Set, rowCount int64) float64 {
	if rowCount == 0 || len(cs.Buckets) == 0 {
		return 1
	}
	var rows float64
	for _, b := range cs.Buckets {
		width := float64(b.Hi-b.Lo) + 1
		covered := 0.0
		for _, iv := range set.Intervals() {
			lo, hi := iv.Lo, iv.Hi
			if lo < b.Lo {
				lo = b.Lo
			}
			if hi > b.Hi {
				hi = b.Hi
			}
			if lo <= hi {
				covered += float64(hi-lo) + 1
			}
		}
		if covered > 0 {
			rows += float64(b.Rows) * covered / width
		}
	}
	return rows / float64(rowCount)
}

// EstimateCard estimates |σ_p(table)| from the catalog.
func (m *Metadata) EstimateCard(s *schema.Schema, table string, p pred.DNF) int64 {
	ts := m.Tables[table]
	return int64(math.Round(m.Selectivity(s, table, p) * float64(ts.RowCount)))
}

// Match verifies that two metadata snapshots describe the same statistics
// — CODD's metadata-matching step that guarantees identical plan choices
// at client and vendor. It returns a descriptive error on the first
// divergence.
func Match(a, b *Metadata) error {
	if len(a.Tables) != len(b.Tables) {
		return fmt.Errorf("codd: table count differs: %d vs %d", len(a.Tables), len(b.Tables))
	}
	for name, ta := range a.Tables {
		tb, ok := b.Tables[name]
		if !ok {
			return fmt.Errorf("codd: table %s missing", name)
		}
		if ta.RowCount != tb.RowCount {
			return fmt.Errorf("codd: table %s row count %d vs %d", name, ta.RowCount, tb.RowCount)
		}
		for cn, ca := range ta.Cols {
			cb, ok := tb.Cols[cn]
			if !ok {
				return fmt.Errorf("codd: column %s.%s missing", name, cn)
			}
			if ca.Min != cb.Min || ca.Max != cb.Max {
				return fmt.Errorf("codd: column %s.%s bounds differ", name, cn)
			}
		}
	}
	return nil
}

// Estimator adapts the metadata to the engine optimizer's callback for one
// query's filters.
func (m *Metadata) Estimator(s *schema.Schema, filters map[string]pred.DNF) func(table string) float64 {
	return func(table string) float64 {
		p, ok := filters[table]
		if !ok {
			return 1
		}
		return m.Selectivity(s, table, p)
	}
}
