// Package summary implements Hydra's Database Summary Generator (§5): it
// turns per-view LP solutions into a minuscule, scale-independent database
// summary — the artifact from which databases of arbitrary size are
// materialized statically or generated dynamically during query execution.
//
// The pipeline follows the paper's four tasks:
//
//  1. construct a solution for each complete view by deterministically
//     aligning and merging the sub-view solutions (§5.1) — Hydra's
//     replacement for DataSynth's error-prone sampling;
//  2. instantiate view summaries by placing each region's tuple mass at
//     the region's representative point (§5.2, "left boundaries");
//  3. make view summaries mutually consistent by inserting singleton rows
//     for missing referenced value combinations (§5.3) — the only source
//     of (positive, scale-independent) error in the whole system;
//  4. extract relation summaries, assigning foreign keys via cumulative
//     row counts over the referenced view (§5.4).
package summary

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"github.com/dsl-repro/hydra/internal/core"
	"github.com/dsl-repro/hydra/internal/preprocess"
	"github.com/dsl-repro/hydra/internal/schema"
)

// ViewRow is one row of a view summary: a concrete value per view
// attribute and the number of tuples carrying those values.
type ViewRow struct {
	Vals  []int64
	Count int64
}

// ViewSummary is the instantiated solution of one view.
type ViewSummary struct {
	Table string
	Attrs []schema.AttrRef
	Rows  []ViewRow

	index map[string]int // value key → row position
}

// RelRow is one row of a relation summary: the relation's own non-key
// values, its foreign-key values (primary keys are implicit row numbers),
// and the tuple count. RelRow i corresponds 1:1 to ViewRow i of the same
// table's view summary, preserving the cumulative-count ↔ primary-key
// correspondence of §5.4/§6.
type RelRow struct {
	Vals  []int64 // own non-key columns, schema order
	FKs   []int64 // FK values, schema FK order (1-based pk row numbers)
	Count int64
	// FKSpans holds, per FK, the number of consecutive referenced rows
	// sharing the FK target's value combination. The paper's generator
	// points every tuple of a summary row at FKs[i] (the combination's
	// first row); the spread-FK extension distributes tuples round-robin
	// across [FKs[i], FKs[i]+FKSpans[i]), which is volumetrically
	// identical (all targets carry the same attribute values) but avoids
	// pathological fan-in. Summary.FKSpread selects the extension.
	FKSpans []int64
}

// RelationSummary is the per-relation slice of the database summary, the
// structure the Tuple Generator consumes (Fig. 5 of the paper).
type RelationSummary struct {
	Table  string
	Cols   []string // non-key column names, schema order
	FKCols []string // FK column names, schema order
	FKRefs []string // FK target tables, aligned with FKCols
	Rows   []RelRow
	Total  int64 // Σ Count
}

// Summary is the complete database summary.
type Summary struct {
	Relations map[string]*RelationSummary
	Views     map[string]*ViewSummary
	// Extra counts the §5.3 referential-integrity rows inserted per
	// table (the Fig. 11 metric). It is independent of data scale.
	Extra map[string]int64
	// Stats carries the per-view LP metrics accumulated upstream.
	Stats map[string]core.ViewStats
	// FKSpread selects the spread-FK extension (RelRow.FKSpans) for every
	// tuple; it is serialized, so one digest names one database.
	FKSpread bool
}

// appendKey appends the map key of vals to dst: each value as 8 bytes,
// little-endian. Lookups convert the result in the index expression
// (m[string(key)]), which allocates nothing, so keys are built in a
// reused buffer and a string is allocated only when a key is inserted.
func appendKey(dst []byte, vals []int64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// appendKeyAt is appendKey over vals[pos[0]], vals[pos[1]], ….
func appendKeyAt(dst []byte, vals []int64, pos []int) []byte {
	for _, p := range pos {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(vals[p]))
	}
	return dst
}

func (vs *ViewSummary) reindex() {
	vs.index = make(map[string]int, len(vs.Rows))
	var key []byte
	for i, r := range vs.Rows {
		key = appendKey(key[:0], r.Vals)
		vs.index[string(key)] = i
	}
}

// Find returns the position of the row holding vals, or -1.
func (vs *ViewSummary) Find(vals []int64) int {
	if vs.index == nil {
		vs.reindex()
	}
	var buf [128]byte
	if i, ok := vs.index[string(appendKey(buf[:0], vals))]; ok {
		return i
	}
	return -1
}

// Total returns the summed tuple count.
func (vs *ViewSummary) Total() int64 {
	var t int64
	for _, r := range vs.Rows {
		t += r.Count
	}
	return t
}

// append adds a row, keeping the index current.
func (vs *ViewSummary) append(r ViewRow) {
	if vs.index == nil {
		vs.reindex()
	}
	vs.index[string(appendKey(nil, r.Vals))] = len(vs.Rows)
	vs.Rows = append(vs.Rows, r)
}

// Build runs tasks (1)–(4) over the solved views. sols and views are keyed
// by table name; every table in the schema must have a view solution. It
// is BuildView per view, then BuildFromViewSummaries.
//
//hydra:nondeterministic views are summarized independently into maps keyed by name; order picks only which failing view an error names
func Build(s *schema.Schema, views map[string]*preprocess.View, sols map[string]*core.ViewSolution) (*Summary, error) {
	vsums := make(map[string]*ViewSummary, len(sols))
	stats := make(map[string]core.ViewStats, len(sols))
	// Tasks 1 + 2: align, merge, instantiate.
	for name, sol := range sols {
		vs, err := BuildView(views[name], sol)
		if err != nil {
			return nil, err
		}
		vsums[name] = vs
		stats[name] = sol.Stats
	}
	return BuildFromViewSummaries(s, views, vsums, stats)
}

// BuildFromViewSummaries runs tasks (3)–(4) over already-instantiated view
// summaries. Hydra reaches this point through the deterministic
// align-and-merge path; the DataSynth baseline reaches it through sampling
// — sharing the tail of the pipeline keeps the accuracy comparison (§7.1)
// apples-to-apples.
func BuildFromViewSummaries(s *schema.Schema, views map[string]*preprocess.View, vsums map[string]*ViewSummary, stats map[string]core.ViewStats) (*Summary, error) {
	sum := &Summary{
		Relations: map[string]*RelationSummary{},
		Views:     vsums,
		Extra:     map[string]int64{},
		Stats:     stats,
	}
	if sum.Stats == nil {
		sum.Stats = map[string]core.ViewStats{}
	}
	// Task 3: referential consistency, most-dependent views first so
	// inserted rows propagate transitively.
	topo, err := s.TopoOrder()
	if err != nil {
		return nil, err
	}
	for i := len(topo) - 1; i >= 0; i-- {
		t := topo[i]
		v := views[t.Name]
		vs := sum.Views[t.Name]
		if v == nil || vs == nil {
			return nil, fmt.Errorf("summary: missing view solution for table %s", t.Name)
		}
		for _, ref := range s.Referenced(t) {
			rvs := sum.Views[ref]
			for _, row := range vs.Rows {
				proj := v.ProjectRow(row.Vals, ref)
				if rvs.Find(proj) == -1 {
					rvs.append(ViewRow{Vals: proj, Count: 1})
					sum.Extra[ref]++
				}
			}
		}
	}
	// Task 4: relation summaries.
	for _, t := range topo {
		v := views[t.Name]
		vs := sum.Views[t.Name]
		rs := &RelationSummary{Table: t.Name}
		for _, c := range t.Cols {
			rs.Cols = append(rs.Cols, c.Name)
		}
		for _, fk := range t.FKs {
			rs.FKCols = append(rs.FKCols, fk.FKCol)
			rs.FKRefs = append(rs.FKRefs, fk.Ref)
		}
		// Prefix counts of each referenced view's summary: FK value for
		// combination v is 1 + (tuples in rows preceding v's row).
		refPrefix := map[string][]int64{}
		for _, ref := range rs.FKRefs {
			if _, done := refPrefix[ref]; done {
				continue
			}
			rows := sum.Views[ref].Rows
			pre := make([]int64, len(rows)+1)
			for i, r := range rows {
				pre[i+1] = pre[i] + r.Count
			}
			refPrefix[ref] = pre
		}
		for _, row := range vs.Rows {
			rr := RelRow{Count: row.Count}
			rr.Vals = append(rr.Vals, row.Vals[:v.Own]...)
			for _, ref := range rs.FKRefs {
				proj := v.ProjectRow(row.Vals, ref)
				pos := sum.Views[ref].Find(proj)
				if pos == -1 {
					return nil, fmt.Errorf("summary: table %s: combination missing from %s after consistency pass", t.Name, ref)
				}
				rr.FKs = append(rr.FKs, refPrefix[ref][pos]+1)
				rr.FKSpans = append(rr.FKSpans, sum.Views[ref].Rows[pos].Count)
			}
			rs.Rows = append(rs.Rows, rr)
			rs.Total += rr.Count
		}
		sum.Relations[t.Name] = rs
	}
	return sum, nil
}

// BuildView runs tasks (1) and (2) for one view: §5.1's ordered
// align-and-merge over the sub-view solutions, then the instantiation of
// concrete rows. Sub-views arrive in RIP order, so each one's overlap with
// the accumulated attributes is its clique-tree separator, and the
// consistency LP rows guarantee matching per-value masses on that overlap.
// It reads only v and sol, so views can be built concurrently.
func BuildView(v *preprocess.View, sol *core.ViewSolution) (*ViewSummary, error) {
	type accRow struct {
		vals  []int64
		count int64
	}
	var accAttrs []int
	var acc []accRow
	// Grouping state, reused from one sub-view to the next and by the
	// final de-duplication: the key buffer, each key's group, the keys,
	// both sides' rows per group, and the groups in key order.
	var key []byte
	at := map[string]int{}
	var keys []string
	var groupsA, groupsB [][]int
	var byKey []int
	group := func(k []byte) int {
		if g, ok := at[string(k)]; ok {
			return g
		}
		g, ks := len(keys), string(k)
		at[ks] = g
		keys = append(keys, ks)
		groupsA, groupsB = appendEmpty(groupsA), appendEmpty(groupsB)
		return g
	}

	// Memory the merge steps reuse: the rows of the sub-view being merged,
	// and two generations of merged rows and their values; step k writes
	// generation k%2 while it reads what step k−1 wrote in the other.
	var svBuf []accRow
	var rowGen [2][]accRow
	var valGen [2][]int64

	for k, sv := range sol.SubViews {
		if cap(svBuf) < len(sv.Rows) {
			svBuf = make([]accRow, len(sv.Rows))
		}
		svRows := svBuf[:len(sv.Rows)]
		for i, r := range sv.Rows {
			svRows[i] = accRow{vals: r.Rep, count: r.Count}
		}
		if accAttrs == nil {
			accAttrs = append(accAttrs, sv.Attrs...)
			acc = svRows
			svBuf = nil // acc holds it now
			continue
		}
		// Positions of shared attributes on both sides.
		accPos := map[int]int{}
		for i, a := range accAttrs {
			accPos[a] = i
		}
		var sharedAcc, sharedSv []int
		var newAttrs []int // attrs only in sv
		var newPos []int   // their positions within sv
		for i, a := range sv.Attrs {
			if p, ok := accPos[a]; ok {
				sharedAcc = append(sharedAcc, p)
				sharedSv = append(sharedSv, i)
			} else {
				newAttrs = append(newAttrs, a)
				newPos = append(newPos, i)
			}
		}
		// Solution sorting (§5.1.2 step 1): group both sides by shared
		// values; groups are merged in key order.
		clear(at)
		keys, groupsA, groupsB = keys[:0], groupsA[:0], groupsB[:0]
		for i, r := range acc {
			key = appendKeyAt(key[:0], r.vals, sharedAcc)
			g := group(key)
			groupsA[g] = append(groupsA[g], i)
		}
		for i, r := range svRows {
			key = appendKeyAt(key[:0], r.vals, sharedSv)
			g := group(key)
			groupsB[g] = append(groupsB[g], i)
		}
		byKey = byKey[:0]
		for g := range keys {
			byKey = append(byKey, g)
		}
		slices.SortFunc(byKey, func(a, b int) int { return strings.Compare(keys[a], keys[b]) })

		// Every step of the merge below uses up a row of one side or of
		// both, so it makes at most len(acc)+len(svRows) rows; their
		// values are windows of one slab.
		gen := k % 2
		width := len(accAttrs) + len(newPos)
		if need := (len(acc) + len(svRows)) * width; cap(valGen[gen]) < need {
			valGen[gen] = make([]int64, need)
		}
		slab := valGen[gen][:cap(valGen[gen])]
		newRow := func() []int64 {
			r := slab[:width:width]
			slab = slab[width:]
			return r
		}
		// Row splitting (§5.1.2 step 2) + position-based merge (§5.1.3):
		// within each shared-value group, split rows so counts pair up,
		// then join pairs positionally.
		merged := rowGen[gen][:0]
		for _, g := range byKey {
			ia, ib := groupsA[g], groupsB[g]
			ai, bi := 0, 0
			var aRem, bRem int64
			if len(ia) > 0 {
				aRem = acc[ia[0]].count
			}
			if len(ib) > 0 {
				bRem = svRows[ib[0]].count
			}
			for ai < len(ia) && bi < len(ib) {
				take := aRem
				if bRem < take {
					take = bRem
				}
				src := acc[ia[ai]]
				ext := svRows[ib[bi]]
				vals := newRow()
				n := copy(vals, src.vals)
				for j, p := range newPos {
					vals[n+j] = ext.vals[p]
				}
				merged = append(merged, accRow{vals: vals, count: take})
				aRem -= take
				bRem -= take
				if aRem == 0 {
					ai++
					if ai < len(ia) {
						aRem = acc[ia[ai]].count
					}
				}
				if bRem == 0 {
					bi++
					if bi < len(ib) {
						bRem = svRows[ib[bi]].count
					}
				}
			}
			// Leftovers appear only under soft (inconsistent-input)
			// solutions; fill the missing side with domain minima so the
			// pipeline still produces a usable summary.
			for ai < len(ia) {
				src := acc[ia[ai]]
				cnt := aRem
				vals := newRow()
				n := copy(vals, src.vals)
				for j, p := range newPos {
					vals[n+j] = v.Domains[sv.Attrs[p]].Min()
				}
				merged = append(merged, accRow{vals: vals, count: cnt})
				ai++
				if ai < len(ia) {
					aRem = acc[ia[ai]].count
				}
			}
			for bi < len(ib) {
				ext := svRows[ib[bi]]
				cnt := bRem
				vals := newRow()
				for i, a := range accAttrs {
					vals[i] = v.Domains[a].Min()
				}
				gvals := ext.vals
				for si, p := range sharedSv {
					vals[sharedAcc[si]] = gvals[p]
				}
				for j, p := range newPos {
					vals[len(accAttrs)+j] = gvals[p]
				}
				merged = append(merged, accRow{vals: vals, count: cnt})
				bi++
				if bi < len(ib) {
					bRem = svRows[ib[bi]].count
				}
			}
		}
		accAttrs = append(accAttrs, newAttrs...)
		acc, rowGen[gen] = merged, merged
	}

	// Re-order values into canonical view attribute order and merge
	// duplicates.
	vs := &ViewSummary{Table: v.Table.Name, Attrs: v.Attrs}
	if len(v.Attrs) == 0 {
		// Degenerate view (relation with only a primary key).
		if v.Total > 0 {
			vs.Rows = []ViewRow{{Vals: []int64{}, Count: v.Total}}
		}
		vs.reindex()
		return vs, nil
	}
	pos := make([]int, len(v.Attrs))
	attrAt := map[int]int{}
	for i, a := range accAttrs {
		attrAt[a] = i
	}
	for i := range v.Attrs {
		p, ok := attrAt[i]
		if !ok {
			return nil, fmt.Errorf("summary: view %s: attribute %d missing from merged sub-views", v.Table.Name, i)
		}
		pos[i] = p
	}
	// keys[j] is the key of row j; the index reuses them once the rows
	// are sorted.
	clear(at)
	keys = keys[:0]
	slab := make([]int64, len(acc)*len(pos))
	var rows []ViewRow
	for _, r := range acc {
		if r.count <= 0 {
			continue
		}
		key = appendKeyAt(key[:0], r.vals, pos)
		if j, ok := at[string(key)]; ok {
			rows[j].Count += r.count
			continue
		}
		ks := string(key)
		at[ks] = len(rows)
		keys = append(keys, ks)
		vals := slab[:len(pos):len(pos)]
		slab = slab[len(pos):]
		for i, p := range pos {
			vals[i] = r.vals[p]
		}
		rows = append(rows, ViewRow{Vals: vals, Count: r.count})
	}
	// Rows are distinct, so sorting them by value is a total order.
	byVals := make([]int, len(rows))
	for j := range byVals {
		byVals[j] = j
	}
	slices.SortFunc(byVals, func(a, b int) int { return slices.Compare(rows[a].Vals, rows[b].Vals) })
	vs.Rows = make([]ViewRow, len(rows))
	vs.index = make(map[string]int, len(rows))
	for i, j := range byVals {
		vs.Rows[i] = rows[j]
		vs.index[keys[j]] = i
	}
	return vs, nil
}

// appendEmpty extends groups by one empty group, reusing the memory of
// a group an earlier round left there.
func appendEmpty(groups [][]int) [][]int {
	if len(groups) < cap(groups) {
		groups = groups[:len(groups)+1]
		groups[len(groups)-1] = groups[len(groups)-1][:0]
		return groups
	}
	return append(groups, nil)
}

// SizeBytes estimates the serialized footprint of the summary — the
// paper's "minuscule summary" claim (independent of data scale) is checked
// against this in the experiments.
//
//hydra:nondeterministic integer sum over the relations; addition commutes
func (s *Summary) SizeBytes() int64 {
	var n int64
	for _, rs := range s.Relations {
		for _, r := range rs.Rows {
			n += int64(8*(len(r.Vals)+len(r.FKs)) + 8)
		}
		n += 64
	}
	return n
}

// NumRows returns the total row count across relation summaries (summary
// rows, not data tuples).
//
//hydra:nondeterministic integer sum over the relations; addition commutes
func (s *Summary) NumRows() int {
	n := 0
	for _, rs := range s.Relations {
		n += len(rs.Rows)
	}
	return n
}
