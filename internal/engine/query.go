package engine

import (
	"context"
	"fmt"
	"slices"

	"github.com/dsl-repro/hydra/internal/cc"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/scan"
	"github.com/dsl-repro/hydra/internal/schema"
)

// JoinStep joins one referenced table into the running result: Via is an
// already-present table (the root or an earlier step's table) holding a
// foreign key into Table. All joins are PK-FK, per the paper's data
// warehouse assumption (§2.2).
type JoinStep struct {
	Table string
	Via   string
}

// Query is a select-project-join query in the shape Hydra's workloads use:
// a root (fact) relation, a chain/star/snowflake of PK-FK joins, and a DNF
// filter per table over that table's own non-key columns (predicate
// attribute id i refers to Table.Cols[i]).
type Query struct {
	Name    string
	Root    string
	Joins   []JoinStep
	Filters map[string]pred.DNF
}

// Tables returns the root plus all joined tables.
func (q *Query) Tables() []string {
	out := []string{q.Root}
	for _, j := range q.Joins {
		out = append(out, j.Table)
	}
	return out
}

// Validate checks the query against the schema: join steps must follow
// declared FK edges and attach to already-present tables; filters must
// reference in-query tables and valid column ids.
func (q *Query) Validate(s *schema.Schema) error {
	if _, ok := s.Table(q.Root); !ok {
		return fmt.Errorf("engine: query %s: unknown root %q", q.Name, q.Root)
	}
	present := map[string]bool{q.Root: true}
	for _, j := range q.Joins {
		if !present[j.Via] {
			return fmt.Errorf("engine: query %s: join of %s via %s before %s is present", q.Name, j.Table, j.Via, j.Via)
		}
		if present[j.Table] {
			return fmt.Errorf("engine: query %s: table %s joined twice", q.Name, j.Table)
		}
		via := s.MustTable(j.Via)
		found := false
		for _, fk := range via.FKs {
			if fk.Ref == j.Table {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("engine: query %s: %s has no FK to %s", q.Name, j.Via, j.Table)
		}
		present[j.Table] = true
	}
	for tab, p := range q.Filters {
		if !present[tab] {
			return fmt.Errorf("engine: query %s: filter on %s which is not in the query", q.Name, tab)
		}
		nCols := len(s.MustTable(tab).Cols)
		for _, a := range p.Attrs() {
			if a < 0 || a >= nCols {
				return fmt.Errorf("engine: query %s: filter on %s references column id %d (table has %d non-key cols)", q.Name, tab, a, nCols)
			}
		}
	}
	return nil
}

// AQP is an annotated query plan: the query plus the output cardinality of
// every operator, as observed during execution (§2.1, Figure 1c).
type AQP struct {
	Query *Query
	// Base is each table's scan cardinality.
	Base map[string]int64
	// FilterOut is each table's post-filter cardinality (equal to Base
	// when the table has no filter).
	FilterOut map[string]int64
	// JoinOut[i] is the output cardinality of join step i.
	JoinOut []int64
}

// Execute runs the query with the plan shape given by the join order (the
// "forced plan" of the paper's methodology) and returns the AQP. Each
// joined table is read once, indexed by pk (a Source's rows are pk 1..N
// in order), and root batches are pipelined through the probes; an FK
// outside 1..N joins nothing. Scans read only the columns the plan
// needs, and a joined table it needs none of is not scanned.
func Execute(db *Database, s *schema.Schema, q *Query) (*AQP, error) {
	if err := q.Validate(s); err != nil {
		return nil, err
	}
	aqp := &AQP{
		Query:     q,
		Base:      map[string]int64{},
		FilterOut: map[string]int64{},
		JoinOut:   make([]int64, len(q.Joins)),
	}
	reads := map[string]*read{}
	for _, tab := range q.Tables() {
		info, err := db.Table(tab)
		if err != nil {
			return nil, err
		}
		filter, ok := q.Filters[tab]
		reads[tab] = newRead(s.MustTable(tab), info.Rows, filter, ok)
		aqp.Base[tab] = info.Rows
	}
	// Step i probes read column fkAt[i] of its Via table: the root's
	// batch, or on a snowflake arm the row step viaStep[i] matched.
	fkAt, viaStep := make([]int, len(q.Joins)), make([]int, len(q.Joins))
	stepOf := map[string]int{q.Root: -1}
	for i, j := range q.Joins {
		for _, fk := range s.MustTable(j.Via).FKs {
			if fk.Ref == j.Table {
				fkAt[i] = reads[j.Via].col(fk.FKCol)
				break
			}
		}
		viaStep[i], stepOf[j.Table] = stepOf[j.Via], i
	}
	dims := make([]*read, len(q.Joins))
	for i, j := range q.Joins {
		dims[i] = reads[j.Table]
		passed, err := dims[i].index(db)
		if err != nil {
			return nil, err
		}
		aqp.FilterOut[j.Table] = passed
	}
	root := reads[q.Root]
	sc, err := db.Scan(context.Background(), scan.Spec{Table: q.Root, Columns: root.cols})
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	var passed int64
	joined := make([]int64, len(q.Joins)) // the pk step k matched
	for sc.Next() {
		b := sc.Batch()
	rows:
		for i := 0; i < b.N; i++ {
			if !root.match(b.Cols, i) {
				continue
			}
			passed++
			for k, d := range dims {
				var fk int64
				if v := viaStep[k]; v < 0 {
					fk = b.Cols[fkAt[k]][i]
				} else {
					fk = dims[v].kept[fkAt[k]][joined[v]-1]
				}
				if fk < 1 || fk > d.rows || d.pass != nil && !d.pass[fk-1] {
					continue rows
				}
				joined[k] = fk
				aqp.JoinOut[k]++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("engine: %s: %w", q.Root, err)
	}
	aqp.FilterOut[q.Root] = passed
	return aqp, nil
}

// read is what a plan reads of one table: the columns its filter
// constrains, then the FK columns later steps probe through, with the
// filter bound to those positions. A joined table keeps, indexed by
// pk − 1, the columns read and which rows passed.
type read struct {
	table string
	rows  int64
	cols  []string
	terms [][]cond  // the filter's conjuncts; nil when the table has none
	kept  [][]int64 // kept[c][pk-1] holds row pk's cols[c]
	pass  []bool    // nil: every row passed
}

// cond restricts one read column to a set.
type cond struct {
	col int
	set pred.Set
}

// newRead binds a table's filter, if it has one: a DNF over the table's
// non-key column ids.
func newRead(t *schema.Table, rows int64, filter pred.DNF, filtered bool) *read {
	r := &read{table: t.Name, rows: rows}
	if filtered {
		r.terms = make([][]cond, len(filter.Terms))
		for k, term := range filter.Terms {
			for _, a := range term.Attrs() {
				r.terms[k] = append(r.terms[k], cond{col: r.col(t.Cols[a].Name), set: term.Cols[a]})
			}
		}
	}
	return r
}

// col returns name's position among the read columns, adding it if new.
func (r *read) col(name string) int {
	if c := slices.Index(r.cols, name); c >= 0 {
		return c
	}
	r.cols = append(r.cols, name)
	return len(r.cols) - 1
}

// index reads a joined table into kept and pass, and returns how many
// rows passed. A table the plan reads no column of is not scanned.
func (r *read) index(db *Database) (passed int64, err error) {
	if len(r.cols) > 0 {
		if r.kept, err = db.Columns(r.table, r.cols); err != nil {
			return 0, err
		}
	}
	if r.terms == nil {
		return r.rows, nil
	}
	r.pass = make([]bool, r.rows)
	for i := range r.pass {
		if r.pass[i] = r.match(r.kept, i); r.pass[i] {
			passed++
		}
	}
	return passed, nil
}

// match reports whether row i of the read columns passes the filter.
func (r *read) match(cols [][]int64, i int) bool {
	if r.terms == nil {
		return true
	}
terms:
	for _, term := range r.terms {
		for _, c := range term {
			if !c.set.Contains(cols[c.col][i]) {
				continue terms
			}
		}
		return true
	}
	return false
}

// ToCCs converts the AQP into cardinality constraints — the "Parser" of
// Fig. 2 — exactly as Figure 1d derives them: one size CC per base table,
// one selection CC per filtered scan, and one CC per join output whose
// predicate is the conjunction of all filters involved so far.
func (a *AQP) ToCCs(s *schema.Schema) []cc.CC {
	q := a.Query
	var out []cc.CC
	for _, tab := range q.Tables() {
		out = append(out, cc.CC{
			Root: tab, Pred: pred.True(), Count: a.Base[tab],
			Name: fmt.Sprintf("%s/|%s|", q.Name, tab),
		})
	}
	for _, tab := range q.Tables() {
		p, ok := q.Filters[tab]
		if !ok {
			continue
		}
		attrs, mapped := tableFilterCC(s, tab, p)
		out = append(out, cc.CC{
			Root: tab, Attrs: attrs, Pred: mapped, Count: a.FilterOut[tab],
			Name: fmt.Sprintf("%s/σ(%s)", q.Name, tab),
		})
	}
	// Join outputs: conjunction of filters of tables joined so far.
	combined := pred.True()
	var attrs []schema.AttrRef
	attrPos := map[schema.AttrRef]int{}
	addFilter := func(tab string) {
		p, ok := q.Filters[tab]
		if !ok {
			return
		}
		remap := map[int]int{}
		for _, colID := range p.Attrs() {
			ref := schema.AttrRef{Table: tab, Col: s.MustTable(tab).Cols[colID].Name}
			pos, seen := attrPos[ref]
			if !seen {
				pos = len(attrs)
				attrPos[ref] = pos
				attrs = append(attrs, ref)
			}
			remap[colID] = pos
		}
		combined = combined.And(p.Remap(remap))
	}
	addFilter(q.Root)
	for i, j := range q.Joins {
		addFilter(j.Table)
		out = append(out, cc.CC{
			Root:  q.Root,
			Attrs: append([]schema.AttrRef(nil), attrs...),
			Pred:  clonePred(combined),
			Count: a.JoinOut[i],
			Name:  fmt.Sprintf("%s/join[%d]", q.Name, i),
		})
	}
	return out
}

func clonePred(p pred.DNF) pred.DNF {
	out := pred.DNF{Terms: make([]pred.Conjunct, len(p.Terms))}
	for i, t := range p.Terms {
		nt := pred.NewConjunct()
		for a, s := range t.Cols {
			nt = nt.With(a, s)
		}
		out.Terms[i] = nt
	}
	return out
}

// tableFilterCC rewrites a per-table filter into CC form (qualified attrs
// plus remapped predicate).
func tableFilterCC(s *schema.Schema, tab string, p pred.DNF) ([]schema.AttrRef, pred.DNF) {
	t := s.MustTable(tab)
	var attrs []schema.AttrRef
	remap := map[int]int{}
	for _, colID := range p.Attrs() {
		remap[colID] = len(attrs)
		attrs = append(attrs, schema.AttrRef{Table: tab, Col: t.Cols[colID].Name})
	}
	return attrs, p.Remap(remap)
}

// WorkloadFromQueries executes every query against the client database and
// collects the deduplicated CC set — the complete client-side flow of
// Fig. 2 (AQPs → Parser → CCs).
func WorkloadFromQueries(db *Database, s *schema.Schema, name string, queries []*Query) (*cc.Workload, []*AQP, error) {
	w := &cc.Workload{Name: name}
	var aqps []*AQP
	for _, q := range queries {
		aqp, err := Execute(db, s, q)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: query %s: %w", q.Name, err)
		}
		aqps = append(aqps, aqp)
		w.CCs = append(w.CCs, aqp.ToCCs(s)...)
	}
	w.Dedupe()
	return w, aqps, nil
}

// AggregateScan runs the Fig. 15 style probe query "SELECT count(*),
// sum(col) FROM table" over src: it forces every tuple to be produced —
// every column of every row, from disk or from the dynamic generator —
// and touches one column of each.
func AggregateScan(src scan.Source, table, col string) (count, sum int64, err error) {
	sc, err := src.Scan(context.Background(), scan.Spec{Table: table})
	if err != nil {
		return 0, 0, err
	}
	defer sc.Close()
	c := slices.Index(sc.Cols(), col)
	if c < 0 {
		return 0, 0, fmt.Errorf("engine: %s has no column %q", table, col)
	}
	for sc.Next() {
		b := sc.Batch()
		count += int64(b.N)
		for _, v := range b.Cols[c] {
			sum += v
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, fmt.Errorf("engine: %s: %w", table, err)
	}
	return count, sum, nil
}
