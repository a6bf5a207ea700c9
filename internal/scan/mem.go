package scan

import (
	"context"
	"fmt"
	"slices"

	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// MemTable is one relation held in memory, column-major: Data[c] holds
// column Cols[c], row r at index r. Row r is the row with primary key
// r+1, as on every backend, and the pk column <Name>_pk, where the
// layout has one, must hold exactly that.
type MemTable struct {
	Name string
	Cols []string
	Data [][]int64
}

// MemSource scans relations held in memory — the client database the
// engine's workload substrates build. An unfiltered fill is one copy per
// projected column; a filtered one evaluates the bound conjunct per row.
// The source takes ownership of the tables' columns.
type MemSource struct {
	tables map[string]*memTable
	m      *backendMetrics
}

var _ Source = (*MemSource)(nil)

type memTable struct {
	info TableInfo
	data [][]int64
}

// NewMemSource serves tables after checking their shape: one column of
// N rows per distinct name, a pk column holding 1..N in row order, no
// table named twice.
func NewMemSource(tables ...MemTable) (*MemSource, error) {
	s := &MemSource{tables: make(map[string]*memTable, len(tables)), m: metricsForBackend("mem")}
	for _, t := range tables {
		if s.tables[t.Name] != nil {
			return nil, fmt.Errorf("scan: relation %q given twice", t.Name)
		}
		if len(t.Data) != len(t.Cols) {
			return nil, fmt.Errorf("scan: %s: %d columns of data for %d names", t.Name, len(t.Data), len(t.Cols))
		}
		mt := &memTable{info: TableInfo{Table: t.Name, Cols: t.Cols}, data: t.Data}
		for c, name := range t.Cols {
			if slices.Index(t.Cols, name) != c {
				return nil, fmt.Errorf("scan: %s: column %q given twice", t.Name, name)
			}
			if len(t.Data[c]) != len(t.Data[0]) {
				return nil, fmt.Errorf("scan: %s: column %q holds %d rows, %q holds %d",
					t.Name, name, len(t.Data[c]), t.Cols[0], len(t.Data[0]))
			}
			mt.info.Rows = int64(len(t.Data[c]))
		}
		if c := slices.Index(t.Cols, t.Name+"_pk"); c >= 0 {
			for r, pk := range t.Data[c] {
				if pk != int64(r)+1 {
					return nil, fmt.Errorf("scan: %s: row %d holds pk %d; pks are 1..N in row order", t.Name, r, pk)
				}
			}
		}
		s.tables[t.Name] = mt
	}
	return s, nil
}

// Tables implements Source.
func (s *MemSource) Tables() ([]string, error) { return sortedNames(s.tables), nil }

// Table implements Source.
func (s *MemSource) Table(name string) (*TableInfo, error) {
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: no relation %q in memory", ErrSpec, name)
	}
	info := t.info
	info.Cols = slices.Clone(info.Cols)
	return &info, nil
}

// Scan implements Source.
func (s *MemSource) Scan(ctx context.Context, spec Spec) (*Scan, error) {
	info, err := s.Table(spec.Table)
	if err != nil {
		return nil, err
	}
	r, err := resolve(spec, info)
	if err != nil {
		return nil, err
	}
	t := s.tables[spec.Table]
	f := &memFiller{cols: t.data}
	if r.proj != nil {
		f.cols = make([][]int64, len(r.proj))
		for c, src := range r.proj {
			f.cols[c] = t.data[src]
		}
	}
	if r.filtered {
		for _, c := range r.filt.Attrs() {
			f.conds = append(f.conds, memCond{col: t.data[c], set: r.filt.Cols[c]})
		}
	}
	return newScan(ctx, r, f, s.m), nil
}

// Close implements Source; the source holds no resources.
func (s *MemSource) Close() error { return nil }

// memFiller copies rows [lo, hi) of its columns into a batch, keeping
// the rows every condition admits — the one backend that fills batches
// itself: as runs of one, each row would cost a FillSpan call where a
// copy moves a whole column segment.
type memFiller struct {
	cols  [][]int64 // source column of each output column
	conds []memCond // nil: every row matches
}

type memCond struct {
	col []int64
	set pred.Set
}

func (f *memFiller) fill(_ context.Context, b *tuplegen.Batch, lo, hi int64) error {
	out := b.Reshape(len(f.cols), int(hi-lo), lo+1)
	b.Forget() // the copies below overwrite what FillSpan recorded
	if f.conds == nil {
		for c, src := range f.cols {
			copy(out[c], src[lo:hi])
		}
		return nil
	}
	at := 0
rows:
	for r := lo; r < hi; r++ {
		for _, cd := range f.conds {
			if !cd.set.Contains(cd.col[r]) {
				continue rows
			}
		}
		for c, src := range f.cols {
			out[c][at] = src[r]
		}
		at++
	}
	b.Truncate(at)
	return nil
}

func (f *memFiller) close() error { return nil }
