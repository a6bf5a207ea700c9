package scan

import (
	"context"
	"fmt"

	"github.com/dsl-repro/hydra/internal/summary"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// SummarySource scans a loaded database summary directly: batches are
// generated on demand by tuplegen — the in-process dynamic regeneration
// path, no bytes materialized anywhere. It is the reference backend the
// other sources must agree with.
type SummarySource struct {
	sum *summary.Summary
	m   *backendMetrics
}

var _ Source = (*SummarySource)(nil)

// NewSummarySource wraps a summary as a scannable source.
func NewSummarySource(sum *summary.Summary) *SummarySource {
	return &SummarySource{sum: sum, m: metricsForBackend("summary")}
}

// Tables implements Source.
func (s *SummarySource) Tables() ([]string, error) {
	return sortedNames(s.sum.Relations), nil
}

// Table implements Source.
func (s *SummarySource) Table(name string) (*TableInfo, error) {
	rs, ok := s.sum.Relations[name]
	if !ok {
		return nil, fmt.Errorf("%w: summary has no relation %q", ErrSpec, name)
	}
	g := tuplegen.New(rs)
	return &TableInfo{Table: name, Cols: g.ColNames(), Rows: g.NumRows()}, nil
}

// Scan implements Source.
func (s *SummarySource) Scan(ctx context.Context, spec Spec) (*Scan, error) {
	info, err := s.Table(spec.Table)
	if err != nil {
		return nil, err
	}
	r, err := resolve(spec, info)
	if err != nil {
		return nil, err
	}
	rs := s.sum.Relations[spec.Table]
	g := tuplegen.New(rs)
	g.SetFKSpread(spec.FKSpread)
	f := &summaryFiller{g: g, proj: r.proj, ncols: len(r.cols)}
	if r.filtered {
		if f.sf, err = g.BindSpanFilter(r.filt); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrSpec, spec.Table, err)
		}
	}
	return newScan(ctx, r, f, s.m), nil
}

// Close implements Source; a summary source holds no resources.
func (s *SummarySource) Close() error { return nil }

// summaryFiller generates batches straight from the summary's run
// structure. Because info.Cols is exactly the generator's tuple order,
// the resolved projection indices are tuple-order indices and FillSpan
// consumes them directly. Every fill walks the grid cell's matching
// sub-spans — all of its spans when there is no filter — so a span whose
// constant columns fail never contributes a single generated value,
// which is where filtered scans earn their near-free selectivity.
type summaryFiller struct {
	g     *tuplegen.Generator
	proj  []int
	ncols int                  // output columns
	sf    *tuplegen.SpanFilter // nil: every row matches
}

func (f *summaryFiller) fill(_ context.Context, b *tuplegen.Batch, lo, hi int64) error {
	cols := prepBatch(b, f.ncols, int(hi-lo), lo)
	at := 0
	it := f.g.FilteredSpans(lo+1, hi-lo, f.sf)
	for sp, ok := it.Next(); ok; sp, ok = it.Next() {
		at = tuplegen.FillSpan(cols, at, &sp, f.proj)
	}
	b.Truncate(at)
	return nil
}

func (f *summaryFiller) close() error { return nil }
