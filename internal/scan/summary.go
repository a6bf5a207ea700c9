package scan

import (
	"context"
	"fmt"
	"io"

	"github.com/dsl-repro/hydra/internal/summary"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// SummarySource scans a loaded database summary directly: runs are
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
	g := tuplegen.New(s.sum.Relations[spec.Table])
	g.SetFKSpread(s.sum.FKSpread)
	// info.Cols is the generator's tuple order, which is span order, so the
	// resolved projection and the bound filter (nil unfiltered) index runs
	// directly.
	sf, err := g.BindSpanFilter(r.filt)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrSpec, spec.Table, err)
	}
	return newScan(ctx, r, runs(r, &summaryRuns{it: g.Spans(r.lo+1, r.hi-r.lo)}, sf, r.proj), s.m), nil
}

// Close implements Source; a summary source holds no resources.
func (s *SummarySource) Close() error { return nil }

// summaryRuns hands out the summary rows' runs over the scan's range,
// one iterator per scan.
type summaryRuns struct {
	it tuplegen.SpanIter
	sp tuplegen.Span
}

func (r *summaryRuns) run(context.Context, int64) (*tuplegen.Span, error) {
	var ok bool
	if r.sp, ok = r.it.Next(); !ok {
		return nil, io.EOF
	}
	return &r.sp, nil
}

func (r *summaryRuns) close() error { return nil }
