// Package scan is Hydra's unified read path: one pull-based, columnar
// scan API over every place regenerated data can live. The paper's
// second deliverable is *dynamic* regeneration — a query executor pulls
// tuples on demand from the scale-independent summary instead of reading
// a materialized database (§2's "datagen" scan operator). After the
// materialization engine (internal/matgen) and the HTTP data plane
// (internal/serve), the same logical relation exists in three physical
// forms, and a client database in a fourth; this package makes all of
// them one thing to consume:
//
//	SummarySource  generates runs straight from a loaded summary (the
//	               in-process dynamic path, tuplegen under the hood)
//	MemSource      copies batches out of columns held in memory (the
//	               client database the engine's workloads run on)
//	DirSource      reads back a materialized shard directory, decoding
//	               csv/jsonl/heap/spans part files a run at a time against
//	               their manifests, seeking by the manifest's chunk index
//	               and verifying each part's checksum lazily and once
//	RemoteSource   streams the summary's runs (format=spans) from a fleet
//	               of `hydra serve` servers with filter pushdown,
//	               resume-on-offset, and failover
//
// Regenerated data is a sequence of runs — consecutive rows with an
// incrementing pk and a constant (or, for a spread FK, cycling) tail —
// and the summary, directory and remote backends say only that: each
// yields the next run of the scanned range. One fill loop places those
// runs on the batch grid for all three, clipping them under a filter and
// writing columns with Batch.FillSpan, and checks that they never go
// backwards and, unfiltered, tile the range. MemSource is the one
// exception: its columns are batches already, so it copies them; as
// runs its rows would be runs of one.
//
// Every source answers the same Spec — table, column projection,
// pk range, shard i/N split, batch size, rows/s rate limit — and yields
// the identical sequence of column-major batches: same batch boundaries,
// same values, same order. That conformance is the contract that lets
// the query engine (internal/engine), a benchmark driver, or a future
// columnar sink bind to Source once and run against any backend, and it
// is pinned by this package's cross-backend conformance tests.
package scan

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/obs"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/rate"
	"github.com/dsl-repro/hydra/internal/trace"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// Read-path observability, labeled by backend so the three physical
// forms of the same logical relation stay comparable: per-batch fill
// latency (the number that says whether a dir decode or a remote hop is
// the bottleneck), plus batch and row counters. Metric pointers are
// resolved when a backend is constructed, not per batch.
type backendMetrics struct {
	name          string
	batches, rows *obs.Counter
	batchSec      *obs.Histogram
}

func metricsForBackend(backend string) *backendMetrics {
	l := obs.L("backend", backend)
	return &backendMetrics{
		name: backend,
		batches: obs.Default.Counter("hydra_scan_batches_total",
			"batches filled by the unified read path, by backend", l),
		rows: obs.Default.Counter("hydra_scan_rows_total",
			"rows scanned through the unified read path, by backend", l),
		batchSec: obs.Default.Histogram("hydra_scan_batch_seconds",
			"per-batch fill latency, by backend", nil, l),
	}
}

// DefaultBatchRows is the batch granularity when Spec leaves BatchRows
// zero — the same default the materialization engine uses, big enough to
// amortize per-batch overhead, small enough to stay cache-resident.
const DefaultBatchRows = 8192

// ErrSpec marks a scan request the caller got wrong — unknown table or
// column, shard or range out of bounds. Callers map errors.Is(err,
// ErrSpec) to a client error; anything else is a backend failure.
var ErrSpec = errors.New("scan: invalid spec")

// Spec selects what one Scan reads. The zero value means "everything":
// all columns of the whole table, unsplit, at full speed.
type Spec struct {
	// Table names the relation to scan. Required.
	Table string
	// Columns projects the scan onto a subset of columns, in the order
	// given (nil = every column in the source's layout order). The
	// projection is applied as early as the backend allows: the summary
	// and remote sources fill only the selected columns from each run.
	Columns []string
	// StartPK and EndPK bound the scan to primary keys [StartPK, EndPK],
	// 1-based and inclusive. Zero values mean the table's ends; EndPK is
	// clamped to the relation's cardinality.
	StartPK int64
	EndPK   int64
	// Shards and Shard select piece Shard (0-based) of an N-way split of
	// the scanned pk range — how a parallel consumer divides one logical
	// scan across workers or machines. Zero values mean the single piece
	// 0 of 1. The split is pure arithmetic over the range, identical for
	// every backend.
	Shards int
	Shard  int
	// BatchRows sets the batch granularity (0 = DefaultBatchRows).
	// Batches fall on a fixed grid anchored at the scanned range's
	// start: every batch holds exactly BatchRows rows except the last.
	BatchRows int
	// RateLimit paces the scan in rows per second (0 = unlimited),
	// client-side, identically for every backend: each batch is released
	// only once its own emission time has elapsed.
	RateLimit float64
	// Filter restricts the scan to rows matching a conjunction of
	// per-column constraints (the zero value matches everything). It is
	// evaluated as early as each backend allows — whole tuplegen spans
	// are skipped when their constant columns fail, DirSource skips rows
	// and parts a pk restriction excludes without decoding or hashing
	// them, and RemoteSource pushes the filter to the server, which
	// evaluates it inside the encode stream. Filtering changes the batch
	// contract: each batch still covers one step of the batch grid (its
	// Start is the grid cell's first pk), but holds only the cell's
	// matching rows, and cells with no matches are skipped entirely —
	// identically for every backend, so conformance is preserved.
	Filter pred.Filter
}

// TableInfo describes one scannable relation: its column names in layout
// order (pk first for generated layouts) and its cardinality.
type TableInfo struct {
	Table string
	Cols  []string
	Rows  int64
}

// Source is a handle on regenerated data, wherever it lives. All
// implementations in this package are safe for concurrent use; each Scan
// holds its own cursor state.
type Source interface {
	// Tables lists the relation names, sorted.
	Tables() ([]string, error)
	// Table describes one relation's natural (unprojected) layout.
	Table(name string) (*TableInfo, error)
	// Scan starts a pull-based batch scan. The context governs the whole
	// scan: every Next observes its cancellation or deadline.
	Scan(ctx context.Context, spec Spec) (*Scan, error)
	// Close releases the source's resources. Scans must not be used
	// after their source is closed.
	Close() error
}

// filler is the seam between Scan and a backend: it fills b with rows
// [lo, hi) (absolute 0-based offsets; row r holds primary key r+1). The
// scan core calls it with contiguous, monotonically increasing ranges on
// the batch grid. It is runFill for every backend but MemSource.
type filler interface {
	fill(ctx context.Context, b *tuplegen.Batch, lo, hi int64) error
	close() error
}

// runSource is a backend of regenerated data: the relation as the
// sequence of runs it is. run returns the next run in pk order over the
// scan's range, in span order (pk as Start, then the other columns), or
// a bare io.EOF when none is left; it is not called again after that or
// an error. Unfiltered, runs tile the range; under a filter they may skip
// rows it excludes. max (≥ 1) is how many rows the caller can place
// before it calls again: a decoding reader stops a run there rather than
// read ahead, any other run comes whole. The span is the backend's own,
// valid until the next call; the caller advances it in place.
type runSource interface {
	run(ctx context.Context, max int64) (*tuplegen.Span, error)
	close() error
}

// fillCheckRows is how often runFill polls the context: often enough to
// cancel promptly, without an atomic load per run — per row, on a part
// of 1-row runs.
const fillCheckRows = 4096

// runFill is the one fill loop of the run backends. It places each run
// on the batch grid — the part of it in the cell, clipped by the filter
// where there is one, through Batch.FillSpan — and keeps the rest of
// the run pending for the next cell. It checks what it is given: runs
// never go backwards, start inside the scan's range and, unfiltered,
// tile it; a run may end past the range (a spans part's frame is read
// whole), and what lies past it is never placed.
type runFill struct {
	src   runSource
	sf    *tuplegen.SpanFilter // span order; nil: every run matches, or the backend filtered
	idx   []int                // FillSpan's index list into span order; nil = identity
	ncols int
	gaps  bool  // filtered scan: runs may skip rows
	lo    int64 // the scan's range [lo, end)
	end   int64
	pos   int64           // rows [lo, pos) are accounted for; end once the runs are over
	cur   *tuplegen.Span  // the pending rest of the last run; nil when placed
	poll  int64           // pos at which the next run polls the context
	clip  []tuplegen.Span // scratch: the passing pieces of one run in one cell
}

// runs wraps a run backend for a resolved scan.
func runs(r *resolved, src runSource, sf *tuplegen.SpanFilter, idx []int) *runFill {
	return &runFill{src: src, sf: sf, idx: idx, ncols: len(r.cols), gaps: r.filtered,
		lo: r.lo, end: r.hi, pos: r.lo, poll: r.lo}
}

func (f *runFill) fill(ctx context.Context, b *tuplegen.Batch, lo, hi int64) error {
	b.Reshape(f.ncols, int(hi-lo), lo+1)
	at, sp := 0, f.cur
	for {
		if sp == nil {
			if f.pos >= hi {
				break
			}
			if f.pos >= f.poll {
				if err := ctx.Err(); err != nil {
					return err
				}
				f.poll = f.pos + fillCheckRows
			}
			var err error
			if sp, err = f.src.run(ctx, hi-f.pos); err != nil || sp.Start-1 != f.pos || sp.N < 1 {
				if sp, err = f.admit(sp, err); sp == nil {
					if err != nil {
						return err
					}
					break
				}
			}
			f.pos = sp.Start - 1 + sp.N
		}
		n := hi + 1 - sp.Start // the rows of the cell from the run's first on
		if n <= 0 {
			break // a filtered run that starts in a later cell
		}
		rest := sp.N
		if rest > n {
			sp.N = n
		}
		if f.sf == nil {
			at = b.FillSpan(at, sp, f.idx)
		} else {
			f.clip = f.sf.Clip(f.clip[:0], *sp)
			for i := range f.clip {
				at = b.FillSpan(at, &f.clip[i], f.idx)
			}
		}
		if rest <= n {
			sp = nil
			continue
		}
		sp.Start, sp.Off, sp.N = sp.Start+n, sp.Off+n, rest-n
		break // the run goes on past the cell
	}
	f.cur = sp
	b.Truncate(at)
	return nil
}

// admit settles a backend's answer that is not simply the next rows: the
// end of its runs (nil, nil), a gap, legal only under a filter, or a
// broken contract.
func (f *runFill) admit(sp *tuplegen.Span, err error) (*tuplegen.Span, error) {
	switch {
	case err == nil:
	case !errors.Is(err, io.EOF) || errors.Unwrap(err) != nil:
		return nil, err // only a bare io.EOF ends the runs, not a part cut short
	case f.gaps:
		f.pos = f.end
		return nil, nil
	default:
		return nil, fmt.Errorf("scan: backend ran out of runs at row %d of [%d,%d)", f.pos, f.lo, f.end)
	}
	if first := sp.Start - 1; sp.N < 1 || first < f.pos || first >= f.end || !f.gaps {
		return nil, fmt.Errorf("scan: backend returned rows [%d,%d) after row %d of [%d,%d)",
			first, first+sp.N, f.pos, f.lo, f.end)
	}
	return sp, nil
}

func (f *runFill) close() error { return f.src.close() }

// Scan is a pull-based iterator of column-major row batches — the
// "datagen scan" operator's cursor. Usage follows database/sql.Rows:
//
//	sc, err := src.Scan(ctx, spec)
//	...
//	defer sc.Close()
//	for sc.Next() {
//	    b := sc.Batch() // valid until the next Next or Close
//	}
//	err = sc.Err()
//
// A Scan is not safe for concurrent use; run one per goroutine.
type Scan struct {
	ctx      context.Context
	table    string
	cols     []string
	lo       int64 // absolute row range [lo, hi)
	hi       int64
	pos      int64 // next unread absolute row
	step     int64 // batch grid step (resolved BatchRows)
	lim      *rate.Limiter
	fill     filler
	m        *backendMetrics
	b        *tuplegen.Batch
	sp       *trace.Span
	batches  int64
	filtered bool
	err      error
	done     bool
}

// Table returns the name of the relation being scanned.
func (s *Scan) Table() string { return s.table }

// Cols returns the scan's output column names, projection applied.
func (s *Scan) Cols() []string { return append([]string(nil), s.cols...) }

// NumRows returns how many rows the scan covers in total, before any
// Spec.Filter is applied — the size of the scanned pk range, not the
// number of rows a filtered scan will emit.
func (s *Scan) NumRows() int64 { return s.hi - s.lo }

// Filtered reports whether the scan carries a Spec.Filter, i.e. whether
// batches may hold fewer rows than their grid cell covers.
func (s *Scan) Filtered() bool { return s.filtered }

// StartRow returns the absolute 0-based offset of the scan's first row
// (its primary key minus one).
func (s *Scan) StartRow() int64 { return s.lo }

// Next advances to the next batch, reporting false at the end of the
// scan or on the first error (check Err). It honors the scan context's
// cancellation and the spec's rate limit.
func (s *Scan) Next() bool {
	for {
		if s.done || s.err != nil || s.pos >= s.hi {
			return false
		}
		if err := s.ctx.Err(); err != nil {
			s.err = err
			return false
		}
		n := s.step
		if s.pos+n > s.hi {
			n = s.hi - s.pos
		}
		// The limiter paces batch release exactly like matgen's collectors:
		// batches go out whole, each only once its own emission time has
		// elapsed, and a done context interrupts the wait promptly. A
		// filtered scan is paced by the rows it covers, not the rows it
		// emits — the work skipped by pushdown is exactly the point.
		if err := s.lim.WaitN(s.ctx, n); err != nil {
			s.err = err
			return false
		}
		t0 := time.Now()
		if err := s.fill.fill(s.ctx, s.b, s.pos, s.pos+n); err != nil {
			s.err = err
			return false
		}
		s.m.batchSec.ObserveSince(t0)
		s.m.batches.Inc()
		s.batches++
		s.m.rows.Add(int64(s.b.N))
		// The conformance invariant: every batch is anchored at its grid
		// cell's first pk and, unfiltered, covers the cell exactly. A
		// filtered batch keeps the anchor but holds only the cell's
		// matching rows.
		badStart := s.b.Start != s.pos+1
		if badStart || (s.filtered && int64(s.b.N) > n) || (!s.filtered && int64(s.b.N) != n) {
			s.err = fmt.Errorf("scan: backend filled rows [%d,%d), wanted [%d,%d)",
				s.b.Start-1, s.b.Start-1+int64(s.b.N), s.pos, s.pos+n)
			return false
		}
		// Every column holds exactly the batch's rows: the batch is
		// recycled across scans, so anything past N would be another
		// scan's data.
		if err := checkShape(s.b, len(s.cols)); err != nil {
			s.err = err
			return false
		}
		s.pos += n
		if s.b.N > 0 {
			return true
		}
		// A filtered cell with no matching rows: skip it, uniformly
		// across backends, so consumers never see empty batches.
	}
}

// Batch returns the current batch, valid until the next Next or Close:
// Next refills its buffers, and Close hands them to a later scan, after
// which Batch returns nil. Consumers that retain rows must copy them.
// The batch is read-only: a refill skips the values its memory is known
// to hold already, so a write into it would show in later batches.
func (s *Scan) Batch() *tuplegen.Batch { return s.b }

// Err returns the error that stopped the scan, nil after a clean end.
func (s *Scan) Err() error { return s.err }

// Close releases the scan's backend resources (open files, HTTP
// streams), recycles its batch — the last one Batch returned is invalid
// from here on — and ends the scan's span. It is idempotent and does not
// disturb Err.
func (s *Scan) Close() error {
	if s.done {
		return nil
	}
	s.done = true
	batchPool.Put(s.b)
	s.b = nil
	err := s.fill.close()
	if s.sp != nil {
		s.sp.SetAttrs(
			trace.Int("rows_covered", s.pos-s.lo),
			trace.Int("batches", s.batches))
		s.sp.Fail(s.err)
		s.sp.Fail(err)
		s.sp.End()
	}
	return err
}

// resolved is a validated, normalized Spec bound to one table layout.
type resolved struct {
	info     TableInfo // the source's natural layout
	cols     []string  // output columns, projection applied
	proj     []int     // indices into info.Cols; nil = all
	lo       int64     // absolute row range [lo, hi)
	hi       int64
	step     int64
	lim      *rate.Limiter
	filt     pred.Conjunct // Filter bound to info.Cols indices
	filtered bool
}

// resolve validates spec against the table's layout and computes the
// scan geometry every backend must agree on: the projected column list,
// the absolute row range (pk range restricted, then shard-split), and
// the batch grid.
func resolve(spec Spec, info *TableInfo) (*resolved, error) {
	shards := spec.Shards
	if shards == 0 {
		shards = 1
	}
	if shards < 1 || spec.Shard < 0 || spec.Shard >= shards {
		return nil, fmt.Errorf("%w: shard %d of %d out of range", ErrSpec, spec.Shard, spec.Shards)
	}
	batch := spec.BatchRows
	if batch == 0 {
		batch = DefaultBatchRows
	}
	if batch < 1 {
		return nil, fmt.Errorf("%w: batch rows %d out of range", ErrSpec, spec.BatchRows)
	}
	var lim *rate.Limiter
	if spec.RateLimit != 0 {
		var err error
		if lim, err = rate.NewLimiter(spec.RateLimit, 0); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSpec, err)
		}
	}
	proj, err := tuplegen.ProjectCols(info.Cols, spec.Columns)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrSpec, info.Table, err)
	}
	cols := info.Cols
	if proj != nil {
		cols = make([]string, len(proj))
		for i, src := range proj {
			cols[i] = info.Cols[src]
		}
	}
	if spec.StartPK < 0 || spec.EndPK < 0 {
		return nil, fmt.Errorf("%w: pk range [%d,%d] out of range", ErrSpec, spec.StartPK, spec.EndPK)
	}
	start := spec.StartPK
	if start < 1 {
		start = 1
	}
	end := spec.EndPK
	if end == 0 || end > info.Rows {
		end = info.Rows
	}
	lo0, hi0 := start-1, end
	if hi0 < lo0 {
		hi0 = lo0 // empty scan, not an error: range semantics match Batch's clamping
	}
	// Shard split of the restricted range: pure arithmetic, alignment 1,
	// so every backend computes the identical piece.
	n := hi0 - lo0
	lo := lo0 + matgen.SplitPoint(n, spec.Shard, shards)
	hi := lo0 + matgen.SplitPoint(n, spec.Shard+1, shards)
	r := &resolved{
		info: *info, cols: cols, proj: proj,
		lo: lo, hi: hi, step: int64(batch), lim: lim,
	}
	if !spec.Filter.Empty() {
		// The filter binds against the full natural layout, independent
		// of the projection: constraining a column you don't select is
		// legal. The grid is deliberately NOT tightened from a pk
		// restriction — batch anchoring must stay identical across
		// filtered backends — except for the one degenerate case of an
		// unsatisfiable filter, which every backend collapses to the
		// empty scan the same way.
		r.filt, err = spec.Filter.Bind(info.Cols)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrSpec, info.Table, err)
		}
		r.filtered = true
		if r.filt.Unsatisfiable() {
			r.hi = r.lo
		}
	}
	return r, nil
}

// newScan assembles the iterator all sources share; m is the backend's
// metric set, resolved once at source construction. Every scan opens
// one span named after its backend — scan.summary, scan.dir,
// scan.remote — so the three physical forms of a relation stay
// comparable in a trace the same way they are in the metrics. The span
// wraps the whole iteration (cost is per scan, not per batch or row)
// and ends at Close. It is a child span: scans sit mid-tier, so the
// trace root belongs to the request entry point (a served stream, a
// SQL query, a loadgen request, an orchestrated shard), and a scan on
// an untraced context records nothing and pays nothing.
func newScan(ctx context.Context, r *resolved, f filler, m *backendMetrics) *Scan {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := trace.Child(ctx, "scan."+m.name,
		trace.Str("table", r.info.Table),
		trace.Int("rows", r.hi-r.lo))
	return spannedScan(ctx, sp, r, f, m)
}

// spannedScan is newScan for a backend that started the scan's span
// itself, before its geometry was settled; ctx carries sp.
func spannedScan(ctx context.Context, sp *trace.Span, r *resolved, f filler, m *backendMetrics) *Scan {
	// A recycled batch starts empty, so nothing of the scan that used it
	// last is visible before the first Next.
	b := batchPool.Get().(*tuplegen.Batch)
	b.Reshape(len(r.cols), 0, r.lo+1)
	return &Scan{
		ctx: ctx, table: r.info.Table, cols: r.cols,
		lo: r.lo, hi: r.hi, pos: r.lo, step: r.step,
		lim: r.lim, fill: f, m: m, b: b,
		sp: sp, filtered: r.filtered,
	}
}

// batchPool recycles batches from closed scans into new ones. Reshape
// keeps per-column capacity across widths, so a warm scan, on any
// backend, allocates no columns.
var batchPool = sync.Pool{New: func() any { return new(tuplegen.Batch) }}

// checkShape reports a batch whose column count is not ncols or whose
// columns do not all hold exactly N rows.
func checkShape(b *tuplegen.Batch, ncols int) error {
	if len(b.Cols) != ncols {
		return fmt.Errorf("scan: backend filled %d columns, wanted %d", len(b.Cols), ncols)
	}
	for c, col := range b.Cols {
		if len(col) != b.N {
			return fmt.Errorf("scan: backend left column %d at %d rows in a batch of %d", c, len(col), b.N)
		}
	}
	return nil
}

// sortedNames returns the map's keys, sorted — the Tables() order every
// source presents.
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
