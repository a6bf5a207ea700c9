package main

import (
	"context"
	"crypto/sha256"
	"database/sql"
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"github.com/dsl-repro/hydra"
	"github.com/dsl-repro/hydra/internal/serve"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// checkEvery is how often a ranged request's bytes are compared with the
// oracle backend: the first request and every 50th after it.
const checkEvery = 50

// workload is one of the six closed-loop load shapes. tail90 and tail99
// are the percentiles op_p90_s and op_p99_s report on this workload: the
// named one where a run of the declared length holds at least ten ops
// beyond it on the sizing machine, else the highest level that does. They
// are fixed per workload so a metric never changes meaning between runs.
type workload struct {
	name    string
	why     string
	needs   need
	tail90  float64
	tail99  float64
	warmups int
	start   func(e *env) runner
}

// runner executes one workload's ops against a built environment.
type runner interface {
	// op runs one operation and checks its output. It returns the time
	// spent inside the program (oracle work excluded) and the rows
	// delivered to the caller; a non-nil error marks the op failed.
	op(ctx context.Context, r request, rec *recorder) (time.Duration, int64, error)
	// exact returns the run's exact-count metrics.
	exact(ctx context.Context) (exactCounts, error)
}

// exactCounts are the end-to-end metrics that are counts, not timings:
// they repeat exactly from run to run and from seed to seed.
type exactCounts struct {
	bytesPerRow  float64
	ccExactShare float64
	summaryBytes float64
}

var workloads = []workload{
	{
		name: "summarize", needs: needInputs, tail90: 50, tail99: 50, warmups: 1,
		why:   "Vendor-side pipeline only (preprocess to summary, plus Evaluate) on four inputs incl. a x1e11 one: pins scale independence; the data plane does no work.",
		start: func(e *env) runner { return &summarizeRunner{e: e, digests: map[string]string{}} },
	},
	{
		name: "materialize", needs: needDS, tail90: 50, tail99: 50, warmups: 1,
		why:   "Static regeneration: tuplegen spans, matgen csv encode, ordered collect, file write; serve, scan and decoders bypassed. Write half of the format scan-dir reads.",
		start: func(e *env) runner { return &materializeRunner{e: e} },
	},
	{
		name: "scan-summary", needs: needDS, tail90: 90, tail99: 99, warmups: 50,
		why:   "Dynamic regeneration as a scan operator sees it: tuplegen plus batch fill only. The ceiling for the other backends; encode, HTTP and decode changes must read unchanged here.",
		start: func(e *env) runner { return &scanRunner{e: e, name: "scan-summary", src: e.local} },
	},
	{
		name: "scan-dir", needs: needDir, tail90: 90, tail99: 90, warmups: 3,
		why:   "Read half of the materialized csv format: row decoders plus skip-to-offset inside a part file (ROADMAP item 4's target).",
		start: func(e *env) runner { return &scanRunner{e: e, name: "scan-dir", src: e.dir} },
	},
	{
		name: "scan-remote", needs: needFleet, tail90: 90, tail99: 90, warmups: 10,
		why:   "Regeneration as a service end to end: pick, admit, matgen.Stream encode, HTTP, csv decode, RowBatch. Every serving-path layer is on it; summarize is not.",
		start: func(e *env) runner { return &scanRunner{e: e, name: "scan-remote", src: e.remote} },
	},
	{
		name: "serve-query", needs: needSQL, tail90: 90, tail99: 90, warmups: 3,
		why:   "database/sql over the fleet with projection and filter: the same serve/matgen/scan layers used differently, so a fast path for full-width unfiltered streams only is caught.",
		start: func(e *env) runner { return &queryRunner{e: e} },
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// dsCounts fills the two summary-quality counts from ds, for the
// workloads that serve from it.
func (e *env) dsCounts(bytesPerRow float64) exactCounts {
	return exactCounts{
		bytesPerRow:  bytesPerRow,
		ccExactShare: float64(e.ds.exactCCs) / float64(e.ds.totalCCs),
		summaryBytes: float64(e.ds.sum.SizeBytes()),
	}
}

// --- summarize ---

type summarizeRunner struct {
	e       *env
	digests map[string]string // first digest seen per input
	last    passCounts
}

// passCounts are the exact counts one summarize pass produces.
type passCounts struct {
	summaryBytes int64
	summaryRows  int64
	exactCCs     int
	totalCCs     int
}

func (s *summarizeRunner) op(_ context.Context, _ request, rec *recorder) (time.Duration, int64, error) {
	root := rec.root("summarize")
	t0 := time.Now()
	var pc passCounts
	var errs []error
	for _, in := range s.e.inputs {
		h := rec.child(root, "drain")
		var sum *hydra.Summary
		var reports []hydra.CCReport
		var err error
		if rec == nil {
			sum, reports, err = regenerate(in)
		} else {
			var st *stagedResult
			if st, err = stagedRegenerate(in, rec, h); err == nil {
				sum, reports = st.sum, st.reports
			}
		}
		if err != nil {
			rec.end(h, 0, 0)
			errs = append(errs, fmt.Errorf("%s: %w", in.name, err))
			continue
		}
		rec.end(h, int64(sum.NumRows()), sum.SizeBytes())
		pc.summaryBytes += sum.SizeBytes()
		pc.summaryRows += int64(sum.NumRows())
		pc.exactCCs += exactCCs(reports)
		pc.totalCCs += len(reports)
		// The digest is an oracle, not part of the op; it is cheap next
		// to a Regenerate (a 20 KB hash), so it stays inside the timing.
		d, err := serve.SummaryDigest(sum)
		if err != nil {
			errs = append(errs, err)
		} else if first, ok := s.digests[in.name]; !ok {
			s.digests[in.name] = d
		} else if first != d {
			errs = append(errs, fmt.Errorf("%s: summary digest changed between identical calls", in.name))
		}
	}
	dur := time.Since(t0)
	rec.end(root, pc.summaryRows, pc.summaryBytes)
	s.last = pc
	return dur, pc.summaryRows, errors.Join(errs...)
}

// regenerate is the one-call pipeline the untraced op times.
func regenerate(in input) (*hydra.Summary, []hydra.CCReport, error) {
	res, err := hydra.Regenerate(in.schema, in.wl, hydra.Config{})
	if err != nil {
		return nil, nil, err
	}
	reports, err := res.Evaluate(in.wl)
	if err != nil {
		return nil, nil, err
	}
	return res.Summary, reports, nil
}

func (s *summarizeRunner) exact(context.Context) (exactCounts, error) {
	if s.last.summaryRows == 0 || s.last.totalCCs == 0 {
		return exactCounts{}, errors.New("summarize: no pass completed")
	}
	return exactCounts{
		bytesPerRow:  float64(s.last.summaryBytes) / float64(s.last.summaryRows),
		ccExactShare: float64(s.last.exactCCs) / float64(s.last.totalCCs),
		summaryBytes: float64(s.last.summaryBytes),
	}, nil
}

// --- materialize ---

type materializeRunner struct {
	e        *env
	verified bool
	bytes    int64
}

func (m *materializeRunner) op(_ context.Context, _ request, rec *recorder) (time.Duration, int64, error) {
	dir, err := os.MkdirTemp(m.e.tmp, "mat-")
	if err != nil {
		return 0, 0, err
	}
	defer func() { warnIf("remove materialization", os.RemoveAll(dir)) }()
	root := rec.root("materialize")
	h := rec.child(root, "drain")
	t0 := time.Now()
	rep, err := hydra.Materialize(m.e.ds.sum, hydra.MaterializeOptions{Dir: dir, Format: "csv", Workers: workers()})
	dur := time.Since(t0)
	if err != nil {
		rec.end(h, 0, 0)
		rec.end(root, 0, 0)
		return dur, 0, err
	}
	rec.end(h, rep.Rows, rep.Bytes)
	rec.end(root, rep.Rows, rep.Bytes)
	m.bytes = rep.Bytes
	if rep.Rows != m.e.ds.rows {
		return dur, rep.Rows, fmt.Errorf("materialize wrote %d rows, ds has %d", rep.Rows, m.e.ds.rows)
	}
	if !m.verified {
		// Once per run: every part re-hashes to its manifest checksum
		// and the shard tiles the summary's row space.
		if _, err := hydra.VerifyShards(hydra.ShardVerifyOptions{Dir: dir, Summary: m.e.ds.sum}); err != nil {
			return dur, rep.Rows, fmt.Errorf("verify shards: %w", err)
		}
		m.verified = true
	}
	return dur, rep.Rows, nil
}

func (m *materializeRunner) exact(context.Context) (exactCounts, error) {
	if m.bytes == 0 {
		return exactCounts{}, errors.New("materialize: no op completed")
	}
	return m.e.dsCounts(float64(m.bytes) / float64(m.e.ds.rows)), nil
}

// --- scan-summary, scan-dir, scan-remote ---

type scanRunner struct {
	e    *env
	name string // the workload's name; selects the oracle and the byte count
	src  hydra.Source
}

func (s *scanRunner) op(ctx context.Context, r request, rec *recorder) (time.Duration, int64, error) {
	spec := r.rangedSpec()
	root := rec.root(s.name)
	t0 := time.Now()
	h := rec.child(root, "open")
	sc, err := s.src.Scan(ctx, spec)
	rec.end(h, 0, 0)
	if err != nil {
		rec.end(root, 0, 0)
		return time.Since(t0), 0, err
	}
	h = rec.child(root, "drain")
	var rows int64
	contiguous := true
	for sc.Next() {
		b := sc.Batch()
		contiguous = contiguous && b.Start == spec.StartPK+rows
		rows += int64(b.N)
	}
	rec.end(h, rows, 0)
	h = rec.child(root, "close")
	cerr := sc.Close()
	rec.end(h, 0, 0)
	dur := time.Since(t0)
	rec.end(root, rows, 0)
	switch {
	case sc.Err() != nil:
		return dur, rows, sc.Err()
	case cerr != nil:
		return dur, rows, cerr
	case rows != r.RangeRows || !contiguous:
		return dur, rows, fmt.Errorf("request %d: got %d rows (contiguous=%v), want %d from pk %d", r.Seq, rows, contiguous, r.RangeRows, spec.StartPK)
	}
	if r.Seq%checkEvery == 0 {
		if err := s.check(ctx, spec); err != nil {
			return dur, rows, fmt.Errorf("request %d: %w", r.Seq, err)
		}
	}
	return dur, rows, nil
}

// check compares the backend's output for spec with an independent path:
// dir and remote against the summary backend's bytes, the summary backend
// against row-at-a-time generation (binary search per pk, no spans).
func (s *scanRunner) check(ctx context.Context, spec hydra.ScanSpec) error {
	if s.name == "scan-summary" {
		return checkAgainstRows(ctx, s.e.local, s.e.ds.sum, spec)
	}
	got, err := scanDigest(ctx, s.src, spec)
	if err != nil {
		return err
	}
	want, err := scanDigest(ctx, s.e.local, spec)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s bytes differ from the summary backend's for %+v", s.name, spec)
	}
	return nil
}

func scanDigest(ctx context.Context, src hydra.Source, spec hydra.ScanSpec) ([sha256.Size]byte, error) {
	var d [sha256.Size]byte
	sc, err := src.Scan(ctx, spec)
	if err != nil {
		return d, err
	}
	defer sc.Close()
	h := sha256.New()
	if _, err := hydra.EncodeScan(h, sc, "csv"); err != nil {
		return d, err
	}
	h.Sum(d[:0])
	return d, nil
}

func checkAgainstRows(ctx context.Context, src hydra.Source, sum *hydra.Summary, spec hydra.ScanSpec) error {
	rs, ok := sum.Relations[spec.Table]
	if !ok {
		return fmt.Errorf("summary has no relation %q", spec.Table)
	}
	gen := tuplegen.New(rs)
	sc, err := src.Scan(ctx, spec)
	if err != nil {
		return err
	}
	defer sc.Close()
	var got, want []int64
	for sc.Next() {
		b := sc.Batch()
		for i := 0; i < b.N; i++ {
			got = b.Row(got, i)
			want = gen.Row(b.Start+int64(i), want)
			if !slices.Equal(got, want) {
				return fmt.Errorf("%s pk %d: scan row %v, generator row %v", spec.Table, b.Start+int64(i), got, want)
			}
		}
	}
	return sc.Err()
}

func (s *scanRunner) exact(ctx context.Context) (exactCounts, error) {
	switch s.name {
	case "scan-remote":
		bpr, err := wireBytesPerRow(s.e, func(r request) (int64, error) {
			return drain(ctx, s.src, r.rangedSpec())
		})
		return s.e.dsCounts(bpr), err
	case "scan-dir":
		return s.e.dsCounts(float64(s.e.dirBytes) / float64(s.e.ds.rows)), nil
	default:
		// Nothing is stored or moved but the summary itself.
		return s.e.dsCounts(float64(s.e.ds.sum.SizeBytes()) / float64(s.e.ds.rows)), nil
	}
}

// wireBytesPerRow issues the fixed reference requests through do and
// divides the response-body bytes the fleet wrote by the rows delivered.
// One client and no timed op in flight make the byte delta exact.
func wireBytesPerRow(e *env, do func(request) (int64, error)) (float64, error) {
	var bytes, rows int64
	for _, r := range referenceRequests(e.sc, e.ds.big) {
		before := e.wire.Load()
		n, err := do(r)
		if err != nil {
			return 0, fmt.Errorf("reference request on %s: %w", r.Table, err)
		}
		bytes += e.wire.Load() - before
		rows += n
	}
	if rows == 0 {
		return 0, errors.New("reference requests delivered no rows")
	}
	return float64(bytes) / float64(rows), nil
}

// --- serve-query ---

type queryRunner struct {
	e    *env
	dest []any
}

func (q *queryRunner) op(ctx context.Context, r request, rec *recorder) (time.Duration, int64, error) {
	root := rec.root("serve-query")
	dur, rows, err := runQuery(ctx, q.e.db, r, rec, root, &q.dest)
	rec.end(root, rows, 0)
	if err != nil {
		return dur, rows, fmt.Errorf("request %d: %w", r.Seq, err)
	}
	spec, err := r.querySpec()
	if err != nil {
		return dur, rows, err
	}
	want, err := drain(ctx, q.e.local, spec)
	if err != nil {
		return dur, rows, err
	}
	if rows != want {
		return dur, rows, fmt.Errorf("request %d: query returned %d rows, summary backend %d", r.Seq, rows, want)
	}
	return dur, rows, nil
}

// runQuery issues r as SQL and walks the result row at a time, the way a
// database/sql caller does.
func runQuery(ctx context.Context, db *sql.DB, r request, rec *recorder, parent handle, dest *[]any) (time.Duration, int64, error) {
	ncols := len(r.queryCols())
	for len(*dest) < ncols {
		*dest = append(*dest, new(int64))
	}
	t0 := time.Now()
	h := rec.child(parent, "open")
	res, err := db.QueryContext(ctx, r.sql())
	rec.end(h, 0, 0)
	if err != nil {
		return time.Since(t0), 0, err
	}
	h = rec.child(parent, "drain")
	var rows int64
	var serr error
	for res.Next() {
		if serr = res.Scan((*dest)[:ncols]...); serr != nil {
			break
		}
		rows++
	}
	rec.end(h, rows, 0)
	h = rec.child(parent, "close")
	cerr := res.Close()
	rec.end(h, 0, 0)
	dur := time.Since(t0)
	return dur, rows, errors.Join(serr, res.Err(), cerr)
}

func (q *queryRunner) exact(ctx context.Context) (exactCounts, error) {
	bpr, err := wireBytesPerRow(q.e, func(r request) (int64, error) {
		_, rows, err := runQuery(ctx, q.e.db, r, nil, handle{}, &q.dest)
		return rows, err
	})
	return q.e.dsCounts(bpr), err
}
