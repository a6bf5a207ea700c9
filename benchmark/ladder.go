package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"time"

	"github.com/dsl-repro/hydra"
	"github.com/dsl-repro/hydra/internal/core"
	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/scan"
	"github.com/dsl-repro/hydra/internal/serve"
	"github.com/dsl-repro/hydra/internal/summary"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// ladder measures one number per layer by calling each module's exported
// functions directly, from outside. A rung that is a separate call is
// timed on its own; a layer's self time is its rung minus the rung below.
// Every rung is predicted to move one end-to-end metric on one workload;
// the README holds that table.
type ladder struct {
	e   *env
	rec *recorder
	out map[string]float64
	t   tableInfo // the relation the single-table rungs run on
	ref request   // the reference request on t: its projection and filter

	// Rungs a later rung is subtracted from.
	streamCSVSecs float64 // matgen.Stream of t as csv into io.Discard
	httpCSVSecs   float64 // raw GET of t as csv, drained
	gzipRawBytes  int     // csv bytes of the prefix the gzip rungs compress
}

func runLadder(ctx context.Context, e *env, rec *recorder) (map[string]float64, error) {
	t, err := e.ds.table(ladderTableName)
	if err != nil {
		return nil, err
	}
	l := &ladder{e: e, rec: rec, out: make(map[string]float64), t: t}
	l.ref = referenceRequests(e.sc, []tableInfo{t})[0]
	for _, rung := range []func(context.Context) error{
		l.summarize, l.tuplegen, l.scanSummary, l.matgenStreams, l.matgenGzip,
		l.materialize, l.serve, l.scanDir, l.scanRemote, l.query, l.rootSpan,
	} {
		if err := rung(ctx); err != nil {
			return nil, err
		}
	}
	return l.out, nil
}

// timed returns the median wall time in seconds of reps calls of fn.
func timed(reps int, fn func() error) (float64, error) {
	return timedValue(reps, func() (float64, error) {
		t0 := time.Now()
		err := fn()
		return time.Since(t0).Seconds(), err
	})
}

func (l *ladder) reps() int { return l.e.sc.rungReps }

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// --- preprocess, viewgraph, partition, core, lp, summary ---

func (l *ladder) summarize(context.Context) error {
	digests := make(map[string]map[string]bool)
	note := func(name string, sum *hydra.Summary) error {
		d, err := serve.SummaryDigest(sum)
		if err != nil {
			return err
		}
		if digests[name] == nil {
			digests[name] = make(map[string]bool)
		}
		digests[name][d] = true
		return nil
	}

	mark := len(l.rec.spans)
	var last []*stagedResult
	for pass := 0; pass < min(2, l.reps()); pass++ {
		root := l.rec.root("ladder.summarize")
		last = last[:0]
		for _, in := range l.e.inputs {
			st, err := stagedRegenerate(in, l.rec, root)
			if err != nil {
				return fmt.Errorf("staged %s: %w", in.name, err)
			}
			if err := note(in.name, st.sum); err != nil {
				return err
			}
			last = append(last, st)
		}
		l.rec.end(root, 0, 0)
	}
	self := medianSelfByName(l.rec.spans[mark:])
	l.out["preprocess.build_views_s"] = self["preprocess.build_views"]
	l.out["core.formulate_s"] = self["core.formulate"]
	l.out["lp.solve_s"] = self["lp.solve"]
	l.out["summary.build_s"] = self["summary.build"]
	l.out["summary.evaluate_s"] = self["summary.evaluate"]

	var reports []hydra.CCReport
	var summaryRows int
	for _, st := range last {
		l.out["core.lp_vars"] += float64(st.lpVars)
		l.out["core.lp_rows"] += float64(st.lpRows)
		l.out["core.sub_views"] += float64(st.subViews)
		l.out["lp.pivots"] += float64(st.pivots)
		l.out["lp.bb_nodes"] += float64(st.nodes)
		l.out["core.soft_views"] += float64(st.softViews)
		summaryRows += st.sum.NumRows()
		reports = append(reports, st.reports...)
	}
	l.out["summary.rows"] = float64(summaryRows)
	cdf := summary.ErrorCDF(reports, []float64{0.01, 0.10})
	l.out["summary.cc_within_1pct_share"] = cdf[0] / 100
	l.out["summary.cc_within_10pct_share"] = cdf[1] / 100

	// The two stages FormulateWith runs inside itself, called on their
	// own: chordal decomposition into sub-views, then region partitioning
	// of every sub-view.
	var inputs []core.SubViewInput
	decompose, err := timed(l.reps(), func() error {
		inputs = inputs[:0]
		for _, st := range last {
			for _, v := range st.views {
				inputs = append(inputs, core.SubViewInputs(v)...)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.out["viewgraph.decompose_s"] = decompose
	var regions int
	partitionS, err := timed(l.reps(), func() error {
		regions = 0
		for _, in := range inputs {
			rs, err := core.RegionStrategy(in.Space, in.Cons)
			if err != nil {
				return err
			}
			regions += len(rs)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.out["partition.regions_s"] = partitionS
	l.out["partition.regions"] = float64(regions)

	// The facade's one call must produce what the staged calls produced,
	// and identical calls must produce one digest. The probe is the input
	// on which they do not, today.
	for _, in := range l.e.inputs {
		sum, _, err := regenerate(in)
		if err != nil {
			return err
		}
		if err := note(in.name, sum); err != nil {
			return err
		}
	}
	for i := 0; i < l.e.sc.probes; i++ {
		res, err := hydra.Regenerate(l.e.probe.schema, l.e.probe.wl, hydra.Config{})
		if err != nil {
			return fmt.Errorf("probe %s: %w", l.e.probe.name, err)
		}
		if err := note(l.e.probe.name, res.Summary); err != nil {
			return err
		}
	}
	unstable := 0
	for _, ds := range digests {
		if len(ds) > 1 {
			unstable++
		}
	}
	l.out["summary.unstable_inputs"] = float64(unstable)
	for _, in := range l.e.inputs {
		if len(digests[in.name]) > 1 {
			return fmt.Errorf("summarize input %s is not digest-stable: %d digests", in.name, len(digests[in.name]))
		}
	}
	return nil
}

// --- tuplegen ---

func (l *ladder) tuplegen(context.Context) error {
	gen := tuplegen.New(l.t.rs)
	rows := gen.NumRows()

	// Span iteration touches one summary row per span, so a drain of the
	// whole relation is nanoseconds; repeat it to get above timer noise.
	const drains = 2000
	var spans int64
	spanS, err := timed(l.reps(), func() error {
		spans = 0
		for i := 0; i < drains; i++ {
			it := gen.Spans(1, rows)
			for _, ok := it.Next(); ok; _, ok = it.Next() {
				spans++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.out["tuplegen.span_iter_rows_per_s"] = float64(rows) * drains / spanS
	l.out["tuplegen.mean_span_rows"] = float64(rows) * drains / float64(spans)

	var b tuplegen.Batch
	batchS, err := timed(l.reps(), func() error {
		for pk := int64(1); pk <= rows; pk += scan.DefaultBatchRows {
			gen.Batch(pk, scan.DefaultBatchRows, &b)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.out["tuplegen.batch_rows_per_s"] = float64(rows) / batchS

	f, err := l.ref.valueFilter()
	if err != nil {
		return err
	}
	conj, err := f.Bind(gen.ColNames())
	if err != nil {
		return err
	}
	sf, err := gen.BindSpanFilter(conj)
	if err != nil {
		return err
	}
	filteredS, err := timed(l.reps(), func() error {
		for i := 0; i < drains; i++ {
			it := gen.FilteredSpans(1, rows, sf)
			for _, ok := it.Next(); ok; _, ok = it.Next() {
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.out["tuplegen.filtered_rows_per_s"] = float64(rows) * drains / filteredS
	return nil
}

// valueFilter is r's equality predicate without the pk window: the filter
// the single-table rungs push down over a whole relation.
func (r request) valueFilter() (hydra.Filter, error) {
	if r.ValueCol == "" {
		return hydra.Filter{}, fmt.Errorf("%s has no value column to filter on", r.Table)
	}
	return hydra.Col(r.ValueCol).Eq(r.Value), nil
}

// --- scan ---

// fullScan drains the ladder table from src once per rep and returns the
// median seconds and the mallocs of the last drain per thousand rows.
func (l *ladder) fullScan(ctx context.Context, src hydra.Source, reps int) (secs, allocsPerKrow float64, err error) {
	var allocs uint64
	secs, err = timed(reps, func() error {
		before := mallocs()
		rows, err := drain(ctx, src, hydra.ScanSpec{Table: l.t.name})
		allocs = mallocs() - before
		if err == nil && rows != l.t.rows {
			err = fmt.Errorf("full scan of %s: %d rows, want %d", l.t.name, rows, l.t.rows)
		}
		return err
	})
	return secs, float64(allocs) / (float64(l.t.rows) / 1000), err
}

func (l *ladder) scanSummary(ctx context.Context) error {
	secs, allocs, err := l.fullScan(ctx, l.e.local, l.reps())
	if err != nil {
		return err
	}
	l.out["scan.summary_full_rows_per_s"] = float64(l.t.rows) / secs
	l.out["scan.summary_allocs_per_krow"] = allocs
	open, err := timed(200, func() error {
		_, err := drain(ctx, l.e.local, hydra.ScanSpec{Table: l.t.name, StartPK: 1, EndPK: 1})
		return err
	})
	l.out["scan.summary_open_s"] = open
	return err
}

func (l *ladder) scanDir(ctx context.Context) error {
	// A fresh handle pays the first-open SHA-256 of the part again.
	first, err := timed(1, func() error {
		src, err := hydra.OpenDirSource(l.e.dirPath)
		if err != nil {
			return err
		}
		defer src.Close()
		_, err = drain(ctx, src, hydra.ScanSpec{Table: l.t.name, StartPK: 1, EndPK: 1})
		return err
	})
	if err != nil {
		return err
	}
	l.out["scan.dir_first_open_s"] = first
	secs, allocs, err := l.fullScan(ctx, l.e.dir, 1)
	if err != nil {
		return err
	}
	l.out["scan.dir_full_rows_per_s"] = float64(l.t.rows) / secs
	l.out["scan.dir_allocs_per_krow"] = allocs
	// The last row alone: everything before it is skipped, not delivered.
	skip, err := timed(l.reps(), func() error {
		_, err := drain(ctx, l.e.dir, hydra.ScanSpec{Table: l.t.name, StartPK: l.t.rows, EndPK: l.t.rows})
		return err
	})
	l.out["scan.dir_skip_rows_per_s"] = float64(l.t.rows-1) / skip
	return err
}

func (l *ladder) scanRemote(ctx context.Context) error {
	secs, allocs, err := l.fullScan(ctx, l.e.remote, 1)
	if err != nil {
		return err
	}
	mrows := float64(l.t.rows) / 1e6
	l.out["scan.remote_full_rows_per_s"] = float64(l.t.rows) / secs
	l.out["scan.remote_allocs_per_krow"] = allocs
	// The same bytes fetched and thrown away: what is left is the client's
	// csv decode and batch fill.
	l.out["scan.remote_decode_self_s_per_mrow"] = (secs - l.httpCSVSecs) / mrows
	return nil
}

// --- matgen ---

func (l *ladder) stream(ctx context.Context, opts matgen.StreamOptions, w io.Writer) (float64, error) {
	opts.Table = l.t.name
	return timed(l.reps(), func() error {
		_, err := matgen.Stream(ctx, l.e.ds.sum, opts, w)
		return err
	})
}

func (l *ladder) matgenStreams(ctx context.Context) error {
	rows := float64(l.t.rows)
	for _, format := range []string{"csv", "jsonl", "sql", "heap"} {
		secs, err := l.stream(ctx, matgen.StreamOptions{Format: format}, io.Discard)
		if err != nil {
			return err
		}
		if format == "csv" {
			l.streamCSVSecs = secs
		}
		l.out["matgen.stream_"+format+"_rows_per_s"] = rows / secs
	}
	secs, err := l.stream(ctx, matgen.StreamOptions{Format: "csv", Columns: l.ref.queryCols()}, io.Discard)
	if err != nil {
		return err
	}
	l.out["matgen.stream_csv_projected_rows_per_s"] = rows / secs
	f, err := l.ref.valueFilter()
	if err != nil {
		return err
	}
	secs, err = l.stream(ctx, matgen.StreamOptions{Format: "csv", Filter: f}, io.Discard)
	l.out["matgen.stream_csv_filtered_rows_per_s"] = rows / secs
	return err
}

// gzipRows is the prefix of the ladder table the gzip rungs compress; the
// codec runs at tens of MB/s, so the whole relation would take seconds.
func (l *ladder) gzipRows() int64 { return min(l.t.rows, 4*l.e.sc.rangeRows) }

func (l *ladder) matgenGzip(ctx context.Context) error {
	var raw bytes.Buffer
	if _, err := matgen.Stream(ctx, l.e.ds.sum, matgen.StreamOptions{Table: l.t.name, Format: "csv", Limit: l.gzipRows()}, &raw); err != nil {
		return err
	}
	l.gzipRawBytes = raw.Len()
	gz, err := matgen.CompressorFor("gzip")
	if err != nil {
		return err
	}
	const frame = 1 << 20
	var dst []byte
	secs, err := timed(l.reps(), func() error {
		for src := raw.Bytes(); len(src) > 0; src = src[min(frame, len(src)):] {
			if dst, err = gz.AppendFrame(dst[:0], src[:min(frame, len(src))]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.out["matgen.gzip_mb_per_s"] = float64(raw.Len()) / 1e6 / secs
	secs, err = l.stream(ctx, matgen.StreamOptions{Format: "csv", Compress: "gzip", Limit: l.gzipRows()}, io.Discard)
	l.out["matgen.stream_csv_gzip_rows_per_s"] = float64(l.gzipRows()) / secs
	return err
}

func (l *ladder) materialize(ctx context.Context) error {
	rows := float64(l.e.ds.rows)
	run := func(format string, w int) (float64, error) {
		// The csv runs write the whole data set; once is enough.
		reps := 1
		if format == "discard" {
			reps = l.reps()
		}
		return timed(reps, func() error {
			opts := hydra.MaterializeOptions{Format: format, Workers: w, NoManifest: true}
			if format != "discard" {
				dir, err := os.MkdirTemp(l.e.tmp, "rung-")
				if err != nil {
					return err
				}
				defer func() { warnIf("remove rung output", os.RemoveAll(dir)) }()
				opts.Dir = dir
			}
			rep, err := hydra.Materialize(l.e.ds.sum, opts)
			if err == nil && rep.Rows != l.e.ds.rows {
				err = fmt.Errorf("materialize %s wrote %d rows, want %d", format, rep.Rows, l.e.ds.rows)
			}
			return err
		})
	}
	d1, err := run("discard", 1)
	if err != nil {
		return err
	}
	dn, err := run("discard", workers())
	if err != nil {
		return err
	}
	c1, err := run("csv", 1)
	if err != nil {
		return err
	}
	cn, err := run("csv", workers())
	if err != nil {
		return err
	}
	l.out["matgen.discard_w1_rows_per_s"] = rows / d1
	l.out["matgen.discard_wn_rows_per_s"] = rows / dn
	l.out["matgen.csv_w1_rows_per_s"] = rows / c1
	// What Materialize adds to encoding: the worker pool, the ordered
	// collector, hashing and the file writes.
	encode, err := timed(l.reps(), func() error {
		for _, t := range l.e.ds.tables {
			if _, err := matgen.Stream(ctx, l.e.ds.sum, matgen.StreamOptions{Table: t.name, Format: "csv"}, io.Discard); err != nil {
				return err
			}
		}
		return nil
	})
	l.out["matgen.collect_write_self_s_per_mrow"] = (cn - encode) / (rows / 1e6)
	return err
}

// --- serve ---

// get fetches one table stream from the first member and discards it,
// returning the seconds to the first body byte and to the last.
func (l *ladder) get(ctx context.Context, query url.Values) (ttfb, total float64, err error) {
	u := l.e.urls[0] + "/v1/tables/" + url.PathEscape(l.t.name) + "?" + query.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	var one [1]byte
	if _, err := io.ReadFull(resp.Body, one[:]); err != nil {
		return 0, 0, fmt.Errorf("GET %s: first byte: %w", u, err)
	}
	ttfb = time.Since(t0).Seconds()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, 0, err
	}
	return ttfb, time.Since(t0).Seconds(), nil
}

func (l *ladder) serve(ctx context.Context) error {
	totals := func(q url.Values) (float64, error) {
		return timedValue(l.reps(), func() (float64, error) {
			_, total, err := l.get(ctx, q)
			return total, err
		})
	}
	csv, err := totals(url.Values{"format": {"csv"}})
	if err != nil {
		return err
	}
	mrows := float64(l.t.rows) / 1e6
	l.httpCSVSecs = csv
	l.out["serve.http_csv_rows_per_s"] = float64(l.t.rows) / csv
	l.out["serve.http_self_s_per_mrow"] = (csv - l.streamCSVSecs) / mrows
	gz, err := totals(url.Values{"format": {"csv"}, "compress": {"gzip"}, "limit": {strconv.FormatInt(l.gzipRows(), 10)}})
	if err != nil {
		return err
	}
	l.out["serve.http_gzip_mb_per_s"] = float64(l.gzipRawBytes) / 1e6 / gz
	l.out["serve.ttfb_s"], err = timedValue(50, func() (float64, error) {
		ttfb, _, err := l.get(ctx, url.Values{"format": {"csv"}, "limit": {"1"}})
		return ttfb, err
	})
	return err
}

// timedValue returns the median of reps values fn measured itself.
func timedValue(reps int, fn func() (float64, error)) (float64, error) {
	v := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		x, err := fn()
		if err != nil {
			return 0, err
		}
		v = append(v, x)
	}
	return median(v), nil
}

// --- pred, sqldriver ---

func (l *ladder) query(ctx context.Context) error {
	const clauses = 200
	st := newStream(1, l.e.sc, l.e.ds.big)
	where := make([]string, clauses)
	for i := range where {
		where[i] = st.next().where()
	}
	parse, err := timed(l.reps(), func() error {
		for _, w := range where {
			if _, err := hydra.ParseWhere(w); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.out["pred.parse_where_s"] = parse

	// The driver's own cost: the same projected, filtered rows fetched as
	// SQL rows and as a RemoteSource scan.
	var dest []any
	var sqlS, scanS float64
	var rows int64
	for _, r := range referenceRequests(l.e.sc, l.e.ds.big) {
		spec, err := r.querySpec()
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, n, err := runQuery(ctx, l.e.db, r, nil, handle{}, &dest)
		if err != nil {
			return err
		}
		s1 := time.Since(t0).Seconds()
		t0 = time.Now()
		m, err := drain(ctx, l.e.remote, spec)
		if err != nil {
			return err
		}
		s2 := time.Since(t0).Seconds()
		if n != m {
			return fmt.Errorf("reference query on %s: sql returned %d rows, remote scan %d", r.Table, n, m)
		}
		sqlS, scanS, rows = sqlS+s1, scanS+s2, rows+n
	}
	if rows == 0 {
		return errors.New("reference queries returned no rows")
	}
	l.out["sqldriver.query_self_s_per_mrow"] = (sqlS - scanS) / (float64(rows) / 1e6)
	return nil
}

// --- trace ---

// rootSpan measures what a caller pays for asking the program to trace a
// remote scan: the same small requests with and without a root span in the
// context, alternating so drift hits both sides alike.
func (l *ladder) rootSpan(ctx context.Context) error {
	const pairs = 100
	spec := hydra.ScanSpec{Table: l.t.name, StartPK: 1, EndPK: max(1, l.e.sc.rangeRows/10)}
	var with, without []float64
	for i := 0; i < pairs; i++ {
		s, err := timed(1, func() error {
			tctx, sp := hydra.StartSpan(ctx, "benchmark.root")
			defer sp.End()
			_, err := drain(tctx, l.e.remote, spec)
			return err
		})
		if err != nil {
			return err
		}
		with = append(with, s)
		if s, err = timed(1, func() error { _, err := drain(ctx, l.e.remote, spec); return err }); err != nil {
			return err
		}
		without = append(without, s)
	}
	l.out["trace.root_span_overhead_share"] = median(with)/median(without) - 1
	return nil
}
