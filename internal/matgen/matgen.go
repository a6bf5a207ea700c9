// Package matgen is Hydra's parallel materialization engine: it turns a
// scale-independent database summary into actual big data volumes. Where
// the original materialize path generated one tuple at a time into one
// heap file, matgen streams the summary's run structure (tuplegen.Span)
// through a deterministic sharded worker pool into the encoders of
// internal/format. Runs are the only thing an encoder takes: a
// projection is the layout's column map (format.Layout.Idx), a filter
// clips runs, and no row batch is filled.
//
// Determinism is the design center, in three layers:
//
//  1. Encoders are positionally pure: a chunk's bytes depend only on the
//     table layout and the chunk's absolute row offsets, never on state
//     accumulated across chunks.
//  2. Chunks respect the format's alignment (heap page capacity, SQL
//     statement group), and shards split a table on the chunk grid, so
//     independently encoded pieces concatenate into exactly the bytes one
//     encoder would write for the whole range.
//  3. An ordered collector writes worker results strictly in chunk order.
//     Every worker count runs through the same pool and collector, and
//     Stream encodes the same chunks with the same chunk encoder.
//
// Consequently K workers produce byte-identical files to 1 worker, and a
// table split -shard i/N across N machines concatenates, in shard order,
// into the byte-identical whole-table file. Each shard also writes a JSON
// manifest describing its piece, the coordination artifact for
// multi-machine runs.
//
// The encode pipeline is built to run at memory bandwidth, not GC or
// strconv bandwidth: workers render each summary-row run's first row
// once and stamp it per row with an incrementing-decimal pk (RunLines, or
// a patched row template for heap), chunk buffers are recycled through a
// sync.Pool so steady-state materialization allocates ~zero bytes per
// chunk, and compression happens inside the workers — each chunk is an
// independent gzip member, so members compress concurrently and the
// collector only writes and hashes. Byte-determinism survives all of
// this by construction because chunk boundaries never move.
package matgen

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/dsl-repro/hydra/internal/format"
	"github.com/dsl-repro/hydra/internal/obs"
	"github.com/dsl-repro/hydra/internal/rate"
	"github.com/dsl-repro/hydra/internal/summary"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// Engine observability. Per-table counters cover both encode paths —
// the materialize pool and the table streams the serve layer runs — so
// `GET /metrics` on a fleet member reports exactly how many rows of
// which relation it has regenerated. The encode vs
// compress seconds split and the per-worker rows/busy counters are the
// feed for the ROADMAP's throughput-weighted fleet scheduler: observed
// per-worker rows/s is busy-seconds against rows, per server. All
// metric pointers are resolved at task/pool setup; the record path is
// atomic adds only, so the zero-allocation encode pins are untouched.
var (
	mEncodeSeconds = obs.Default.FloatCounter("hydra_matgen_encode_seconds_total",
		"cumulative wall time spent encoding chunks")
	mCompressSeconds = obs.Default.FloatCounter("hydra_matgen_compress_seconds_total",
		"cumulative wall time spent compressing chunk frames")
)

// tableMetrics resolves one relation's counter set from the global
// registry (setup path; called once per table task).
type tableMetrics struct {
	rows, bytes, chunks *obs.Counter
}

func metricsForTable(table string) tableMetrics {
	l := obs.L("table", table)
	return tableMetrics{
		rows:   obs.Default.Counter("hydra_matgen_rows_total", "rows regenerated by the encode engine, by relation", l),
		bytes:  obs.Default.Counter("hydra_matgen_bytes_total", "bytes written by the encode engine (post-compression), by relation", l),
		chunks: obs.Default.Counter("hydra_matgen_chunks_total", "chunks encoded, by relation", l),
	}
}

// workerMetrics is one pool worker's counter pair, resolved at pool
// start: rows encoded and busy (encode+compress) seconds, labeled by
// worker slot.
type workerMetrics struct {
	rows *obs.Counter
	busy *obs.FloatCounter
}

func metricsForWorker(k int) workerMetrics {
	l := obs.L("worker", strconv.Itoa(k))
	return workerMetrics{
		rows: obs.Default.Counter("hydra_matgen_worker_rows_total", "rows encoded, by pool worker slot", l),
		busy: obs.Default.FloatCounter("hydra_matgen_worker_busy_seconds_total", "encode+compress wall time, by pool worker slot", l),
	}
}

// PlainChunkRows is the chunk size of uncompressed output, before it is
// rounded up to the format's alignment: big enough to amortize a
// chunk's hand-off between worker and collector, small enough for its
// buffer to stay cache-resident.
const PlainChunkRows = 8192

// CompressChunkRows is the chunk size of compressed output. Each chunk
// is one independent codec member compressed inside a worker, so the
// smaller grid is what lets compression scale across workers even for
// tables no bigger than a few plain chunks.
//
// The two sizes are the chunk grid, and nothing else sets it: like the
// format's alignment, they are independent of the worker count and the
// shard a run writes, so a part file or stream is a pure function of
// (summary, table, format, codec, shard). The grid fixes codec member
// framing, the manifest's chunk index, stream resume points and shard
// split points; changing either size changes compressed — never
// decompressed — bytes.
const CompressChunkRows = 2048

// Options tunes Materialize.
type Options struct {
	// Dir is the output directory, created if missing. Required for every
	// format that writes files (all but discard).
	Dir string
	// Format is the output format: "heap" (default), "csv", "jsonl",
	// "sql", "spans" or "discard" (see internal/format).
	Format string
	// Compress names an output codec ("gzip"; "" or "none" disables).
	// Each deterministic chunk is framed as an independent compressed
	// member, so compressed output stays byte-identical for any worker
	// count and compressed shard parts concatenate into a valid stream
	// that decompresses to the whole-table file.
	Compress string
	// Workers is the parallel encode worker count; 0 means GOMAXPROCS.
	// Output bytes are identical for every worker count.
	Workers int
	// Shards and Shard select one piece of an N-way split: only rows of
	// shard Shard (0-based) of Shards are generated, into files suffixed
	// ".part-<i>-of-<n>". Concatenating all parts in shard order yields
	// byte-identical whole-table output. Zero values mean the single
	// piece 0 of 1.
	Shards int
	Shard  int
	// Tables restricts materialization to a subset (all when nil).
	Tables []string
	// Columns projects the output onto a subset of columns, in the order
	// given (nil means every column in tuple order: pk, non-key columns,
	// FKs). Projection is pushed down to the encoder layer: only the
	// selected columns are generated and encoded, and the layout every
	// format sees (csv header, jsonl keys, SQL column list, heap page
	// geometry) is the projected one. All determinism guarantees hold
	// per projection; projected output is its own byte-stable format,
	// not a substring of the full-width one.
	Columns []string
	// NoManifest suppresses the per-shard JSON manifest.
	NoManifest bool
	// RateLimit caps the whole run's emit rate in rows per second
	// (0 = unlimited). The limiter paces the ordered collectors, so one
	// budget is shared across every table of the run; encoding may run
	// ahead only as far as the pool's chunk budget, Workers×2 chunks in
	// flight across all tables. This is the load-generation knob: output
	// bytes are unaffected, only the rate at which they are released.
	RateLimit float64
}

// TableReport describes one relation's output from one shard.
type TableReport struct {
	Table string `json:"table"`
	// Path is the file this shard wrote (empty for discard).
	Path string `json:"path,omitempty"`
	// Cols are the output column names in encoded order — the full tuple
	// layout normally, the projected one under Options.Columns. Readers
	// (internal/scan's DirSource) decode against this list.
	Cols []string `json:"cols,omitempty"`
	// StartRow is the absolute 0-based offset of this shard's first row;
	// the shard covers rows [StartRow, StartRow+Rows).
	StartRow int64 `json:"start_row"`
	Rows     int64 `json:"rows"`
	// Bytes is the size of the file as written (post-compression).
	Bytes int64 `json:"bytes"`
	// RawBytes is the encoded size before compression; equal to Bytes
	// for uncompressed output and omitted then.
	RawBytes int64 `json:"raw_bytes,omitempty"`
	// Checksum is the part checksum of the file as written: the hex
	// SHA-256 of the SHA-256s of its 1 MiB blocks (see ChecksumBlock).
	// Verifiers hash the blocks on every core and compare without
	// decompressing. A report with a Path always carries one.
	Checksum string `json:"checksum,omitempty"`
	// TotalRows is the full-relation cardinality across all shards.
	TotalRows int64 `json:"total_rows"`
	// ChunkRows and Offsets index the file for positioned reads: chunk i
	// holds rows [StartRow+i*ChunkRows, StartRow+(i+1)*ChunkRows) of the
	// shard and starts at byte Offsets[i] of the file as written — past
	// the header frame for chunk 0 of shard 0. Every chunk starts on an
	// encoding boundary of the format and, compressed, is a codec member of
	// its own, so a reader may build its decode stack at any entry. The
	// index is as deterministic as the bytes it points into. A report
	// without one describes a file readable as the single chunk at 0.
	ChunkRows int64   `json:"chunk_rows,omitempty"`
	Offsets   []int64 `json:"offsets,omitempty"`
}

// Report aggregates one Materialize invocation.
type Report struct {
	Format string
	// Compression is the output codec name, empty when uncompressed.
	Compression string
	Shard       int
	Shards      int
	Workers     int
	Tables      []TableReport
	Rows        int64
	Bytes       int64
	// RawBytes is the total encoded size before compression; equal to
	// Bytes for uncompressed output.
	RawBytes int64
	Elapsed  time.Duration
	// ManifestPath is where the shard manifest was written, if it was.
	ManifestPath string
}

// RowsPerSec returns the generation throughput of the run.
func (r *Report) RowsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Rows) / r.Elapsed.Seconds()
}

// Materialize generates the summary's relations in the configured
// format. See the package comment for the determinism guarantees.
func Materialize(sum *summary.Summary, opts Options) (*Report, error) {
	return MaterializeContext(context.Background(), sum, opts)
}

// MaterializeContext is Materialize under a cancellation context: when
// ctx is done, dispatch and encoding stop promptly, the run's output
// files are removed, and the context's error is returned. This is what
// lets a serving layer abort a shard job cleanly when its client
// disconnects.
func MaterializeContext(ctx context.Context, sum *summary.Summary, opts Options) (*Report, error) {
	f, err := format.ByName(cmp.Or(opts.Format, "heap"))
	if err != nil {
		return nil, fmt.Errorf("matgen: %w", err)
	}
	comp, err := CompressorFor(opts.Compress)
	if err != nil {
		return nil, err
	}
	return materialize(ctx, sum, opts, f, comp, 0)
}

// sink is what the engine asks of a format: a *format.Format, or a
// fake this package's tests hand to materialize.
type sink interface {
	Name() string
	Ext() string
	ContentType() string
	Writes() bool
	Align(format.Layout) (int, error)
	Header(format.Layout) ([]byte, error)
	Footer(format.Layout) ([]byte, error)
	NewEncoder(format.Layout) format.Encoder
}

// materialize is MaterializeContext with the format and codec resolved.
// grid is the chunk size before alignment, 0 for the codec's own (see
// newTableTask); only this package's tests pass another.
//
//hydra:nondeterministic wall-clock feeds Report timings and obs metrics only, never output bytes
func materialize(ctx context.Context, sum *summary.Summary, opts Options, sink sink, comp Compressor, grid int) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Shards == 0 {
		opts.Shards = 1
	}
	if opts.Shards < 1 || opts.Shard < 0 || opts.Shard >= opts.Shards {
		return nil, fmt.Errorf("matgen: shard %d of %d out of range", opts.Shard, opts.Shards)
	}
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Workers < 1 {
		return nil, fmt.Errorf("matgen: workers %d out of range", opts.Workers)
	}
	lim, err := newRunLimiter(opts.RateLimit)
	if err != nil {
		return nil, err
	}
	tables, err := resolveTables(sum, opts.Tables)
	if err != nil {
		return nil, err
	}
	needFiles := sink.Writes()
	if needFiles {
		if opts.Dir == "" {
			return nil, fmt.Errorf("matgen: format %q writes files; Dir is required", sink.Name())
		}
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, err
		}
	} else if comp != nil {
		return nil, fmt.Errorf("matgen: format %q produces no files to compress", sink.Name())
	}
	rep := &Report{Format: sink.Name(), Shard: opts.Shard, Shards: opts.Shards, Workers: opts.Workers}
	if comp != nil {
		rep.Compression = comp.Name()
	}
	start := time.Now()
	tasks := make([]*tableTask, len(tables))
	for i, name := range tables {
		t, err := newTableTask(sum.Relations[name], sum.FKSpread, sink, comp, opts, grid)
		if err != nil {
			return nil, fmt.Errorf("matgen: %s: %w", name, err)
		}
		if needFiles {
			t.placeFile(opts)
		}
		t.idx = i
		tasks[i] = t
	}
	if err := materializePool(ctx, tasks, opts.Workers, lim); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("matgen: %w", cerr)
		}
		return nil, err
	}
	for _, t := range tasks {
		rep.Tables = append(rep.Tables, t.tr)
		rep.Rows += t.tr.Rows
		rep.Bytes += t.tr.Bytes
		if t.tr.RawBytes > 0 {
			rep.RawBytes += t.tr.RawBytes
		} else {
			rep.RawBytes += t.tr.Bytes
		}
	}
	rep.Elapsed = time.Since(start)
	if needFiles && !opts.NoManifest {
		digest, err := sum.Digest()
		if err != nil {
			return nil, err
		}
		m := &Manifest{
			Version: manifestVersion, Format: rep.Format, Compression: rep.Compression,
			SummaryDigest: digest, Shard: rep.Shard, Shards: rep.Shards,
			Tables: rep.Tables, Rows: rep.Rows, Bytes: rep.Bytes, RawBytes: rep.RawBytes,
		}
		path := ManifestPath(opts.Dir, opts.Shard, opts.Shards)
		if err := writeManifest(path, m); err != nil {
			return nil, err
		}
		rep.ManifestPath = path
	}
	return rep, nil
}

// newRunLimiter builds a run's or stream's row limiter (nil for 0 rows/s),
// with the default schedule tolerance: chunks release whole, but each
// only once its own emission time has elapsed, so even single-chunk
// tables are paced.
func newRunLimiter(rowsPerSec float64) (*rate.Limiter, error) {
	if rowsPerSec == 0 {
		return nil, nil
	}
	lim, err := rate.NewLimiter(rowsPerSec, 0)
	if err != nil {
		return nil, fmt.Errorf("matgen: rate limit: %w", err)
	}
	return lim, nil
}

func resolveTables(sum *summary.Summary, subset []string) ([]string, error) {
	if subset == nil {
		names := make([]string, 0, len(sum.Relations))
		for name := range sum.Relations {
			names = append(names, name)
		}
		sort.Strings(names)
		return names, nil
	}
	seen := make(map[string]bool, len(subset))
	names := make([]string, 0, len(subset))
	for _, name := range subset {
		if _, ok := sum.Relations[name]; !ok {
			return nil, fmt.Errorf("matgen: summary has no relation %q", name)
		}
		if !seen[name] { // a duplicate would double-count rows in the report
			seen[name] = true
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// partPath returns the output file for one table and shard. Single-shard
// runs write the plain table file; multi-shard runs add a part suffix
// whose lexical order is the concatenation order.
func partPath(dir, table, ext string, shard, shards int) string {
	path := filepath.Join(dir, table+ext)
	if shards > 1 {
		path += ".part-" + splitName(shard, shards)
	}
	return path
}

// frameWriter is the writer under every table output, file or stream:
// it counts and times the bytes written, and frame writes one payload as
// one frame, its own codec member when a codec is configured.
type frameWriter struct {
	w               io.Writer
	comp            Compressor
	n               int64
	compress, write time.Duration
}

// Write writes p through, counting and timing it.
//
//hydra:nondeterministic write stopwatch feeds StreamReport timings only, never output bytes
func (f *frameWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.w.Write(p)
	f.write += time.Since(t0)
	f.n += int64(n)
	return n, err
}

// frame writes p as one frame, compressed when a codec is configured.
// Empty payloads write nothing: header and footer frames exist only when
// non-empty, and a chunk encoded to nothing has no frame.
//
//hydra:nondeterministic compress stopwatch feeds StreamReport/obs, never output bytes
func (f *frameWriter) frame(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	if f.comp != nil {
		buf := getChunkBuf()
		defer putChunkBuf(buf)
		t0 := time.Now()
		var err error
		*buf, err = f.comp.AppendFrame((*buf)[:0], p)
		d := time.Since(t0)
		f.compress += d
		mCompressSeconds.AddDuration(d)
		if err != nil {
			return err
		}
		p = *buf
	}
	_, err := f.Write(p)
	return err
}

// chunkBufPool recycles chunk encode and compress buffers across chunks,
// workers, tables, and Materialize calls: once the pool is warm,
// steady-state materialization allocates ~zero bytes per chunk.
var chunkBufPool = sync.Pool{New: func() any { return new([]byte) }}

func getChunkBuf() *[]byte { return chunkBufPool.Get().(*[]byte) }

func putChunkBuf(b *[]byte) {
	*b = (*b)[:0]
	chunkBufPool.Put(b)
}

// chunkResult is one encoded (and possibly compressed) chunk handed from
// a worker to the collector.
type chunkResult struct {
	// buf is the pooled output buffer: the compressed frame when a codec
	// is configured, the raw encoding otherwise. nil when the worker was
	// cancelled or failed.
	buf *[]byte
	// raw is the encoded size before compression; rows the chunk's row
	// count, which the collector's rate limiter charges on release.
	raw  int64
	rows int64
	err  error
}

// resultChanPool recycles the per-chunk result channels; each carries
// exactly one value and is fully drained before reuse.
var resultChanPool = sync.Pool{New: func() any { return make(chan chunkResult, 1) }}

// errCanceled marks a table whose materialization was cut short because
// another table failed; its partial output is removed and the failing
// table's error is the one reported.
var errCanceled = errors.New("matgen: canceled after another table failed")

// tableTask carries one relation's state through a Materialize run or a
// stream.
type tableTask struct {
	idx   int
	g     *tuplegen.Generator
	l     format.Layout
	sink  sink
	comp  Compressor
	align int
	rng   Range
	cRows int64 // rows per chunk, an align multiple
	// header and footer say whether this piece of the table carries the
	// format's header and footer frames: the first and the last shard do,
	// and a stream keeps them only where its range reaches the shard's
	// ends.
	header, footer bool
	tr             TableReport
	m              tableMetrics
	err            error
}

// newTableTask resolves one relation's layout (projected when
// Options.Columns is set), alignment, chunk geometry and shard range.
// The chunk grid is CompressChunkRows under a codec and PlainChunkRows
// otherwise, rounded up to the alignment; a nonzero grid replaces
// either, for tests that need many chunks from a small table.
func newTableTask(rs *summary.RelationSummary, spread bool, sink sink, comp Compressor, opts Options, grid int) (*tableTask, error) {
	g := tuplegen.New(rs)
	g.SetFKSpread(spread)
	proj, err := g.Project(opts.Columns)
	if err != nil {
		return nil, err
	}
	cols := g.ColNames()
	if proj != nil {
		projected := make([]string, len(proj))
		for i, src := range proj {
			projected[i] = cols[src]
		}
		cols = projected
	}
	l := format.Layout{Table: rs.Table, Cols: cols, TotalRows: g.NumRows(), Idx: proj}
	align, err := sink.Align(l)
	if err != nil {
		return nil, err
	}
	if grid == 0 {
		grid = PlainChunkRows
		if comp != nil {
			grid = CompressChunkRows
		}
	}
	cRows := chunkRows(grid, align)
	// Shards split the table on the chunk grid, which is a multiple of
	// the alignment: a piece's chunks are the whole table's, so its frames,
	// compressed members and spans runs are too.
	rng := shardRange(l.TotalRows, opts.Shard, opts.Shards, cRows)
	t := &tableTask{
		g: g, l: l, sink: sink, comp: comp, align: align, rng: rng,
		cRows:  int64(cRows),
		header: opts.Shard == 0, footer: opts.Shard == opts.Shards-1,
		m: metricsForTable(rs.Table),
		tr: TableReport{Table: rs.Table, Cols: l.Cols,
			StartRow: rng.Lo, Rows: rng.Rows(), TotalRows: l.TotalRows},
	}
	return t, nil
}

// placeFile names the task's part file and sizes its manifest chunk
// index. Only Materialize writes files: a stream plan builds neither, so
// planning one costs the same at any table size.
func (t *tableTask) placeFile(opts Options) {
	compExt := ""
	if t.comp != nil {
		compExt = t.comp.Ext()
	}
	t.tr.Path = partPath(opts.Dir, t.l.Table, t.sink.Ext(), opts.Shard, opts.Shards) + compExt
	if n := t.nChunks(); n > 0 {
		t.tr.ChunkRows, t.tr.Offsets = t.cRows, make([]int64, 0, n)
	}
}

// nChunks returns how many chunks the task's range splits into.
func (t *tableTask) nChunks() int64 { return (t.rng.Rows() + t.cRows - 1) / t.cRows }

// writeEdge writes the format's header (footer false) or footer as one
// frame when this piece of the table carries it, and returns its raw
// (pre-compression) size. Both the Materialize collector and
// StreamPlan.Run frame their table's edges here.
func (t *tableTask) writeEdge(w *frameWriter, footer bool) (int64, error) {
	var p []byte
	var err error
	switch {
	case footer && t.footer:
		p, err = t.sink.Footer(t.l)
	case !footer && t.header:
		p, err = t.sink.Header(t.l)
	}
	if err == nil {
		err = w.frame(p)
	}
	return int64(len(p)), err
}

// run writes one table's shard through its writer stack — file ← size
// counter ← checksum tee — and fills in the report. Compression happens
// upstream, inside the encode workers, so this stack only writes and
// hashes the file bytes as written; raw (pre-compression) sizes are
// accounted by the encode side and returned by collect.
func (t *tableTask) run(ctx context.Context, pl *pool) {
	var out io.Writer = io.Discard
	var file *os.File
	var h *Checksum
	if t.tr.Path != "" {
		var err error
		if file, err = os.Create(t.tr.Path); err != nil {
			t.err = err
			return
		}
		h = NewChecksum()
		out = io.MultiWriter(file, h)
	}
	w := &frameWriter{w: out, comp: t.comp}
	raw, err := t.collect(ctx, pl, w)
	if file != nil {
		if cerr := file.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(t.tr.Path)
		}
	}
	if err != nil {
		t.err = err
		return
	}
	t.tr.Bytes = w.n
	t.m.bytes.Add(w.n)
	if t.comp != nil {
		t.tr.RawBytes = raw
	}
	if h != nil {
		t.tr.Checksum = h.Sum()
	}
	// A format that wrote nothing for some chunk (a test's sampling fake,
	// say) has no position to seek to there; its file is the one chunk at 0, and
	// ReadManifest never meets an index it would refuse.
	if t.tr.checkIndex() != nil {
		t.tr.ChunkRows, t.tr.Offsets = 0, nil
	}
}

// encodeChunk renders the rows of [lo, hi) that satisfy sf (every row
// when sf is nil) through enc into dst: the one chunk encoder of both
// Materialize and Stream. The summary-row spans go to the encoder as
// they are — projected through the layout's Idx, filtered by Clip — and
// no column batch is materialized at all. Filtered chunks only exist for
// alignment-1 formats, whose encoders ignore the row offset, so the gaps
// between surviving rows cost nothing.
func encodeChunk(t *tableTask, enc format.Encoder, dst []byte, lo, hi int64, sf *tuplegen.SpanFilter) ([]byte, error) {
	it := t.g.FilteredSpans(lo+1, hi-lo, sf)
	for sp, ok := it.Next(); ok; sp, ok = it.Next() {
		var err error
		if dst, err = enc.AppendSpan(dst, sp); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// encJob is one chunk of one table, schedulable by any pool worker.
type encJob struct {
	ti     int
	lo, hi int64
	out    chan chunkResult
}

// pool is what a table's collector needs of the shared worker pool: the
// job channel, the run's done signal and abort, the run's rate limiter,
// and the run's chunk budget.
type pool struct {
	jobs   chan encJob
	done   chan struct{}
	abort  func()
	lim    *rate.Limiter
	budget *budget
}

// budget is a run's allowance of chunks in flight, shared by every
// table: a dispatcher takes a slot before it submits a chunk, and the
// chunk's collector gives it back once the chunk is written and its
// buffer recycled.
//
// A slot freed while tables wait goes to a table holding fewer than two
// slots if one waits, so that a table being written can encode its next
// chunk meanwhile; among those, to the table with the most rows left to
// submit; then to the first to ask. Serving the largest remainders first
// makes the tables finish together, instead of leaving the table with
// the most chunks to be written alone at the end while workers idle.
type budget struct {
	size    int
	mu      sync.Mutex
	free    int
	waiting []*slotHolder
}

// slotHolder is one table's account with the budget. held and left are
// guarded by the budget's mutex; grant carries the slot a waiting
// dispatcher is handed.
type slotHolder struct {
	held  int   // chunks submitted and not yet written
	left  int64 // rows not yet submitted, as of the last take
	grant chan struct{}
}

func newBudget(size int) *budget { return &budget{size: size, free: size} }

func newSlotHolder() *slotHolder { return &slotHolder{grant: make(chan struct{}, 1)} }

// take blocks until h holds one more slot, with left rows of its table
// not yet submitted. It reports false, holding nothing more, if done
// closes first.
func (b *budget) take(h *slotHolder, left int64, done <-chan struct{}) bool {
	b.mu.Lock()
	h.left = left
	b.waiting = append(b.waiting, h)
	b.handOut()
	b.mu.Unlock()
	select {
	case <-h.grant:
		return true
	case <-done:
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if i := slices.Index(b.waiting, h); i >= 0 {
		b.waiting = slices.Delete(b.waiting, i, i+1)
		return false
	}
	<-h.grant // granted as the run stopped: pass the slot on
	b.putLocked(h)
	return false
}

// give returns one of h's slots.
func (b *budget) give(h *slotHolder) {
	b.mu.Lock()
	b.putLocked(h)
	b.mu.Unlock()
}

func (b *budget) putLocked(h *slotHolder) {
	h.held--
	b.free++
	b.handOut()
}

// handOut grants free slots to waiting tables, best first. b.mu is held;
// a grant never blocks, since a holder waits for one slot at a time.
func (b *budget) handOut() {
	for b.free > 0 && len(b.waiting) > 0 {
		best := 0
		for i, h := range b.waiting {
			if h.before(b.waiting[best]) {
				best = i
			}
		}
		h := b.waiting[best]
		b.waiting = slices.Delete(b.waiting, best, best+1)
		b.free--
		h.held++
		h.grant <- struct{}{}
	}
}

// before reports whether h is served ahead of o. Below two slots a
// table has no chunk encoding while it writes one.
func (h *slotHolder) before(o *slotHolder) bool {
	if (h.held < 2) != (o.held < 2) {
		return h.held < 2
	}
	return h.left > o.left
}

// testHookInFlight, nil outside tests, is called with +1 when a worker
// takes a chunk's job and with -1 once that chunk's collector has
// written and recycled it.
var testHookInFlight func(delta int)

// materializePool runs every table through one shared worker pool, for
// any worker count: all chunks of all tables feed the same encode
// workers — so encoding and compression scale with the worker
// count even when the summary holds many small relations, and with one
// worker encoding still overlaps writing — while each table keeps its
// own dispatcher and ordered collector, which writes chunks strictly in
// order and hashes sequentially. Workers hold one encoder per (worker,
// table), created on first contact, so the steady-state encode path
// allocates nothing per chunk.
//
// The run holds at most workers×2 chunks in flight, submitted and not
// yet written, whatever the number of tables: chunk memory is
// O(workers × chunk), not O(tables × workers × chunk). The budget cannot
// deadlock. A slot is granted only to a dispatcher waiting for it, which
// submits its next chunk or, when the run stops, gives the slot back. A
// dispatcher takes its table's slots in chunk order and queues each
// submitted chunk to its collector in that order; workers serve jobs
// first come, first served, and never block on a result, so every
// submitted chunk gets answered. Every held slot therefore belongs to a
// submitted chunk that its collector reaches in order, writes and
// releases, without waiting on any other slot.
//
// On the first error anywhere (or when ctx is done) a done channel
// closes: every dispatcher stops submitting, workers answer remaining
// jobs without encoding, collectors drain and release what was
// submitted, every table's file is removed, finished or not, and the
// failing table's error is reported.
//
//hydra:nondeterministic per-worker busy/encode stopwatches feed obs metrics only, never output bytes
func materializePool(ctx context.Context, tasks []*tableTask, workers int, lim *rate.Limiter) error {
	pl := &pool{
		jobs: make(chan encJob), done: make(chan struct{}), lim: lim,
		budget: newBudget(workers * 2),
	}
	var abortOnce sync.Once
	pl.abort = func() { abortOnce.Do(func() { close(pl.done) }) }
	stop := context.AfterFunc(ctx, pl.abort)
	defer stop()

	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			wm := metricsForWorker(k)
			encs := make([]format.Encoder, len(tasks))
			for j := range pl.jobs {
				if testHookInFlight != nil {
					testHookInFlight(+1)
				}
				select {
				case <-pl.done: // run failed; answer without encoding
					j.out <- chunkResult{}
					continue
				default:
				}
				t := tasks[j.ti]
				if encs[j.ti] == nil {
					encs[j.ti] = t.sink.NewEncoder(t.l)
				}
				t0 := time.Now()
				buf := getChunkBuf()
				var err error
				*buf, err = encodeChunk(t, encs[j.ti], (*buf)[:0], j.lo, j.hi, nil)
				mEncodeSeconds.AddDuration(time.Since(t0))
				res := chunkResult{buf: buf, raw: int64(len(*buf)), rows: j.hi - j.lo}
				switch {
				case err != nil:
					putChunkBuf(buf)
					res = chunkResult{rows: res.rows, err: err}
				case t.comp != nil && len(*buf) > 0:
					// An empty encoding produces no frame, like an empty
					// payload in frameWriter.frame.
					tc := time.Now()
					frame := getChunkBuf()
					*frame, err = t.comp.AppendFrame((*frame)[:0], *buf)
					mCompressSeconds.AddDuration(time.Since(tc))
					putChunkBuf(buf)
					if err != nil {
						putChunkBuf(frame)
						res = chunkResult{raw: res.raw, rows: res.rows, err: err}
					} else {
						res.buf = frame
					}
				}
				t.m.rows.Add(res.rows)
				t.m.chunks.Inc()
				wm.rows.Add(res.rows)
				wm.busy.AddDuration(time.Since(t0))
				j.out <- res
			}
		}(k)
	}

	var drivers sync.WaitGroup
	for _, t := range tasks {
		drivers.Add(1)
		go func(t *tableTask) {
			defer drivers.Done()
			t.run(ctx, pl)
			if t.err != nil && !errors.Is(t.err, errCanceled) {
				pl.abort()
			}
		}(t)
	}
	drivers.Wait()
	close(pl.jobs)
	wg.Wait()

	err := runErr(tasks)
	if err != nil {
		// The tables that finished go too: a failed run writes no
		// manifest, so its files are not a directory anyone can read.
		for _, t := range tasks {
			if t.err == nil && t.tr.Path != "" {
				os.Remove(t.tr.Path)
			}
		}
	}
	return err
}

// runErr reports a run's failure: the first table that failed on its
// own, else the first one cut short.
func runErr(tasks []*tableTask) error {
	for _, t := range tasks {
		if t.err != nil && !errors.Is(t.err, errCanceled) {
			return fmt.Errorf("matgen: %s: %w", t.l.Table, t.err)
		}
	}
	for _, t := range tasks {
		if t.err != nil {
			return fmt.Errorf("matgen: %s: %w", t.l.Table, t.err)
		}
	}
	return nil
}

// collect runs one table on the shared pool: it writes the
// header, dispatches the table's chunks into the pool's job channel,
// writes their results strictly in chunk order, and writes the footer.
// The dispatcher takes one of the pool's slots per chunk before it
// submits the job, and queues each chunk's result channel before the
// next job so the collector drains results in order regardless of which
// worker finishes first. The collector gives the slot back once the
// chunk is written and recycled, on every path, so how far encoding runs
// ahead of writing — and so how far it may outrun a rate limiter pacing
// the collectors — is the pool's budget, shared by every table of the
// run. Returns the raw (pre-compression) byte count.
func (t *tableTask) collect(ctx context.Context, pl *pool, w *frameWriter) (int64, error) {
	raw, err := t.writeEdge(w, false)
	if err != nil {
		return raw, err
	}
	if t.rng.Rows() > 0 {
		// Every queued chunk holds a slot, so the order channel never
		// holds more than the budget and the dispatcher never blocks on it.
		order := make(chan chan chunkResult, pl.budget.size)
		slots := newSlotHolder()
		go func() {
			defer close(order)
			for lo := t.rng.Lo; lo < t.rng.Hi; lo += t.cRows {
				if !pl.budget.take(slots, t.rng.Hi-lo, pl.done) {
					return
				}
				hi := min(lo+t.cRows, t.rng.Hi)
				ch := resultChanPool.Get().(chan chunkResult)
				select {
				case pl.jobs <- encJob{ti: t.idx, lo: lo, hi: hi, out: ch}:
					order <- ch // queued strictly in chunk order
				case <-pl.done:
					pl.budget.give(slots) // the chunk was never submitted
					resultChanPool.Put(ch)
					return
				}
			}
		}()
		var firstErr error
		var got int64
		for ch := range order {
			res := <-ch
			resultChanPool.Put(ch)
			got++
			if firstErr == nil {
				n, err := t.writeChunk(ctx, pl.lim, w, res)
				raw += n
				if err != nil {
					firstErr = err
					if !errors.Is(err, errCanceled) {
						pl.abort()
					}
				}
			}
			if res.buf != nil {
				putChunkBuf(res.buf)
			}
			if testHookInFlight != nil {
				testHookInFlight(-1)
			}
			pl.budget.give(slots) // written (or skipped) and recycled
		}
		if firstErr == nil && got != t.nChunks() {
			firstErr = errCanceled // dispatcher stopped early
		}
		if firstErr != nil {
			return raw, firstErr
		}
	}
	n, err := t.writeEdge(w, true)
	return raw + n, err
}

// writeChunk paces one chunk's rows through the run's rate limiter and
// writes its frame at the next chunk offset. It returns the chunk's raw
// (pre-compression) size.
func (t *tableTask) writeChunk(ctx context.Context, lim *rate.Limiter, w *frameWriter, res chunkResult) (int64, error) {
	switch {
	case res.err != nil:
		return 0, res.err
	case res.buf == nil:
		return 0, errCanceled // worker answered after the run failed
	}
	if err := lim.WaitN(ctx, res.rows); err != nil {
		return 0, err
	}
	if t.tr.ChunkRows > 0 {
		t.tr.Offsets = append(t.tr.Offsets, w.n)
	}
	if len(*res.buf) > 0 {
		if _, err := w.Write(*res.buf); err != nil {
			return 0, err
		}
	}
	return res.raw, nil
}
