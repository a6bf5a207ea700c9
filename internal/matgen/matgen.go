// Package matgen is Hydra's parallel materialization engine: it turns a
// scale-independent database summary into actual big data volumes. Where
// the original materialize path generated one tuple at a time into one
// heap file, matgen streams the summary's run structure (tuplegen.Span)
// or column-major batches (tuplegen.Batch) through a deterministic
// sharded worker pool into pluggable sinks (heap, CSV, JSONL, SQL
// INSERT, the run-native spans frames, discard).
//
// Determinism is the design center, in three layers:
//
//  1. Encoders are positionally pure: a chunk's bytes depend only on the
//     table layout and the chunk's absolute row offsets, never on state
//     accumulated across chunks.
//  2. Chunk and shard boundaries respect the sink's alignment (heap page
//     capacity, SQL statement group), so independently encoded pieces
//     concatenate into exactly a sequential encoder's output.
//  3. An ordered collector writes worker results strictly in chunk order.
//
// Consequently K workers produce byte-identical files to 1 worker, and a
// table split -shard i/N across N machines concatenates, in shard order,
// into the byte-identical whole-table file. Each shard also writes a JSON
// manifest describing its piece, the coordination artifact for
// multi-machine runs.
//
// The encode pipeline is built to run at memory bandwidth, not GC or
// strconv bandwidth: workers render each summary-row run's constant
// column tail once and stamp it per row with an incrementing-decimal pk
// writer (SpanEncoder), chunk buffers are recycled through a sync.Pool
// so steady-state materialization allocates ~zero bytes per chunk, and
// compression happens inside the workers — each chunk is an independent
// gzip member, so members compress concurrently and the collector only
// writes and hashes. Byte-determinism survives all of this by
// construction because chunk boundaries never move.
package matgen

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/dsl-repro/hydra/internal/obs"
	"github.com/dsl-repro/hydra/internal/rate"
	"github.com/dsl-repro/hydra/internal/summary"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// Engine observability. Per-table counters cover every encode path —
// the materialize pool, the sequential fast path, and the serve layer's
// table streams — so `GET /metrics` on a fleet member reports exactly
// how many rows of which relation it has regenerated. The encode vs
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

// DefaultBatchRows is the generator batch granularity when Options leaves
// BatchRows zero: big enough to amortize the prefix walk and channel
// hand-off, small enough to stay cache-resident.
const DefaultBatchRows = 8192

// CompressChunkRows caps the per-chunk row count of compressed runs.
// Each chunk is one independent codec member compressed inside a worker,
// so the cap is what lets compression scale across workers even for
// tables no bigger than a few default batches. Like every chunking
// input it is independent of the worker count, so compressed output
// stays byte-identical for any -workers value; it does shape the member
// framing, so changing it (or BatchRows below it) changes compressed —
// never decompressed — bytes.
const CompressChunkRows = 2048

// Options tunes Materialize.
type Options struct {
	// Dir is the output directory, created if missing. Required for every
	// sink that writes files (all but discard).
	Dir string
	// Format names the sink: "heap" (default), "csv", "jsonl", "sql",
	// "spans" or "discard". Ignored when Sink is set.
	Format string
	// Sink plugs in a custom encoder, overriding Format.
	Sink Sink
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
	// sink sees (csv header, jsonl keys, SQL column list, heap page
	// geometry) is the projected one. All determinism guarantees hold
	// per projection; projected output is its own byte-stable format,
	// not a substring of the full-width one.
	Columns []string
	// BatchRows overrides DefaultBatchRows.
	BatchRows int
	// FKSpread enables tuplegen's spread-FK extension (round-robin FKs
	// within referenced spans instead of first-row).
	FKSpread bool
	// NoManifest suppresses the per-shard JSON manifest.
	NoManifest bool
	// RateLimit caps the whole run's emit rate in rows per second
	// (0 = unlimited). The limiter paces the ordered collectors, so one
	// budget is shared across every table of the run; encoding may run
	// ahead only as far as the pool's in-flight chunk window. This is
	// the load-generation knob: output bytes are unaffected, only the
	// rate at which they are released.
	RateLimit float64
}

// TableReport describes one relation's output from one shard.
type TableReport struct {
	Table string `json:"table"`
	// Path is the file this shard wrote (empty for the discard sink).
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
	// Checksum is the hex SHA-256 of the file as written; verifiers
	// re-hash the file and compare without decompressing.
	Checksum string `json:"checksum,omitempty"`
	// TotalRows is the full-relation cardinality across all shards.
	TotalRows int64 `json:"total_rows"`
	// ChunkRows and Offsets index the file for positioned reads: chunk i
	// holds rows [StartRow+i*ChunkRows, StartRow+(i+1)*ChunkRows) of the
	// shard and starts at byte Offsets[i] of the file as written — past
	// the header frame for chunk 0 of shard 0. Every chunk starts on an
	// encoding boundary of the sink and, compressed, is a codec member of
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

// Materialize generates the summary's relations through the configured
// sink. See the package comment for the determinism guarantees.
func Materialize(sum *summary.Summary, opts Options) (*Report, error) {
	return MaterializeContext(context.Background(), sum, opts)
}

// MaterializeContext is Materialize under a cancellation context: when
// ctx is done, dispatch and encoding stop promptly, partial output files
// are removed, and the context's error is returned. This is what lets a
// serving layer abort a shard job cleanly when its client disconnects.
//
//hydra:nondeterministic wall-clock feeds Report timings and obs metrics only, never output bytes
func MaterializeContext(ctx context.Context, sum *summary.Summary, opts Options) (*Report, error) {
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
	if opts.BatchRows == 0 {
		opts.BatchRows = DefaultBatchRows
	}
	if opts.BatchRows < 1 {
		return nil, fmt.Errorf("matgen: batch rows %d out of range", opts.BatchRows)
	}
	sink := opts.Sink
	if sink == nil {
		format := opts.Format
		if format == "" {
			format = "heap"
		}
		var err error
		if sink, err = sinkFor(format); err != nil {
			return nil, err
		}
	}
	comp, err := CompressorFor(opts.Compress)
	if err != nil {
		return nil, err
	}
	lim, err := newRunLimiter(opts)
	if err != nil {
		return nil, err
	}
	tables, err := resolveTables(sum, opts.Tables)
	if err != nil {
		return nil, err
	}
	needFiles := sink.Ext() != ""
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
		t, err := newTableTask(sum.Relations[name], sink, comp, opts)
		if err != nil {
			return nil, fmt.Errorf("matgen: %s: %w", name, err)
		}
		t.idx = i
		tasks[i] = t
	}
	if opts.Workers == 1 {
		// Sequential fast path: tables in order, one encoder, no
		// goroutines. Byte-identical to the pool by construction (same
		// chunking, same positionally pure encoding, one frame per chunk).
		for _, t := range tasks {
			t.run(comp, func(w *countingWriter) (int64, error) {
				return sequentialEncodeTable(ctx, t, sink, comp, opts, lim, w)
			})
			if t.err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return nil, fmt.Errorf("matgen: %w", cerr)
				}
				return nil, fmt.Errorf("matgen: %s: %w", t.l.Table, t.err)
			}
		}
	} else if err := materializePool(ctx, tasks, sink, comp, opts, lim); err != nil {
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
		m := &Manifest{
			Version: manifestVersion, Format: rep.Format, Compression: rep.Compression,
			Shard: rep.Shard, Shards: rep.Shards,
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

// newRunLimiter builds the run's shared row limiter from Options, with
// the default schedule tolerance: chunks release whole, but each only
// once its own emission time has elapsed, so even single-chunk tables
// are paced.
func newRunLimiter(opts Options) (*rate.Limiter, error) {
	if opts.RateLimit == 0 {
		return nil, nil
	}
	lim, err := rate.NewLimiter(opts.RateLimit, 0)
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
		path += fmt.Sprintf(".part-%03d-of-%03d", shard, shards)
	}
	return path
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
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

// batchPool recycles per-worker column batches the same way; Batch
// reshapes its buffers when the column count changes between tables.
var batchPool = sync.Pool{New: func() any { return new(tuplegen.Batch) }}

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

// tableTask carries one relation's state through a Materialize run.
type tableTask struct {
	idx       int
	g         *tuplegen.Generator
	l         Layout
	proj      []int // tuple-order indices of the projected columns; nil = all
	rng       Range
	cRows     int64 // rows per chunk, an align multiple
	batchRows int
	tr        TableReport
	m         tableMetrics
	err       error
}

// newTableTask resolves one relation's layout (projected when
// Options.Columns is set), alignment, shard range, chunk geometry, and
// output path.
func newTableTask(rs *summary.RelationSummary, sink Sink, comp Compressor, opts Options) (*tableTask, error) {
	g := tuplegen.New(rs)
	g.SetFKSpread(opts.FKSpread)
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
	l := Layout{Table: rs.Table, Cols: cols, TotalRows: g.NumRows()}
	if err := CheckLayout(sink, l); err != nil {
		return nil, err
	}
	align, err := sink.Align(len(l.Cols))
	if err != nil {
		return nil, err
	}
	if align < 1 {
		return nil, fmt.Errorf("sink %q alignment %d out of range", sink.Name(), align)
	}
	rng := shardRange(l.TotalRows, opts.Shard, opts.Shards, align)
	chunkBatch := opts.BatchRows
	if comp != nil && chunkBatch > CompressChunkRows {
		chunkBatch = CompressChunkRows
	}
	t := &tableTask{
		g: g, l: l, proj: proj, rng: rng,
		cRows:     chunkRows(chunkBatch, align),
		batchRows: opts.BatchRows,
		m:         metricsForTable(rs.Table),
		tr: TableReport{Table: rs.Table, Cols: l.Cols,
			StartRow: rng.Lo, Rows: rng.Rows(), TotalRows: l.TotalRows},
	}
	if sink.Ext() != "" {
		compExt := ""
		if comp != nil {
			compExt = comp.Ext()
		}
		t.tr.Path = partPath(opts.Dir, rs.Table, sink.Ext(), opts.Shard, opts.Shards) + compExt
		if n := t.nChunks(); n > 0 {
			t.tr.ChunkRows, t.tr.Offsets = t.cRows, make([]int64, 0, n)
		}
	}
	return t, nil
}

// nChunks returns how many chunks the task's range splits into.
func (t *tableTask) nChunks() int64 { return (t.rng.Rows() + t.cRows - 1) / t.cRows }

// markChunk records, for the report's index, that the next chunk starts
// at w's position. Both collectors call it in chunk order, right before
// the chunk's one write.
func (t *tableTask) markChunk(w *countingWriter) {
	if t.tr.ChunkRows > 0 {
		t.tr.Offsets = append(t.tr.Offsets, w.n)
	}
}

// run wraps one table's encode in its writer stack — file ← size counter
// ← checksum tee — and fills in the report. Compression happens
// upstream, inside the encode workers, so this stack only writes and
// hashes the file bytes as written; raw (pre-compression) sizes are
// accounted by the encode side and returned by the callback.
func (t *tableTask) run(comp Compressor, encode func(w *countingWriter) (int64, error)) {
	var out io.Writer = io.Discard
	var file *os.File
	var h hash.Hash
	if t.tr.Path != "" {
		var err error
		if file, err = os.Create(t.tr.Path); err != nil {
			t.err = err
			return
		}
		h = sha256.New()
		out = io.MultiWriter(file, h)
	}
	fileCount := &countingWriter{w: out}
	raw, err := encode(fileCount)
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
	t.tr.Bytes = fileCount.n
	t.m.bytes.Add(fileCount.n)
	if comp != nil {
		t.tr.RawBytes = raw
	}
	if h != nil {
		t.tr.Checksum = hex.EncodeToString(h.Sum(nil))
	}
	// A sink that wrote nothing for some chunk (a sampling one, say) has
	// no position to seek to there; its file is the one chunk at 0, and
	// ReadManifest never meets an index it would refuse.
	if t.tr.checkIndex() != nil {
		t.tr.ChunkRows, t.tr.Offsets = 0, nil
	}
}

// writeFramed writes p to w, as one compressed frame when a codec is
// configured. Empty payloads produce no output, matching the historical
// framing (header and footer frames exist only when non-empty).
func writeFramed(w io.Writer, comp Compressor, p []byte) error {
	_, _, err := writeFramedTimed(w, comp, p)
	return err
}

// writeFramedTimed is writeFramed surfacing where the wall time went —
// compressing vs writing — so streaming callers can attribute stage
// time per stream, not just in the process-wide histograms.
//
//hydra:nondeterministic stage stopwatches feed StreamReport/obs, never output bytes
func writeFramedTimed(w io.Writer, comp Compressor, p []byte) (compress, write time.Duration, err error) {
	if len(p) == 0 {
		return 0, 0, nil
	}
	if comp != nil {
		buf := getChunkBuf()
		defer putChunkBuf(buf)
		t0 := time.Now()
		*buf, err = comp.AppendFrame((*buf)[:0], p)
		compress = time.Since(t0)
		mCompressSeconds.AddDuration(compress)
		if err != nil {
			return compress, 0, err
		}
		p = *buf
		t1 := time.Now()
		_, err = w.Write(p)
		return compress, time.Since(t1), err
	}
	t1 := time.Now()
	_, err = w.Write(p)
	return 0, time.Since(t1), err
}

// encodeChunk renders rows [lo, hi) of t through enc into dst. When the
// encoder understands run structure and no projection is active, the
// summary-row spans are encoded directly — no column batch is
// materialized at all; otherwise the rows are generated batch-wise
// (projected batches under Options.Columns, whose column set matches the
// encoder's projected layout) and encoded value by value. The paths
// yield identical bytes for the same layout because encoding is a pure
// function of layout, values, and absolute offsets.
func encodeChunk(t *tableTask, enc Encoder, se SpanEncoder, b *tuplegen.Batch, dst []byte, lo, hi int64) []byte {
	g := t.g
	if se != nil && t.proj == nil {
		it := g.Spans(lo+1, hi-lo)
		for sp, ok := it.Next(); ok; sp, ok = it.Next() {
			dst = se.AppendSpan(dst, sp)
		}
		return dst
	}
	for off := lo; off < hi; {
		n := int64(t.batchRows)
		if off+n > hi {
			n = hi - off
		}
		g.BatchCols(off+1, int(n), b, t.proj)
		dst = enc.AppendBatch(dst, b, off)
		off += n
	}
	return dst
}

// encodeFilteredChunk renders the rows of [lo, hi) that satisfy sf
// through enc into dst — the filtered twin of encodeChunk. Spans whose
// constant columns fail never materialize a value; what survives is
// either span-encoded directly (run-aware encoder, no projection) or
// packed contiguously into one batch and encoded row by row. Filtered
// streams only exist for alignment-1 sinks, whose encoders ignore the
// row offset, so the gaps between surviving rows cost nothing.
func encodeFilteredChunk(t *tableTask, enc Encoder, se SpanEncoder, b *tuplegen.Batch, dst []byte, lo, hi int64, sf *tuplegen.SpanFilter) []byte {
	g := t.g
	it := g.FilteredSpans(lo+1, hi-lo, sf)
	if se != nil && t.proj == nil {
		for sp, ok := it.Next(); ok; sp, ok = it.Next() {
			dst = se.AppendSpan(dst, sp)
		}
		return dst
	}
	cols := b.Reshape(len(t.l.Cols), int(hi-lo), lo+1)
	at := 0
	for sp, ok := it.Next(); ok; sp, ok = it.Next() {
		at = tuplegen.FillSpan(cols, at, &sp, t.proj)
	}
	b.Truncate(at)
	if at == 0 {
		return dst
	}
	return enc.AppendBatch(dst, b, lo)
}

// sequentialEncodeTable emits one table's shard — header, chunks, footer
// — on the calling goroutine and returns the raw (pre-compression) byte
// count. It produces one frame per chunk, exactly like the pool.
//
//hydra:nondeterministic encode/compress stopwatches feed obs metrics only, never output bytes
func sequentialEncodeTable(ctx context.Context, t *tableTask, sink Sink, comp Compressor, opts Options, lim *rate.Limiter, w *countingWriter) (int64, error) {
	var raw int64
	if opts.Shard == 0 {
		hdr, err := sink.Header(t.l)
		if err != nil {
			return raw, err
		}
		raw += int64(len(hdr))
		if err := writeFramed(w, comp, hdr); err != nil {
			return raw, err
		}
	}
	if t.rng.Rows() > 0 {
		enc := sink.NewEncoder(t.l)
		se, _ := enc.(SpanEncoder)
		b := batchPool.Get().(*tuplegen.Batch)
		defer batchPool.Put(b)
		buf := getChunkBuf()
		defer putChunkBuf(buf)
		for lo := t.rng.Lo; lo < t.rng.Hi; lo += t.cRows {
			hi := lo + t.cRows
			if hi > t.rng.Hi {
				hi = t.rng.Hi
			}
			// WaitN doubles as the cancellation poll: a nil limiter
			// still fails fast on a done context.
			if err := lim.WaitN(ctx, hi-lo); err != nil {
				return raw, err
			}
			t0 := time.Now()
			*buf = encodeChunk(t, enc, se, b, (*buf)[:0], lo, hi)
			mEncodeSeconds.AddDuration(time.Since(t0))
			t.m.rows.Add(hi - lo)
			t.m.chunks.Inc()
			raw += int64(len(*buf))
			t.markChunk(w)
			if err := writeFramed(w, comp, *buf); err != nil {
				return raw, err
			}
		}
	}
	if opts.Shard == opts.Shards-1 {
		ftr, err := sink.Footer(t.l)
		if err != nil {
			return raw, err
		}
		raw += int64(len(ftr))
		if err := writeFramed(w, comp, ftr); err != nil {
			return raw, err
		}
	}
	return raw, nil
}

// encJob is one chunk of one table, schedulable by any pool worker.
type encJob struct {
	ti     int
	lo, hi int64
	out    chan chunkResult
}

// materializePool runs every table through one shared worker pool: all
// chunks of all tables feed the same Workers encode workers — so
// encoding and compression scale with the worker count even when the
// summary holds many small relations — while each table keeps its own
// dispatcher and ordered collector, which writes chunks strictly in
// order and hashes sequentially. Workers hold one encoder and one batch
// per (worker, table), created on first contact, so the steady-state
// encode path allocates nothing per chunk. On the first error anywhere
// (or when ctx is done) a done channel closes: every dispatcher stops
// submitting, workers answer remaining jobs without encoding, unfinished
// tables remove their partial files, and the failing table's error is
// reported.
//
//hydra:nondeterministic per-worker busy/encode stopwatches feed obs metrics only, never output bytes
func materializePool(ctx context.Context, tasks []*tableTask, sink Sink, comp Compressor, opts Options, lim *rate.Limiter) error {
	jobs := make(chan encJob)
	done := make(chan struct{})
	var abortOnce sync.Once
	abort := func() { abortOnce.Do(func() { close(done) }) }
	stop := context.AfterFunc(ctx, abort)
	defer stop()

	var workers sync.WaitGroup
	for k := 0; k < opts.Workers; k++ {
		workers.Add(1)
		go func(k int) {
			defer workers.Done()
			wm := metricsForWorker(k)
			encs := make([]Encoder, len(tasks))
			spanEncs := make([]SpanEncoder, len(tasks))
			// One batch per worker serves every table: Batch reshapes
			// across column widths without dropping its buffers.
			b := batchPool.Get().(*tuplegen.Batch)
			defer batchPool.Put(b)
			for j := range jobs {
				select {
				case <-done: // run failed; answer without encoding
					j.out <- chunkResult{}
					continue
				default:
				}
				t := tasks[j.ti]
				if encs[j.ti] == nil {
					encs[j.ti] = sink.NewEncoder(t.l)
					spanEncs[j.ti], _ = encs[j.ti].(SpanEncoder)
				}
				t0 := time.Now()
				buf := getChunkBuf()
				*buf = encodeChunk(t, encs[j.ti], spanEncs[j.ti], b, (*buf)[:0], j.lo, j.hi)
				mEncodeSeconds.AddDuration(time.Since(t0))
				res := chunkResult{buf: buf, raw: int64(len(*buf)), rows: j.hi - j.lo}
				// An empty encoding produces no frame and no write,
				// mirroring writeFramed on the sequential path, so
				// worker-count determinism holds for sinks that emit
				// nothing for some chunks.
				if comp != nil && len(*buf) > 0 {
					tc := time.Now()
					frame := getChunkBuf()
					var err error
					*frame, err = comp.AppendFrame((*frame)[:0], *buf)
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
			t.run(comp, func(w *countingWriter) (int64, error) {
				return poolEncodeTable(ctx, t, sink, comp, opts, lim, jobs, done, abort, w)
			})
			if t.err != nil && !errors.Is(t.err, errCanceled) {
				abort()
			}
		}(t)
	}
	drivers.Wait()
	close(jobs)
	workers.Wait()

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

// poolEncodeTable is one table's driver on the shared pool: it writes
// the header, dispatches the table's chunks into the global job channel,
// collects results strictly in chunk order, and writes the footer. The
// dispatcher queues each chunk's result channel before the next job so
// the collector drains results in order regardless of which worker
// finishes first; the order channel's capacity bounds how far this
// table's encoding runs ahead of its writing — which is also how far
// encoding may outrun a rate limiter pacing the collector. Returns the
// raw (pre-compression) byte count.
func poolEncodeTable(ctx context.Context, t *tableTask, sink Sink, comp Compressor, opts Options, lim *rate.Limiter, jobs chan<- encJob, done <-chan struct{}, abort func(), w *countingWriter) (int64, error) {
	var raw int64
	if opts.Shard == 0 {
		hdr, err := sink.Header(t.l)
		if err != nil {
			return raw, err
		}
		raw += int64(len(hdr))
		if err := writeFramed(w, comp, hdr); err != nil {
			return raw, err
		}
	}
	if t.rng.Rows() > 0 {
		order := make(chan chan chunkResult, opts.Workers*2)
		go func() {
			defer close(order)
			for lo := t.rng.Lo; lo < t.rng.Hi; lo += t.cRows {
				hi := lo + t.cRows
				if hi > t.rng.Hi {
					hi = t.rng.Hi
				}
				ch := resultChanPool.Get().(chan chunkResult)
				select {
				case jobs <- encJob{ti: t.idx, lo: lo, hi: hi, out: ch}:
					order <- ch // queued strictly in chunk order
				case <-done:
					resultChanPool.Put(ch)
					return
				}
			}
		}()
		var firstErr error
		fail := func(err error) {
			if firstErr == nil {
				firstErr = err
				if !errors.Is(err, errCanceled) {
					abort()
				}
			}
		}
		var got int64
		for ch := range order {
			res := <-ch
			resultChanPool.Put(ch)
			got++
			if firstErr != nil {
				if res.buf != nil {
					putChunkBuf(res.buf)
				}
				continue
			}
			if res.err != nil {
				fail(res.err)
				continue
			}
			if res.buf == nil {
				fail(errCanceled) // worker answered after the run failed
				continue
			}
			raw += res.raw
			// Pace the release of this chunk's rows; encoding upstream
			// runs ahead only as far as the order channel's capacity.
			if err := lim.WaitN(ctx, res.rows); err != nil {
				fail(err)
				putChunkBuf(res.buf)
				continue
			}
			t.markChunk(w)
			if len(*res.buf) > 0 {
				if _, err := w.Write(*res.buf); err != nil {
					fail(err)
				}
			}
			putChunkBuf(res.buf)
		}
		if firstErr == nil && got != t.nChunks() {
			firstErr = errCanceled // dispatcher stopped early
		}
		if firstErr != nil {
			return raw, firstErr
		}
	}
	if opts.Shard == opts.Shards-1 {
		ftr, err := sink.Footer(t.l)
		if err != nil {
			return raw, err
		}
		raw += int64(len(ftr))
		if err := writeFramed(w, comp, ftr); err != nil {
			return raw, err
		}
	}
	return raw, nil
}
