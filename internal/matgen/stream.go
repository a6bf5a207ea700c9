package matgen

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/dsl-repro/hydra/internal/format"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/rate"
	"github.com/dsl-repro/hydra/internal/summary"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// ErrStream marks a stream request the caller got wrong — unknown
// table, shard out of range, misaligned offset or limit, a format with
// no byte stream. A serving layer maps errors.Is(err, ErrStream) to a
// client error; anything else is a generation failure.
var ErrStream = errors.New("matgen: invalid stream request")

// ErrFilter marks a stream request whose Filter was unusable — a column
// the relation does not have, or a format that cannot carry filtered
// (gap-bearing) row streams. It wraps ErrStream, so existing client
// error mapping keeps working; a serving layer can additionally count
// filter rejections by matching this sentinel.
var ErrFilter = fmt.Errorf("%w: invalid filter", ErrStream)

// StreamOptions selects one relation range scan for Stream. The encoded
// bytes are, by construction, exactly the bytes Materialize would put in
// the corresponding part file: same header/footer placement, same chunk
// grid, same per-chunk compression framing. That identity is what makes
// a network data plane trustworthy — a fetched stream and a shipped file
// verify against the same checksums.
type StreamOptions struct {
	// Table names the relation to scan. Required.
	Table string
	// Format is the stream's format ("heap" when empty). It must write
	// bytes; "discard" is rejected.
	Format string
	// Compress names the output codec ("gzip"; "" or "none" disables).
	Compress string
	// Shards and Shard select the piece of an N-way split to stream,
	// exactly as in Options. Zero values mean the whole table.
	Shards int
	Shard  int
	// Offset skips this many rows into the shard's range — the resume
	// cursor. It must be a multiple of the format's alignment. A stream
	// resumed at an offset on the chunk grid (see Align and ChunkRows in
	// the report) is byte-identical to the suffix of the original
	// stream, compressed output included.
	Offset int64
	// Limit caps the scanned rows (0 = the rest of the shard). Unless it
	// reaches the shard's end it must be a multiple of the format's
	// alignment, so a follow-up stream can resume exactly where this one
	// stopped.
	Limit int64
	// BatchRows overrides DefaultBatchRows.
	BatchRows int
	// RateLimit paces this stream in rows per second (0 = unlimited).
	RateLimit float64
	// Columns projects the stream onto a subset of columns, in the order
	// given (nil = every column). The projection is pushed down to the
	// encoder layer — only selected columns are generated and encoded —
	// and changes the stream's layout: header, alignment, and chunk grid
	// are those of the projected column set, so a projected stream is
	// byte-identical to a materialization with the same Columns, not a
	// substring of the full-width file.
	Columns []string
	// Filter restricts the stream to rows satisfying a conjunction of
	// per-column predicates, evaluated inside the encode path at span
	// granularity — rows that fail are never generated, let alone
	// encoded. The filter binds against the relation's full column set,
	// independent of Columns, so a stream may filter on columns it does
	// not carry. Offset and Limit still address the unfiltered row space
	// (the resume cursor stays meaningful); only matching rows are
	// emitted, so a filtered stream has no predeclared row count and
	// simply ends when its range is exhausted. Filtered streams require
	// an alignment-1 format (csv, jsonl, spans): page- and
	// statement-structured formats cannot carry row gaps.
	Filter pred.Filter
}

// StreamReport describes one stream: its geometry (known before any
// byte is produced — StreamInfo returns it without generating) and, once
// streamed, the emitted sizes.
type StreamReport struct {
	Table       string `json:"table"`
	Format      string `json:"format"`
	Compression string `json:"compression,omitempty"`
	Shard       int    `json:"shard"`
	Shards      int    `json:"shards"`
	// StartRow is the absolute 0-based offset of the first streamed row.
	StartRow int64 `json:"start_row"`
	// Rows is the number of rows the stream covers.
	Rows int64 `json:"rows"`
	// TotalRows is the full-relation cardinality.
	TotalRows int64 `json:"total_rows"`
	// Cols are the stream's column names in encoded order — projected
	// when the request carried a projection. Remote readers decode
	// against this list.
	Cols []string `json:"cols,omitempty"`
	// Align is the format's row alignment: valid offsets and limits are
	// its multiples.
	Align int `json:"align"`
	// ChunkRows is the chunk grid step anchored at the shard range's
	// start; resuming on the grid reproduces compressed framing exactly.
	ChunkRows int64 `json:"chunk_rows"`
	// Bytes is the stream size as written (post-compression); RawBytes
	// the encoded size before compression. Zero in StreamInfo results.
	Bytes    int64 `json:"bytes,omitempty"`
	RawBytes int64 `json:"raw_bytes,omitempty"`
	// Stage timings for this stream, filled by Run: wall seconds spent
	// encoding chunks, compressing frames, and writing bytes to the
	// destination. The same instants feed the process-wide
	// hydra_matgen_{encode,compress}_seconds_total counters; these are
	// the per-stream share, the numbers a stream's trace span reports.
	EncodeSeconds   float64 `json:"encode_s,omitempty"`
	CompressSeconds float64 `json:"compress_s,omitempty"`
	WriteSeconds    float64 `json:"write_s,omitempty"`
}

// streamPlan is a resolved, validated stream request: the table task,
// whose header and footer are narrowed to the range, and the rows.
type streamPlan struct {
	t          *tableTask
	start, end int64                // absolute row range to encode
	filt       *tuplegen.SpanFilter // nil = unfiltered
}

func planStream(sum *summary.Summary, opts StreamOptions) (*streamPlan, error) {
	if opts.Shards == 0 {
		opts.Shards = 1
	}
	if opts.Shards < 1 || opts.Shard < 0 || opts.Shard >= opts.Shards {
		return nil, fmt.Errorf("%w: shard %d of %d out of range", ErrStream, opts.Shard, opts.Shards)
	}
	if opts.BatchRows == 0 {
		opts.BatchRows = DefaultBatchRows
	}
	if opts.BatchRows < 1 {
		return nil, fmt.Errorf("%w: batch rows %d out of range", ErrStream, opts.BatchRows)
	}
	if opts.RateLimit != 0 {
		if err := rate.Validate(opts.RateLimit); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrStream, err)
		}
	}
	f, err := format.ByName(cmp.Or(opts.Format, "heap"))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStream, err)
	}
	if !f.Writes() {
		return nil, fmt.Errorf("%w: format %q produces no byte stream", ErrStream, f.Name())
	}
	comp, err := CompressorFor(opts.Compress)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStream, err)
	}
	rs, ok := sum.Relations[opts.Table]
	if !ok {
		return nil, fmt.Errorf("%w: summary has no relation %q", ErrStream, opts.Table)
	}
	t, err := newTableTask(rs, sum.FKSpread, f, comp, Options{
		Shards: opts.Shards, Shard: opts.Shard,
		BatchRows: opts.BatchRows, Columns: opts.Columns,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStream, err)
	}
	align := int64(t.align)
	switch {
	case opts.Offset < 0 || opts.Offset > t.rng.Rows():
		return nil, fmt.Errorf("%w: offset %d outside shard rows [0, %d]", ErrStream, opts.Offset, t.rng.Rows())
	case opts.Offset%align != 0:
		return nil, fmt.Errorf("%w: offset %d not a multiple of the %s alignment %d", ErrStream, opts.Offset, f.Name(), align)
	case opts.Limit < 0:
		return nil, fmt.Errorf("%w: limit %d out of range", ErrStream, opts.Limit)
	}
	p := &streamPlan{t: t, start: t.rng.Lo + opts.Offset, end: t.rng.Hi}
	if opts.Limit > 0 && p.start+opts.Limit < t.rng.Hi {
		if opts.Limit%align != 0 {
			return nil, fmt.Errorf("%w: limit %d not a multiple of the %s alignment %d", ErrStream, opts.Limit, f.Name(), align)
		}
		p.end = p.start + opts.Limit
	}
	t.header = t.header && opts.Offset == 0
	t.footer = t.footer && p.end == t.rng.Hi
	if !opts.Filter.Empty() {
		if align != 1 {
			return nil, fmt.Errorf("%w: format %q (alignment %d) cannot carry filtered row streams", ErrFilter, f.Name(), align)
		}
		conj, err := opts.Filter.Bind(t.g.ColNames())
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFilter, err)
		}
		if p.filt, err = t.g.BindSpanFilter(conj); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFilter, err)
		}
		if p.filt == nil {
			// Constrained in name only (full-domain restrictions): stream
			// unfiltered, which yields the identical row set.
			p.filt = &tuplegen.SpanFilter{}
		}
	}
	return p, nil
}

func (p *streamPlan) report(opts StreamOptions) *StreamReport {
	shards := opts.Shards
	if shards == 0 {
		shards = 1
	}
	t := p.t
	rep := &StreamReport{
		Table: t.l.Table, Format: t.sink.Name(),
		Shard: opts.Shard, Shards: shards,
		StartRow: p.start, Rows: p.end - p.start, TotalRows: t.l.TotalRows,
		Cols:  append([]string(nil), t.l.Cols...),
		Align: t.align, ChunkRows: t.cRows,
	}
	if t.comp != nil {
		rep.Compression = t.comp.Name()
	}
	return rep
}

// StreamPlan is a validated, resolved stream request: the geometry is
// known (Info) and the bytes can be produced (Run). Plans are not safe
// for concurrent use — a serving layer builds one per request, reads
// the geometry for its response headers, then runs it.
type StreamPlan struct {
	p    *streamPlan
	opts StreamOptions
}

// PlanStream validates and resolves a stream request without generating
// a byte. Invalid requests fail here, wrapped in ErrStream, before a
// serving layer has committed any response.
func PlanStream(sum *summary.Summary, opts StreamOptions) (*StreamPlan, error) {
	p, err := planStream(sum, opts)
	if err != nil {
		return nil, err
	}
	return &StreamPlan{p: p, opts: opts}, nil
}

// Info returns the plan's geometry — rows, start row, alignment, chunk
// grid — with the size fields zero until Run produces the bytes.
func (sp *StreamPlan) Info() *StreamReport { return sp.p.report(sp.opts) }

// ContentType is the media type of the planned stream: the codec's when
// compressed — the bytes are the compressed file, not a transfer
// encoding of it — else the format's.
func (sp *StreamPlan) ContentType() string {
	t := sp.p.t
	if t.comp != nil {
		return t.comp.ContentType()
	}
	return t.sink.ContentType()
}

// StreamInfo validates a stream request and returns its geometry
// without generating a byte.
func StreamInfo(sum *summary.Summary, opts StreamOptions) (*StreamReport, error) {
	sp, err := PlanStream(sum, opts)
	if err != nil {
		return nil, err
	}
	return sp.Info(), nil
}

// Stream encodes one relation range scan into w: the resumable,
// rate-limitable network face of the materialization engine. The bytes
// are identical to the corresponding Materialize part file (prefix or
// suffix thereof for limited or resumed streams); chunk boundaries sit
// on the same grid, so compressed members frame identically when the
// offset and limit sit on the grid too. Cancellation is checked between
// chunks; the returned error is ctx.Err() when the context ended the
// stream.
func Stream(ctx context.Context, sum *summary.Summary, opts StreamOptions, w io.Writer) (*StreamReport, error) {
	sp, err := PlanStream(sum, opts)
	if err != nil {
		return nil, err
	}
	return sp.Run(ctx, w)
}

// Run produces the planned stream into w. See Stream.
//
//hydra:nondeterministic stage stopwatches feed StreamReport timings only, never stream bytes
func (sp *StreamPlan) Run(ctx context.Context, w io.Writer) (*StreamReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, t := sp.p, sp.p.t
	lim, err := newRunLimiter(sp.opts.RateLimit)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStream, err)
	}
	rep := p.report(sp.opts)
	fw := &frameWriter{w: w, comp: t.comp}
	defer func() {
		rep.CompressSeconds, rep.WriteSeconds = fw.compress.Seconds(), fw.write.Seconds()
	}()
	if rep.RawBytes, err = t.writeEdge(fw, false); err != nil {
		return rep, err
	}
	if p.start < p.end {
		enc := t.sink.NewEncoder(t.l)
		buf := getChunkBuf()
		defer putChunkBuf(buf)
		for lo := p.start; lo < p.end; {
			// Chunk upper bounds sit on the grid anchored at the shard
			// range's start, exactly where Materialize puts them, so a
			// resumed stream re-joins the original chunk (and compressed
			// member) structure instead of shifting it.
			hi := min(t.rng.Lo+((lo-t.rng.Lo)/t.cRows+1)*t.cRows, p.end)
			if err := lim.WaitN(ctx, hi-lo); err != nil {
				return rep, err
			}
			t0 := time.Now()
			if *buf, err = encodeChunk(t, enc, (*buf)[:0], lo, hi, p.filt); err != nil {
				return rep, err
			}
			enc0 := time.Since(t0)
			mEncodeSeconds.AddDuration(enc0)
			rep.EncodeSeconds += enc0.Seconds()
			t.m.rows.Add(hi - lo)
			t.m.chunks.Inc()
			rep.RawBytes += int64(len(*buf))
			if err := fw.frame(*buf); err != nil {
				return rep, err
			}
			lo = hi
		}
	}
	n, err := t.writeEdge(fw, true)
	rep.RawBytes += n
	if err != nil {
		return rep, err
	}
	rep.Bytes = fw.n
	return rep, nil
}
