package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/obs"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/rate"
	"github.com/dsl-repro/hydra/internal/trace"
)

// Response headers and trailers of the tables endpoint. Geometry headers
// are sent before the first byte; the checksum can only exist after the
// last one, so it travels as an HTTP trailer.
const (
	HeaderRows      = "X-Hydra-Rows"
	HeaderStartRow  = "X-Hydra-Start-Row"
	HeaderTotalRows = "X-Hydra-Total-Rows"
	HeaderAlign     = "X-Hydra-Align"
	HeaderChunkRows = "X-Hydra-Chunk-Rows"
	HeaderDigest    = "X-Hydra-Summary-Digest"
	// HeaderFilter echoes the canonical encoding of the filter a stream
	// was produced under. Clients that push predicates down require the
	// echo: a server that ignored filter= would stream every row, which
	// is silently wrong, not an error — the echo is the proof it didn't.
	HeaderFilter = "X-Hydra-Filter"
	// HeaderTraceID echoes the 32-hex-digit trace id every stream (and
	// shard job) runs under — the client's handle into this member's
	// /debug/traces flight recorder. The server continues the trace the
	// client propagated in `traceparent`, or starts one of its own.
	HeaderTraceID = "X-Hydra-Trace-Id"
	TrailerSha256 = "X-Hydra-Sha256"
)

// maxQueryBatchRows bounds batch= on a table stream, at 8× the default
// batch: a stream buffers a whole chunk of that many rows before its
// first write, so an unbounded value would let one request claim a
// member's memory.
const maxQueryBatchRows = 8 * matgen.DefaultBatchRows

// handleTable serves GET /v1/tables/{table}: a resumable, rate-limited
// range scan streamed straight from the zero-allocation encode pipeline.
// With info=1 it answers the stream's geometry as JSON instead — how a
// client plans resume offsets without generating anything.
func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	opts, err := streamOptionsFromQuery(r.PathValue("table"), q)
	if err != nil {
		if errors.Is(err, matgen.ErrFilter) {
			s.rejectFilter(w, err)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	opts.RateLimit = s.capRate(opts.RateLimit)
	if opts.BatchRows == 0 {
		opts.BatchRows = s.opts.BatchRows
	}
	plan, err := matgen.PlanStream(s.sum, *opts)
	if err != nil {
		if errors.Is(err, matgen.ErrFilter) {
			s.rejectFilter(w, err)
			return
		}
		status := http.StatusInternalServerError
		if errors.Is(err, matgen.ErrStream) {
			status = http.StatusBadRequest
			if _, ok := s.sum.Relations[opts.Table]; !ok {
				status = http.StatusNotFound
			}
		}
		http.Error(w, err.Error(), status)
		return
	}
	info := plan.Info()
	// Every tables response — geometry included — names the summary it
	// describes, so a client that plans a scan from info=1 can demand
	// the data stream come from the same database.
	w.Header().Set(HeaderDigest, s.digest)
	if !opts.Filter.Empty() {
		w.Header().Set(HeaderFilter, opts.Filter.Encode())
	}
	if q.Get("info") == "1" {
		writeJSON(w, http.StatusOK, info)
		return
	}
	// Every stream runs under a span, continuing the trace the client
	// propagated (or starting a fresh one), and echoes the trace id
	// before the first byte so either side can pull the span tree from
	// this member's flight recorder.
	psc, _ := trace.ParseTraceparent(r.Header.Get(trace.Header))
	ctx, sp := trace.StartRemote(r.Context(), "serve.stream", psc,
		trace.Str("table", info.Table),
		trace.Str("format", info.Format),
		trace.Str("remote", r.RemoteAddr))
	defer sp.End()
	w.Header().Set(HeaderTraceID, sp.TraceID())
	if !s.acquire(w) {
		sp.Fail(errStreamRejected)
		return
	}
	defer s.release()
	t0 := time.Now()
	defer func() { s.m.streamSec.ObserveSince(t0) }()

	h := w.Header()
	h.Set("Content-Type", plan.ContentType())
	h.Set(HeaderRows, strconv.FormatInt(info.Rows, 10))
	h.Set(HeaderStartRow, strconv.FormatInt(info.StartRow, 10))
	h.Set(HeaderTotalRows, strconv.FormatInt(info.TotalRows, 10))
	h.Set(HeaderAlign, strconv.Itoa(info.Align))
	h.Set(HeaderChunkRows, strconv.FormatInt(info.ChunkRows, 10))
	h.Set("Trailer", TrailerSha256)

	// The stream tees into the hash for the trailer and flushes each
	// chunk so bytes reach the client as they are produced. Writes block
	// on the connection when the client is slow — that blocking is the
	// backpressure that stalls encoding — and the request context
	// cancels generation mid-table when the client goes away.
	sum := sha256.New()
	fw := &flushWriter{w: w, rc: http.NewResponseController(w), start: t0, ttfc: s.m.ttfcSec,
		writeTimeout: s.opts.WriteTimeout, sp: sp, lazy: opts.RateLimit == 0}
	rep, err := plan.Run(ctx, io.MultiWriter(fw, sum))
	if rep != nil {
		// Stage spans carry the per-stream share of matgen's stage
		// timers: where this stream's wall time went — generation,
		// compression, or pushing bytes to the client.
		secs := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
		sp.Stage("encode", t0, secs(rep.EncodeSeconds))
		sp.Stage("compress", t0, secs(rep.CompressSeconds))
		sp.Stage("flush", t0, secs(rep.WriteSeconds))
		sp.SetAttrs(
			trace.Int("rows", rep.Rows),
			trace.Int("bytes", fw.wrote))
	}
	sp.Fail(err)
	s.logStream(r, info, fw.wrote, time.Since(t0), err, sp.TraceID())
	if err != nil {
		s.logf("serve: GET %s: %v", r.URL.Path, err)
		if fw.wrote == 0 {
			// Nothing was committed yet: fail with a real status so
			// status-checking clients don't record an empty stream as
			// a successful scan.
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		// Mid-stream the status line is long gone; the truncated body
		// plus the missing trailer is the client's failure signal.
		return
	}
	h.Set(TrailerSha256, hex.EncodeToString(sum.Sum(nil)))
}

// rejectFilter answers a stream request whose filter= was unusable:
// 400 with a JSON error body (the shape scan clients already map onto
// their spec-error sentinel) and a bump of the rejection counter — the
// signal that separates "clients sending broken predicates" from the
// rest of the 400 noise.
func (s *Server) rejectFilter(w http.ResponseWriter, err error) {
	s.m.filterRejected.Inc()
	writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
}

// logStream emits one structured record per completed (or aborted)
// table stream — the per-request detail the aggregated histograms
// deliberately drop.
func (s *Server) logStream(r *http.Request, info *matgen.StreamReport, bytes int64, d time.Duration, err error, traceID string) {
	if s.opts.Logger == nil {
		return
	}
	attrs := []any{
		slog.String("trace_id", traceID),
		slog.String("table", info.Table),
		slog.String("format", info.Format),
		slog.Int("shard", info.Shard),
		slog.Int("shards", info.Shards),
		slog.Int64("start_row", info.StartRow),
		slog.Int64("rows", info.Rows),
		slog.Int64("bytes", bytes),
		slog.Float64("seconds", d.Seconds()),
		slog.Float64("rows_per_sec", obs.PerSec(info.Rows, d)),
		slog.String("remote", r.RemoteAddr),
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
		s.opts.Logger.Error("stream aborted", attrs...)
		return
	}
	s.opts.Logger.Info("stream complete", attrs...)
}

// streamOptionsFromQuery maps the endpoint's table and query parameters
// onto matgen.StreamOptions. Validation beyond syntax lives in matgen,
// which tags client mistakes with ErrStream. Unknown keys are refused,
// the first in sorted order named: ignoring one would change the rows.
func streamOptionsFromQuery(table string, q url.Values) (*matgen.StreamOptions, error) {
	for _, k := range slices.Sorted(maps.Keys(q)) {
		if !slices.Contains([]string{"format", "compress", "columns", "filter", "shard", "offset", "limit", "rate", "batch", "info"}, k) {
			return nil, fmt.Errorf("unknown query parameter %q", k)
		}
	}
	opts := &matgen.StreamOptions{
		Table:    table,
		Format:   q.Get("format"),
		Compress: q.Get("compress"),
	}
	if opts.Format == "" {
		opts.Format = "csv"
	}
	// columns= pushes a projection down to the encoder layer: only the
	// named columns are generated and encoded, and the stream's layout
	// (header, alignment, chunk grid) is the projected one.
	if v := q.Get("columns"); v != "" {
		for _, name := range strings.Split(v, ",") {
			opts.Columns = append(opts.Columns, strings.TrimSpace(name))
		}
	}
	// filter= pushes a row predicate down to the encode stream, in the
	// canonical encoding pred produces (pred.Filter.Encode). Column
	// existence is checked against the relation in matgen; only the
	// encoding's syntax is validated here.
	if v := q.Get("filter"); v != "" {
		f, err := pred.DecodeFilter(v)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", matgen.ErrFilter, err)
		}
		opts.Filter = f
	}
	var err error
	if opts.Shard, opts.Shards, err = parseShard(q.Get("shard")); err != nil {
		return nil, err
	}
	// In a fixed order, so a query with both malformed always gets the
	// same answer.
	for _, p := range [...]struct {
		name string
		dst  *int64
	}{{"offset", &opts.Offset}, {"limit", &opts.Limit}} {
		if v := q.Get(p.name); v != "" {
			if *p.dst, err = strconv.ParseInt(v, 10, 64); err != nil {
				return nil, fmt.Errorf("%s: %v", p.name, err)
			}
		}
	}
	if v := q.Get("rate"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("rate wants a positive rows/s value, got %q", v)
		}
		// rate.Validate rejects NaN/Inf/zero/negatives/denormals — any
		// of which would otherwise slip past numeric comparisons and
		// disable both the pacing and the server's cap.
		if err := rate.Validate(f); err != nil {
			return nil, err
		}
		opts.RateLimit = f
	}
	if v := q.Get("batch"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxQueryBatchRows {
			return nil, fmt.Errorf("batch wants a row count in [1, %d], got %q", maxQueryBatchRows, v)
		}
		opts.BatchRows = n
	}
	return opts, nil
}

// flushWriter pushes every chunk to the client as soon as it is
// written (unless lazy) and tracks whether anything has been committed
// (an error before the first byte can still become a real status code).
// Flush errors on connections that do not support it are ignored; real
// write errors surface through Write itself. When start/ttfc are set,
// the first write observes time-to-first-chunk.
type flushWriter struct {
	w     io.Writer
	rc    *http.ResponseController
	wrote int64
	start time.Time
	ttfc  *obs.Histogram
	// writeTimeout, when set, re-arms the connection's write deadline
	// before every chunk: a client may read slowly forever (each write
	// that completes pushes the deadline forward), but one that stops
	// reading entirely fails the stream after this long instead of
	// holding a slot until process exit.
	writeTimeout time.Duration
	// sp, when set, gets a first-chunk event on the first write — the
	// accept→first-byte gap is queueing plus first-chunk encode time.
	sp *trace.Span
	// lazy leaves flushing to the connection's own buffer, which sends
	// whenever it fills and when the handler returns. A paced stream must
	// not be lazy — each chunk is due when the limiter releases it — but
	// an unpaced one gains nothing from a flush per chunk, and a spans
	// chunk is a few dozen bytes: flushed singly, the syscalls and chunk
	// headers cost more than generating the rows they stand for.
	lazy bool
}

func (f *flushWriter) Write(p []byte) (int, error) {
	if f.wrote == 0 {
		if f.ttfc != nil {
			f.ttfc.ObserveSince(f.start)
		}
		f.sp.Event("first-chunk")
	}
	if f.writeTimeout > 0 && f.rc != nil {
		if derr := f.rc.SetWriteDeadline(time.Now().Add(f.writeTimeout)); derr != nil && !errors.Is(derr, http.ErrNotSupported) {
			return 0, derr
		}
	}
	n, err := f.w.Write(p)
	f.wrote += int64(n)
	if err == nil && f.rc != nil && !f.lazy {
		if ferr := f.rc.Flush(); ferr != nil && !errors.Is(ferr, http.ErrNotSupported) {
			return n, ferr
		}
	}
	return n, err
}
