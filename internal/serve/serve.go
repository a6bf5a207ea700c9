// Package serve is Hydra's regeneration-as-a-service layer: it turns a
// loaded database summary — a few KB, independent of data scale — into
// an HTTP data plane that regenerates big data volumes on demand, plus
// the client that makes shard orchestration cluster-scale.
//
// Server side, two endpoints over one summary:
//
//	GET  /v1/tables/{table}?format=csv|jsonl|sql|heap|spans&compress=gzip
//	     &shard=i/N&offset=K&limit=M&rate=R&columns=a,b&filter=F
//	     streams a resumable range scan straight from matgen's
//	     zero-allocation encode pipeline. The bytes are exactly what a
//	     local materialization with the same options writes (prefix/
//	     suffix thereof for limited/resumed streams), chunk-flushed as
//	     they are produced, SHA-256 in an HTTP trailer. columns= pushes
//	     a projection down to the encoder layer: only the named columns
//	     are generated and encoded, in the order given. Backpressure is the connection
//	     itself: a slow client stalls encoding instead of buffering the
//	     table in memory, and closing it cancels generation mid-chunk.
//	     format=spans (application/vnd.hydra.spans) is the run-native
//	     wire format scan.RemoteSource reads: the body is a bare
//	     sequence of frames, one per summary-row run clipped to the
//	     request's range and the server's chunk grid,
//	       uvarint(len(body)) body crc32c-LE(length bytes + body)
//	       body = uvarint Start, N, Off; zigzag varint x (cols-1) for
//	              the constant values then the base FKs; uvarint k and
//	              k uvarint FK spans (k = 0, or the FK count for a
//	              spread summary: FK c of tuple i is base+(Off+i)%span)
//	     — dozens of bytes for thousands of rows, alignment 1, so any
//	     offset/limit is valid and rate= still paces by the rows a
//	     frame stands for. A client must bound len by the column count
//	     (never allocate from it), verify the CRC, and reject N < 1, a
//	     Start outside the rows it asked for or not after the previous
//	     frame's end, a run reaching past its limit, a span < 1, and
//	     trailing bytes; EOF inside a frame is a torn stream, EOF
//	     between frames the end. filter= is applied here (the server
//	     omits and clips runs; the X-Hydra-Filter echo proves it), but
//	     projection is the client's: frames describe the full layout
//	     and columns= must keep the pk first or the request is a 400.
//	GET  /v1/tables/{table}?...&info=1 returns the stream's geometry
//	     (rows, alignment, chunk grid) as JSON without generating.
//	     Any other query parameter is a 400. The chunk grid is not one:
//	     it follows from format and codec alone.
//	POST /v1/shardjobs executes one full matgen ShardJob — the unit the
//	     orchestrator schedules — and streams back the artifact bundle
//	     (part files + manifest) as a tar stream whose contents carry
//	     the manifest's part checksums and summary digest.
//	GET  /v1/summary and GET /healthz describe the loaded summary
//	     (including its digest) and liveness, for fleet management.
//
// Client side, RemoteRunner implements orchestrate.Runner over a fleet
// of such servers: jobs round-robin across the fleet, fail over to the
// next server on error with partial artifacts removed, and every
// fetched file is re-hashed against its manifest checksum before the
// job reports success — so hydra.Orchestrate runs unchanged against
// remote machines and VerifyShards proves the assembled directory.
//
// Concurrency and pacing are first-class: -max-streams bounds the
// number of in-flight streams and jobs (excess requests get 503 +
// Retry-After, the signal a fleet scheduler wants), and -rate-limit
// caps every stream's emit rate in rows/s via the shared token-bucket
// limiter (internal/rate), which is what turns the server into a load
// generator with a controllable rate.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/dsl-repro/hydra/internal/format"
	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/obs"
	"github.com/dsl-repro/hydra/internal/rate"
	"github.com/dsl-repro/hydra/internal/summary"
	"github.com/dsl-repro/hydra/internal/version"
)

// Options tunes a Server.
type Options struct {
	// MaxStreams bounds concurrently running table streams plus shard
	// jobs; further requests receive 503 with Retry-After. 0 means
	// unlimited.
	MaxStreams int
	// RateLimit caps every stream's and job's emit rate in rows per
	// second (0 = unlimited). Clients may request a lower rate with the
	// rate query parameter / job field, never a higher one.
	RateLimit float64
	// Workers is the encode worker count for shard jobs whose request
	// leaves workers unset; 0 means GOMAXPROCS.
	Workers int
	// Logger receives one record per table stream (table, rows, bytes,
	// duration, outcome; Info when complete, Error when aborted) — the
	// log a fleet operator greps when a scraped histogram says something
	// was slow — and an Error record for every shard job failure the
	// client can no longer be told about. Its handler's level picks
	// which appear. Nil disables logging.
	Logger *slog.Logger
	// Metrics is the registry the server records into and serves at
	// GET /metrics; nil means obs.Default (which is what the engine
	// packages — matgen, scan, rate — record into, so the default wires
	// the whole process onto one scrape endpoint).
	Metrics *obs.Registry
	// WriteTimeout bounds how long one chunk write (plus its flush) may
	// block on the connection. A client that stops reading mid-stream
	// stalls the encode pipeline by design — that is the backpressure —
	// but a dead one must not hold a stream slot forever; past the
	// deadline the write fails and the slot frees. 0 disables.
	WriteTimeout time.Duration
	// DrainTimeout bounds the graceful drain that hydra.Serve (and the
	// CLI) run between the stop signal and process exit: in-flight
	// streams get this long to finish before stragglers are force-
	// closed. 0 means DefaultDrainTimeout; the Server itself does not
	// read it — BeginDrain/WaitIdle take the caller's deadline.
	DrainTimeout time.Duration
}

// DefaultDrainTimeout bounds graceful drain when Options.DrainTimeout
// is zero.
const DefaultDrainTimeout = 30 * time.Second

// Server regenerates one summary's relations over HTTP. It is an
// http.Handler; wire it into any mux or server.
type Server struct {
	sum      *summary.Summary
	opts     Options
	digest   string
	mux      *http.ServeMux
	slots    chan struct{}
	reg      *obs.Registry
	m        serverMetrics
	start    time.Time
	draining atomic.Bool
	// drainStart is the UnixNano instant BeginDrain flipped the server
	// into drain mode, 0 while serving normally — /healthz derives the
	// drain deadline from it.
	drainStart atomic.Int64
}

// errStreamRejected marks the spans of requests refused at admission —
// drain mode or the MaxStreams cap — so capacity rejections are visible
// in the flight recorder as errored traces.
var errStreamRejected = errors.New("rejected at admission: draining or at stream capacity")

// serverMetrics are the server's own instruments, resolved once at
// construction so the request path never takes the registry lock.
type serverMetrics struct {
	// inFlight counts streams and shard jobs currently holding a slot —
	// the gauge a fleet scheduler compares against -max-streams.
	inFlight *obs.Gauge
	// streamSec is the whole-stream wall time; ttfcSec the time from
	// request start to the first body byte (queueing + planning + first
	// chunk's generation), the latency a scanning client actually feels.
	streamSec *obs.Histogram
	ttfcSec   *obs.Histogram
	// busy counts 503 capacity rejections; mismatch counts shard jobs
	// refused because they named a different summary digest.
	busy     *obs.Counter
	mismatch *obs.Counter
	// filterRejected counts table streams refused with 400 because the
	// filter= parameter was malformed, named an unknown column, or asked
	// a page/statement-structured format to carry row gaps.
	filterRejected *obs.Counter
	// drainRejected counts streams refused because the server was
	// draining; drainingG is 1 while drain mode is on — the pair an
	// operator watches during a rolling restart.
	drainRejected *obs.Counter
	drainingG     *obs.Gauge
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		inFlight: reg.Gauge("hydra_serve_in_flight_streams",
			"table streams and shard jobs currently holding a concurrency slot"),
		streamSec: reg.Histogram("hydra_serve_stream_seconds",
			"wall time of one table stream, first byte to last", nil),
		ttfcSec: reg.Histogram("hydra_serve_ttfc_seconds",
			"time from request start to the stream's first body byte", nil),
		busy: reg.Counter("hydra_serve_busy_total",
			"requests rejected with 503 because every slot was in use"),
		mismatch: reg.Counter("hydra_serve_digest_mismatch_total",
			"shard jobs refused because they pinned a different summary digest"),
		filterRejected: reg.Counter("hydra_serve_filter_rejected_total",
			"table streams refused because their filter= parameter was unusable"),
		drainRejected: reg.Counter("hydra_serve_drain_rejected_total",
			"requests rejected with 503 because the server was draining"),
		drainingG: reg.Gauge("hydra_serve_draining",
			"1 while the server is in drain mode, 0 otherwise"),
	}
}

// route wraps a handler with per-route request/byte accounting. The
// counters are resolved here, once per registered route, not per
// request.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	reqs := s.reg.Counter("hydra_serve_requests_total",
		"HTTP requests received, by route", obs.L("route", name))
	bytes := s.reg.Counter("hydra_serve_bytes_total",
		"HTTP response body bytes written, by route", obs.L("route", name))
	return func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		bytes.Add(sw.bytes)
	}
}

// statusWriter records the response status and body size without
// getting between the handler and the connection: Unwrap keeps
// http.NewResponseController's Flush working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// NewServer builds the data plane for one loaded summary.
func NewServer(sum *summary.Summary, opts Options) (*Server, error) {
	if sum == nil {
		return nil, errors.New("serve: summary is required")
	}
	if opts.RateLimit != 0 {
		if err := rate.Validate(opts.RateLimit); err != nil {
			return nil, fmt.Errorf("serve: rate limit: %w", err)
		}
	}
	if opts.MaxStreams < 0 {
		return nil, fmt.Errorf("serve: max streams %d out of range", opts.MaxStreams)
	}
	digest, err := sum.Digest()
	if err != nil {
		return nil, err
	}
	s := &Server{sum: sum, opts: opts, digest: digest, start: time.Now()}
	if opts.MaxStreams > 0 {
		s.slots = make(chan struct{}, opts.MaxStreams)
	}
	s.reg = opts.Metrics
	if s.reg == nil {
		s.reg = obs.Default
	}
	s.m = newServerMetrics(s.reg)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /v1/tables/{table}", s.route("tables", s.handleTable))
	s.mux.HandleFunc("POST /v1/shardjobs", s.route("shardjobs", s.handleShardJob))
	s.mux.HandleFunc("GET /v1/summary", s.route("summary", s.handleSummary))
	s.mux.HandleFunc("GET /healthz", s.route("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.route("metrics", s.reg.Handler().ServeHTTP))
	return s, nil
}

// HealthInfo is the GET /healthz document: liveness plus the identity
// and load facts a fleet manager polls — which summary this member
// serves, how long it has been up, and how full its stream slots are.
type HealthInfo struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	SummaryDigest string  `json:"summary_digest"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	InFlight      int64   `json:"in_flight_streams"`
	MaxStreams    int     `json:"max_streams"`
	Relations     int     `json:"relations"`
	TotalRows     int64   `json:"total_rows"`
	// Draining mirrors Status for programmatic consumers; while true,
	// DrainDeadline is the RFC 3339 instant by which in-flight streams
	// are abandoned (drain start + the server's drain timeout) — the
	// longest a rolling restart should wait before giving up on this
	// member.
	Draining      bool   `json:"draining"`
	DrainDeadline string `json:"drain_deadline,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	info := HealthInfo{
		Status:        status,
		Version:       version.String,
		SummaryDigest: s.digest,
		UptimeSeconds: time.Since(s.start).Seconds(),
		InFlight:      s.m.inFlight.Value(),
		MaxStreams:    s.opts.MaxStreams,
		Relations:     len(s.sum.Relations),
		Draining:      status == "draining",
	}
	if start := s.drainStart.Load(); info.Draining && start != 0 {
		timeout := s.opts.DrainTimeout
		if timeout <= 0 {
			timeout = DefaultDrainTimeout
		}
		info.DrainDeadline = time.Unix(0, start).Add(timeout).UTC().Format(time.RFC3339)
	}
	for _, rs := range s.sum.Relations {
		info.TotalRows += rs.Total
	}
	writeJSON(w, http.StatusOK, info)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// BeginDrain puts the server into drain mode: GET /healthz starts
// reporting status "draining" (so fleet trackers rotate the member out
// within one probe interval), and new streams and shard jobs are
// refused with 503 + Retry-After while in-flight ones run to
// completion. The listener stays open — answering probes during drain
// is the point; closing the port would read as a crash, not a drain.
// Idempotent and reversible via EndDrain.
func (s *Server) BeginDrain() {
	if !s.draining.Swap(true) {
		s.drainStart.Store(time.Now().UnixNano())
	}
	s.m.drainingG.Set(1)
}

// EndDrain cancels drain mode (a rolling restart that aborted).
func (s *Server) EndDrain() {
	s.draining.Store(false)
	s.drainStart.Store(0)
	s.m.drainingG.Set(0)
}

// Draining reports whether the server is in drain mode.
func (s *Server) Draining() bool { return s.draining.Load() }

// WaitIdle blocks until no stream or shard job holds a slot, or ctx
// ends — the wait between BeginDrain and shutting the listener down.
// Returns ctx's error when the deadline cut the wait short (the caller
// then force-closes the stragglers).
func (s *Server) WaitIdle(ctx context.Context) error {
	for {
		if s.m.inFlight.Value() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// SummaryDigest is sum.Digest(), the identity a fleet agrees on.
func SummaryDigest(sum *summary.Summary) (string, error) { return sum.Digest() }

// acquire takes a stream slot, answering 503 when the server is at
// MaxStreams. The caller must release() iff acquire returned true.
// The in-flight gauge tracks successful acquisitions even on servers
// with unlimited slots, so /metrics shows load either way.
func (s *Server) acquire(w http.ResponseWriter) bool {
	if s.draining.Load() {
		// Draining members refuse new work but tell the client when to
		// come back — a few seconds, by which point the fleet tracker
		// will have rotated this member out of the pick order anyway.
		s.m.drainRejected.Inc()
		w.Header().Set("Retry-After", "2")
		http.Error(w, "serve: draining, not accepting new streams",
			http.StatusServiceUnavailable)
		return false
	}
	if s.slots == nil {
		s.m.inFlight.Inc()
		return true
	}
	select {
	case s.slots <- struct{}{}:
		s.m.inFlight.Inc()
		return true
	default:
		s.m.busy.Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, fmt.Sprintf("serve: %d concurrent streams already running", cap(s.slots)),
			http.StatusServiceUnavailable)
		return false
	}
}

func (s *Server) release() {
	s.m.inFlight.Dec()
	if s.slots != nil {
		<-s.slots
	}
}

// capRate resolves a client-requested rate against the server cap: the
// client may slow a stream down, never speed it past the cap. Requests
// are validated before they get here; the NaN/Inf guard is defense in
// depth, since either would fail every comparison and escape the cap.
func (s *Server) capRate(requested float64) float64 {
	ceiling := s.opts.RateLimit
	if requested <= 0 || math.IsNaN(requested) || math.IsInf(requested, 0) {
		return ceiling
	}
	if ceiling > 0 && requested > ceiling {
		return ceiling
	}
	return requested
}

// logError records a shard job failure the client may never see.
func (s *Server) logError(msg string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Error(msg, args...)
	}
}

// SummaryInfo is the GET /v1/summary document.
type SummaryInfo struct {
	Digest string `json:"digest"`
	// Relations maps table name to full-relation cardinality.
	Relations map[string]int64 `json:"relations"`
	TotalRows int64            `json:"total_rows"`
	// Formats and Compressors list what the tables endpoint accepts:
	// every format that writes bytes, and every codec.
	Formats     []string `json:"formats"`
	Compressors []string `json:"compressors"`
	MaxStreams  int      `json:"max_streams,omitempty"`
	RateLimit   float64  `json:"rate_limit,omitempty"`
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	info := SummaryInfo{
		Digest:      s.digest,
		Relations:   make(map[string]int64, len(s.sum.Relations)),
		Formats:     format.FileNames(),
		Compressors: matgen.CompressorNames(),
		MaxStreams:  s.opts.MaxStreams,
		RateLimit:   s.opts.RateLimit,
	}
	for name, rs := range s.sum.Relations {
		info.Relations[name] = rs.Total
		info.TotalRows += rs.Total
	}
	writeJSON(w, http.StatusOK, info)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// parseShard parses the CLI-style 1-based "i/N" shard selector into the
// 0-based (shard, shards) pair the engine uses.
func parseShard(spec string) (shard, shards int, err error) {
	if spec == "" {
		return 0, 1, nil
	}
	i, n, ok := strings.Cut(spec, "/")
	if !ok {
		return 0, 0, fmt.Errorf("shard wants i/N, got %q", spec)
	}
	pi, err1 := strconv.Atoi(i)
	pn, err2 := strconv.Atoi(n)
	if err1 != nil || err2 != nil || pi < 1 || pn < 1 || pi > pn {
		return 0, 0, fmt.Errorf("shard wants i/N with 1 <= i <= N, got %q", spec)
	}
	return pi - 1, pn, nil
}
