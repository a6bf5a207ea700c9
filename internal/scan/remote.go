package scan

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/obs"
	"github.com/dsl-repro/hydra/internal/resilience"
	"github.com/dsl-repro/hydra/internal/trace"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// Fleet-client observability: how often streams died and resumed, how
// often the scan had to fail over to another member, and how often the
// fleet pushed back with 503 — the retry counters a capacity planner
// reads next to the server-side stream metrics.
var (
	mRemoteResumes = obs.Default.Counter("hydra_scan_remote_resumes_total",
		"table streams that died mid-scan and were resumed at their row offset")
	mRemoteFailovers = obs.Default.Counter("hydra_scan_remote_failovers_total",
		"failed stream opens that moved the scan to the next fleet member")
	mRemoteBusy = obs.Default.Counter("hydra_scan_remote_busy_total",
		"503 capacity rejections observed while opening streams")
)

// RemoteOptions tunes a RemoteSource.
type RemoteOptions struct {
	// Client issues the HTTP requests; nil builds one without timeouts
	// (scans legitimately stream long; cancellation comes from the scan
	// context).
	Client *http.Client
	// Attempts bounds the failures — failed connections, error statuses
	// other than 503 — one fleet call takes before it gives up, and how
	// many streams in a row may die without delivering a row before the
	// scan does. 0 means twice the fleet size.
	Attempts int
	// Fleet tunes the resilience substrate under the source: background
	// /healthz probing, per-member circuit breakers, jittered retry
	// backoff, and the shared retry budget. The zero value means
	// defaults (probing on, breakers on); set Fleet.ProbeInterval to a
	// negative value to disable probing, Fleet.BreakerThreshold negative
	// to disable breakers.
	Fleet resilience.Options
}

// RemoteSource scans tables served by a fleet of `hydra serve` servers
// over GET /v1/tables/{table}. Column projection is pushed down to the
// server (columns= query parameter), so only the selected columns cross
// the network. The stream is consumed incrementally and decoded straight
// into batches; if a server fails mid-table the scan resumes on the next
// fleet member at the exact row offset it had reached — the offset
// resume the serve data plane guarantees is byte-identical — after
// checking the member serves the same summary digest, so a mixed fleet
// can never splice two different databases into one scan.
type RemoteSource struct {
	resilience.Fleet
	opts   RemoteOptions
	policy resilience.Policy
	m      *backendMetrics
}

var _ Source = (*RemoteSource)(nil)

// NewRemoteSource builds a source over the fleet's base URLs
// (e.g. "http://10.0.0.7:8372").
func NewRemoteSource(servers []string, opts RemoteOptions) (*RemoteSource, error) {
	fleet, err := resilience.Connect(servers, opts.Fleet)
	if err != nil {
		return nil, err
	}
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	if opts.Attempts <= 0 {
		opts.Attempts = 2 * len(servers)
	}
	return &RemoteSource{
		Fleet:  fleet,
		opts:   opts,
		policy: fleet.Tracker().Policy("scan", opts.Attempts),
		m:      metricsForBackend("remote"),
	}, nil
}

// headerDigest is serve's summary-identity header (serve.HeaderDigest;
// not imported so a future serve-on-scan layering stays cycle-free).
const headerDigest = "X-Hydra-Summary-Digest"

// headerFilter is serve's applied-filter echo header (serve.HeaderFilter).
const headerFilter = "X-Hydra-Filter"

// getJSON fetches one JSON document through the fleet, returning the
// answering server's summary digest header (empty on servers that
// predate it).
func (s *RemoteSource) getJSON(ctx context.Context, path string, v any) (digest string, err error) {
	err = s.Tracker().Do(ctx, s.policy, func(ctx context.Context, m *resilience.Member) (err error) {
		digest, err = s.getJSONOn(ctx, m, path, v)
		return err
	})
	return digest, err
}

// getJSONOn performs one metadata request against one member. Under a
// traced caller each attempt is its own child span, stamped into the
// outgoing request so the member can continue the trace.
func (s *RemoteSource) getJSONOn(ctx context.Context, m *resilience.Member, path string, v any) (_ string, err error) {
	ctx, asp := trace.Child(ctx, "fleet.get",
		trace.Str("member", m.URL), trace.Str("path", path))
	defer func() { asp.Fail(err); asp.End() }()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.URL+path, nil)
	if err != nil {
		return "", err
	}
	if tp := asp.Traceparent(); tp != "" {
		req.Header.Set(trace.Header, tp)
	}
	resp, err := s.opts.Client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", statusError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return "", err
	}
	return resp.Header.Get(headerDigest), nil
}

// statusError decodes a member's non-200 answer. One the fleet decoder
// marks permanent (400, 404) is the caller's mistake — the same on every
// member — so it reads as ErrSpec too.
func statusError(resp *http.Response) error {
	err := resilience.StatusError(resp)
	if resilience.IsPermanent(err) {
		return fmt.Errorf("%w: %w", ErrSpec, err)
	}
	return err
}

// Tables implements Source via GET /v1/summary.
func (s *RemoteSource) Tables() ([]string, error) {
	var doc struct {
		Relations map[string]int64 `json:"relations"`
	}
	if _, err := s.getJSON(context.Background(), "/v1/summary", &doc); err != nil {
		return nil, err
	}
	return sortedNames(doc.Relations), nil
}

// Table implements Source via the tables endpoint's info=1 geometry
// answer, which generates nothing server-side.
func (s *RemoteSource) Table(name string) (*TableInfo, error) {
	info, _, err := s.tableInfo(context.Background(), name)
	return info, err
}

func (s *RemoteSource) tableInfo(ctx context.Context, name string) (*TableInfo, string, error) {
	var rep matgen.StreamReport
	path := "/v1/tables/" + url.PathEscape(name) + "?format=csv&info=1"
	digest, err := s.getJSON(ctx, path, &rep)
	if err != nil {
		return nil, "", err
	}
	if len(rep.Cols) == 0 {
		return nil, "", fmt.Errorf("scan: fleet server predates column reporting; upgrade `hydra serve`")
	}
	return &TableInfo{Table: name, Cols: rep.Cols, Rows: rep.TotalRows}, digest, nil
}

// Scan implements Source.
func (s *RemoteSource) Scan(ctx context.Context, spec Spec) (*Scan, error) {
	info, digest, err := s.tableInfo(ctx, spec.Table)
	if err != nil {
		return nil, err
	}
	r, err := resolve(spec, info)
	if err != nil {
		return nil, err
	}
	// The scan's row range was computed from this geometry, so the data
	// streams are pinned to the geometry's summary digest: a fleet
	// member loaded with a different database fails the scan instead of
	// silently truncating or padding it.
	f := &remoteFiller{
		src: s, spec: spec, end: r.hi,
		ncols:  len(r.cols),
		digest: digest,
		row:    make([]int64, len(r.cols)),
	}
	if r.filtered {
		// The filter travels to the server in canonical encoding and is
		// evaluated inside the encode stream, so only matching rows cross
		// the network. The client then needs each row's pk to place it on
		// the batch grid and to resume a torn stream (the offset space is
		// pre-filter, and a matching row's pk IS its position): when the
		// projection lacks the pk column it is appended to the request
		// and stripped before rows reach the batch.
		f.filtered = true
		f.filterEnc = spec.Filter.Encode()
		f.reqCols = spec.Columns
		f.pkIdx = -1
		if len(spec.Columns) == 0 {
			f.pkIdx = 0 // natural layout: pk first
		} else {
			for i, name := range spec.Columns {
				if name == info.Cols[0] {
					f.pkIdx = i
					break
				}
			}
			if f.pkIdx < 0 {
				f.reqCols = append(append([]string(nil), spec.Columns...), info.Cols[0])
				f.pkIdx = len(spec.Columns)
			}
		}
		nread := len(r.cols)
		if len(f.reqCols) > nread {
			nread = len(f.reqCols)
		}
		f.rowFull = make([]int64, nread)
		f.resumeAbs = r.lo
	}
	return newScan(ctx, r, f, s.m), nil
}

// remoteFiller decodes one csv table stream into batches, reopening at
// the current offset on another fleet member when a stream dies.
type remoteFiller struct {
	src   *RemoteSource
	spec  Spec
	end   int64 // absolute end of the scanned range
	ncols int

	body   io.ReadCloser
	rr     *csvReader
	pos    int64  // absolute row the open stream yields next
	digest string // summary digest pinned by the geometry (or first) response
	fails  int
	row    []int64

	// member is the fleet member serving the open stream; openedAt and
	// rowsRead feed its rows/s EWMA when the stream ends well.
	member   *resilience.Member
	openedAt time.Time
	rowsRead int64

	// Filtered mode: the server streams only matching rows, so stream
	// position and batch position decouple. Each row carries its pk (at
	// pkIdx of the requested layout), which places it on the batch grid
	// and is where a torn stream resumes — the offset space is always
	// pre-filter row numbers.
	filtered  bool
	filterEnc string   // canonical filter= value
	reqCols   []string // columns requested from the server (projection + pk)
	rowFull   []int64  // one decoded stream row, len == max(ncols, len(reqCols))
	pkIdx     int      // pk's index in the stream layout
	resumeAbs int64    // absolute offset to (re)open the stream at
	havePeek  bool     // rowFull holds an undelivered row
	exhausted bool     // server closed cleanly: no matches remain in range
}

func (f *remoteFiller) fill(ctx context.Context, b *tuplegen.Batch, lo, hi int64) error {
	if f.filtered {
		return f.fillFiltered(ctx, b, lo, hi)
	}
	n := int(hi - lo)
	cols := prepBatch(b, f.ncols, n, lo)
	for i := 0; i < n; i++ {
		abs := lo + int64(i)
		for {
			if f.rr == nil || f.pos != abs {
				if err := f.openAt(ctx, abs); err != nil {
					return err
				}
			}
			err := f.rr.next(f.row)
			if err == nil {
				break
			}
			if err := f.streamDied(ctx, err); err != nil {
				return err
			}
		}
		f.fails = 0 // a decoded row is progress
		f.rowsRead++
		for c := range cols {
			cols[c][i] = f.row[c]
		}
		f.pos++
	}
	return nil
}

// fillFiltered assigns server-delivered matching rows to the grid cell
// [lo,hi) by their pk, holding at most one looked-ahead row that
// belongs to a later cell. The stream is opened once for the whole
// range and reopened (possibly on another member) at the pk of the
// last row received if it dies; a clean end-of-stream means the server
// delivered every matching row in the range.
func (f *remoteFiller) fillFiltered(ctx context.Context, b *tuplegen.Batch, lo, hi int64) error {
	n := int(hi - lo)
	cols := prepBatch(b, f.ncols, n, lo)
	out := 0
	for out < n && !f.exhausted {
		if !f.havePeek {
			if err := f.readRow(ctx); err != nil {
				return err
			}
			if f.exhausted {
				break
			}
		}
		if pk := f.rowFull[f.pkIdx]; pk-1 >= hi {
			break // first row of a later cell; keep it as lookahead
		}
		for c := 0; c < f.ncols; c++ {
			cols[c][out] = f.rowFull[c]
		}
		out++
		f.havePeek = false
	}
	b.N = out
	return nil
}

// readRow decodes the next matching row into rowFull, resuming or
// failing over on stream death. A clean io.EOF — the server's chunked
// response ended with its terminal frame — sets exhausted instead: the
// filtered stream has no fixed row count, so "ended cleanly" is the
// protocol's only (and sufficient) end-of-matches signal; truncation
// surfaces as ErrUnexpectedEOF and resumes like any other death.
func (f *remoteFiller) readRow(ctx context.Context) error {
	for {
		if f.rr == nil {
			if err := f.openAt(ctx, f.resumeAbs); err != nil {
				return err
			}
		}
		err := f.rr.next(f.rowFull)
		if err == nil {
			f.fails = 0
			f.rowsRead++
			f.havePeek = true
			f.resumeAbs = f.rowFull[f.pkIdx] // this row's abs is pk-1; resume after it
			return nil
		}
		if errors.Is(err, io.EOF) {
			f.exhausted = true
			f.finishStream(false)
			f.closeBody()
			return nil
		}
		if err := f.streamDied(ctx, err); err != nil {
			return err
		}
	}
}

// streamDied settles a stream that broke mid-table (connection,
// truncation, torn row). nil means resume: the caller reopens at its
// exact row through openAt, on whichever member Do picks. A death is
// not an outcome of that call, so the filler bounds them itself: the
// scan ends once Attempts streams in a row died without a decoded row
// (fails resets on progress), or as soon as ctx is done.
func (f *remoteFiller) streamDied(ctx context.Context, err error) error {
	mRemoteResumes.Inc()
	cerr := ctx.Err()
	f.finishStream(cerr == nil) // a canceled scan is not the member's fault
	f.closeBody()
	if cerr != nil {
		return cerr
	}
	if f.fails++; f.fails >= f.src.opts.Attempts {
		return fmt.Errorf("scan: fleet exhausted after %d streams died without a row, last: %w", f.fails, err)
	}
	return nil
}

// openAt starts (or resumes) the table stream at absolute row abs on
// whichever member resilience.Do settles on, feeding the scan's own
// failover and busy counters from the attempts it makes.
func (f *remoteFiller) openAt(ctx context.Context, abs int64) error {
	f.closeBody()
	opens := 0
	err := f.src.Tracker().Do(ctx, f.src.policy, func(ctx context.Context, m *resilience.Member) error {
		if opens++; opens > 1 {
			mRemoteFailovers.Inc() // the open before this one failed and Do moved on
		}
		err := f.openOn(ctx, m, abs)
		if errors.As(err, new(*resilience.Busy)) {
			mRemoteBusy.Inc()
		}
		return err
	})
	if err == nil {
		f.pos = abs
	}
	return err
}

func (f *remoteFiller) openOn(ctx context.Context, member *resilience.Member, abs int64) (err error) {
	srv := member.URL
	// One child span per HTTP attempt: its duration is the
	// time-to-first-byte of the stream open, its error the reason the
	// failover loop moved on.
	ctx, asp := trace.Child(ctx, "scan.remote.attempt",
		trace.Str("member", srv), trace.Int("offset", abs))
	defer func() { asp.Fail(err); asp.End() }()
	q := url.Values{}
	q.Set("format", "csv")
	cols, nread := f.spec.Columns, f.ncols
	if f.filtered {
		cols = f.reqCols
		nread = len(f.rowFull)
		q.Set("filter", f.filterEnc)
	}
	if len(cols) > 0 {
		q.Set("columns", strings.Join(cols, ","))
	}
	if f.spec.FKSpread {
		q.Set("fkspread", "1")
	}
	q.Set("offset", strconv.FormatInt(abs, 10))
	if limit := f.end - abs; limit > 0 {
		q.Set("limit", strconv.FormatInt(limit, 10))
	}
	u := srv + "/v1/tables/" + url.PathEscape(f.spec.Table) + "?" + q.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	if tp := asp.Traceparent(); tp != "" {
		req.Header.Set(trace.Header, tp)
	}
	resp, err := f.src.opts.Client.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return statusError(resp)
	}
	if d := resp.Header.Get(headerDigest); d != "" {
		if f.digest == "" {
			f.digest = d
		} else if f.digest != d {
			resp.Body.Close()
			return fmt.Errorf("scan: fleet member serves summary %.12s…, scan started on %.12s… — cannot splice", d, f.digest)
		}
	}
	if f.filtered {
		// A server that predates predicate pushdown ignores filter= and
		// streams every row — silently wrong results, not an error. The
		// echo header proves the filter was applied; its absence is fatal
		// rather than retried, since the whole fleet runs one binary.
		if got := resp.Header.Get(headerFilter); got != f.filterEnc {
			resp.Body.Close()
			return resilience.Permanent(fmt.Errorf("%w: fleet member did not apply filter %q (echoed %q); upgrade `hydra serve`", ErrSpec, f.filterEnc, got))
		}
	}
	// The stream carries the csv header line exactly when it starts at
	// the very top of the table (server-side shard 0, offset 0 — we
	// always request the whole table and cut our own range via offset).
	rr, err := newCSVReader(resp.Body, nread, abs == 0)
	if err != nil {
		resp.Body.Close()
		return err
	}
	f.body, f.rr = resp.Body, rr
	// Do records this open's time-to-first-byte as the member's latency
	// observation; rows/s follows when the stream ends (finishStream).
	f.member, f.openedAt, f.rowsRead = member, time.Now(), 0
	return nil
}

// finishStream settles the open stream's member accounting: a failed
// stream counts against the member's breaker; a stream that delivered
// rows and ended well feeds its rows/s EWMA.
func (f *remoteFiller) finishStream(failed bool) {
	m := f.member
	if m == nil {
		return
	}
	f.member = nil
	if failed {
		m.ReportFailure()
		return
	}
	if d := time.Since(f.openedAt); f.rowsRead > 0 && d > 0 {
		m.ReportSuccess(0, float64(f.rowsRead)/d.Seconds())
	}
}

func (f *remoteFiller) closeBody() {
	if f.body != nil {
		f.body.Close()
		f.body, f.rr = nil, nil
	}
}

func (f *remoteFiller) close() error {
	// A scan closed with its stream still open read everything it
	// needed: that is a well-ended stream for EWMA purposes.
	f.finishStream(false)
	f.closeBody()
	return nil
}
