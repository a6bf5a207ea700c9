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
// over GET /v1/tables/{table}?format=spans. What crosses the network is
// the summary's run structure, not rows: each frame is one tuplegen.Span
// (a few dozen bytes for thousands of rows), and batches are filled from
// it with tuplegen.FillSpan exactly as the summary backend fills them —
// so projection happens here, as FillSpan's index list, while a filter
// still travels to the server, which prunes runs before any byte is
// sent. If a server fails mid-table the scan resumes on the next fleet
// member at the exact row it had reached (a frame names its own first
// row, so a run clipped by the resume is still self-describing) — after
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
// member — so it reads as ErrSpec too; a member too old to know the
// wire format says so in its 400, and gets named as the thing to fix.
func statusError(resp *http.Response) error {
	err := resilience.StatusError(resp)
	if !resilience.IsPermanent(err) {
		return err
	}
	if strings.Contains(err.Error(), `unknown format "spans"`) {
		err = fmt.Errorf("fleet member predates format=spans; upgrade `hydra serve` (%w)", err)
	}
	return fmt.Errorf("%w: %w", ErrSpec, err)
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
	path := "/v1/tables/" + url.PathEscape(name) + "?format=spans&info=1"
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
		src: s, spec: spec,
		proj: r.proj, ncols: len(r.cols),
		digest: digest,
		dec:    newSpanDecoder(len(info.Cols), r.lo, r.hi, r.filtered),
	}
	if r.filtered {
		// The filter travels to the server in canonical encoding and
		// prunes runs inside the encode stream, so only matching runs
		// cross the network.
		f.filterEnc = spec.Filter.Encode()
	}
	return newScan(ctx, r, f, s.m), nil
}

// remoteFiller places the runs of one spans stream on the batch grid,
// reopening at the current row on another fleet member when a stream
// dies. The decoder holds the scanned range and the position in it — the
// row after the last run received — which is both where a torn stream
// resumes and, under a filter, how far the server has already looked:
// offsets are always pre-filter row numbers.
type remoteFiller struct {
	src   *RemoteSource
	spec  Spec
	proj  []int // FillSpan's index list; nil = the natural layout
	ncols int   // output columns

	body   io.ReadCloser
	dec    *spanDecoder
	cur    tuplegen.Span // undelivered rest of the last run received
	digest string        // summary digest pinned by the geometry (or first) response
	fails  int

	// member is the fleet member serving the open stream; openedAt and
	// rowsRead feed its rows/s EWMA when the stream ends well.
	member   *resilience.Member
	openedAt time.Time
	rowsRead int64

	// Filtered mode (filterEnc, the canonical filter= value, is set): the
	// server streams only matching runs, so a grid cell may end with the
	// next run still ahead of it (kept in cur), and a clean end of stream
	// means no matches remain in range.
	filterEnc string
	exhausted bool
}

// fill places the runs (or parts of runs) that fall in [lo,hi) at the
// front of b. Unfiltered, the decoder insists runs tile the range, so
// the cell comes out full; filtered, it holds the cell's matches and a
// run starting at or beyond hi waits in cur for a later cell.
func (f *remoteFiller) fill(ctx context.Context, b *tuplegen.Batch, lo, hi int64) error {
	n := int(hi - lo)
	cols := prepBatch(b, f.ncols, n, lo)
	at := 0
	for at < n && !f.exhausted {
		if f.cur.N == 0 {
			if err := f.nextSpan(ctx); err != nil {
				return err
			}
			continue
		}
		first := f.cur.Start - 1
		if first >= hi {
			break
		}
		sp := f.cur
		sp.N = min(sp.N, hi-first)
		at = tuplegen.FillSpan(cols, at, &sp, f.proj)
		advance(&f.cur, sp.N)
	}
	b.Truncate(at)
	return nil
}

// nextSpan decodes the next run into cur, resuming or failing over on
// stream death. Under a filter a clean io.EOF — the server's chunked
// response ended with its terminal frame — sets exhausted instead: the
// filtered stream has no fixed row count, so "ended cleanly" is the
// protocol's only (and sufficient) end-of-matches signal; truncation
// surfaces as ErrUnexpectedEOF and resumes like any other death.
func (f *remoteFiller) nextSpan(ctx context.Context) error {
	for {
		if f.dec.pos >= f.dec.end {
			f.exhausted = true // the last run received reached the range's end
			return nil
		}
		if f.body == nil {
			if err := f.openAt(ctx, f.dec.pos); err != nil {
				return err
			}
		}
		sp, err := f.dec.next()
		if err == nil {
			f.fails = 0 // a decoded run is progress
			f.rowsRead += sp.N
			f.cur = sp
			return nil
		}
		if f.filterEnc != "" && errors.Is(err, io.EOF) {
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
// truncation, a frame the decoder refused). nil means resume: the
// caller reopens at its exact row through openAt, on whichever member
// Do picks. A death is not an outcome of that call, so the filler
// bounds them itself: the scan ends once Attempts streams in a row died
// without a decoded run (fails resets on progress), or as soon as ctx
// is done.
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
	return f.src.Tracker().Do(ctx, f.src.policy, func(ctx context.Context, m *resilience.Member) error {
		if opens++; opens > 1 {
			mRemoteFailovers.Inc() // the open before this one failed and Do moved on
		}
		err := f.openOn(ctx, m, abs)
		if errors.As(err, new(*resilience.Busy)) {
			mRemoteBusy.Inc()
		}
		return err
	})
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
	q.Set("format", "spans")
	if f.filterEnc != "" {
		q.Set("filter", f.filterEnc)
	}
	if f.spec.FKSpread {
		q.Set("fkspread", "1")
	}
	q.Set("offset", strconv.FormatInt(abs, 10))
	q.Set("limit", strconv.FormatInt(f.dec.end-abs, 10))
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
	if f.filterEnc != "" {
		// A server that predates predicate pushdown ignores filter= and
		// streams every row — silently wrong results, not an error. The
		// echo header proves the filter was applied; its absence is fatal
		// rather than retried, since the whole fleet runs one binary.
		if got := resp.Header.Get(headerFilter); got != f.filterEnc {
			resp.Body.Close()
			return resilience.Permanent(fmt.Errorf("%w: fleet member did not apply filter %q (echoed %q); upgrade `hydra serve`", ErrSpec, f.filterEnc, got))
		}
	}
	f.body = resp.Body
	f.dec.read(resp.Body)
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
		f.body = nil
	}
}

func (f *remoteFiller) close() error {
	// A scan closed with its stream still open read everything it
	// needed: that is a well-ended stream for EWMA purposes.
	f.finishStream(false)
	f.closeBody()
	return nil
}
