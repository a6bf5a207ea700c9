package scan

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/dsl-repro/hydra/internal/format"
	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/obs"
	"github.com/dsl-repro/hydra/internal/resilience"
	"github.com/dsl-repro/hydra/internal/trace"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// Fleet-client observability: how often streams died and resumed, how
// often the scan had to fail over to another member, and how often the
// fleet pushed back with 503 — the retry counters a capacity planner
// reads next to the server-side stream metrics — and where each scan's
// geometry came from: the remembered share is the share of scans that
// were one request.
var (
	mRemoteResumes = obs.Default.Counter("hydra_scan_remote_resumes_total",
		"table streams that died mid-scan and were resumed at their row offset")
	mRemoteFailovers = obs.Default.Counter("hydra_scan_remote_failovers_total",
		"failed stream opens that moved the scan to the next fleet member")
	mRemoteBusy = obs.Default.Counter("hydra_scan_remote_busy_total",
		"503 capacity rejections observed while opening streams")
	mRemotePlansRemembered = obs.Default.Counter("hydra_scan_remote_plans_total",
		"remote scans by where their table geometry came from: remembered, or fetched with info=1",
		obs.L("geometry", "remembered"))
	mRemotePlansFetched = obs.Default.Counter("hydra_scan_remote_plans_total",
		"remote scans by where their table geometry came from: remembered, or fetched with info=1",
		obs.L("geometry", "fetched"))
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
// (a few dozen bytes for thousands of rows), placed on the batch grid
// exactly as the summary backend's runs are — so projection happens
// here, while a filter travels to the server, which prunes runs before
// any byte is sent. If a server fails mid-table the scan resumes on the
// next fleet member at the exact row it had reached (a frame names its
// own first row, so a run clipped by the resume is still
// self-describing) — after checking the member serves the same summary
// digest, so a mixed fleet can never splice two different databases
// into one scan.
//
// A table's geometry — its columns and row count — is a function of the
// table and the summary digest, so the source remembers, per table, the
// geometry and digest of the last info=1 answer (from Table, or from a
// scan of a table it had not seen) and plans later scans from it: a warm
// scan is one request, the stream. The stream's summary digest checks
// the remembered geometry. When the fleet has moved to another summary,
// the scan drops that stream, fetches the geometry again and reopens
// pinned to the new digest — the two requests of a cold table; a member
// that refuses the remembered range (the table shrank) is read the same
// way. A range the remembered row count empties opens no stream to check
// it, so it is fetched again too; only a range no geometry can fill (an
// inverted pk range, an unsatisfiable filter) asks nothing.
type RemoteSource struct {
	resilience.Fleet
	opts   RemoteOptions
	policy resilience.Policy
	m      *backendMetrics

	mu  sync.Mutex
	geo map[string]geometry // by table: its last info=1 answer
}

// geometry is one info=1 answer: a table's natural layout and the digest
// of the summary the answering member serves.
type geometry struct {
	info   TableInfo
	digest string
}

var _ Source = (*RemoteSource)(nil)

// NewRemoteSource builds a source over the fleet's base URLs
// (e.g. "http://10.0.0.7:8372"). It remembers each table's geometry
// from the fleet's last answer for it, and checks it against the
// summary digest of every scan's stream.
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
		geo:    map[string]geometry{},
	}, nil
}

// headerDigest is serve's summary-identity header (serve.HeaderDigest;
// not imported so a future serve-on-scan layering stays cycle-free).
const headerDigest = "X-Hydra-Summary-Digest"

// headerFilter is serve's applied-filter echo header (serve.HeaderFilter).
const headerFilter = "X-Hydra-Filter"

// errNoDigest answers a tables response that names no summary; not retried.
var errNoDigest = resilience.Permanent(fmt.Errorf("%w: fleet member sent no %s; upgrade `hydra serve`", ErrSpec, headerDigest))

// getJSON fetches one JSON document through the fleet, returning the
// answering server's summary digest header (empty when it sent none).
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
	if strings.Contains(err.Error(), fmt.Sprintf("unknown format %q", format.Spans.Name())) {
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
// answer, which generates nothing server-side; later scans of the table
// plan from it.
func (s *RemoteSource) Table(name string) (*TableInfo, error) {
	g, err := s.fetchGeometry(context.Background(), name)
	if err != nil {
		return nil, err
	}
	info := g.info
	info.Cols = slices.Clone(info.Cols) // the remembered slice is shared by scans
	return &info, nil
}

// fetchGeometry asks the fleet for a table's geometry and remembers it.
// The answer must name its summary: only the digest tells two databases
// of one geometry (a spread summary and its plain copy) apart.
func (s *RemoteSource) fetchGeometry(ctx context.Context, name string) (geometry, error) {
	var rep matgen.StreamReport
	path := "/v1/tables/" + url.PathEscape(name) + "?format=" + format.Spans.Name() + "&info=1"
	digest, err := s.getJSON(ctx, path, &rep)
	if err != nil {
		return geometry{}, err
	}
	if len(rep.Cols) == 0 {
		return geometry{}, fmt.Errorf("scan: fleet server predates column reporting; upgrade `hydra serve`")
	}
	if digest == "" {
		return geometry{}, errNoDigest
	}
	g := geometry{info: TableInfo{Table: name, Cols: rep.Cols, Rows: rep.TotalRows}, digest: digest}
	s.mu.Lock()
	s.geo[name] = g
	s.mu.Unlock()
	return g, nil
}

// Scan implements Source. The stream of a non-empty range is open when
// Scan returns, so a scan planned from remembered geometry is one
// request.
func (s *RemoteSource) Scan(ctx context.Context, spec Spec) (*Scan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The span starts before the plan, so the geometry request and the
	// stream's open sit inside it.
	ctx, sp := trace.Child(ctx, "scan."+s.m.name, trace.Str("table", spec.Table))
	r, f, err := s.plan(ctx, spec)
	if err != nil {
		sp.Fail(err)
		sp.End()
		return nil, err
	}
	sp.SetAttrs(trace.Int("rows", r.hi-r.lo))
	return spannedScan(ctx, sp, r, runs(r, f, nil, r.proj), s.m), nil
}

// plan resolves spec against the table's geometry and opens the stream.
// A remembered geometry is fetched again when spec does not resolve
// against it — the fleet's summary may have the column it lacks — when
// its row count empties the range, or when the stream's digest or the
// member's refusal of the range says it is stale.
func (s *RemoteSource) plan(ctx context.Context, spec Spec) (*resolved, *remoteRuns, error) {
	s.mu.Lock()
	g, remembered := s.geo[spec.Table]
	s.mu.Unlock()
	for {
		if !remembered {
			var err error
			if g, err = s.fetchGeometry(ctx, spec.Table); err != nil {
				return nil, nil, err
			}
		}
		r, err := resolve(spec, &g.info)
		if err != nil {
			if remembered {
				remembered = false
				continue
			}
			return nil, nil, err
		}
		if remembered && r.lo == r.hi && !emptyEverywhere(spec) {
			// No stream would check the row count that emptied the range,
			// and the table may have grown since.
			remembered = false
			continue
		}
		// The scan's row range was computed from this geometry, so the data
		// streams are pinned to the geometry's summary digest: a fleet
		// member loaded with a different database fails the scan instead of
		// silently truncating or padding it.
		f := &remoteRuns{
			src: s, spec: spec,
			digest: g.digest, unconfirmed: remembered,
			dec: format.NewSpanDecoder(len(g.info.Cols), r.lo, r.hi, r.filtered),
		}
		if r.filtered {
			// The filter travels to the server in canonical encoding and
			// prunes runs inside the encode stream, so only matching runs
			// cross the network and there is nothing left to clip here.
			f.filterEnc = spec.Filter.Encode()
		}
		if r.lo < r.hi {
			if err := f.openAt(ctx, r.lo); err != nil {
				return nil, nil, err
			}
			if f.stale {
				remembered = false
				continue
			}
		}
		if remembered {
			mRemotePlansRemembered.Inc()
		} else {
			mRemotePlansFetched.Inc()
		}
		return r, f, nil
	}
}

// emptyEverywhere reports whether spec selects no row of any geometry:
// an inverted pk range, or a filter no row can match.
func emptyEverywhere(spec Spec) bool {
	return spec.EndPK != 0 && spec.EndPK < spec.StartPK || spec.Filter.Unsatisfiable()
}

// remoteRuns reads the runs of one spans stream, reopening at the
// current row on another fleet member when a stream dies. The decoder
// holds the scanned range and the position in it — the row after the
// last run received — which is both where a torn stream resumes and,
// under a filter, how far the server has already looked: offsets are
// always pre-filter row numbers.
type remoteRuns struct {
	src  *RemoteSource
	spec Spec

	body   io.ReadCloser
	dec    *format.SpanDecoder
	digest string // summary digest of the scan's geometry, which every stream must carry
	fails  int
	// unconfirmed holds while the geometry is a remembered one whose
	// digest no stream has carried yet; stale records that the first
	// stream carried another digest instead, or the member refused it.
	unconfirmed, stale bool

	// member is the fleet member serving the open stream; openedAt and
	// rowsRead feed its rows/s EWMA when the stream ends well.
	member   *resilience.Member
	openedAt time.Time
	rowsRead int64

	filterEnc string // the canonical filter= value of a filtered scan
}

// run decodes the next frame, resuming or failing over on stream death;
// a frame is a whole run, so max caps nothing. A filtered stream has no
// fixed row count, so its clean end — the terminal frame arrived — is
// the protocol's only (and sufficient) end-of-matches signal;
// truncation surfaces as ErrUnexpectedEOF and resumes like any death.
func (f *remoteRuns) run(ctx context.Context, _ int64) (*tuplegen.Span, error) {
	for {
		if f.dec.Pos() >= f.dec.End() {
			return nil, io.EOF // the last run received reached the range's end
		}
		if f.body == nil {
			if err := f.openAt(ctx, f.dec.Pos()); err != nil {
				return nil, err
			}
		}
		sp, err := f.dec.Next()
		if err == nil {
			f.fails = 0 // a decoded run is progress
			f.rowsRead += sp.N
			return sp, nil
		}
		if f.filterEnc != "" && errors.Is(err, io.EOF) {
			f.endStream(false)
			return nil, io.EOF
		}
		if err := f.streamDied(ctx, err); err != nil {
			return nil, err
		}
	}
}

// streamDied settles a stream that broke mid-table (connection,
// truncation, a frame the decoder refused). nil means resume: the
// caller reopens at its exact row through openAt, on whichever member
// Do picks. A death is not an outcome of that call, so the backend
// bounds them itself: the scan ends once Attempts streams in a row died
// without a decoded run (fails resets on progress), or as soon as ctx
// is done.
func (f *remoteRuns) streamDied(ctx context.Context, err error) error {
	mRemoteResumes.Inc()
	cerr := ctx.Err()
	f.endStream(cerr == nil) // a canceled scan is not the member's fault
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
func (f *remoteRuns) openAt(ctx context.Context, abs int64) error {
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

func (f *remoteRuns) openOn(ctx context.Context, member *resilience.Member, abs int64) (err error) {
	srv := member.URL
	// One child span per HTTP attempt: its duration is the
	// time-to-first-byte of the stream open, its error the reason the
	// failover loop moved on.
	ctx, asp := trace.Child(ctx, "scan.remote.attempt",
		trace.Str("member", srv), trace.Int("offset", abs))
	defer func() { asp.Fail(err); asp.End() }()
	q := url.Values{}
	q.Set("format", format.Spans.Name())
	if f.filterEnc != "" {
		q.Set("filter", f.filterEnc)
	}
	q.Set("offset", strconv.FormatInt(abs, 10))
	q.Set("limit", strconv.FormatInt(f.dec.End()-abs, 10))
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
		err := statusError(resp)
		if f.unconfirmed && errors.Is(err, ErrSpec) {
			// The member refused the range or table the remembered geometry
			// asked for — say the table shrank. That is the memory's fault
			// until the fleet's own geometry says otherwise: the scan plans
			// again, and the fetched plan reports any error that stays.
			f.stale = true
			return nil
		}
		return err
	}
	if d := resp.Header.Get(headerDigest); d != f.digest {
		switch {
		case d == "":
			resp.Body.Close()
			return errNoDigest
		case f.unconfirmed:
			// The member answered well, for another summary than the
			// remembered geometry's: the memory is stale, not the member
			// at fault. The scan plans again.
			resp.Body.Close()
			f.stale = true
			return nil
		default:
			resp.Body.Close()
			return fmt.Errorf("scan: fleet member serves summary %.12s…, scan started on %.12s… — cannot splice", d, f.digest)
		}
	}
	f.unconfirmed = false
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
	f.dec.Read(resp.Body)
	// Do records this open's time-to-first-byte as the member's latency
	// observation; rows/s follows when the stream ends (endStream).
	f.member, f.openedAt, f.rowsRead = member, time.Now(), 0
	return nil
}

// endStream closes the open stream, if any, and settles its member's
// accounting: a failed stream counts against the member's breaker; a
// stream that delivered rows and ended well feeds its rows/s EWMA.
func (f *remoteRuns) endStream(failed bool) {
	m := f.member
	if m == nil {
		return
	}
	f.body.Close()
	f.body, f.member = nil, nil
	if failed {
		m.ReportFailure()
		return
	}
	if d := time.Since(f.openedAt); f.rowsRead > 0 && d > 0 {
		m.ReportSuccess(0, float64(f.rowsRead)/d.Seconds())
	}
}

func (f *remoteRuns) close() error {
	// A scan closed with its stream still open read everything it
	// needed: that is a well-ended stream for EWMA purposes.
	f.endStream(false)
	return nil
}
