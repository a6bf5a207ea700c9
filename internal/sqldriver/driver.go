// Package sqldriver exposes the unified read path through database/sql:
// every scan backend — a summary file, a materialized shard directory,
// a serve fleet — becomes a read-only SQL database of int64 columns.
//
//	db, err := sql.Open("hydra", "summary:///path/to/summary.json")
//	rows, err := db.Query("SELECT S_pk, A FROM S WHERE A BETWEEN 20 AND 59")
//
// The statement language is deliberately the scan API and nothing
// more: single-table SELECT with an optional column projection and an
// optional WHERE conjunction (the grammar of hydra.ParseWhere). Both
// halves push down — the projection selects which columns are
// generated, and the filter is evaluated span-wise in the summary
// backend, prunes part files in the directory backend, and travels to
// the fleet in the remote backend. Rows stream batch-wise; a query
// never materializes its full result.
//
// DSNs name a backend the way `hydra scan` flags do:
//
//	summary://path/to/summary.json   in-process regeneration
//	dir://path/to/materialized       part-file decode
//	remote://host:port,host:port     serve fleet (http:// assumed)
//
// with an optional ?batch=N parameter after the path.
// remote DSNs additionally accept fleet-resilience parameters:
// ?attempts=N caps failover attempts per request, ?probe=DUR sets the
// background health-probe cadence (?probe=off disables probing), and
// ?breaker=N sets the consecutive-failure threshold that trips a
// member's circuit breaker (?breaker=off disables breakers).
package sqldriver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"time"

	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/scan"
	"github.com/dsl-repro/hydra/internal/summary"
	"github.com/dsl-repro/hydra/internal/trace"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// Name is the driver name registered with database/sql.
const Name = "hydra"

func init() { sql.Register(Name, Driver{}) }

// Driver implements driver.Driver and driver.DriverContext over the
// scan backends.
type Driver struct{}

// Open implements driver.Driver; each call opens its own backend.
func (d Driver) Open(dsn string) (driver.Conn, error) {
	c, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background())
}

// OpenConnector implements driver.DriverContext: the DSN is parsed and
// the backend opened once, shared by every connection database/sql
// pools on top, and closed when the DB closes.
func (d Driver) OpenConnector(dsn string) (driver.Connector, error) {
	c := &connector{}
	if err := c.open(dsn); err != nil {
		return nil, err
	}
	return c, nil
}

// connector holds the one Source behind a sql.DB. Sources are safe for
// concurrent scans, so every connection shares it.
type connector struct {
	src   scan.Source
	batch int
}

func (c *connector) open(dsn string) error {
	scheme, rest, ok := strings.Cut(dsn, "://")
	if !ok {
		return fmt.Errorf("sqldriver: DSN %q: want summary://path, dir://path, or remote://host,host", dsn)
	}
	var remote scan.RemoteOptions
	fleetParams := false
	if path, query, ok := strings.Cut(rest, "?"); ok {
		rest = path
		q, err := url.ParseQuery(query)
		if err != nil {
			return fmt.Errorf("sqldriver: DSN parameters %q: %v", query, err)
		}
		if v := q.Get("batch"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return fmt.Errorf("sqldriver: batch wants a positive row count, got %q", v)
			}
			c.batch = n
		}
		if v := q.Get("attempts"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return fmt.Errorf("sqldriver: attempts wants a positive count, got %q", v)
			}
			remote.Attempts, fleetParams = n, true
		}
		if v := q.Get("probe"); v != "" {
			fleetParams = true
			if v == "off" {
				remote.Fleet.ProbeInterval = -1
			} else {
				d, err := time.ParseDuration(v)
				if err != nil || d <= 0 {
					return fmt.Errorf("sqldriver: probe wants a positive duration or \"off\", got %q", v)
				}
				remote.Fleet.ProbeInterval = d
			}
		}
		if v := q.Get("breaker"); v != "" {
			fleetParams = true
			if v == "off" {
				remote.Fleet.BreakerThreshold = -1
			} else {
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 {
					return fmt.Errorf("sqldriver: breaker wants a positive failure count or \"off\", got %q", v)
				}
				remote.Fleet.BreakerThreshold = n
			}
		}
	}
	if fleetParams && scheme != "remote" {
		return fmt.Errorf("sqldriver: fleet parameters (attempts, probe, breaker) only apply to remote:// DSNs")
	}
	if rest == "" {
		return fmt.Errorf("sqldriver: DSN %q names no backend path", dsn)
	}
	switch scheme {
	case "summary":
		sum, err := summary.Load(rest)
		if err != nil {
			return err
		}
		c.src = scan.NewSummarySource(sum)
	case "dir":
		src, err := scan.OpenDir(rest)
		if err != nil {
			return err
		}
		c.src = src
	case "remote":
		var servers []string
		for _, s := range strings.Split(rest, ",") {
			if s = strings.TrimSpace(s); s == "" {
				continue
			}
			if !strings.Contains(s, "://") {
				s = "http://" + s
			}
			servers = append(servers, s)
		}
		src, err := scan.NewRemoteSource(servers, remote)
		if err != nil {
			return err
		}
		c.src = src
	default:
		return fmt.Errorf("sqldriver: DSN scheme %q: want summary, dir, or remote", scheme)
	}
	return nil
}

// Connect implements driver.Connector.
func (c *connector) Connect(context.Context) (driver.Conn, error) { return &conn{c: c}, nil }

// Driver implements driver.Connector.
func (c *connector) Driver() driver.Driver { return Driver{} }

// Close implements io.Closer; database/sql calls it when the DB closes.
func (c *connector) Close() error { return c.src.Close() }

// errReadOnly answers every write-shaped request: regenerated data has
// exactly one state, the one the summary dictates.
var errReadOnly = errors.New("sqldriver: hydra databases are read-only")

// conn is one pooled connection; it carries no state beyond the shared
// backend, so connections are free.
type conn struct{ c *connector }

var (
	_ driver.Conn           = (*conn)(nil)
	_ driver.QueryerContext = (*conn)(nil)
)

// Prepare implements driver.Conn by validating the statement now and
// scanning at query time.
func (cn *conn) Prepare(query string) (driver.Stmt, error) {
	spec, err := cn.specFor(query)
	if err != nil {
		return nil, err
	}
	return &stmt{cn: cn, spec: spec}, nil
}

// Close implements driver.Conn; the backend belongs to the connector.
func (cn *conn) Close() error { return nil }

// Begin implements driver.Conn; there is nothing to transact.
func (cn *conn) Begin() (driver.Tx, error) { return nil, errReadOnly }

// QueryContext implements driver.QueryerContext: parse, scan, stream.
func (cn *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, errors.New("sqldriver: placeholder arguments are not supported")
	}
	spec, err := cn.specFor(query)
	if err != nil {
		return nil, err
	}
	return queryScan(ctx, cn.c.src, spec)
}

// queryScan opens a scan under a sql.query root span; the span ends
// when the rows close, so a trace covers the full result drain, with
// the backend's scan span (and any remote attempts) nested inside.
func queryScan(ctx context.Context, src scan.Source, spec scan.Spec) (driver.Rows, error) {
	ctx, sp := trace.Start(ctx, "sql.query", trace.Str("table", spec.Table))
	sc, err := src.Scan(ctx, spec)
	if err != nil {
		sp.Fail(err)
		sp.End()
		return nil, err
	}
	return &rows{sc: sc, sp: sp}, nil
}

// selectRe is the statement grammar: one table, optional projection,
// optional WHERE tail (parsed by pred.ParseWhere), optional semicolon.
var selectRe = regexp.MustCompile(`(?is)^\s*select\s+(.+?)\s+from\s+([A-Za-z_][A-Za-z0-9_]*)(?:\s+where\s+(.+?))?\s*;?\s*$`)

// specFor translates one SELECT statement into a scan spec.
func (cn *conn) specFor(query string) (scan.Spec, error) {
	m := selectRe.FindStringSubmatch(query)
	if m == nil {
		return scan.Spec{}, fmt.Errorf("sqldriver: want SELECT cols FROM table [WHERE conjunction], got %q", query)
	}
	spec := scan.Spec{Table: m[2], BatchRows: cn.c.batch}
	if cols := strings.TrimSpace(m[1]); cols != "*" {
		for _, col := range strings.Split(cols, ",") {
			col = strings.TrimSpace(col)
			if col == "" || !isIdent(col) {
				return scan.Spec{}, fmt.Errorf("sqldriver: bad column name %q (projections are plain column lists)", col)
			}
			spec.Columns = append(spec.Columns, col)
		}
	}
	if m[3] != "" {
		f, err := pred.ParseWhere(m[3])
		if err != nil {
			return scan.Spec{}, fmt.Errorf("sqldriver: WHERE: %v", err)
		}
		spec.Filter = f
	}
	return spec, nil
}

func isIdent(s string) bool {
	for i, r := range s {
		switch {
		case r == '_' || ('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z'):
		case i > 0 && '0' <= r && r <= '9':
		default:
			return false
		}
	}
	return s != ""
}

// stmt is a prepared SELECT; preparation only buys early validation.
type stmt struct {
	cn   *conn
	spec scan.Spec
}

var _ driver.StmtQueryContext = (*stmt)(nil)

// Close implements driver.Stmt.
func (s *stmt) Close() error { return nil }

// NumInput implements driver.Stmt; the grammar has no placeholders.
func (s *stmt) NumInput() int { return 0 }

// Exec implements driver.Stmt.
func (s *stmt) Exec([]driver.Value) (driver.Result, error) { return nil, errReadOnly }

// Query implements driver.Stmt.
func (s *stmt) Query([]driver.Value) (driver.Rows, error) {
	return s.QueryContext(context.Background(), nil)
}

// QueryContext implements driver.StmtQueryContext.
func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, errors.New("sqldriver: placeholder arguments are not supported")
	}
	return queryScan(ctx, s.cn.c.src, s.spec)
}

// rows streams a scan's column-major batches out row by row.
type rows struct {
	sc *scan.Scan
	sp *trace.Span
	b  *tuplegen.Batch
	i  int
}

var _ driver.Rows = (*rows)(nil)

// Columns implements driver.Rows.
func (r *rows) Columns() []string { return r.sc.Cols() }

// Close implements driver.Rows. The scan recycles its batch on Close, so
// the rows drop their reference to it first.
func (r *rows) Close() error {
	r.b = nil
	err := r.sc.Close()
	r.sp.Fail(r.sc.Err())
	r.sp.Fail(err)
	r.sp.End()
	return err
}

// Next implements driver.Rows, pulling the next batch when the current
// one is drained. Values are always int64 — the only type hydra
// generates.
func (r *rows) Next(dest []driver.Value) error {
	for r.b == nil || r.i >= r.b.N {
		if !r.sc.Next() {
			if err := r.sc.Err(); err != nil {
				return err
			}
			return io.EOF
		}
		r.b, r.i = r.sc.Batch(), 0
	}
	for c := range dest {
		dest[c] = r.b.Cols[c][r.i]
	}
	r.i++
	return nil
}
