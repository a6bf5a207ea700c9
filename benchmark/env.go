package main

import (
	"context"
	"database/sql"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"

	"github.com/dsl-repro/hydra"
)

// need names the parts of the environment a workload's set-up builds.
// setup_s is the cost of exactly the parts the workload needs; the traced
// pass needs all of them because the ladder touches every layer.
type need uint

const (
	needInputs need = 1 << iota // the four summarize inputs
	needDS                      // the regenerated data set
	needDir                     // a csv materialization of ds, opened and first-touch verified
	needFleet                   // two serve members on loopback and a RemoteSource over them
	needSQL                     // a database/sql handle on a remote:// DSN over the fleet
	needProbe                   // the unstable-input probe

	needAll = needInputs | needDS | needDir | needFleet | needSQL | needProbe
)

// fleetSize is the number of serve members, so that resilience.Tracker.Pick
// has a choice to make on every request.
const fleetSize = 2

// env is what one set-up builds and one close tears down.
type env struct {
	sc     scale
	tmp    string // scratch directory inside the checkout
	tp     *substrate
	inputs []input
	probe  input
	ds     *dataset
	local  *hydra.SummarySource

	dirPath  string
	dirBytes int64 // part-file bytes of the materialization
	dir      *hydra.DirSource

	members []*httptest.Server
	urls    []string
	wire    atomic.Int64 // response-body bytes of /v1/tables/ requests, all members
	remote  *hydra.RemoteSource
	db      *sql.DB
}

// countingWriter counts response-body bytes; Unwrap keeps Flush and
// write deadlines reachable through http.ResponseController.
type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n.Add(int64(n))
	return n, err
}

func (w countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func workers() int { return runtime.GOMAXPROCS(0) }

// setup builds the parts named by needs under tmpRoot. On error the
// partial environment is closed.
func setup(ctx context.Context, sc scale, tmpRoot string, needs need) (_ *env, err error) {
	e := &env{sc: sc}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.tmp, err = os.MkdirTemp(tmpRoot, "env-"); err != nil {
		return nil, err
	}
	if e.tp, err = newTPCDS(); err != nil {
		return nil, err
	}
	if needs&needInputs != 0 {
		if e.inputs, err = summarizeInputs(sc, e.tp); err != nil {
			return nil, err
		}
	}
	if needs&needProbe != 0 {
		if e.probe, err = probeInput(e.tp); err != nil {
			return nil, err
		}
	}
	if needs&(needDS|needDir|needFleet|needSQL) == 0 {
		return e, nil
	}
	if e.ds, err = buildDataset(sc, e.tp); err != nil {
		return nil, err
	}
	e.local = hydra.NewSummarySource(e.ds.sum)
	if needs&needDir != 0 {
		if err = e.openDir(ctx); err != nil {
			return nil, err
		}
	}
	if needs&(needFleet|needSQL) != 0 {
		if err = e.startFleet(ctx); err != nil {
			return nil, err
		}
	}
	if needs&needSQL != 0 {
		if err = e.openSQL(ctx); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// openDir materializes ds as one csv shard with manifests, opens it, and
// touches every table once so the first-open SHA-256 verification of
// each part is paid in set-up, not in a timed op.
func (e *env) openDir(ctx context.Context) error {
	e.dirPath = filepath.Join(e.tmp, "dir")
	rep, err := hydra.Materialize(e.ds.sum, hydra.MaterializeOptions{Dir: e.dirPath, Format: "csv", Workers: workers()})
	if err != nil {
		return fmt.Errorf("materialize for scan-dir: %w", err)
	}
	e.dirBytes = rep.Bytes
	if e.dir, err = hydra.OpenDirSource(e.dirPath); err != nil {
		return err
	}
	for _, t := range e.ds.tables {
		if _, err := drain(ctx, e.dir, hydra.ScanSpec{Table: t.name, StartPK: 1, EndPK: 1}); err != nil {
			return fmt.Errorf("first touch of %s: %w", t.name, err)
		}
	}
	return nil
}

// startFleet mounts fleetSize serve handlers on loopback listeners in
// this process, builds the RemoteSource, and issues one request so the
// tracker's first probe and the first connection are behind it.
func (e *env) startFleet(ctx context.Context) error {
	for i := 0; i < fleetSize; i++ {
		h, err := hydra.NewServeHandler(e.ds.sum, hydra.ServeOptions{Workers: workers()})
		if err != nil {
			return err
		}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/tables/") {
				w = countingWriter{ResponseWriter: w, n: &e.wire}
			}
			h.ServeHTTP(w, r)
		}))
		e.members = append(e.members, srv)
		e.urls = append(e.urls, srv.URL)
	}
	var err error
	if e.remote, err = hydra.NewRemoteSource(e.urls, hydra.RemoteSourceOptions{}); err != nil {
		return err
	}
	first := e.ds.big[0]
	if _, err := drain(ctx, e.remote, hydra.ScanSpec{Table: first.name, StartPK: 1, EndPK: 1}); err != nil {
		return fmt.Errorf("first fleet request: %w", err)
	}
	return nil
}

func (e *env) openSQL(ctx context.Context) error {
	hosts := make([]string, len(e.urls))
	for i, u := range e.urls {
		hosts[i] = strings.TrimPrefix(u, "http://")
	}
	db, err := sql.Open(hydra.DriverName, "remote://"+strings.Join(hosts, ","))
	if err != nil {
		return err
	}
	// One client: the closed loop has a single request in flight.
	db.SetMaxOpenConns(1)
	e.db = db
	return db.PingContext(ctx)
}

// close releases everything setup acquired. Errors are reported but do
// not stop the teardown: nothing here holds data that must survive.
func (e *env) close() {
	if e.db != nil {
		warnIf("close sql handle", e.db.Close())
	}
	if e.remote != nil {
		warnIf("close remote source", e.remote.Close())
	}
	for _, m := range e.members {
		m.Close()
	}
	if e.dir != nil {
		warnIf("close dir source", e.dir.Close())
	}
	if e.tmp != "" {
		warnIf("remove scratch", os.RemoveAll(e.tmp))
	}
}

func warnIf(what string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", what, err)
	}
}

// drain runs one scan to its end and returns the rows it delivered.
func drain(ctx context.Context, src hydra.Source, spec hydra.ScanSpec) (int64, error) {
	sc, err := src.Scan(ctx, spec)
	if err != nil {
		return 0, err
	}
	var rows int64
	for sc.Next() {
		rows += int64(sc.Batch().N)
	}
	if err := sc.Err(); err != nil {
		sc.Close()
		return rows, err
	}
	return rows, sc.Close()
}
