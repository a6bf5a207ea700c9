// Cross-backend conformance: for any Spec, SummarySource, MemSource,
// DirSource, and RemoteSource must yield the identical sequence of
// batches — same boundaries, same values, same order. This suite is the
// contract named in the package comment; every backend bug is a diff
// against the summary reference.
package scan_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/obs"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/resilience"
	"github.com/dsl-repro/hydra/internal/scan"
	"github.com/dsl-repro/hydra/internal/serve"
	"github.com/dsl-repro/hydra/internal/summary"
	"github.com/dsl-repro/hydra/internal/trace"
)

func testSummary() *summary.Summary {
	tRel := &summary.RelationSummary{
		Table: "T", Cols: []string{"C"},
		Rows: []summary.RelRow{
			{Vals: []int64{2}, Count: 900},
			{Vals: []int64{7}, Count: 613},
		},
		Total: 1513,
	}
	sRel := &summary.RelationSummary{
		Table: "S", Cols: []string{"A", "B"}, FKCols: []string{"t_fk"}, FKRefs: []string{"T"},
		Rows: []summary.RelRow{
			{Vals: []int64{20, 15}, FKs: []int64{1}, FKSpans: []int64{900}, Count: 3001},
			{Vals: []int64{20, 40}, FKs: []int64{901}, FKSpans: []int64{613}, Count: 2500},
			{Vals: []int64{61, 15}, FKs: []int64{1}, FKSpans: []int64{900}, Count: 2707},
		},
		Total: 8208,
	}
	return &summary.Summary{Relations: map[string]*summary.RelationSummary{"S": sRel, "T": tRel}}
}

// longSummary is testSummary with every run eight times as long: S has
// 65 664 rows and T 12 104, so both span several chunks of the 8 192-row
// grid the engine writes and serves uncompressed output on, and a spans
// stream of S is eleven frames.
func longSummary() *summary.Summary {
	sum := testSummary()
	for _, rs := range sum.Relations {
		for i := range rs.Rows {
			rs.Rows[i].Count *= 8
		}
		rs.Total *= 8
	}
	return sum
}

// capturedBatch is one batch deep-copied out of a scan.
type capturedBatch struct {
	start int64
	cols  [][]int64
}

// drain runs one scan to completion and deep-copies its batch sequence.
func drain(t *testing.T, src scan.Source, spec scan.Spec) []capturedBatch {
	t.Helper()
	out, err := tryDrain(src, spec)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

// tryDrain is drain for a scan that may fail.
func tryDrain(src scan.Source, spec scan.Spec) ([]capturedBatch, error) {
	sc, err := src.Scan(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	var out []capturedBatch
	for sc.Next() {
		b := sc.Batch()
		cb := capturedBatch{start: b.Start, cols: make([][]int64, len(b.Cols))}
		for c, col := range b.Cols {
			cb.cols[c] = append([]int64(nil), col[:b.N]...)
		}
		out = append(out, cb)
	}
	return out, sc.Err()
}

func diffBatches(t *testing.T, name string, got, want []capturedBatch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d batches, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].start != want[i].start {
			t.Fatalf("%s: batch %d starts at %d, want %d", name, i, got[i].start, want[i].start)
		}
		if len(got[i].cols) != len(want[i].cols) {
			t.Fatalf("%s: batch %d has %d cols, want %d", name, i, len(got[i].cols), len(want[i].cols))
		}
		for c := range want[i].cols {
			gc, wc := got[i].cols[c], want[i].cols[c]
			if len(gc) != len(wc) {
				t.Fatalf("%s: batch %d col %d has %d rows, want %d", name, i, c, len(gc), len(wc))
			}
			for r := range wc {
				if gc[r] != wc[r] {
					t.Fatalf("%s: batch %d col %d row %d = %d, want %d (pk %d)",
						name, i, c, r, gc[r], wc[r], got[i].start+int64(r))
				}
			}
		}
	}
}

// memCopy reads every relation of src into memory.
func memCopy(t *testing.T, src scan.Source) *scan.MemSource {
	t.Helper()
	names, err := src.Tables()
	if err != nil {
		t.Fatal(err)
	}
	var tables []scan.MemTable
	for _, name := range names {
		mt := scan.MemTable{Name: name}
		for _, b := range drain(t, src, scan.Spec{Table: name}) {
			if mt.Data == nil {
				mt.Data = make([][]int64, len(b.cols))
			}
			for c, col := range b.cols {
				mt.Data[c] = append(mt.Data[c], col...)
			}
		}
		info, err := src.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		mt.Cols = info.Cols
		tables = append(tables, mt)
	}
	mem, err := scan.NewMemSource(tables...)
	if err != nil {
		t.Fatal(err)
	}
	return mem
}

// materializeDir produces one scannable directory, its FKs spread when
// the summary's are.
func materializeDir(t *testing.T, sum *summary.Summary, format, compress string, shards int) string {
	t.Helper()
	dir := t.TempDir()
	for i := 0; i < shards; i++ {
		if _, err := matgen.Materialize(sum, matgen.Options{
			Dir: dir, Format: format, Compress: compress,
			Shards: shards, Shard: i, Workers: 2,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestConformance is the acceptance matrix: every spec against every
// backend, with the summary source as the reference, for a plain and a
// spread summary.
func TestConformance(t *testing.T) {
	spreadSum := *testSummary()
	spreadSum.FKSpread = true

	specs := []scan.Spec{
		{Table: "T"},
		{Table: "S", BatchRows: 777},
		{Table: "S", Columns: []string{"S_pk", "A", "t_fk"}, BatchRows: 1000},
		{Table: "S", Columns: []string{"t_fk", "B"}, BatchRows: 513}, // reordered, pk-less
		{Table: "S", StartPK: 2500, EndPK: 7001, BatchRows: 640},
		{Table: "S", Shards: 3, Shard: 1, BatchRows: 999},
		{Table: "S", StartPK: 100, EndPK: 8000, Shards: 4, Shard: 3, Columns: []string{"A", "S_pk"}, BatchRows: 451},
		{Table: "S", StartPK: 9000},                          // empty: past the end
		{Table: "T", StartPK: 900, EndPK: 900, BatchRows: 1}, // single row
		// Filtered specs: every backend must prune to the identical
		// batch sequence, whatever its pushdown mechanism.
		{Table: "S", Filter: pred.Col("A").Eq(20), BatchRows: 777},                                                               // drops a whole run group
		{Table: "S", Filter: pred.Col("A").Eq(99)},                                                                               // empty result
		{Table: "S", Filter: pred.Col("S_pk").In(4000, 4007), BatchRows: 513},                                                    // ~0.1% selectivity
		{Table: "S", Filter: pred.Col("A").AtLeast(0), BatchRows: 999},                                                           // filtered, everything passes
		{Table: "S", Filter: pred.Col("t_fk").In(100, 260), BatchRows: 640},                                                      // FK column (per-row under spread)
		{Table: "S", StartPK: 2500, EndPK: 7001, Filter: pred.Col("B").Eq(40)},                                                   // filter + pk range
		{Table: "S", Columns: []string{"t_fk", "B"}, BatchRows: 500, Filter: pred.Col("A").In(20, 60).And(pred.Col("B").Eq(15))}, // pk-less projection + filter on a projected-out column
	}

	for _, sum := range []*summary.Summary{testSummary(), &spreadSum} {
		ref := scan.NewSummarySource(sum)
		// One fleet per summary, shared by all its remote cases.
		srv, err := serve.NewServer(sum, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts1 := httptest.NewServer(srv)
		defer ts1.Close()
		ts2 := httptest.NewServer(srv)
		defer ts2.Close()
		remote, err := scan.NewRemoteSource([]string{ts1.URL, ts2.URL}, scan.RemoteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer remote.Close()
		// Every directory is materialized from the same summary, so it
		// holds the same FK layout the generating backends produce.
		dirs := map[string]string{
			"dir/csv":      materializeDir(t, sum, "csv", "", 1),
			"dir/csv+gzip": materializeDir(t, sum, "csv", "gzip", 3),
			"dir/jsonl":    materializeDir(t, sum, "jsonl", "", 2),
			"dir/heap":     materializeDir(t, sum, "heap", "", 3),
			// Frames are clipped at chunk (8 192-row, or 2 048 compressed)
			// and shard boundaries, so these also scan across runs split
			// mid-way.
			"dir/spans":      materializeDir(t, sum, "spans", "", 3),
			"dir/spans+gzip": materializeDir(t, sum, "spans", "gzip", 2),
		}
		mem := memCopy(t, ref)
		for _, spec := range specs {
			want := drain(t, ref, spec)
			name := fmt.Sprintf("spread=%v/%s", sum.FKSpread, specName(spec))
			t.Run(name, func(t *testing.T) {
				for label, dir := range dirs {
					src, err := scan.OpenDir(dir)
					if err != nil {
						t.Fatal(err)
					}
					diffBatches(t, label, drain(t, src, spec), want)
				}
				diffBatches(t, "remote", drain(t, remote, spec), want)
				diffBatches(t, "mem", drain(t, mem, spec), want)
			})
		}
	}

	// Positioned reads: a scan may start anywhere, and a directory scan
	// gets there by seeking to a chunk of the manifest's index and
	// skipping the rest. Every format × codec × split is started one row
	// before, at, and one row after every chunk boundary it was written
	// with, from one long-lived source, and then again with the index
	// struck from its manifests — the one-chunk case of the same code,
	// which is also what a directory written before the index looks like.
	t.Run("dir/ranged", func(t *testing.T) {
		long := longSummary()
		long.FKSpread = true
		ref := scan.NewSummarySource(long)
		for _, format := range []string{"csv", "jsonl", "heap", "spans"} {
			for _, compress := range []string{"", "gzip"} {
				for _, shards := range []int{1, 3} {
					label := fmt.Sprintf("%s+%s/%d", format, compress, shards)
					dir := materializeDir(t, long, format, compress, shards)
					starts := chunkEdgeRows(t, dir, "S")
					if len(starts) < 3*int(long.Relations["S"].Total/8192) {
						t.Fatalf("%s: only %d ranged starts; the index is missing or coarse", label, len(starts))
					}
					diffRanged(t, label, dir, ref, starts)
					rewriteManifests(t, dir, func(tr *matgen.TableReport) { tr.ChunkRows, tr.Offsets = 0, nil })
					diffRanged(t, label+"/no-index", dir, ref, starts)
				}
			}
		}
	})
}

// readManifests loads every shard manifest of dir, by path.
func readManifests(t *testing.T, dir string) map[string]*matgen.Manifest {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "manifest-*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("manifests of %s: %v, %v", dir, paths, err)
	}
	out := map[string]*matgen.Manifest{}
	for _, path := range paths {
		if out[path], err = matgen.ReadManifest(path); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// rewriteManifests applies mutate to every table report of every
// manifest in dir and writes the manifests back.
func rewriteManifests(t *testing.T, dir string, mutate func(*matgen.TableReport)) {
	t.Helper()
	for path, m := range readManifests(t, dir) {
		for i := range m.Tables {
			mutate(&m.Tables[i])
		}
		b, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// chunkEdgeRows lists, for every chunk of every part of table in dir,
// the absolute rows one before, at, and one after the chunk's first.
func chunkEdgeRows(t *testing.T, dir, table string) []int64 {
	t.Helper()
	var rows []int64
	for _, m := range readManifests(t, dir) {
		for _, tr := range m.Tables {
			if tr.Table != table {
				continue
			}
			for i := range tr.Offsets {
				edge := tr.StartRow + int64(i)*tr.ChunkRows
				for _, row := range []int64{edge - 1, edge, edge + 1} {
					if row >= 0 && row < tr.TotalRows {
						rows = append(rows, row)
					}
				}
			}
		}
	}
	return rows
}

// diffRanged scans 700 rows — past the next chunk edge, and often the
// next part's — from each start, against the summary reference.
func diffRanged(t *testing.T, label, dir string, ref scan.Source, starts []int64) {
	t.Helper()
	src, err := scan.OpenDir(dir)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	defer src.Close()
	for _, row := range starts {
		spec := scan.Spec{Table: "S", StartPK: row + 1, EndPK: row + 700, BatchRows: 300}
		diffBatches(t, fmt.Sprintf("%s from row %d", label, row), drain(t, src, spec), drain(t, ref, spec))
	}
}

func specName(s scan.Spec) string {
	parts := []string{s.Table}
	if len(s.Columns) > 0 {
		parts = append(parts, "cols="+strings.Join(s.Columns, "+"))
	}
	if s.StartPK != 0 || s.EndPK != 0 {
		parts = append(parts, fmt.Sprintf("pk=%d-%d", s.StartPK, s.EndPK))
	}
	if s.Shards > 1 {
		parts = append(parts, fmt.Sprintf("shard=%d_%d", s.Shard, s.Shards))
	}
	if s.BatchRows != 0 {
		parts = append(parts, fmt.Sprintf("batch=%d", s.BatchRows))
	}
	if !s.Filter.Empty() {
		parts = append(parts, "where="+s.Filter.Encode())
	}
	return strings.Join(parts, ",")
}

// truncatingHandler kills two of every three table streams after a byte
// budget, forcing RemoteSource to resume mid-table, usually on the next
// fleet member. Handlers run concurrently (the tracker's /healthz probes
// race the data requests), so the counts are atomic. A
// spans body is a few hundred bytes where the csv one was a megabyte, so
// the budget is a fraction of that — and cuts counts the streams that
// actually reached it, because a budget larger than the body tears
// nothing and the test would pass without testing.
type truncatingHandler struct {
	inner http.Handler
	limit int64
	n     atomic.Int64
	cuts  atomic.Int64
}

type truncWriter struct {
	http.ResponseWriter
	left int64
	cuts *atomic.Int64
}

func (w *truncWriter) Write(p []byte) (int, error) {
	if int64(len(p)) >= w.left {
		// Flush what fits, so the client sees a stream that started and
		// died rather than a connection that never answered.
		w.ResponseWriter.Write(p[:w.left])
		http.NewResponseController(w.ResponseWriter).Flush()
		w.cuts.Add(1)
		panic(http.ErrAbortHandler) // tear the connection, no clean EOF
	}
	w.left -= int64(len(p))
	return w.ResponseWriter.Write(p)
}

func (h *truncatingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	stream := strings.HasPrefix(r.URL.Path, "/v1/tables/") && !strings.Contains(r.URL.RawQuery, "info=1")
	if stream && h.n.Add(1)%3 != 0 {
		h.inner.ServeHTTP(&truncWriter{ResponseWriter: w, left: h.limit, cuts: &h.cuts}, r)
		return
	}
	h.inner.ServeHTTP(w, r)
}

// flakyFleet is a two-member fleet over sum that tears two of every
// three streams after 30 bytes, two frames or so, whichever member they
// land on. A scan of longSummary's S (eleven frames, 177 bytes; 109
// under B=15) thus takes exactly three streams, the last one whole, so
// every scan starts on a stream that tears.
func flakyFleet(t *testing.T, sum *summary.Summary) (*scan.RemoteSource, *truncatingHandler) {
	t.Helper()
	srv, err := serve.NewServer(sum, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := &truncatingHandler{inner: srv, limit: 30}
	var urls []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	remote, err := scan.NewRemoteSource(urls, scan.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	return remote, h
}

// remoteResumes reads the process-wide resume counter.
func remoteResumes() int64 {
	return obs.Default.Counter("hydra_scan_remote_resumes_total", "").Value()
}

// TestRemoteResumeMidTable proves resume-on-offset: with a fleet whose
// members keep dying mid-stream, the scan still delivers the exact
// reference batch sequence — and streams did die.
func TestRemoteResumeMidTable(t *testing.T) {
	sum := longSummary()
	remote, flaky := flakyFleet(t, sum)
	spec := scan.Spec{Table: "S", BatchRows: 500, Columns: []string{"S_pk", "A", "B"}}
	want := drain(t, scan.NewSummarySource(sum), spec)
	before := remoteResumes()
	diffBatches(t, "flaky-fleet", drain(t, remote, spec), want)
	if flaky.cuts.Load() == 0 || remoteResumes() == before {
		t.Fatalf("no stream was torn (%d cuts, %d resumes): the fixture no longer lands inside the body",
			flaky.cuts.Load(), remoteResumes()-before)
	}
}

// TestRemoteResumeFiltered proves resume under predicate pushdown: the
// stream carries only matching runs, so when a member dies the scan
// must resume after the last run it received, not at a row count — and
// a projection that leaves the pk out changes nothing, the run's
// position travels in the frame.
func TestRemoteResumeFiltered(t *testing.T) {
	sum := longSummary()
	remote, flaky := flakyFleet(t, sum)
	ref := scan.NewSummarySource(sum)
	for name, spec := range map[string]scan.Spec{
		"with-pk": {Table: "S", BatchRows: 500, Columns: []string{"S_pk", "A", "B"}, Filter: pred.Col("B").Eq(15)},
		"no-pk":   {Table: "S", BatchRows: 500, Columns: []string{"A", "B"}, Filter: pred.Col("B").Eq(15)},
	} {
		t.Run(name, func(t *testing.T) {
			cuts, resumes := flaky.cuts.Load(), remoteResumes()
			diffBatches(t, name, drain(t, remote, spec), drain(t, ref, spec))
			if flaky.cuts.Load() == cuts || remoteResumes() == resumes {
				t.Fatal("no stream was torn: the fixture no longer lands inside the body")
			}
		})
	}
}

// cutOnceHandler tears the next data stream at exactly cutAt bytes
// (0 = pass through) and reports the body size of streams it let pass.
type cutOnceHandler struct {
	inner http.Handler
	cutAt atomic.Int64
	cuts  atomic.Int64
	size  atomic.Int64
}

type sizeWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w *sizeWriter) Write(p []byte) (int, error) {
	w.n.Add(int64(len(p)))
	return w.ResponseWriter.Write(p)
}

func (h *cutOnceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.URL.RawQuery, "info=1") || !strings.HasPrefix(r.URL.Path, "/v1/tables/") {
		h.inner.ServeHTTP(w, r)
		return
	}
	if at := h.cutAt.Swap(0); at > 0 {
		h.inner.ServeHTTP(&truncWriter{ResponseWriter: w, left: at, cuts: &h.cuts}, r)
		return
	}
	h.size.Store(0)
	h.inner.ServeHTTP(&sizeWriter{ResponseWriter: w, n: &h.size}, r)
}

// TestRemoteResumeAtEveryByte: a stream torn after any number of bytes
// — on a frame boundary or inside a frame — resumes to exactly the
// uninterrupted batch sequence, filtered or not, spread or not.
func TestRemoteResumeAtEveryByte(t *testing.T) {
	spread := *longSummary()
	spread.FKSpread = true
	for name, tc := range map[string]struct {
		sum  *summary.Summary
		spec scan.Spec
	}{
		"plain":    {longSummary(), scan.Spec{Table: "S", BatchRows: 700, Columns: []string{"t_fk", "B"}}},
		"spread":   {&spread, scan.Spec{Table: "S", BatchRows: 700}},
		"filtered": {&spread, scan.Spec{Table: "S", BatchRows: 700, Filter: pred.Col("t_fk").In(100, 260)}},
	} {
		t.Run(name, func(t *testing.T) {
			srv, err := serve.NewServer(tc.sum, serve.Options{})
			if err != nil {
				t.Fatal(err)
			}
			h := &cutOnceHandler{inner: srv}
			ts := httptest.NewServer(h)
			defer ts.Close()
			remote, err := scan.NewRemoteSource([]string{ts.URL}, scan.RemoteOptions{
				Fleet: resilience.Options{ProbeInterval: -1, BreakerThreshold: -1},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Close()
			spec := tc.spec
			want := drain(t, scan.NewSummarySource(tc.sum), spec)
			diffBatches(t, "uninterrupted", drain(t, remote, spec), want)
			size := h.size.Load()
			if size < 100 {
				t.Fatalf("body is %d bytes; expected a few hundred", size)
			}
			for cut := int64(1); cut < size; cut++ {
				h.cutAt.Store(cut)
				cuts, resumes := h.cuts.Load(), remoteResumes()
				diffBatches(t, fmt.Sprintf("cut@%d/%d", cut, size), drain(t, remote, spec), want)
				if h.cuts.Load() != cuts+1 || remoteResumes() != resumes+1 {
					t.Fatalf("cut@%d: %d cuts, %d resumes, want one of each", cut, h.cuts.Load()-cuts, remoteResumes()-resumes)
				}
			}
		})
	}
}

// TestRemoteOldMemberNamed: a fleet member built before the spans
// format answers the request with a 400; the scan fails at once, as a
// spec error that names the upgrade — there is no csv path to fall
// back to.
func TestRemoteOldMemberNamed(t *testing.T) {
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "spans" {
			http.Error(w, `matgen: invalid stream request: matgen: unknown format "spans" (have csv, discard, heap, jsonl, sql)`, http.StatusBadRequest)
			return
		}
		http.NotFound(w, r)
	}))
	defer old.Close()
	remote, err := scan.NewRemoteSource([]string{old.URL}, scan.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	_, err = remote.Scan(context.Background(), scan.Spec{Table: "S"})
	if !errors.Is(err, scan.ErrSpec) || !strings.Contains(err.Error(), "upgrade `hydra serve`") {
		t.Fatalf("err = %v, want a spec error naming the upgrade", err)
	}
}

// shortRunsSummary is testSummary with S cut into 16-row runs, its three
// summary rows in turn: a spans stream of it is one frame per 16 rows,
// whatever the server's chunk grid.
func shortRunsSummary() *summary.Summary {
	sum := testSummary()
	s := sum.Relations["S"]
	rows := s.Rows
	s.Rows = nil
	for i := 0; i < 600; i++ {
		r := rows[i%len(rows)]
		r.Count = 16
		s.Rows = append(s.Rows, r)
	}
	s.Total = 600 * 16
	return sum
}

// TestRemoteFillAllocs pins the point of shipping runs instead of rows:
// once the stream is open and the batch has its capacity, placing runs
// on the grid allocates nothing — no per-row, per-frame or per-batch
// garbage — with and without a projection, spread FKs and a filter.
func TestRemoteFillAllocs(t *testing.T) {
	spread := *shortRunsSummary()
	spread.FKSpread = true
	for name, tc := range map[string]struct {
		sum  *summary.Summary
		spec scan.Spec
	}{
		"plain":     {shortRunsSummary(), scan.Spec{Table: "S", BatchRows: 16}},
		"projected": {&spread, scan.Spec{Table: "S", BatchRows: 16, Columns: []string{"t_fk", "A"}}},
		"filtered":  {&spread, scan.Spec{Table: "S", BatchRows: 16, Filter: pred.Col("A").Eq(20)}},
	} {
		t.Run(name, func(t *testing.T) {
			// Runs as short as the client's batches: every measured batch
			// decodes at least one frame of its own.
			srv, err := serve.NewServer(tc.sum, serve.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			// No background probes: AllocsPerRun counts the whole process.
			remote, err := scan.NewRemoteSource([]string{ts.URL}, scan.RemoteOptions{
				Fleet: resilience.Options{ProbeInterval: -1},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Close()
			sc, err := remote.Scan(context.Background(), tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			// The first batches open the stream and size the batch; the
			// pause lets the server's handler finish writing the (few-
			// kilobyte) body, so only this goroutine is allocating.
			for i := 0; i < 5 && sc.Next(); i++ {
			}
			time.Sleep(20 * time.Millisecond)
			const batches = 200
			allocs := testing.AllocsPerRun(batches, func() {
				if !sc.Next() {
					t.Fatalf("scan ended early: %v", sc.Err())
				}
			})
			if allocs != 0 {
				t.Fatalf("%.1f allocs per batch, want 0", allocs)
			}
		})
	}
}

// filterStrippingHandler forwards to the real server but removes the
// filter echo header — impersonating a fleet member that predates
// predicate pushdown and would silently stream every row.
type filterStrippingHandler struct{ inner http.Handler }

type headerStripWriter struct {
	http.ResponseWriter
	name string
}

func (w *headerStripWriter) WriteHeader(code int) {
	w.Header().Del(w.name)
	w.ResponseWriter.WriteHeader(code)
}

func (w *headerStripWriter) Write(p []byte) (int, error) {
	w.Header().Del(w.name) // the first body write flushes headers too
	return w.ResponseWriter.Write(p)
}

func (h *filterStrippingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.inner.ServeHTTP(&headerStripWriter{ResponseWriter: w, name: "X-Hydra-Filter"}, r)
}

// TestRemoteDigestRequired: a tables answer that names no summary is
// refused — the geometry answer, or a stream whose geometry did name
// one — since the digest is all that tells a spread database from a
// plain one of the same geometry. The scan fails as a spec error that
// names the upgrade.
func TestRemoteDigestRequired(t *testing.T) {
	srv, err := serve.NewServer(testSummary(), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, streamsOnly := range map[string]bool{"geometry": false, "stream": true} {
		t.Run(name, func(t *testing.T) {
			old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if streamsOnly && strings.Contains(r.URL.RawQuery, "info=1") {
					srv.ServeHTTP(w, r)
					return
				}
				srv.ServeHTTP(&headerStripWriter{ResponseWriter: w, name: serve.HeaderDigest}, r)
			}))
			defer old.Close()
			remote, err := scan.NewRemoteSource([]string{old.URL}, scan.RemoteOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Close()
			_, err = remote.Scan(context.Background(), scan.Spec{Table: "S"})
			if !errors.Is(err, scan.ErrSpec) || !strings.Contains(err.Error(), "upgrade `hydra serve`") {
				t.Fatalf("err = %v, want a spec error naming the upgrade", err)
			}
		})
	}
}

// TestRemoteFilterEchoRequired proves the downgrade guard: a filtered
// scan against a fleet that does not acknowledge the filter fails
// loudly instead of returning unfiltered rows.
func TestRemoteFilterEchoRequired(t *testing.T) {
	sum := testSummary()
	srv, err := serve.NewServer(sum, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	old := httptest.NewServer(&filterStrippingHandler{inner: srv})
	defer old.Close()
	remote, err := scan.NewRemoteSource([]string{old.URL}, scan.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The stream opens inside Scan, so that is where the guard fires.
	_, err = remote.Scan(context.Background(), scan.Spec{Table: "S", Filter: pred.Col("A").Eq(20)})
	if err == nil || !strings.Contains(err.Error(), "did not apply filter") {
		t.Fatalf("err = %v, want filter-echo failure", err)
	}
}

// TestRemoteFleetExhausted proves the failure bound: an all-dead fleet
// surfaces an error instead of spinning.
func TestRemoteFleetExhausted(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	}))
	defer dead.Close()
	remote, err := scan.NewRemoteSource([]string{dead.URL}, scan.RemoteOptions{Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Scan(context.Background(), scan.Spec{Table: "S"}); err == nil ||
		!strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("err = %v, want fleet exhausted", err)
	}
}

// TestRemoteMetadataBusyWait: a 503 answering a metadata call is the
// capacity pushback it is on every other fleet call — its Retry-After
// (0 here, clamped up to 100ms) floors the backoff, it does not consume
// Attempts, and the trace records it as "busy", not as a "failover".
func TestRemoteMetadataBusyWait(t *testing.T) {
	srv, err := serve.NewServer(testSummary(), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	busyOnce := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" && hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "at capacity", http.StatusServiceUnavailable)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer busyOnce.Close()
	remote, err := scan.NewRemoteSource([]string{busyOnce.URL}, scan.RemoteOptions{Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	ctx, root := trace.Start(context.Background(), "test.metadata-busy")
	id := root.TraceID()
	start := time.Now()
	sc, err := remote.Scan(ctx, scan.Spec{Table: "S"}) // a cold table: geometry, then the stream
	if err != nil {
		t.Fatalf("a busy member cost the call its one attempt: %v", err)
	}
	sc.Close()
	if waited := time.Since(start); waited < 100*time.Millisecond {
		t.Fatalf("metadata call returned in %v; the Retry-After floor was not honored", waited)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("member hit %d times, want 3 (1 busy + geometry + stream)", got)
	}
	root.End()

	events := map[string]int{}
	for _, tr := range trace.Default.Traces() {
		if tr.TraceID != id {
			continue
		}
		for _, rec := range tr.Spans {
			for _, ev := range rec.Events {
				events[ev.Name]++
			}
		}
	}
	if events["busy"] != 1 || events["failover"] != 0 {
		t.Fatalf("trace events = %v, want one busy and no failover", events)
	}
}

// dirVerifyBytes reads the process-wide count of part bytes hashed.
func dirVerifyBytes() int64 {
	return obs.Default.Counter("hydra_scan_dir_verify_bytes_total", "").Value()
}

// scanErr drains one scan and returns how it ended.
func scanErr(t *testing.T, ctx context.Context, src scan.Source, spec scan.Spec) error {
	t.Helper()
	sc, err := src.Scan(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for sc.Next() {
	}
	return sc.Err()
}

// TestDirChecksumLazyVerify proves the integrity contract of a
// directory source: a part is hashed before the first row the source
// decodes from it and not again while the file stays what it was;
// corruption — before the first touch or after it, by rewrite,
// replacement, truncation or append — fails the next scan that opens
// the part with the sentinel Verify would report (ErrChecksum for other
// bytes, ErrTruncated for another size); and a scan that never reaches a
// bad part still succeeds.
func TestDirChecksumLazyVerify(t *testing.T) {
	sum := testSummary()
	ctx := context.Background()
	wantErr := func(t *testing.T, err, want error) {
		t.Helper()
		if !errors.Is(err, want) {
			t.Fatalf("err = %v, want %v", err, want)
		}
	}
	flipByte := func(t *testing.T, path string) (orig []byte) {
		t.Helper()
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), orig...)
		bad[len(bad)/2] ^= 1
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		return orig
	}

	t.Run("corrupt before the first touch", func(t *testing.T) {
		dir := materializeDir(t, sum, "csv", "", 3)
		src, err := scan.OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/S.csv.part-002-of-003"
		orig := flipByte(t, path)
		// A scan confined to earlier shards never opens the corrupt part.
		if err := scanErr(t, ctx, src, scan.Spec{Table: "S", EndPK: 100}); err != nil {
			t.Fatalf("scan of clean range failed: %v", err)
		}
		// A full scan must refuse it — every time: a failed verification
		// is not remembered, the part is hashed again and fails again.
		wantErr(t, scanErr(t, ctx, src, scan.Spec{Table: "S"}), scan.ErrChecksum)
		before := dirVerifyBytes()
		wantErr(t, scanErr(t, ctx, src, scan.Spec{Table: "S", StartPK: 8000}), scan.ErrChecksum)
		if got := dirVerifyBytes() - before; got != int64(len(orig)) {
			t.Fatalf("retry after a failed verification hashed %d bytes, want the part's %d", got, len(orig))
		}
		// And it is retried, not condemned: the right bytes back, it scans.
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := scanErr(t, ctx, src, scan.Spec{Table: "S"}); err != nil {
			t.Fatalf("scan of the repaired part: %v", err)
		}
	})

	t.Run("hashed once, and again when the file changes", func(t *testing.T) {
		dir := materializeDir(t, sum, "csv", "", 1)
		src, err := scan.OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/S.csv"
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The first scan pays the hash and says so on its span; later
		// scans of the clean part, wherever they start, hash nothing. The
		// tracer keeps every trace: the process-wide one keeps only the
		// slowest, which a repeated run (-count) has already filled.
		tracer := trace.New(trace.Options{SampleRate: 1})
		verifyEvents := func(spec scan.Spec) (events int) {
			tctx, root := tracer.Start(ctx, "test.dir-verify")
			id := root.TraceID()
			if err := scanErr(t, tctx, src, spec); err != nil {
				t.Fatal(err)
			}
			root.End()
			for _, tr := range tracer.Traces() {
				if tr.TraceID != id {
					continue
				}
				for _, rec := range tr.Spans {
					for _, ev := range rec.Events {
						if rec.Name == "scan.dir" && ev.Name == "verify" {
							events++
						}
					}
				}
			}
			return events
		}
		before := dirVerifyBytes()
		if n := verifyEvents(scan.Spec{Table: "S", StartPK: 5000, EndPK: 5010}); n != 1 {
			t.Fatalf("first scan recorded %d verify events, want 1", n)
		}
		if got := dirVerifyBytes() - before; got != int64(len(orig)) {
			t.Fatalf("first scan hashed %d bytes, want the part's %d", got, len(orig))
		}
		before = dirVerifyBytes()
		for _, spec := range []scan.Spec{{Table: "S"}, {Table: "S", StartPK: 8000}} {
			if n := verifyEvents(spec); n != 0 {
				t.Fatalf("scan of a verified part recorded %d verify events", n)
			}
		}
		if got := dirVerifyBytes() - before; got != 0 {
			t.Fatalf("scans of a verified, unchanged part hashed %d bytes, want 0", got)
		}

		// Each way a part can stop being the bytes that were hashed is
		// caught by the next scan; each time the original comes back (a
		// new file again, so hashed again) the source recovers.
		later := time.Now()
		changes := map[string]func() error{
			// In place, same size: only the mtime tells. It is moved by
			// hand because a filesystem with coarse timestamps may give a
			// write that lands within one tick of the verification the
			// same mtime — the documented limit of a stamp.
			"rewrite": func() error {
				flipByte(t, path)
				later = later.Add(time.Second)
				return os.Chtimes(path, time.Time{}, later)
			},
			"truncate": func() error { return os.Truncate(path, int64(len(orig))-1) },
			"append": func() error {
				f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					return err
				}
				defer f.Close()
				_, err = f.WriteString("1,2,3,4\n")
				return err
			},
			// Same size, and the old mtime put back: only the identity tells.
			"replace": func() error {
				fi, err := os.Stat(path)
				if err != nil {
					return err
				}
				bad := append([]byte(nil), orig...)
				bad[len(bad)/2] ^= 1
				tmp := path + ".new"
				if err := os.WriteFile(tmp, bad, 0o644); err != nil {
					return err
				}
				if err := os.Chtimes(tmp, time.Time{}, fi.ModTime()); err != nil {
					return err
				}
				return os.Rename(tmp, path)
			},
		}
		for _, change := range []struct {
			name string
			want error
		}{
			{"rewrite", scan.ErrChecksum}, {"truncate", scan.ErrTruncated},
			{"append", scan.ErrTruncated}, {"replace", scan.ErrChecksum},
		} {
			name := change.name
			if err := changes[name](); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			wantErr(t, scanErr(t, ctx, src, scan.Spec{Table: "S", StartPK: 8000}), change.want)
			if err := os.WriteFile(path, orig, 0o644); err != nil {
				t.Fatal(err)
			}
			later = later.Add(time.Second)
			if err := os.Chtimes(path, time.Time{}, later); err != nil {
				t.Fatal(err)
			}
			if err := scanErr(t, ctx, src, scan.Spec{Table: "S", StartPK: 8000}); err != nil {
				t.Fatalf("after undoing %s: %v", name, err)
			}
		}
	})

	t.Run("concurrent first scans hash once", func(t *testing.T) {
		dir := materializeDir(t, sum, "csv", "", 1)
		src, err := scan.OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(dir + "/S.csv")
		if err != nil {
			t.Fatal(err)
		}
		before := dirVerifyBytes()
		const scans = 8
		errs := make([]error, scans)
		var wg sync.WaitGroup
		gate := make(chan struct{})
		for i := 0; i < scans; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-gate
				errs[i] = scanErr(t, ctx, src, scan.Spec{Table: "S", StartPK: int64(1 + 1000*i), EndPK: int64(1000 * (i + 1))})
			}(i)
		}
		close(gate)
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("scan %d: %v", i, err)
			}
		}
		if got := dirVerifyBytes() - before; got != fi.Size() {
			t.Fatalf("%d concurrent first scans hashed %d bytes, want the part's %d once", scans, got, fi.Size())
		}
	})
}

// TestDirIndexCheckedNotTrusted: the manifest is not checksummed, so an
// index that passes ReadManifest's arithmetic but points at the wrong
// bytes must fail the scan that seeks by it, naming part and offset —
// whatever the format — and never deliver rows from the wrong place.
func TestDirIndexCheckedNotTrusted(t *testing.T) {
	sum := longSummary()
	// All scans start at row 10 000, in chunk 1 of S (8 192-row chunks,
	// 2 048 compressed).
	spec := scan.Spec{Table: "S", StartPK: 10001, EndPK: 10100}
	cases := []struct {
		name, format, compress string
		shift                  func(t *testing.T, dir string, off int64) int64
		want                   string
	}{
		{"csv mid-line", "csv", "", func(*testing.T, string, int64) int64 { return 1 }, "does not point at the start of a line"},
		{"jsonl mid-line", "jsonl", "", func(*testing.T, string, int64) int64 { return 7 }, "does not point at the start of a line"},
		{"csv next line", "csv", "", func(t *testing.T, dir string, off int64) int64 {
			b, err := os.ReadFile(dir + "/S.csv")
			if err != nil {
				t.Fatal(err)
			}
			return int64(strings.IndexByte(string(b[off:]), '\n') + 1)
		}, "found pk 10002, want 10001"},
		{"heap next page", "heap", "", func(*testing.T, string, int64) int64 { return 8192 }, "found pk"},
		{"spans mid-frame", "spans", "", func(*testing.T, string, int64) int64 { return 1 }, "bad spans frame"},
		{"gzip mid-member", "csv", "gzip", func(*testing.T, string, int64) int64 { return 1 }, "gzip"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := materializeDir(t, sum, tc.format, tc.compress, 1)
			var bad int64
			rewriteManifests(t, dir, func(tr *matgen.TableReport) {
				if tr.Table == "S" {
					k := (spec.StartPK - 1) / tr.ChunkRows
					tr.Offsets[k] += tc.shift(t, dir, tr.Offsets[k])
					bad = tr.Offsets[k]
				}
			})
			src, err := scan.OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			err = scanErr(t, context.Background(), src, spec)
			if err == nil || !strings.Contains(err.Error(), tc.want) ||
				!strings.Contains(err.Error(), dir+"/S.") || !strings.Contains(err.Error(), fmt.Sprint(bad)) {
				t.Fatalf("err = %v, want %q naming the part and offset %d", err, tc.want, bad)
			}
			// Chunks the damage did not touch still scan.
			clean := scan.Spec{Table: "S", EndPK: 400}
			diffBatches(t, "clean chunk", drain(t, src, clean), drain(t, scan.NewSummarySource(sum), clean))
		})
	}

	// An index that does not even fit its part never gets that far.
	dir := materializeDir(t, sum, "csv", "", 1)
	rewriteManifests(t, dir, func(tr *matgen.TableReport) {
		tr.Offsets = tr.Offsets[:len(tr.Offsets)-1]
	})
	if _, err := scan.OpenDir(dir); !errors.Is(err, matgen.ErrManifestInconsistent) {
		t.Fatalf("OpenDir with a short index: %v, want ErrManifestInconsistent", err)
	}
}

// TestDirPartialSplit: a directory holding only some shards scans fine
// within coverage and fails loudly beyond it.
func TestDirPartialSplit(t *testing.T) {
	sum := testSummary()
	dir := t.TempDir()
	for _, i := range []int{0, 1} { // shard 2 of 3 missing
		if _, err := matgen.Materialize(sum, matgen.Options{
			Dir: dir, Format: "csv", Shards: 3, Shard: i, Workers: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	src, err := scan.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := scan.Spec{Table: "S", EndPK: 5000, BatchRows: 512}
	want := drain(t, scan.NewSummarySource(sum), spec)
	diffBatches(t, "partial-dir", drain(t, src, spec), want)

	sc, err := src.Scan(context.Background(), scan.Spec{Table: "S"})
	if err != nil {
		t.Fatal(err)
	}
	for sc.Next() {
	}
	if err := sc.Err(); err == nil || !strings.Contains(err.Error(), "covers row") {
		t.Fatalf("err = %v, want coverage failure", err)
	}
	sc.Close()
}

// dirParsedRows reads the process-wide count of rows directory scans
// parsed cell by cell: one per run.
func dirParsedRows() int64 {
	return obs.Default.Counter("hydra_scan_dir_parsed_rows_total", "").Value()
}

// TestDirProjectedMaterialization: a directory materialized under a
// projection presents the projected layout as its natural one — for
// spans too, as long as the projection keeps the pk the runs are
// anchored at (the engine writes the runs' projected tails). The
// pk may sit anywhere in the layout, or be absent: runs are still read
// as runs (a handful of parsed rows for the whole table), and projected
// and filtered scans of them agree with the summary.
func TestDirProjectedMaterialization(t *testing.T) {
	sum := testSummary()
	ref := scan.NewSummarySource(sum)
	cases := []struct {
		layout  []string
		formats []string
	}{
		{[]string{"S_pk", "A"}, []string{"csv", "spans"}},
		{[]string{"A", "S_pk", "B"}, []string{"csv", "jsonl", "heap"}}, // pk in the middle
		{[]string{"B", "A"}, []string{"csv", "jsonl", "heap"}},         // no pk
	}
	for _, tc := range cases {
		for _, format := range tc.formats {
			label := format + "/" + strings.Join(tc.layout, "+")
			dir := t.TempDir()
			if _, err := matgen.Materialize(sum, matgen.Options{
				Dir: dir, Format: format, Workers: 2, Columns: tc.layout, Tables: []string{"S"},
			}); err != nil {
				t.Fatal(err)
			}
			src, err := scan.OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			info, err := src.Table("S")
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(info.Cols, tc.layout) {
				t.Fatalf("%s: cols = %v", label, info.Cols)
			}
			before := dirParsedRows()
			spec := scan.Spec{Table: "S", BatchRows: 2048}
			want := drain(t, ref, scan.Spec{Table: "S", Columns: tc.layout, BatchRows: 2048})
			diffBatches(t, "projected-dir/"+label, drain(t, src, spec), want)
			if parsed := dirParsedRows() - before; format != "spans" && (parsed < 3 || parsed > 16) {
				t.Fatalf("%s: a full scan parsed %d rows of 8208, want a few per run", label, parsed)
			}
			for _, spec := range []scan.Spec{
				{Table: "S", Columns: []string{"B"}, StartPK: 2990, EndPK: 6100, Filter: pred.Col("A").Eq(20), BatchRows: 700},
				{Table: "S", Columns: tc.layout[len(tc.layout)-1:], Filter: pred.Col("B").In(10, 20), BatchRows: 999},
				{Table: "S", Filter: pred.Col("A").Eq(61).And(pred.Col("S_pk").In(5000, 5600)), BatchRows: 640},
			} {
				if slices.ContainsFunc(append(spec.Filter.Cols(), spec.Columns...), func(c string) bool {
					return !slices.Contains(tc.layout, c)
				}) {
					continue // names a column the layout lacks
				}
				cols := spec.Columns
				if cols == nil {
					cols = tc.layout
				}
				refSpec := spec
				refSpec.Columns = cols
				diffBatches(t, fmt.Sprintf("projected-dir/%s/%s", label, specName(spec)), drain(t, src, spec), drain(t, ref, refSpec))
			}
		}
	}
}

// TestDirRunsCrossChunks: a run is read as one across the chunks (and
// gzip members, and heap pages) it was written in, and ends only where
// the summary's run, the batch cell or the part does — so a full scan
// parses one row per piece. A spread-FK part changes its FKs every row and reads
// row by row; a spans part parses nothing.
func TestDirRunsCrossChunks(t *testing.T) {
	cases := []struct {
		format, compress string
		shards           int
		spread           bool
		table            string
		parsed           int64
	}{
		// T's runs are 7 200 and 4 904 rows, scanned as one batch: the
		// second crosses the chunk boundary at row 8 192.
		{"csv", "", 1, false, "T", 2},
		{"csv", "", 3, false, "T", 3},     // parts split at 0 and 8 192
		{"csv", "gzip", 3, false, "T", 4}, // at 4 096 and 8 192, in 2 048-row members
		{"jsonl", "", 1, false, "T", 2},
		{"heap", "", 1, false, "T", 2},
		// S's three runs, of 24 008, 20 000 and 21 656 rows, in 10 000-row
		// batches: each is cut by two batch edges, and by none of the
		// chunk edges at multiples of 8 192.
		{"csv", "", 1, false, "S", 9},
		{"csv", "", 1, true, "S", 65664},
		{"spans", "", 3, false, "T", 0},
	}
	for _, tc := range cases {
		label := fmt.Sprintf("%s+%s/%d/spread=%v/%s", tc.format, tc.compress, tc.shards, tc.spread, tc.table)
		sum := longSummary()
		sum.FKSpread = tc.spread
		src, err := scan.OpenDir(materializeDir(t, sum, tc.format, tc.compress, tc.shards))
		if err != nil {
			t.Fatal(err)
		}
		spec := scan.Spec{Table: tc.table, BatchRows: 12104}
		if tc.table == "S" {
			spec.BatchRows = 10000
		}
		before := dirParsedRows()
		got := drain(t, src, spec)
		if parsed := dirParsedRows() - before; parsed != tc.parsed {
			t.Errorf("%s: parsed %d rows, want %d", label, parsed, tc.parsed)
		}
		diffBatches(t, label, got, drain(t, scan.NewSummarySource(sum), spec))
	}
}

// TestDirJSONLRefusesNonIntegers: a jsonl value the encoder never writes
// — null, a fraction, an exponent, a string — fails the scan naming the
// part and the row, where a decode into int64 once read null as 0.
func TestDirJSONLRefusesNonIntegers(t *testing.T) {
	sum := testSummary()
	for _, bad := range []string{"null", "1.50", "1e10", `"12"`} {
		dir := materializeDir(t, sum, "jsonl", "", 1)
		path := dir + "/T.jsonl"
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Same length, so the manifest's chunk index still holds.
		b = bytes.Replace(b, []byte(`"T_pk":1234,`), []byte(`"T_pk":`+bad+`,`), 1)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		sum256 := sha256.Sum256(b)
		rewriteManifests(t, dir, func(tr *matgen.TableReport) {
			if tr.Table == "T" {
				tr.Checksum = hex.EncodeToString(sum256[:])
			}
		})
		src, err := scan.OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		err = scanErr(t, context.Background(), src, scan.Spec{Table: "T"})
		want := fmt.Sprintf(`scan: %s: row 1233: jsonl column "T_pk" holds %s, not an int64`, path, bad)
		if err == nil || err.Error() != want {
			t.Errorf("value %s: err = %v, want %q", bad, err, want)
		}
	}
}

// TestScanRateLimit: pacing is applied per batch, identically for every
// backend (spot-checked on the summary source — the limiter is shared
// plumbing).
func TestScanRateLimit(t *testing.T) {
	src := scan.NewSummarySource(testSummary())
	start := time.Now()
	sc, err := src.Scan(context.Background(), scan.Spec{Table: "T", BatchRows: 500, RateLimit: 5000})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var rows int64
	for sc.Next() {
		rows += int64(sc.Batch().N)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// 1513 rows at 5000 rows/s ≈ 300ms; allow generous slack below.
	if rows != 1513 || elapsed < 150*time.Millisecond {
		t.Fatalf("rows=%d in %v — rate limit not applied", rows, elapsed)
	}
}

// TestRemoteMixedFleetNeverSplices: a fleet whose members serve
// different summaries must never splice them into one scan. A scan's
// streams are pinned to the summary digest of the geometry it was
// planned from — remembered from an earlier answer, which the first
// stream confirms or finds stale, or fetched afresh — so members loaded
// with a different database are refused and the scan either completes
// entirely against the geometry's database or fails — a result mixing
// the two is the one forbidden outcome. In the second fleet the other
// member serves the same summary with FK spread on, and streams are
// torn mid-table so scans resume across members: the geometry is
// identical, and only the digest refuses the splice.
func TestRemoteMixedFleetNeverSplices(t *testing.T) {
	sumA := longSummary()
	sumB := longSummary()
	sumB.Relations["S"].Rows[0].Count += 100 // a different database
	sumB.Relations["S"].Total += 100
	spreadA := *sumA
	spreadA.FKSpread = true
	for _, tc := range []struct {
		name  string
		other *summary.Summary
		tear  bool
	}{{"count", sumB, false}, {"spread", &spreadA, true}} {
		t.Run(tc.name, func(t *testing.T) {
			var urls []string
			var torn []*truncatingHandler
			for _, sum := range []*summary.Summary{sumA, tc.other} {
				// S's eleven frames run past the 100-byte tear, so a torn
				// stream dies mid-table.
				srv, err := serve.NewServer(sum, serve.Options{})
				if err != nil {
					t.Fatal(err)
				}
				var h http.Handler = srv
				if tc.tear {
					th := &truncatingHandler{inner: srv, limit: 100}
					torn = append(torn, th)
					h = th
				}
				ts := httptest.NewServer(h)
				defer ts.Close()
				urls = append(urls, ts.URL)
			}
			// Round-robin sends consecutive requests to different members, so
			// the member a geometry came from and the one a stream opens on keep
			// differing: every trial exercises the cross-server path the digest
			// pin guards.
			remote, err := scan.NewRemoteSource(urls, scan.RemoteOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Close()
			spec := scan.Spec{Table: "S", BatchRows: 1000}
			wantA := drain(t, scan.NewSummarySource(sumA), spec)
			wantB := drain(t, scan.NewSummarySource(tc.other), spec)
			if matchesBatches(wantA, wantB) {
				t.Fatal("the two databases scan alike; the test would prove nothing")
			}
			for trial := 0; trial < 8; trial++ {
				got, err := tryDrain(remote, spec)
				if err != nil && tc.tear {
					continue // refusing to splice may use up the attempts
				}
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if matchesBatches(got, wantA) || matchesBatches(got, wantB) {
					continue
				}
				t.Fatalf("trial %d: mixed fleet produced a scan matching neither database (%d batches)",
					trial, len(got))
			}
			for _, th := range torn {
				if th.cuts.Load() == 0 {
					t.Fatal("a member tore no stream: no scan resumed across members")
				}
			}
		})
	}
}

// matchesBatches reports whether two captured batch sequences are
// identical.
func matchesBatches(got, want []capturedBatch) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].start != want[i].start || len(got[i].cols) != len(want[i].cols) {
			return false
		}
		for c := range want[i].cols {
			if len(got[i].cols[c]) != len(want[i].cols[c]) {
				return false
			}
			for r := range want[i].cols[c] {
				if got[i].cols[c][r] != want[i].cols[c][r] {
					return false
				}
			}
		}
	}
	return true
}

// dirSentinels are the shard-directory failure classes; a directory
// fault must wrap exactly one of them.
var dirSentinels = []error{scan.ErrManifestMissing, matgen.ErrManifestInconsistent, scan.ErrRangeOverlap,
	scan.ErrRangeGap, scan.ErrRowCount, scan.ErrTruncated, scan.ErrChecksum, scan.ErrStaleArtifacts}

// expectOnly fails t unless err wraps want and no other directory
// sentinel.
func expectOnly(t *testing.T, err, want error) {
	t.Helper()
	if err == nil {
		t.Fatalf("err = nil, want %v", want)
	}
	for _, s := range dirSentinels {
		if errors.Is(err, s) != (s == want) {
			t.Fatalf("err %v: errors.Is(%v) = %v", err, s, s != want)
		}
	}
}

// TestDirMixedProjectionRefused: OpenDir refuses a directory that is not
// one run with the sentinel that names why. Shards materialized under
// different same-width projections must be refused — decoding them
// positionally against one layout would silently swap column values —
// and so must an empty directory and two split widths side by side.
func TestDirMixedProjectionRefused(t *testing.T) {
	sum := testSummary()
	materialize := func(t *testing.T, dir string, shard, shards int, cols []string) {
		t.Helper()
		if _, err := matgen.Materialize(sum, matgen.Options{
			Dir: dir, Format: "csv", Shards: shards, Shard: shard, Tables: []string{"S"}, Columns: cols,
		}); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("mixed projections", func(t *testing.T) {
		dir := t.TempDir()
		materialize(t, dir, 0, 2, []string{"S_pk", "A"})
		materialize(t, dir, 1, 2, []string{"A", "S_pk"}) // same width, different order
		_, err := scan.OpenDir(dir)
		expectOnly(t, err, matgen.ErrManifestInconsistent)
		if !strings.Contains(err.Error(), "disagree") {
			t.Fatalf("err = %v, want layout disagreement", err)
		}
	})
	t.Run("no manifests", func(t *testing.T) {
		_, err := scan.OpenDir(t.TempDir())
		expectOnly(t, err, scan.ErrManifestMissing)
	})
	t.Run("mixed split widths", func(t *testing.T) {
		dir := t.TempDir()
		materialize(t, dir, 0, 2, nil)
		materialize(t, dir, 0, 3, nil)
		_, err := scan.OpenDir(dir)
		expectOnly(t, err, scan.ErrStaleArtifacts)
	})
}

// TestDirVerifyStampsParts: Verify hashes every part whatever was hashed
// before and stamps what it hashed, so Verify and then a full scan of
// every table on one source hash each part exactly once, and a second
// Verify hashes them all again. A part rewritten in place behind its
// stamp (same file, size and mtime) fails the next Verify, and the
// scans after that hash it again and fail too.
func TestDirVerifyStampsParts(t *testing.T) {
	sum := longSummary() // T's middle part holds rows only on a long T
	ctx := context.Background()
	dir := materializeDir(t, sum, "csv", "gzip", 3)
	src, err := scan.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var partBytes int64
	for _, m := range readManifests(t, dir) {
		for _, tr := range m.Tables {
			partBytes += tr.Bytes
		}
	}
	verify := func() {
		t.Helper()
		before := dirVerifyBytes()
		rep, err := src.Verify(ctx, sum, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := dirVerifyBytes() - before; got != partBytes || rep.BytesHashed != partBytes || rep.FilesHashed != 6 {
			t.Fatalf("Verify hashed %d bytes (report: %d in %d files), want every part's %d in 6",
				got, rep.BytesHashed, rep.FilesHashed, partBytes)
		}
	}
	verify()
	before := dirVerifyBytes()
	for _, table := range []string{"S", "T"} {
		if err := scanErr(t, ctx, src, scan.Spec{Table: table}); err != nil {
			t.Fatal(err)
		}
	}
	if got := dirVerifyBytes() - before; got != 0 {
		t.Fatalf("full scans after Verify hashed %d bytes, want 0", got)
	}
	verify()

	path := dir + "/T.csv.part-001-of-003.gz"
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(path, b, 0o644); err != nil { // in place: the same file
		t.Fatal(err)
	}
	if err := os.Chtimes(path, time.Time{}, fi.ModTime()); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Verify(ctx, sum, nil); !errors.Is(err, scan.ErrChecksum) {
		t.Fatalf("Verify of a part rewritten behind its stamp: err = %v, want ErrChecksum", err)
	}
	if err := scanErr(t, ctx, src, scan.Spec{Table: "T"}); !errors.Is(err, scan.ErrChecksum) {
		t.Fatalf("scan after a failed Verify: err = %v, want ErrChecksum", err)
	}
}

// TestDirSQLVerifiedNotScanned: an sql directory opens and verifies like
// any other, and its Scan is refused as a spec error: sql parts are
// written to be loaded, never read back.
func TestDirSQLVerifiedNotScanned(t *testing.T) {
	sum := testSummary()
	src, err := scan.OpenDir(materializeDir(t, sum, "sql", "", 2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := src.Verify(context.Background(), sum, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Format != "sql" || rep.Shards != 2 || rep.FilesHashed != 4 {
		t.Fatalf("report = %+v", rep)
	}
	if _, err := src.Scan(context.Background(), scan.Spec{Table: "S"}); !errors.Is(err, scan.ErrSpec) {
		t.Fatalf("scan of an sql directory: err = %v, want ErrSpec", err)
	}
}
