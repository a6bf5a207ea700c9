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

// capturedBatch is one batch deep-copied out of a scan.
type capturedBatch struct {
	start int64
	cols  [][]int64
}

// drain runs one scan to completion and deep-copies its batch sequence.
func drain(t *testing.T, src scan.Source, spec scan.Spec) []capturedBatch {
	t.Helper()
	sc, err := src.Scan(context.Background(), spec)
	if err != nil {
		t.Fatalf("scan: %v", err)
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
	if err := sc.Err(); err != nil {
		t.Fatalf("scan err: %v", err)
	}
	return out
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

// materializeDir produces one scannable directory.
func materializeDir(t *testing.T, sum *summary.Summary, format, compress string, shards int, spread bool) string {
	t.Helper()
	dir := t.TempDir()
	for i := 0; i < shards; i++ {
		if _, err := matgen.Materialize(sum, matgen.Options{
			Dir: dir, Format: format, Compress: compress,
			Shards: shards, Shard: i, Workers: 2, BatchRows: 512, FKSpread: spread,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestConformance is the acceptance matrix: every spec against every
// backend, with the summary source as the reference.
func TestConformance(t *testing.T) {
	sum := testSummary()
	ref := scan.NewSummarySource(sum)

	// One fleet shared by all remote cases.
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

	for _, spread := range []bool{false, true} {
		// Directory backends must be materialized with the same FK layout
		// the spec asks the generating backends for.
		dirs := map[string]string{
			"dir/csv":      materializeDir(t, sum, "csv", "", 1, spread),
			"dir/csv+gzip": materializeDir(t, sum, "csv", "gzip", 3, spread),
			"dir/jsonl":    materializeDir(t, sum, "jsonl", "", 2, spread),
			"dir/heap":     materializeDir(t, sum, "heap", "", 3, spread),
			// Frames are clipped at chunk (512-row) and shard boundaries,
			// so these also scan across runs split mid-way.
			"dir/spans":      materializeDir(t, sum, "spans", "", 3, spread),
			"dir/spans+gzip": materializeDir(t, sum, "spans", "gzip", 2, spread),
		}
		// The in-memory copy holds whatever FKs the source it was read
		// from served: the summary's first-row ones, or a spread directory's.
		var mem *scan.MemSource
		if spread {
			heap, err := scan.OpenDir(dirs["dir/heap"])
			if err != nil {
				t.Fatal(err)
			}
			mem = memCopy(t, heap)
		} else {
			mem = memCopy(t, ref)
		}
		for _, spec := range specs {
			spec.FKSpread = spread
			want := drain(t, ref, spec)
			name := fmt.Sprintf("spread=%v/%s", spread, specName(spec))
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
		for _, format := range []string{"csv", "jsonl", "heap", "spans"} {
			for _, compress := range []string{"", "gzip"} {
				for _, shards := range []int{1, 3} {
					label := fmt.Sprintf("%s+%s/%d", format, compress, shards)
					dir := materializeDir(t, sum, format, compress, shards, true)
					starts := chunkEdgeRows(t, dir, "S")
					if len(starts) < 3*8208/512 {
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
		spec := scan.Spec{Table: "S", StartPK: row + 1, EndPK: row + 700, BatchRows: 300, FKSpread: true}
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
// three streams after 100 bytes, whichever member they land on. The
// server encodes in 256-row chunks so a table is dozens of frames, not
// three.
func flakyFleet(t *testing.T, sum *summary.Summary) (*scan.RemoteSource, *truncatingHandler) {
	t.Helper()
	srv, err := serve.NewServer(sum, serve.Options{BatchRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	h := &truncatingHandler{inner: srv, limit: 100}
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
	sum := testSummary()
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
	sum := testSummary()
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
	sum := testSummary()
	srv, err := serve.NewServer(sum, serve.Options{BatchRows: 1024})
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
	ref := scan.NewSummarySource(sum)
	for name, spec := range map[string]scan.Spec{
		"plain":    {Table: "S", BatchRows: 700, Columns: []string{"t_fk", "B"}},
		"spread":   {Table: "S", BatchRows: 700, FKSpread: true},
		"filtered": {Table: "S", BatchRows: 700, FKSpread: true, Filter: pred.Col("t_fk").In(100, 260)},
	} {
		t.Run(name, func(t *testing.T) {
			want := drain(t, ref, spec)
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

// TestRemoteFillAllocs pins the point of shipping runs instead of rows:
// once the stream is open and the batch has its capacity, placing runs
// on the grid allocates nothing — no per-row, per-frame or per-batch
// garbage — with and without a projection, spread FKs and a filter.
func TestRemoteFillAllocs(t *testing.T) {
	// Server chunks as small as the client's batches: every measured
	// batch decodes at least one frame of its own.
	srv, err := serve.NewServer(testSummary(), serve.Options{BatchRows: 16})
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
	for name, spec := range map[string]scan.Spec{
		"plain":     {Table: "S", BatchRows: 16},
		"projected": {Table: "S", BatchRows: 16, Columns: []string{"t_fk", "A"}, FKSpread: true},
		"filtered":  {Table: "S", BatchRows: 16, FKSpread: true, Filter: pred.Col("A").Eq(20)},
	} {
		t.Run(name, func(t *testing.T) {
			sc, err := remote.Scan(context.Background(), spec)
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
	sc, err := remote.Scan(context.Background(), scan.Spec{Table: "S", Filter: pred.Col("A").Eq(20)})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for sc.Next() {
	}
	if err := sc.Err(); err == nil || !strings.Contains(err.Error(), "did not apply filter") {
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
	sc, err := remote.Scan(ctx, scan.Spec{Table: "S"}) // geometry only: streams open on Next
	if err != nil {
		t.Fatalf("a busy member cost the call its one attempt: %v", err)
	}
	sc.Close()
	if waited := time.Since(start); waited < 100*time.Millisecond {
		t.Fatalf("metadata call returned in %v; the Retry-After floor was not honored", waited)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("member hit %d times, want 2 (1 busy + 1 success)", got)
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
// the part with the checksum named; and a scan that never reaches a bad
// part still succeeds.
func TestDirChecksumLazyVerify(t *testing.T) {
	sum := testSummary()
	ctx := context.Background()
	wantSHA := func(t *testing.T, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "sha256") {
			t.Fatalf("err = %v, want sha256 mismatch", err)
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
		dir := materializeDir(t, sum, "csv", "", 3, false)
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
		wantSHA(t, scanErr(t, ctx, src, scan.Spec{Table: "S"}))
		before := dirVerifyBytes()
		wantSHA(t, scanErr(t, ctx, src, scan.Spec{Table: "S", StartPK: 8000}))
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
		dir := materializeDir(t, sum, "csv", "", 1, false)
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
		for _, name := range []string{"rewrite", "truncate", "append", "replace"} {
			if err := changes[name](); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			wantSHA(t, scanErr(t, ctx, src, scan.Spec{Table: "S", StartPK: 8000}))
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
		dir := materializeDir(t, sum, "csv", "", 1, false)
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
	sum := testSummary()
	// All scans start at row 1300, in chunk 2 of S (512-row chunks).
	spec := scan.Spec{Table: "S", StartPK: 1301, EndPK: 1400}
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
		}, "found pk 1302, want 1301"},
		{"heap next page", "heap", "", func(*testing.T, string, int64) int64 { return 8192 }, "found pk"},
		{"spans mid-frame", "spans", "", func(*testing.T, string, int64) int64 { return 1 }, "bad spans frame"},
		{"gzip mid-member", "csv", "gzip", func(*testing.T, string, int64) int64 { return 1 }, "gzip"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := materializeDir(t, sum, tc.format, tc.compress, 1, false)
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
	dir := materializeDir(t, sum, "csv", "", 1, false)
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
// anchored at (the engine re-coalesces runs from projected batches). The
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
	sum := testSummary()
	ref := scan.NewSummarySource(sum)
	cases := []struct {
		format, compress string
		shards           int
		spread           bool
		table            string
		parsed           int64
	}{
		{"csv", "", 1, false, "T", 2}, // runs of 900 and 613 rows, in 512-row chunks
		{"csv", "", 3, false, "T", 4}, // parts split at 504 and 1008
		{"csv", "gzip", 3, false, "T", 4},
		{"jsonl", "", 1, false, "T", 2},
		{"heap", "", 1, false, "T", 2},
		{"csv", "", 1, false, "S", 4}, // three runs, the last split by the 8192-row batch
		{"csv", "", 1, true, "S", 8208},
		{"spans", "", 3, false, "T", 0},
	}
	for _, tc := range cases {
		label := fmt.Sprintf("%s+%s/%d/spread=%v/%s", tc.format, tc.compress, tc.shards, tc.spread, tc.table)
		src, err := scan.OpenDir(materializeDir(t, sum, tc.format, tc.compress, tc.shards, tc.spread))
		if err != nil {
			t.Fatal(err)
		}
		spec := scan.Spec{Table: tc.table, FKSpread: tc.spread}
		before := dirParsedRows()
		got := drain(t, src, spec)
		if parsed := dirParsedRows() - before; parsed != tc.parsed {
			t.Errorf("%s: parsed %d rows, want %d", label, parsed, tc.parsed)
		}
		diffBatches(t, label, got, drain(t, ref, spec))
	}
}

// TestDirJSONLRefusesNonIntegers: a jsonl value the encoder never writes
// — null, a fraction, an exponent, a string — fails the scan naming the
// part and the row, where a decode into int64 once read null as 0.
func TestDirJSONLRefusesNonIntegers(t *testing.T) {
	sum := testSummary()
	for _, bad := range []string{"null", "1.50", "1e10", `"12"`} {
		dir := materializeDir(t, sum, "jsonl", "", 1, false)
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
// different summaries must never splice them into one scan. The data
// streams are pinned to the summary digest of the geometry (info=1)
// response, so members loaded with a different database are refused and
// the scan either completes entirely against the geometry's database or
// fails — a result mixing the two is the one forbidden outcome.
func TestRemoteMixedFleetNeverSplices(t *testing.T) {
	sumA := testSummary()
	sumB := testSummary()
	sumB.Relations["S"].Rows[0].Count += 100 // a different database
	sumB.Relations["S"].Total += 100
	srvA, err := serve.NewServer(sumA, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := serve.NewServer(sumB, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA)
	defer tsA.Close()
	tsB := httptest.NewServer(srvB)
	defer tsB.Close()

	// Round-robin guarantees the geometry request and the first data
	// stream land on different members, so every trial exercises the
	// cross-server path the digest pin guards.
	remote, err := scan.NewRemoteSource([]string{tsA.URL, tsB.URL}, scan.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec := scan.Spec{Table: "S", BatchRows: 1000}
	wantA := drain(t, scan.NewSummarySource(sumA), spec)
	wantB := drain(t, scan.NewSummarySource(sumB), spec)
	for trial := 0; trial < 4; trial++ {
		got := drain(t, remote, spec) // drain fails the test on scan errors
		if matchesBatches(got, wantA) || matchesBatches(got, wantB) {
			continue
		}
		t.Fatalf("trial %d: mixed fleet produced a scan matching neither database (%d batches)",
			trial, len(got))
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

// TestDirMixedProjectionRefused: shards materialized under different
// same-width projections must be refused at OpenDir — decoding them
// positionally against one layout would silently swap column values.
func TestDirMixedProjectionRefused(t *testing.T) {
	sum := testSummary()
	dir := t.TempDir()
	if _, err := matgen.Materialize(sum, matgen.Options{
		Dir: dir, Format: "csv", Shards: 2, Shard: 0, Tables: []string{"S"},
		Columns: []string{"S_pk", "A"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := matgen.Materialize(sum, matgen.Options{
		Dir: dir, Format: "csv", Shards: 2, Shard: 1, Tables: []string{"S"},
		Columns: []string{"A", "S_pk"}, // same width, different order
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := scan.OpenDir(dir); err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("err = %v, want layout disagreement", err)
	}
}
