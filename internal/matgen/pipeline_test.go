package matgen

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsl-repro/hydra/internal/format"
	"github.com/dsl-repro/hydra/internal/summary"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// failingCompressor counts AppendFrame calls and fails permanently from
// failAt on — a stand-in for a mid-run write/compress failure that lets
// the tests observe how much work the pipeline performs after the first
// error. It reaches the engine through materialize.
type failingCompressor struct {
	calls  atomic.Int64
	failAt int64
}

func (f *failingCompressor) Name() string        { return "testfail" }
func (f *failingCompressor) Ext() string         { return ".tf" }
func (f *failingCompressor) ContentType() string { return "" }

func (f *failingCompressor) AppendFrame(dst, src []byte) ([]byte, error) {
	if f.calls.Add(1) >= f.failAt {
		return nil, errors.New("synthetic compress failure")
	}
	return append(dst, src...), nil
}

func (f *failingCompressor) NewReader(r io.Reader) (io.ReadCloser, error) {
	return io.NopCloser(r), nil
}

var failComp = &failingCompressor{}

// materializeFailing is Materialize of opts as csv through failComp, on
// a chunk grid of grid rows.
func materializeFailing(sum *summary.Summary, opts Options, grid int) (*Report, error) {
	return materialize(context.Background(), sum, opts, format.CSV, failComp, grid)
}

// bigSummary is one relation with enough rows to split into many small
// chunks, so a prompt stop is distinguishable from a full drain.
func bigSummary(rows int64) *summary.Summary {
	rel := &summary.RelationSummary{
		Table: "B", Cols: []string{"C"},
		Rows:  []summary.RelRow{{Vals: []int64{5}, Count: rows}},
		Total: rows,
	}
	return &summary.Summary{Relations: map[string]*summary.RelationSummary{"B": rel}}
}

// TestErrorStopsPipelinePromptly is the wasted-work regression test: when
// a chunk fails mid-run, the dispatcher must stop submitting and the
// workers must stop encoding, instead of generating and compressing every
// remaining chunk into the void.
func TestErrorStopsPipelinePromptly(t *testing.T) {
	const rows = 200_000
	const grid = 64
	totalChunks := int64((rows + grid - 1) / grid)
	failComp.calls.Store(0)
	failComp.failAt = 3
	dir := t.TempDir()
	_, err := materializeFailing(bigSummary(rows), Options{Dir: dir, Workers: 4}, grid)
	if err == nil {
		t.Fatal("expected the synthetic failure to surface")
	}
	if got := err.Error(); got != "matgen: B: synthetic compress failure" {
		t.Fatalf("error = %q", got)
	}
	attempted := failComp.calls.Load()
	if attempted >= totalChunks/4 {
		t.Fatalf("pipeline attempted %d of %d chunks after the failure; want a prompt stop", attempted, totalChunks)
	}
	// The failed table's partial file and the manifest must be gone.
	entries, readErr := os.ReadDir(dir)
	if readErr != nil {
		t.Fatal(readErr)
	}
	for _, e := range entries {
		t.Errorf("failed run left %s behind", e.Name())
	}
}

// manyRelations is a summary of n relations of rows rows each (two
// summary rows apiece), named R00, R01, …: enough tables that a
// per-table chunk window would hold many times the pool-wide budget.
func manyRelations(n int, rows int64) *summary.Summary {
	sum := &summary.Summary{Relations: map[string]*summary.RelationSummary{}}
	for i := range n {
		name := fmt.Sprintf("R%02d", i)
		sum.Relations[name] = &summary.RelationSummary{
			Table: name, Cols: []string{"C"},
			Rows: []summary.RelRow{
				{Vals: []int64{int64(i)}, Count: rows / 2},
				{Vals: []int64{int64(i + 1)}, Count: rows - rows/2},
			},
			Total: rows,
		}
	}
	return sum
}

// Chunk geometry of the many-relation tests: 32 relations of 16 chunks.
const (
	manyTables = 32
	manyChunks = 16
	manyGrid   = 64
)

// waitGoroutines fails the test unless the goroutine count falls back
// to want: a leaked dispatcher, worker or collector keeps it above.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, %d before the run", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// dirHashes returns the SHA-256 of every file in dir, by name.
func dirHashes(t *testing.T, dir string) map[string][sha256.Size]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][sha256.Size]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = sha256.Sum256(b)
	}
	return out
}

// TestInFlightChunksBoundedByWorkers: the pool's chunk budget is shared
// by every table, so at most 2×workers chunks are taken by a worker and
// not yet written, however many relations the summary holds. A rate
// limit keeps the collectors behind the encoders, so every dispatcher
// would run ahead as far as it is let.
func TestInFlightChunksBoundedByWorkers(t *testing.T) {
	sum := manyRelations(manyTables, manyChunks*manyGrid)
	var want map[string][sha256.Size]byte
	for _, workers := range []int{1, 2, 4} {
		dir := t.TempDir()
		var err error
		high := inFlightHighWater(func() {
			_, err = materializeGrid(sum, Options{
				Dir: dir, Format: "csv", Workers: workers,
				NoManifest: true, RateLimit: 400_000,
			}, manyGrid)
		})
		if err != nil {
			t.Fatal(err)
		}
		if high < 1 || high > int64(2*workers) {
			t.Errorf("workers=%d: %d chunks in flight at once, want 1..%d", workers, high, 2*workers)
		}
		got := dirHashes(t, dir)
		if len(got) != manyTables {
			t.Fatalf("workers=%d: %d files, want %d", workers, len(got), manyTables)
		}
		if want == nil {
			want = got
			continue
		}
		for name, h := range want {
			if got[name] != h {
				t.Errorf("workers=%d: %s differs from workers=1", workers, name)
			}
		}
	}
}

// TestBudgetGrantOrder: a freed slot goes to a table holding fewer than
// two slots before one holding more, then to the most rows left, then to
// the first to ask.
func TestBudgetGrantOrder(t *testing.T) {
	full := &slotHolder{held: 2, left: 1000, grant: make(chan struct{}, 1)}
	small := &slotHolder{held: 0, left: 10, grant: make(chan struct{}, 1)}
	big := &slotHolder{held: 1, left: 500, grant: make(chan struct{}, 1)}
	twin := &slotHolder{held: 0, left: 500, grant: make(chan struct{}, 1)}
	b := &budget{size: 8, waiting: []*slotHolder{full, small, big, twin}}
	for _, want := range []*slotHolder{big, twin, small, full} {
		b.mu.Lock()
		b.free++
		b.handOut()
		b.mu.Unlock()
		select {
		case <-want.grant:
		default:
			t.Fatalf("slot went elsewhere; want the holder with held %d, left %d", want.held-1, want.left)
		}
	}
	if b.free != 0 || len(b.waiting) != 0 {
		t.Fatalf("free %d, %d waiting after every grant", b.free, len(b.waiting))
	}
}

// TestBudgetTakeWhenDone: a take the run's end interrupts holds nothing
// more, whether or not a slot was granted to it in the same instant.
func TestBudgetTakeWhenDone(t *testing.T) {
	done := make(chan struct{})
	close(done)
	b := newBudget(1)
	h := newSlotHolder()
	if !b.take(h, 1, make(chan struct{})) {
		t.Fatal("first take failed with a free slot")
	}
	if b.take(h, 1, done) {
		t.Fatal("take succeeded with no slot free")
	}
	b.give(h)
	// With a slot free and the run over, take may win either way; what it
	// reports must match what it holds.
	var got [2]int
	for range 200 {
		ok := b.take(h, 1, done)
		if ok {
			b.give(h)
			got[1]++
		} else {
			got[0]++
		}
		if h.held != 0 || b.free != 1 || len(b.waiting) != 0 {
			t.Fatalf("after take = %v: held %d, free %d, %d waiting", ok, h.held, b.free, len(b.waiting))
		}
	}
	if got[0] == 0 || got[1] == 0 {
		t.Fatalf("outcomes %v: both the grant and the stop should win sometimes", got)
	}
}

// TestErrorCancelsSiblingTables: a failure in one table must cancel the
// others promptly, remove their partial output, report the failing
// table, and leave no dispatcher, worker or collector running — with two
// tables, and with many tables sharing the pool's chunk budget.
func TestErrorCancelsSiblingTables(t *testing.T) {
	two := bigSummary(100_000)
	two.Relations["A2"] = &summary.RelationSummary{
		Table: "A2", Cols: []string{"D"},
		Rows:  []summary.RelRow{{Vals: []int64{9}, Count: 100_000}},
		Total: 100_000,
	}
	const manyFrames = manyTables * (manyChunks + 1) // chunks and headers
	for _, tc := range []struct {
		prefix         string
		sum            *summary.Summary
		frames, failAt int64
	}{
		// Every frame fails, whichever table gets there first.
		{"", two, 2 * (100_000/manyGrid + 2), 1},
		// The failure strikes mid-run, with chunks of many tables in flight.
		{"many-tables/", manyRelations(manyTables, manyChunks*manyGrid), manyFrames, manyFrames / 4},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%sworkers=%d", tc.prefix, workers), func(t *testing.T) {
				before := runtime.NumGoroutine()
				failComp.calls.Store(0)
				failComp.failAt = tc.failAt
				dir := t.TempDir()
				start := time.Now()
				_, err := materializeFailing(tc.sum, Options{Dir: dir, Workers: workers}, manyGrid)
				if err == nil {
					t.Fatal("expected failure")
				}
				if waited := time.Since(start); waited > 5*time.Second {
					t.Fatalf("failure took %v to surface", waited)
				}
				if attempted := failComp.calls.Load(); attempted >= tc.frames/2 {
					t.Errorf("pipeline attempted %d of %d frames; want a prompt stop", attempted, tc.frames)
				}
				entries, readErr := os.ReadDir(dir)
				if readErr != nil {
					t.Fatal(readErr)
				}
				for _, e := range entries {
					t.Errorf("failed run left %s behind", e.Name())
				}
				waitGoroutines(t, before)
			})
		}
	}
}

// sparseSink emits output for only the first 128 rows of a relation, so
// every later chunk encodes to zero bytes — the shape of a filtering or
// sampling format. It reaches the engine through materialize.
type sparseSink struct{}

func (sparseSink) Name() string                            { return "sparsetest" }
func (sparseSink) Ext() string                             { return ".sp" }
func (sparseSink) ContentType() string                     { return "" }
func (sparseSink) Writes() bool                            { return true }
func (sparseSink) Align(format.Layout) (int, error)        { return 1, nil }
func (sparseSink) Header(format.Layout) ([]byte, error)    { return nil, nil }
func (sparseSink) Footer(format.Layout) ([]byte, error)    { return nil, nil }
func (sparseSink) NewEncoder(format.Layout) format.Encoder { return sparseEncoder{} }

type sparseEncoder struct{}

func (sparseEncoder) AppendSpan(dst []byte, sp tuplegen.Span) ([]byte, error) {
	for pk := sp.Start; pk < sp.Start+sp.N && pk <= 128; pk++ {
		dst = append(dst, fmt.Sprintf("%d\n", pk)...)
	}
	return dst, nil
}

// appendSpan is enc.AppendSpan of a span the test knows to be writable.
func appendSpan(t testing.TB, enc format.Encoder, dst []byte, sp tuplegen.Span) []byte {
	t.Helper()
	dst, err := enc.AppendSpan(dst, sp)
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestEmptyChunksStayDeterministic: a sink that encodes nothing for some
// chunks must still produce byte-identical compressed output at every
// worker count — empty chunks yield no frame on either the sequential or
// the pool path.
func TestEmptyChunksStayDeterministic(t *testing.T) {
	sum := bigSummary(50_000)
	var got []byte
	for _, workers := range []int{1, 8} {
		dir := t.TempDir()
		gz, _ := CompressorFor("gzip")
		rep, err := materialize(context.Background(), sum, Options{
			Dir: dir, Workers: workers, NoManifest: true,
		}, sparseSink{}, gz, 64)
		if err != nil {
			t.Fatal(err)
		}
		// Chunks that wrote nothing start nowhere: no index is reported
		// rather than one ReadManifest would refuse.
		for _, tr := range rep.Tables {
			if tr.ChunkRows != 0 || tr.Offsets != nil {
				t.Fatalf("workers=%d: %s reports an index over empty chunks: %d × %v", workers, tr.Table, tr.ChunkRows, tr.Offsets)
			}
		}
		b, err := os.ReadFile(filepath.Join(dir, "B.sp.gz"))
		if err != nil {
			t.Fatal(err)
		}
		if got == nil {
			got = b
			continue
		}
		if !bytes.Equal(b, got) {
			t.Fatalf("workers=%d: sparse compressed output differs from workers=1 (%d vs %d bytes)", workers, len(b), len(got))
		}
	}
	c, err := CompressorFor("gzip")
	if err != nil {
		t.Fatal(err)
	}
	zr, err := c.NewReader(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	defer zr.Close()
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(plain, []byte{'\n'}); lines != 128 {
		t.Fatalf("sparse output has %d lines, want 128", lines)
	}
}

// TestEncoderSteadyStateAllocs pins the zero-allocation property of the
// hot encode path: after a warmup call sizes the scratch buffers, every
// built-in encoder must allocate nothing per chunk, in every reference
// layout — all columns, the pk in the middle, no pk, a spread FK ahead of
// the pk — with FKs spread and not.
func TestEncoderSteadyStateAllocs(t *testing.T) {
	sum := testSummary()
	rs := sum.Relations["S"]
	for _, cols := range referenceLayouts["S"] {
		for _, spread := range []bool{false, true} {
			g := tuplegen.New(rs)
			g.SetFKSpread(spread)
			proj, err := g.Project(cols)
			if err != nil {
				t.Fatal(err)
			}
			if cols == nil {
				cols = g.ColNames()
			}
			l := format.Layout{Table: rs.Table, Cols: cols, TotalRows: g.NumRows(), Idx: proj}
			for _, name := range format.Names() {
				s := formatFor(name)
				if _, err := s.Align(l); err != nil {
					continue // spans without the pk first
				}
				enc := s.NewEncoder(l)
				var dst []byte
				allocs := testing.AllocsPerRun(50, func() {
					dst = dst[:0]
					it := g.Spans(1, 4096)
					for sp, ok := it.Next(); ok; sp, ok = it.Next() {
						dst = appendSpan(t, enc, dst, sp)
					}
				})
				if allocs != 0 {
					t.Errorf("%s %v spread=%v: allocates %.1f per chunk, want 0", name, cols, spread, allocs)
				}
			}
		}
	}
}

// TestReportRawBytes: RawBytes must equal Bytes for uncompressed runs
// and the decompressed size for compressed runs.
func TestReportRawBytes(t *testing.T) {
	sum := testSummary()
	plain, err := Materialize(sum, Options{Dir: t.TempDir(), Format: "csv", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plain.RawBytes != plain.Bytes {
		t.Fatalf("uncompressed RawBytes %d != Bytes %d", plain.RawBytes, plain.Bytes)
	}
	packed, err := Materialize(sum, Options{Dir: t.TempDir(), Format: "csv", Compress: "gzip", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if packed.RawBytes != plain.Bytes {
		t.Fatalf("compressed RawBytes %d != uncompressed Bytes %d", packed.RawBytes, plain.Bytes)
	}
	if packed.Bytes >= packed.RawBytes {
		t.Fatalf("compressed Bytes %d should undercut RawBytes %d on this data", packed.Bytes, packed.RawBytes)
	}
	m, err := ReadManifest(packed.ManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if m.RawBytes != packed.RawBytes {
		t.Fatalf("manifest RawBytes %d != report %d", m.RawBytes, packed.RawBytes)
	}
}
