package matgen

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"github.com/dsl-repro/hydra/internal/summary"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// failingCompressor counts AppendFrame calls and fails permanently from
// failAt on — a stand-in for a mid-run write/compress failure that lets
// the tests observe how much work the pipeline performs after the first
// error.
type failingCompressor struct {
	calls  atomic.Int64
	failAt int64
}

func (f *failingCompressor) Name() string { return "testfail" }
func (f *failingCompressor) Ext() string  { return ".tf" }

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

func init() { RegisterCompressor(failComp) }

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
	const batch = 64
	totalChunks := int64((rows + batch - 1) / batch)
	failComp.calls.Store(0)
	failComp.failAt = 3
	dir := t.TempDir()
	_, err := Materialize(bigSummary(rows), Options{
		Dir: dir, Format: "csv", Compress: "testfail",
		Workers: 4, BatchRows: batch,
	})
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

// TestErrorCancelsSiblingTables: a failure in one table must cancel the
// others, remove their partial output, and report the failing table.
func TestErrorCancelsSiblingTables(t *testing.T) {
	sum := bigSummary(100_000)
	sum.Relations["A2"] = &summary.RelationSummary{
		Table: "A2", Cols: []string{"D"},
		Rows:  []summary.RelRow{{Vals: []int64{9}, Count: 100_000}},
		Total: 100_000,
	}
	failComp.calls.Store(0)
	failComp.failAt = 1 // every frame fails, whichever table gets there first
	dir := t.TempDir()
	_, err := Materialize(sum, Options{
		Dir: dir, Format: "csv", Compress: "testfail",
		Workers: 4, BatchRows: 64,
	})
	if err == nil {
		t.Fatal("expected failure")
	}
	entries, readErr := os.ReadDir(dir)
	if readErr != nil {
		t.Fatal(readErr)
	}
	for _, e := range entries {
		t.Errorf("failed run left %s behind", e.Name())
	}
}

// sparseSink emits output for only the first 128 rows of a relation, so
// every later chunk encodes to zero bytes — the shape of a filtering or
// sampling custom sink.
type sparseSink struct{}

func (sparseSink) Name() string                  { return "sparsetest" }
func (sparseSink) Ext() string                   { return ".sp" }
func (sparseSink) Align(int) (int, error)        { return 1, nil }
func (sparseSink) Header(Layout) ([]byte, error) { return nil, nil }
func (sparseSink) Footer(Layout) ([]byte, error) { return nil, nil }
func (sparseSink) NewEncoder(Layout) Encoder     { return sparseEncoder{} }

type sparseEncoder struct{}

func (sparseEncoder) AppendSpan(dst []byte, sp tuplegen.Span) []byte {
	for pk := sp.Start; pk < sp.Start+sp.N && pk <= 128; pk++ {
		dst = append(dst, fmt.Sprintf("%d\n", pk)...)
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
		rep, err := Materialize(sum, Options{
			Dir: dir, Sink: sparseSink{}, Compress: "gzip",
			Workers: workers, BatchRows: 64, NoManifest: true,
		})
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
			l := Layout{Table: rs.Table, Cols: cols, TotalRows: g.NumRows(), Idx: proj}
			for _, name := range SinkNames() {
				s, err := sinkFor(name)
				if err != nil {
					t.Fatal(err)
				}
				if CheckLayout(s, l) != nil {
					continue // spans without the pk first
				}
				enc := s.NewEncoder(l)
				var dst []byte
				allocs := testing.AllocsPerRun(50, func() {
					dst = dst[:0]
					it := g.Spans(1, 4096)
					for sp, ok := it.Next(); ok; sp, ok = it.Next() {
						dst = enc.AppendSpan(dst, sp)
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
