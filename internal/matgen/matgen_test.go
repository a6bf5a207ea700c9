package matgen

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dsl-repro/hydra/internal/format"
	"github.com/dsl-repro/hydra/internal/summary"
)

// testSummary is a two-relation summary with FK spans, sized so that
// every sink's chunking (heap pages, SQL statement groups) is exercised
// across multiple chunks at small batch sizes.
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

func fileFormats() []string { return format.FileNames() }

// formatFor resolves a format name, which the test knows to exist.
func formatFor(name string) *format.Format {
	f, err := format.ByName(name)
	if err != nil {
		panic(err)
	}
	return f
}

func readDirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "manifest-") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestWorkerCountDeterminism is the headline guarantee: for every file
// format and both FK-spread settings, 1 worker and 8 workers must write
// byte-identical files. Small batches force many chunks through the pool.
func TestWorkerCountDeterminism(t *testing.T) {
	sum := testSummary()
	for _, format := range fileFormats() {
		for _, spread := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/spread=%v", format, spread), func(t *testing.T) {
				var got map[string][]byte
				var manifest []byte
				for _, workers := range []int{1, 8} {
					dir := t.TempDir()
					in := *sum
					in.FKSpread = spread
					rep, err := materializeGrid(&in, Options{
						Dir: dir, Format: format, Workers: workers,
					}, 64)
					if err != nil {
						t.Fatal(err)
					}
					if rep.Rows != 8208+1513 {
						t.Fatalf("rows = %d", rep.Rows)
					}
					files := readDirFiles(t, dir)
					if len(files) != 2 {
						t.Fatalf("files = %v", files)
					}
					if got == nil {
						got, manifest = files, manifestBytes(t, dir, rep)
						continue
					}
					// The manifest — chunk index included — is as
					// worker-independent as the bytes it describes.
					if m := manifestBytes(t, dir, rep); !bytes.Equal(m, manifest) {
						t.Fatalf("workers=%d: manifest differs from workers=1:\n%s\nvs\n%s", workers, m, manifest)
					}
					for name, b := range files {
						if !bytes.Equal(b, got[name]) {
							t.Fatalf("workers=%d: %s differs from workers=1 output (%d vs %d bytes)",
								workers, name, len(b), len(got[name]))
						}
					}
				}
			})
		}
	}
}

// TestShardsConcatenate verifies the multi-machine contract: generating
// piece i/N for every i and concatenating the parts in shard order must
// reproduce the single-shard file byte-for-byte, for every format.
func TestShardsConcatenate(t *testing.T) {
	sum := testSummary()
	const shards = 3
	for _, format := range fileFormats() {
		t.Run(format, func(t *testing.T) {
			whole := t.TempDir()
			if _, err := materializeGrid(sum, Options{Dir: whole, Format: format, Workers: 2}, 128); err != nil {
				t.Fatal(err)
			}
			parts := t.TempDir()
			for i := 0; i < shards; i++ {
				rep, err := materializeGrid(sum, Options{
					Dir: parts, Format: format, Workers: 3,
					Shards: shards, Shard: i,
				}, 128)
				if err != nil {
					t.Fatal(err)
				}
				if rep.ManifestPath == "" {
					t.Fatal("sharded run must write a manifest")
				}
			}
			for name, want := range readDirFiles(t, whole) {
				var cat []byte
				for i := 0; i < shards; i++ {
					b, err := os.ReadFile(filepath.Join(parts, fmt.Sprintf("%s.part-%03d-of-%03d", name, i, shards)))
					if err != nil {
						t.Fatal(err)
					}
					cat = append(cat, b...)
				}
				if !bytes.Equal(cat, want) {
					t.Fatalf("%s: concatenated parts (%d bytes) != whole file (%d bytes)", name, len(cat), len(want))
				}
			}
		})
	}
}

// TestCSVAndSQLShape spot-checks the text formats' structure.
func TestCSVAndSQLShape(t *testing.T) {
	sum := testSummary()
	dir := t.TempDir()
	if _, err := Materialize(sum, Options{Dir: dir, Format: "csv", Workers: 2}); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "T.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(csv), "\n"), "\n")
	if lines[0] != "T_pk,C" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines) != 1+1513 {
		t.Fatalf("csv line count = %d", len(lines))
	}
	if lines[1] != "1,2" || lines[len(lines)-1] != "1513,7" {
		t.Fatalf("csv rows: first %q last %q", lines[1], lines[len(lines)-1])
	}
	if _, err := Materialize(sum, Options{Dir: dir, Format: "sql", Workers: 2}); err != nil {
		t.Fatal(err)
	}
	sql, err := os.ReadFile(filepath.Join(dir, "T.sql"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(sql)
	if !strings.Contains(text, "BEGIN;\n") || !strings.HasSuffix(text, "COMMIT;\n") {
		t.Fatal("sql missing transaction wrapper")
	}
	const sqlRowsPerStmt = 500
	wantStmts := (1513 + sqlRowsPerStmt - 1) / sqlRowsPerStmt
	if got := strings.Count(text, "INSERT INTO T (T_pk,C) VALUES\n"); got != wantStmts {
		t.Fatalf("sql INSERT count = %d, want %d", got, wantStmts)
	}
	if got := strings.Count(text, ";\n"); got != wantStmts+2 { // + BEGIN/COMMIT
		t.Fatalf("sql terminator count = %d, want %d", got, wantStmts+2)
	}
}

func TestDiscardAndSubset(t *testing.T) {
	sum := testSummary()
	rep, err := Materialize(sum, Options{Format: "discard", Workers: 4, Tables: []string{"S"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 8208 || rep.Bytes != 0 {
		t.Fatalf("discard report rows=%d bytes=%d", rep.Rows, rep.Bytes)
	}
	if len(rep.Tables) != 1 || rep.Tables[0].Path != "" {
		t.Fatalf("discard tables = %+v", rep.Tables)
	}
	if rep.RowsPerSec() <= 0 {
		t.Fatal("rows/sec not measured")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	sum := testSummary()
	dir := t.TempDir()
	rep, err := Materialize(sum, Options{Dir: dir, Format: "jsonl", Workers: 2, Shards: 2, Shard: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(rep.ManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shard != 1 || m.Shards != 2 || m.Format != "jsonl" || m.Rows != rep.Rows {
		t.Fatalf("manifest = %+v", m)
	}
	if len(m.Tables) != 2 {
		t.Fatalf("manifest tables = %+v", m.Tables)
	}
	for _, tr := range m.Tables {
		if tr.StartRow+tr.Rows > tr.TotalRows || tr.Rows < 0 {
			t.Fatalf("bad table range: %+v", tr)
		}
	}
}

func TestOptionValidation(t *testing.T) {
	sum := testSummary()
	cases := []Options{
		{Format: "parquet", Dir: t.TempDir()},
		{Format: "csv"}, // no Dir
		{Format: "discard", Shards: 2, Shard: 5},
		{Format: "discard", Workers: -1},
		{Format: "discard", Tables: []string{"nope"}},
	}
	for i, opts := range cases {
		if _, err := Materialize(sum, opts); err == nil {
			t.Fatalf("case %d (%+v): expected error", i, opts)
		}
	}
}

// TestChunkGridFromCodec: the chunk grid is a function of codec and
// format alone — 8192 rows, or 2048 under a codec, rounded up to the
// alignment — in a stream's geometry, a manifest's chunk index and the
// shard split points alike. The sizes are literals: every compressed
// file and manifest written so far was cut on them.
func TestChunkGridFromCodec(t *testing.T) {
	sum := testSummary()
	for _, fm := range fileFormats() {
		for _, compress := range []string{"", "gzip"} {
			grid := 8192
			if compress != "" {
				grid = 2048
			}
			sp, err := PlanStream(sum, StreamOptions{Table: "S", Format: fm, Compress: compress, Shards: 3, Shard: 2})
			if err != nil {
				t.Fatal(err)
			}
			info := sp.Info()
			want := int64(chunkRows(grid, info.Align))
			if info.ChunkRows != want {
				t.Errorf("%s+%s: stream chunk rows %d, want %d", fm, compressName(compress), info.ChunkRows, want)
			}
			rep, err := Materialize(sum, Options{
				Dir: t.TempDir(), Format: fm, Compress: compress,
				Shards: 3, Shard: 2, Tables: []string{"S"},
			})
			if err != nil {
				t.Fatal(err)
			}
			tr := rep.Tables[0]
			if tr.ChunkRows != want || tr.StartRow != info.StartRow || tr.StartRow%want != 0 {
				t.Errorf("%s+%s: part starts at row %d with chunk rows %d; stream starts at %d, grid %d",
					fm, compressName(compress), tr.StartRow, tr.ChunkRows, info.StartRow, want)
			}
		}
	}
}

func TestShardRangePartition(t *testing.T) {
	for _, total := range []int64{0, 1, 99, 1513, 8208, 1_000_000} {
		for _, align := range []int{1, 7, 256, 500} {
			for _, n := range []int{1, 2, 3, 8} {
				var covered int64
				prevHi := int64(0)
				for i := 0; i < n; i++ {
					r := shardRange(total, i, n, align)
					if r.Lo != prevHi {
						t.Fatalf("total=%d align=%d n=%d shard=%d: lo %d != prev hi %d", total, align, n, i, r.Lo, prevHi)
					}
					if i != n-1 && r.Hi%int64(align) != 0 {
						t.Fatalf("interior boundary %d not aligned to %d", r.Hi, align)
					}
					covered += r.Rows()
					prevHi = r.Hi
				}
				if covered != total || prevHi != total {
					t.Fatalf("total=%d align=%d n=%d: covered %d, end %d", total, align, n, covered, prevHi)
				}
			}
		}
	}
}
