package matgen

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/dsl-repro/hydra/internal/summary"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files from the current encoder output")

// goldenSummary is the byte-compatibility fixture: big enough to cross
// heap page boundaries (512 rows/page for T, 256 for S), SQL statement
// groups (500 rows), and several 256-row chunks, with negative and
// >2^53 values to pin signed and large-integer rendering, and FK spans
// both spread (>1) and degenerate (1).
func goldenSummary() *summary.Summary {
	tRel := &summary.RelationSummary{
		Table: "T", Cols: []string{"C"},
		Rows: []summary.RelRow{
			{Vals: []int64{3}, Count: 700},
			{Vals: []int64{-41}, Count: 400},
		},
		Total: 1100,
	}
	sRel := &summary.RelationSummary{
		Table: "S", Cols: []string{"A", "B"}, FKCols: []string{"t_fk"}, FKRefs: []string{"T"},
		Rows: []summary.RelRow{
			{Vals: []int64{12, 9007199254740993}, FKs: []int64{1}, FKSpans: []int64{700}, Count: 517},
			{Vals: []int64{-8, 0}, FKs: []int64{701}, FKSpans: []int64{400}, Count: 483},
			{Vals: []int64{12, -1}, FKs: []int64{1}, FKSpans: []int64{1}, Count: 300},
		},
		Total: 1300,
	}
	return &summary.Summary{Relations: map[string]*summary.RelationSummary{"S": sRel, "T": tRel}}
}

// goldenConfig is one pinned materialization of goldenSummary. A config
// with cols projects table S alone onto them.
type goldenConfig struct {
	name, format, compress string
	spread                 bool
	cols                   []string
}

// goldenConfigs covers every file sink, plain and gzip-framed. Spread-FK
// mode is on for most configs because it exercises both the constant-run
// and the modular-FK encoding paths; one csv config pins the non-spread
// output too. The -proj configs pin projected layouts: csv reordered with
// the pk in the middle, jsonl without the pk, heap and sql subsets.
func goldenConfigs() []goldenConfig {
	return []goldenConfig{
		{"csv", "csv", "", true, nil},
		{"csv-nospread", "csv", "", false, nil},
		{"csv-gz", "csv", "gzip", true, nil},
		{"jsonl", "jsonl", "", true, nil},
		{"jsonl-gz", "jsonl", "gzip", true, nil},
		{"heap", "heap", "", true, nil},
		{"heap-gz", "heap", "gzip", true, nil},
		{"sql", "sql", "", true, nil},
		{"sql-gz", "sql", "gzip", true, nil},
		{"spans", "spans", "", true, nil},
		{"spans-gz", "spans", "gzip", true, nil},
		{"csv-proj", "csv", "", true, []string{"t_fk", "S_pk", "B"}},
		{"jsonl-proj", "jsonl", "", true, []string{"B", "t_fk"}},
		{"heap-proj", "heap", "", true, []string{"t_fk", "S_pk"}},
		{"sql-proj", "sql", "", true, []string{"S_pk", "A"}},
	}
}

// TestGoldenOutputBytes pins the exact output bytes of every sink, plain
// and compressed, against committed fixtures. The golden files were
// generated by the pre-rewrite stateless-AppendBatch encoders, so a pass
// here proves the encoder pipeline rewrite changed zero output bytes —
// including gzip member framing, which also pins the chunk-boundary
// layout (a 256-row grid × alignment). Compressed goldens additionally depend
// on the Go toolchain's gzip output staying stable (CI pins the Go
// version). Regenerate with `go test ./internal/matgen -run Golden -update`.
func TestGoldenOutputBytes(t *testing.T) {
	sum := goldenSummary()
	for _, cfg := range goldenConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			dir := t.TempDir()
			var tables []string
			if cfg.cols != nil {
				tables = []string{"S"}
			}
			in := *sum
			in.FKSpread = cfg.spread
			if _, err := materializeGrid(&in, Options{
				Dir: dir, Format: cfg.format, Compress: cfg.compress,
				Workers: 3, NoManifest: true,
				Tables: tables, Columns: cfg.cols,
			}, 256); err != nil {
				t.Fatal(err)
			}
			got := readDirFiles(t, dir)
			goldenDir := filepath.Join("testdata", "golden", cfg.name)
			if *updateGolden {
				if err := os.MkdirAll(goldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				for name, b := range got {
					if err := os.WriteFile(filepath.Join(goldenDir, name), b, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				return
			}
			entries, err := os.ReadDir(goldenDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != len(got) {
				t.Fatalf("produced %d files, golden dir has %d", len(got), len(entries))
			}
			for _, e := range entries {
				want, err := os.ReadFile(filepath.Join(goldenDir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				b, ok := got[e.Name()]
				if !ok {
					t.Fatalf("golden file %s was not produced", e.Name())
				}
				if !bytes.Equal(b, want) {
					t.Fatalf("%s: output (%d bytes) differs from golden (%d bytes) at offset %d",
						e.Name(), len(b), len(want), diffOffset(b, want))
				}
			}
		})
	}
}

// diffOffset returns the first byte offset where a and b differ.
func diffOffset(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestGoldenShardsConcatenate re-checks the shard contract against the
// same pinned fixture: concatenated 3-way shard parts must equal the
// committed single-shard golden bytes exactly — spans included, whose
// frames are clipped at chunk boundaries, where shards split a table.
func TestGoldenShardsConcatenate(t *testing.T) {
	sum := goldenSummary()
	sum.FKSpread = true
	if *updateGolden {
		t.Skip("golden update run")
	}
	const shards = 3
	for _, cfg := range goldenConfigs() {
		if !slices.Contains([]string{"csv", "heap-gz", "spans", "spans-gz"}, cfg.name) {
			continue
		}
		t.Run(cfg.name, func(t *testing.T) {
			dir := t.TempDir()
			for i := 0; i < shards; i++ {
				if _, err := materializeGrid(sum, Options{
					Dir: dir, Format: cfg.format, Compress: cfg.compress,
					Workers: 2, Shards: shards, Shard: i, NoManifest: true,
				}, 256); err != nil {
					t.Fatal(err)
				}
			}
			goldenDir := filepath.Join("testdata", "golden", cfg.name)
			entries, err := os.ReadDir(goldenDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				want, err := os.ReadFile(filepath.Join(goldenDir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				var cat []byte
				for i := 0; i < shards; i++ {
					name := e.Name()
					ext := filepath.Ext(name)
					part := fmt.Sprintf(".part-%03d-of-%03d", i, shards)
					if ext == ".gz" {
						name = name[:len(name)-len(ext)] + part + ext
					} else {
						name += part
					}
					b, err := os.ReadFile(filepath.Join(dir, name))
					if err != nil {
						t.Fatal(err)
					}
					cat = append(cat, b...)
				}
				if !bytes.Equal(cat, want) {
					t.Fatalf("%s: concatenated parts (%d bytes) != golden (%d bytes)", e.Name(), len(cat), len(want))
				}
			}
		})
	}
}
