package matgen

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"github.com/dsl-repro/hydra/internal/format"
)

// TestProjectionDeterminism extends the worker-count contract to
// projected materializations: for every file format, a column subset
// (reordered, pk-less where the format allows) must produce
// byte-identical files for 1 and 8 workers, and shard parts must
// concatenate into the single-shard file.
func TestProjectionDeterminism(t *testing.T) {
	sum := testSummary()
	cols := []string{"t_fk", "A"} // reordered, no pk
	for _, fm := range fileFormats() {
		t.Run(fm, func(t *testing.T) {
			if _, err := formatFor(fm).Align(format.Layout{Table: "S", Cols: cols}); err != nil {
				// The format cannot express this layout: the run must fail
				// before it writes a file no reader could open.
				dir := t.TempDir()
				if _, err := Materialize(sum, Options{Dir: dir, Format: fm, Tables: []string{"S"}, Columns: cols}); err == nil {
					t.Fatalf("%s materialized a layout it declares it cannot carry", fm)
				}
				if files := readDirFiles(t, dir); len(files) != 0 {
					t.Fatalf("rejected run left files behind: %v", files)
				}
				return
			}
			var whole map[string][]byte
			for _, workers := range []int{1, 8} {
				dir := t.TempDir()
				if _, err := Materialize(sum, Options{
					Dir: dir, Format: fm, Workers: workers,
					BatchRows: 64, Tables: []string{"S"}, Columns: cols,
				}); err != nil {
					t.Fatal(err)
				}
				files := readDirFiles(t, dir)
				if whole == nil {
					whole = files
					continue
				}
				for name, b := range files {
					if !bytes.Equal(b, whole[name]) {
						t.Fatalf("workers=8: %s differs from workers=1", name)
					}
				}
			}
			// Shard concatenation under projection.
			dir := t.TempDir()
			const shards = 3
			for i := 0; i < shards; i++ {
				if _, err := Materialize(sum, Options{
					Dir: dir, Format: fm, Workers: 4, Shards: shards, Shard: i,
					BatchRows: 64, Tables: []string{"S"}, Columns: cols,
				}); err != nil {
					t.Fatal(err)
				}
			}
			var cat []byte
			for i := 0; i < shards; i++ {
				name := fmt.Sprintf("S%s.part-%03d-of-%03d", formatFor(fm).Ext(), i, shards)
				cat = append(cat, readDirFiles(t, dir)[name]...)
			}
			for name, b := range whole {
				if !bytes.Equal(cat, b) {
					t.Fatalf("projected shards of %s do not concatenate to the whole file (%d vs %d bytes)",
						name, len(cat), len(b))
				}
			}
		})
	}
}

// TestStreamProjection: a projected stream is byte-identical to a
// projected materialization, and resuming a projected stream on the
// chunk grid splices exactly.
func TestStreamProjection(t *testing.T) {
	sum := testSummary()
	cols := []string{"S_pk", "B"}
	dir := t.TempDir()
	if _, err := Materialize(sum, Options{
		Dir: dir, Format: "csv", Workers: 2, Tables: []string{"S"}, Columns: cols,
	}); err != nil {
		t.Fatal(err)
	}
	want := readDirFiles(t, dir)["S.csv"]

	var whole bytes.Buffer
	rep, err := Stream(context.Background(), sum, StreamOptions{
		Table: "S", Format: "csv", Columns: cols, BatchRows: 512,
	}, &whole)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole.Bytes(), want) {
		t.Fatalf("projected stream differs from projected file (%d vs %d bytes)", whole.Len(), len(want))
	}
	if len(rep.Cols) != 2 || rep.Cols[0] != "S_pk" || rep.Cols[1] != "B" {
		t.Fatalf("report cols = %v", rep.Cols)
	}

	// Resume at a grid offset: prefix+suffix must equal the whole stream.
	off := rep.ChunkRows * 2
	var prefix, suffix bytes.Buffer
	if _, err := Stream(context.Background(), sum, StreamOptions{
		Table: "S", Format: "csv", Columns: cols, BatchRows: 512, Limit: off,
	}, &prefix); err != nil {
		t.Fatal(err)
	}
	if _, err := Stream(context.Background(), sum, StreamOptions{
		Table: "S", Format: "csv", Columns: cols, BatchRows: 512, Offset: off,
	}, &suffix); err != nil {
		t.Fatal(err)
	}
	if got := append(prefix.Bytes(), suffix.Bytes()...); !bytes.Equal(got, want) {
		t.Fatalf("resumed projected stream does not splice (%d vs %d bytes)", len(got), len(want))
	}
}
