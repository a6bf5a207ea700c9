package orchestrate

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/scan"
)

// TestWideSplits: splits of 1 000 and 1 001 shards, past the three
// digits a name's numbers have below that, verify after the run, scan
// back through OpenDir, and name their parts so that lexical order is
// shard order: the sorted parts concatenate to the single-file table.
func TestWideSplits(t *testing.T) {
	sum := testSummary()
	plain := t.TempDir()
	if _, err := matgen.Materialize(sum, matgen.Options{Dir: plain, Format: "csv", Workers: 1}); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1000, 1001} {
		t.Run(fmt.Sprint(shards), func(t *testing.T) {
			dir := t.TempDir()
			res, err := Run(context.Background(), sum, Options{Dir: dir, Format: "csv", Shards: shards, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Verification.Shards != shards {
				t.Fatalf("verified %d shards, want %d", res.Verification.Shards, shards)
			}
			src, err := scan.OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, table := range []string{"S", "T"} {
				want, err := os.ReadFile(filepath.Join(plain, table+".csv"))
				if err != nil {
					t.Fatal(err)
				}
				parts, err := filepath.Glob(filepath.Join(dir, table+".csv.part-*")) // sorted by name
				if err != nil || len(parts) != shards {
					t.Fatalf("%s: %d parts (%v), want %d", table, len(parts), err, shards)
				}
				var cat []byte
				for _, part := range parts {
					b, err := os.ReadFile(part)
					if err != nil {
						t.Fatal(err)
					}
					cat = append(cat, b...)
				}
				if !bytes.Equal(cat, want) {
					t.Fatalf("%s: parts in name order do not concatenate to the table", table)
				}
				sc, err := src.Scan(context.Background(), scan.Spec{Table: table})
				if err != nil {
					t.Fatal(err)
				}
				var got bytes.Buffer
				_, err = scan.EncodeScan(&got, sc, "csv")
				sc.Close()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("%s: directory scan differs from the table", table)
				}
			}
		})
	}
}
