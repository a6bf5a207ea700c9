package hydra_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	hydra "github.com/dsl-repro/hydra"
)

// TestMaterializeFacade runs the full pipeline — regenerate the Figure 1
// workload, then materialize the summary through the parallel engine —
// and checks row counts, format plumbing, and worker-count determinism at
// the public API level.
func TestMaterializeFacade(t *testing.T) {
	s := figure1Schema(t)
	w := figure1Workload()
	res, err := hydra.Regenerate(s, w, hydra.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, rs := range res.Summary.Relations {
		total += rs.Total
	}

	read := func(dir string) map[string][]byte {
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

	var ref map[string][]byte
	for _, workers := range []int{1, 8} {
		dir := t.TempDir()
		rep, err := hydra.Materialize(res.Summary, hydra.MaterializeOptions{
			Dir: dir, Format: "csv", Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Rows != total {
			t.Fatalf("workers=%d: materialized %d rows, want %d", workers, rep.Rows, total)
		}
		files := read(dir)
		if len(files) != len(res.Summary.Relations) {
			t.Fatalf("workers=%d: %d files for %d relations", workers, len(files), len(res.Summary.Relations))
		}
		if ref == nil {
			ref = files
			continue
		}
		for name, b := range files {
			if !bytes.Equal(b, ref[name]) {
				t.Fatalf("workers=%d: %s not byte-identical to workers=1", workers, name)
			}
		}
	}

	if got := hydra.MaterializeFormats(); len(got) < 5 {
		t.Fatalf("MaterializeFormats = %v", got)
	}
	if got := hydra.MaterializeCompressors(); len(got) < 1 {
		t.Fatalf("MaterializeCompressors = %v", got)
	}
}

// TestOrchestrateFacade runs the cluster-shaped path at the public API
// level: a sharded compressed job whose manifests must verify, plus a
// standalone re-verification of the same directory.
func TestOrchestrateFacade(t *testing.T) {
	s := figure1Schema(t)
	w := figure1Workload()
	res, err := hydra.Regenerate(s, w, hydra.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, rs := range res.Summary.Relations {
		total += rs.Total
	}
	dir := t.TempDir()
	out, err := hydra.Orchestrate(context.Background(), res.Summary, hydra.OrchestrateOptions{
		Dir: dir, Format: "csv", Compress: "gzip", Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows != total {
		t.Fatalf("orchestrated %d rows, want %d", out.Rows, total)
	}
	if out.Verification == nil || out.Verification.Compression != "gzip" {
		t.Fatalf("verification = %+v", out.Verification)
	}
	vr, err := hydra.VerifyShards(hydra.ShardVerifyOptions{Dir: dir, Summary: res.Summary})
	if err != nil {
		t.Fatal(err)
	}
	if vr.Shards != 3 || len(vr.Tables) != len(res.Summary.Relations) {
		t.Fatalf("re-verification = %+v", vr)
	}
}
