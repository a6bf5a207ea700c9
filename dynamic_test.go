package hydra_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"

	hydra "github.com/dsl-repro/hydra"
	"github.com/dsl-repro/hydra/internal/cc"
	"github.com/dsl-repro/hydra/internal/engine"
	"github.com/dsl-repro/hydra/internal/scan"
	"github.com/dsl-repro/hydra/internal/serve"
	"github.com/dsl-repro/hydra/internal/workload/job"
	"github.com/dsl-repro/hydra/internal/workload/tpcds"
)

// TestDynamicExecutionMatchesCCs is the paper's dynamic-regeneration story
// (§6) verified end to end: derive CCs from a client database, build the
// summary, then execute the same plans against a FULLY DYNAMIC database
// (every scan served by the tuple generator — no materialized rows). The
// operator cardinalities observed during that execution must equal the
// counts the summary-level evaluation promises.
func TestDynamicExecutionMatchesCCs(t *testing.T) {
	cfg := tpcds.Config{SF: 0.02, Seed: 5}
	s := tpcds.Schema(cfg)
	db, err := tpcds.GenerateDB(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := tpcds.QueriesComplex(s, cfg, 12)
	w, _, err := engine.WorkloadFromQueries(db, s, "wl", queries)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hydra.Regenerate(s, w, hydra.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := res.Evaluate(w)
	if err != nil {
		t.Fatal(err)
	}
	promised := map[string]int64{}
	for _, r := range reports {
		promised[r.Name] = r.Got
	}

	// Execute every plan on the dynamic database.
	dynDB := engine.FromSummary(res.Summary)
	for _, q := range queries {
		aqp, err := engine.Execute(dynDB, s, q)
		if err != nil {
			t.Fatalf("dynamic execution of %s: %v", q.Name, err)
		}
		ccs := aqp.ToCCs(s)
		for _, c := range ccs {
			want, ok := promised[c.Name]
			if !ok {
				// Deduped CC named under another query; skip.
				continue
			}
			if c.Count != want {
				t.Errorf("%s: dynamic execution observed %d, summary evaluation promised %d", c.Name, c.Count, want)
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
		info, err := src.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := engine.NewDatabase(src).Columns(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, scan.MemTable{Name: name, Cols: info.Cols, Data: data})
	}
	m, err := scan.NewMemSource(tables...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// materializedDB materializes sum and opens the directory as a database.
func materializedDB(t *testing.T, sum *hydra.Summary, opts hydra.MaterializeOptions) *engine.Database {
	t.Helper()
	opts.Dir = t.TempDir()
	if _, err := hydra.Materialize(sum, opts); err != nil {
		t.Fatal(err)
	}
	src, err := hydra.OpenDirSource(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	return engine.NewDatabase(src)
}

// sameAQP reports how two annotations of one plan differ, if they do.
func sameAQP(a, b *engine.AQP) error {
	if !maps.Equal(a.Base, b.Base) || !maps.Equal(a.FilterOut, b.FilterOut) || !slices.Equal(a.JoinOut, b.JoinOut) {
		return fmt.Errorf("base %v filters %v joins %v != base %v filters %v joins %v",
			a.Base, a.FilterOut, a.JoinOut, b.Base, b.FilterOut, b.JoinOut)
	}
	return nil
}

// TestDynamicAndMaterializedAgree: the same query must produce identical
// annotations on every backend the engine can read — the summary, an
// in-memory copy of it, a materialized directory in every scannable
// format with and without compression, and a serve fleet.
func TestDynamicAndMaterializedAgree(t *testing.T) {
	cfg := tpcds.Config{SF: 0.02, Seed: 9}
	s := tpcds.Schema(cfg)
	db, err := tpcds.GenerateDB(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := tpcds.QueriesComplex(s, cfg, 6)
	w, _, err := engine.WorkloadFromQueries(db, s, "wl", queries)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hydra.Regenerate(s, w, hydra.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dynDB := engine.FromSummary(res.Summary)
	remote, err := hydra.NewRemoteSource([]string{startFleetMember(t, res.Summary)}, hydra.RemoteSourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	backends := map[string]*engine.Database{
		"mem":    engine.NewDatabase(memCopy(t, dynDB)),
		"remote": engine.NewDatabase(remote),
	}
	for _, format := range []string{"csv", "jsonl", "heap", "spans"} {
		for _, compress := range []string{"", "gzip"} {
			backends["dir/"+format+"+"+compress] = materializedDB(t, res.Summary,
				hydra.MaterializeOptions{Format: format, Compress: compress, Workers: 2})
		}
	}
	for _, q := range queries {
		want, err := engine.Execute(dynDB, s, q)
		if err != nil {
			t.Fatal(err)
		}
		for name, bdb := range backends {
			got, err := engine.Execute(bdb, s, q)
			if err != nil {
				t.Fatalf("%s on %s: %v", q.Name, name, err)
			}
			if err := sameAQP(got, want); err != nil {
				t.Fatalf("%s on %s: %v (summary)", q.Name, name, err)
			}
		}
	}
}

// TestFKSpreadPreservesJoins: a database materialized with the spread-FK
// extension must annotate every plan as the first-row one does.
func TestFKSpreadPreservesJoins(t *testing.T) {
	cfg := tpcds.Config{SF: 0.02, Seed: 13}
	s := tpcds.Schema(cfg)
	db, err := tpcds.GenerateDB(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := tpcds.QueriesComplex(s, cfg, 6)
	w, _, err := engine.WorkloadFromQueries(db, s, "wl", queries)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hydra.Regenerate(s, w, hydra.Config{})
	if err != nil {
		t.Fatal(err)
	}
	plain := engine.FromSummary(res.Summary)
	spread := materializedDB(t, res.Summary, hydra.MaterializeOptions{Format: "heap", FKSpread: true})
	_, plainSum, err := engine.AggregateScan(plain, "store_sales", "ss_item_sk")
	if err != nil {
		t.Fatal(err)
	}
	if _, spreadSum, err := engine.AggregateScan(spread, "store_sales", "ss_item_sk"); err != nil || spreadSum == plainSum {
		t.Fatalf("spread store_sales FKs sum to %d (err %v), as the first-row ones do: nothing was spread", spreadSum, err)
	}
	for _, q := range queries {
		a1, err := engine.Execute(plain, s, q)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := engine.Execute(spread, s, q)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameAQP(a2, a1); err != nil {
			t.Fatalf("%s: spread %v (plain) — spreading must be volumetrically neutral", q.Name, err)
		}
	}
}

// ccDigest is the SHA-256 of a workload's sorted "name=count" lines.
func ccDigest(w *cc.Workload) string {
	lines := make([]string, len(w.CCs))
	for i, c := range w.CCs {
		lines[i] = fmt.Sprintf("%s=%d\n", c.Name, c.Count)
	}
	sort.Strings(lines)
	h := sha256.Sum256([]byte(strings.Join(lines, "")))
	return hex.EncodeToString(h[:])
}

// TestWorkloadFromQueriesPinned pins the CC counts the client-side flow
// extracts from the benchmark's three inputs (SF 0.2, seed 42), as cut by
// the row-at-a-time engine this one replaced: any change in how plans
// execute over a Source shows here as a different digest.
func TestWorkloadFromQueriesPinned(t *testing.T) {
	cfg := tpcds.Config{SF: 0.2, Seed: 42}
	s := tpcds.Schema(cfg)
	db, err := tpcds.GenerateDB(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	jcfg := job.Config{SF: 0.2, Seed: 42}
	js := job.Schema(jcfg)
	jdb, err := job.GenerateDB(js, jcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name   string
		db     *engine.Database
		s      *hydra.Schema
		qs     []*engine.Query
		digest string
	}{
		{"WLs", db, s, tpcds.QueriesSimple(s, cfg, 90), "4f60c82b4bbc07f638e88806589915ebec61908eaf54ce33eb99084ce70c8a0e"},
		{"WLc", db, s, tpcds.QueriesComplex(s, cfg, 55), "99785d57a5354d46c45f877359ec9975d9c44a6dca402a9fbc7408e5d464da93"},
		{"JOB", jdb, js, job.Queries(js, jcfg, 30), "9047eb4c98adac54e047f5b03755fa9a91ad945d4cb019d223054c7a893a3b52"},
	} {
		w, _, err := engine.WorkloadFromQueries(in.db, in.s, in.name, in.qs)
		if err != nil {
			t.Fatal(err)
		}
		if got := ccDigest(w); got != in.digest {
			t.Errorf("%s-%d: %d CCs digest to %s, want %s", in.name, len(in.qs), len(w.CCs), got, in.digest)
		}
	}
}

// TestRegenerateIsAFunctionOfItsInput pins the input on which the summary
// was seen to change between identical calls: TPC-DS WLc at 56 queries,
// where the sequential solver's separator rows used to be emitted in map
// order and two pivot paths led to two vertices.
func TestRegenerateIsAFunctionOfItsInput(t *testing.T) {
	cfg := tpcds.Config{SF: 0.2, Seed: 42}
	s := tpcds.Schema(cfg)
	db, err := tpcds.GenerateDB(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := engine.WorkloadFromQueries(db, s, "WLc", tpcds.QueriesComplex(s, cfg, 56))
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for call := 0; call < 12; call++ {
		res, err := hydra.Regenerate(s, w, hydra.Config{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := serve.SummaryDigest(res.Summary)
		if err != nil {
			t.Fatal(err)
		}
		if first == "" {
			first = d
		} else if d != first {
			t.Fatalf("call %d: summary digest %s, first call %s", call, d, first)
		}
	}
}
