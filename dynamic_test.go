package hydra_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	hydra "github.com/dsl-repro/hydra"
	"github.com/dsl-repro/hydra/internal/cc"
	"github.com/dsl-repro/hydra/internal/core"
	"github.com/dsl-repro/hydra/internal/engine"
	"github.com/dsl-repro/hydra/internal/preprocess"
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

// scaleBy multiplies every relation's row count and every CC's count by
// k: §7.4's exabyte recipe, which leaves the LP's structure alone.
func scaleBy(s *hydra.Schema, w *cc.Workload, k int64) (*hydra.Schema, *cc.Workload) {
	tabs := make([]*hydra.Table, len(s.Tables))
	for i, t := range s.Tables {
		nt := *t
		nt.RowCount = t.RowCount * k
		tabs[i] = &nt
	}
	nw := &cc.Workload{Name: w.Name, CCs: append([]cc.CC(nil), w.CCs...)}
	for i := range nw.CCs {
		nw.CCs[i].Count *= k
	}
	return hydra.MustSchema(tabs...), nw
}

// pinnedInput is one of the benchmark's four summarize inputs.
type pinnedInput struct {
	name string
	s    *hydra.Schema
	w    *cc.Workload
}

var pinned struct {
	once   sync.Once
	inputs []pinnedInput
	err    error
}

// pinnedInputs builds the benchmark's four summarize inputs (SF 0.2, seed
// 42) once per test binary.
func pinnedInputs(t testing.TB) []pinnedInput {
	t.Helper()
	pinned.once.Do(func() { pinned.inputs, pinned.err = buildPinnedInputs() })
	if pinned.err != nil {
		t.Fatal(pinned.err)
	}
	return pinned.inputs
}

func buildPinnedInputs() ([]pinnedInput, error) {
	cfg := tpcds.Config{SF: 0.2, Seed: 42}
	s := tpcds.Schema(cfg)
	db, err := tpcds.GenerateDB(s, cfg)
	if err != nil {
		return nil, err
	}
	wls, _, err := engine.WorkloadFromQueries(db, s, "WLs", tpcds.QueriesSimple(s, cfg, 90))
	if err != nil {
		return nil, err
	}
	wlc, _, err := engine.WorkloadFromQueries(db, s, "WLc", tpcds.QueriesComplex(s, cfg, 55))
	if err != nil {
		return nil, err
	}
	bigS, bigW := scaleBy(s, wlc, 100_000_000_000)
	jcfg := job.Config{SF: 0.2, Seed: 42}
	js := job.Schema(jcfg)
	jdb, err := job.GenerateDB(js, jcfg)
	if err != nil {
		return nil, err
	}
	jw, _, err := engine.WorkloadFromQueries(jdb, js, "JOB", job.Queries(js, jcfg, 30))
	if err != nil {
		return nil, err
	}
	return []pinnedInput{
		{"WLs-90", s, wls},
		{"WLc-55", s, wlc},
		{"WLc-55-x1e11", bigS, bigW},
		{"JOB-30", js, jw},
	}, nil
}

// solverPath is what solving every view of an input took, summed over
// its views: simplex pivots, branch-and-bound nodes, LP variables and LP
// rows.
type solverPath struct{ pivots, nodes, vars, rows int }

// solveViews runs the views of in through core.SolveViews, as Regenerate
// does, and sums their solver stats.
func solveViews(t testing.TB, in pinnedInput) solverPath {
	t.Helper()
	views, err := preprocess.BuildViews(in.s, in.w)
	if err != nil {
		t.Fatal(err)
	}
	order, err := in.s.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	ordered := make([]*preprocess.View, len(order))
	for i, tab := range order {
		ordered[i] = views[tab.Name]
	}
	sols, err := core.SolveViews(context.Background(), ordered, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sp solverPath
	for _, sol := range sols {
		sp.pivots += sol.Stats.Pivots
		sp.nodes += sol.Stats.Nodes
		sp.vars += sol.Stats.Vars
		sp.rows += sol.Stats.Rows
	}
	return sp
}

// TestSolverPathPinned pins, next to the digests, how each of the four
// summarize inputs is solved: Σ pivots, Σ branch-and-bound nodes, LP
// variables and LP rows over its views. A change that keeps every vertex
// keeps these too; run under -cpu 1,2,4 it also checks that the tableau
// memory views share does not depend on which worker solves which view.
func TestSolverPathPinned(t *testing.T) {
	// Cut before the vertex decisions of branch and bound left *big.Rat
	// and tableau memory outlived one SolveInteger call; the sums are the
	// benchmark's traced counts (lp.pivots 4 385, lp.bb_nodes 678,
	// core.lp_vars 7 566, core.lp_rows 2 681).
	want := map[string]solverPath{
		"WLs-90":       {pivots: 760, nodes: 250, vars: 651, rows: 551},
		"WLc-55":       {pivots: 1345, nodes: 186, vars: 2189, rows: 819},
		"WLc-55-x1e11": {pivots: 1229, nodes: 184, vars: 2189, rows: 819},
		"JOB-30":       {pivots: 1051, nodes: 58, vars: 2537, rows: 492},
	}
	for _, in := range pinnedInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			if got := solveViews(t, in); got != want[in.name] {
				t.Errorf("%s: solver path %+v, want %+v", in.name, got, want[in.name])
			}
		})
	}
}

// TestRegeneratePinnedDigests pins the summary digest of the benchmark's
// four summarize inputs (SF 0.2, seed 42). Views are solved concurrently
// on GOMAXPROCS workers, so running this under -cpu 1,2,4 checks that the
// summary does not depend on the worker count or on which view finishes
// first.
func TestRegeneratePinnedDigests(t *testing.T) {
	digests := map[string]string{
		"WLs-90":       "b8e8bbd620696cb5e5c8edc2836a17ab4c71ebe9b9e95a91b0750e6742b09806",
		"WLc-55":       "83511813cbbe0d98d30cd03350a377696c88b9a61ef1ebdd10628e9e6148befa",
		"WLc-55-x1e11": "a69559ff7edb0d42d5472975fb1ebb112978383148e8c93a786db708ba465f9b",
		"JOB-30":       "644500ae9d269d939a7b5503ead5484421b0d5fcc20deeb29b17e986c449df6a",
	}
	for _, in := range pinnedInputs(t) {
		res, err := hydra.Regenerate(in.s, in.w, hydra.Config{})
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		d, err := serve.SummaryDigest(res.Summary)
		if err != nil {
			t.Fatal(err)
		}
		if d != digests[in.name] {
			t.Errorf("%s: summary digest %s, want %s", in.name, d, digests[in.name])
		}
	}
}
