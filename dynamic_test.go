package hydra_test

import (
	"testing"

	hydra "github.com/dsl-repro/hydra"
	"github.com/dsl-repro/hydra/internal/engine"
	"github.com/dsl-repro/hydra/internal/serve"
	"github.com/dsl-repro/hydra/internal/tuplegen"
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

// TestDynamicAndMaterializedAgree: the same query must produce identical
// annotations whether scans are dynamic or materialized — the two
// consumption modes of the summary.
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
	matDB := engine.NewDatabase()
	for name := range res.Summary.Relations {
		rel, err := dynDB.Rel(name)
		if err != nil {
			t.Fatal(err)
		}
		mem, err := engine.Materialize(rel)
		if err != nil {
			t.Fatal(err)
		}
		matDB.Add(mem)
	}
	for _, q := range queries {
		a1, err := engine.Execute(dynDB, s, q)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := engine.Execute(matDB, s, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a1.JoinOut {
			if a1.JoinOut[i] != a2.JoinOut[i] {
				t.Fatalf("%s join %d: dynamic %d != materialized %d", q.Name, i, a1.JoinOut[i], a2.JoinOut[i])
			}
		}
		for tab, v := range a1.FilterOut {
			if a2.FilterOut[tab] != v {
				t.Fatalf("%s filter on %s: dynamic %d != materialized %d", q.Name, tab, v, a2.FilterOut[tab])
			}
		}
	}
}

// TestFKSpreadPreservesJoins: enabling the spread-FK extension must leave
// every join cardinality unchanged.
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
	spread := engine.NewDatabase()
	for _, rs := range res.Summary.Relations {
		gen := tuplegen.New(rs)
		gen.SetFKSpread(true)
		spread.Add(engine.NewGenRelation(gen))
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
		for i := range a1.JoinOut {
			if a1.JoinOut[i] != a2.JoinOut[i] {
				t.Fatalf("%s join %d: plain %d != spread %d — spreading must be volumetrically neutral", q.Name, i, a1.JoinOut[i], a2.JoinOut[i])
			}
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
