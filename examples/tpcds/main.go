// TPC-DS regeneration: the full client→vendor loop of the paper's §7 at
// laptop scale.
//
// A synthetic TPC-DS-like client database is generated and a complex
// workload (WLc-style) is executed against it to obtain annotated query
// plans; the derived cardinality constraints are anonymized and handed to
// Hydra; the resulting summary is validated for volumetric similarity and
// compared against the DataSynth baseline on the simple workload.
//
// Run with: go run ./examples/tpcds [-sf 0.1] [-queries 60]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"time"

	hydra "github.com/dsl-repro/hydra"
	"github.com/dsl-repro/hydra/internal/anonymize"
	"github.com/dsl-repro/hydra/internal/engine"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/workload/tpcds"
)

func main() {
	sf := flag.Float64("sf", 0.1, "scale factor (1.0 ≈ 1M tuples)")
	queries := flag.Int("queries", 60, "number of workload queries")
	seed := flag.Int64("seed", 7, "generation seed")
	flag.Parse()

	// Client site: database + workload + AQPs + CC extraction.
	cfg := tpcds.Config{SF: *sf, Seed: *seed}
	schema := tpcds.Schema(cfg)
	fmt.Printf("client: generating TPC-DS-like database (sf=%.2g)...\n", *sf)
	db, err := tpcds.GenerateDB(schema, cfg)
	if err != nil {
		log.Fatal(err)
	}
	var rows int64
	for _, t := range schema.Tables {
		rows += t.RowCount
	}
	fmt.Printf("client: %d tables, %d tuples\n", len(schema.Tables), rows)

	qs := tpcds.QueriesComplex(schema, cfg, *queries)
	start := time.Now()
	workload, _, err := engine.WorkloadFromQueries(db, schema, "WLc", qs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client: executed %d queries → %d distinct CCs in %v\n",
		len(qs), len(workload.CCs), time.Since(start).Round(time.Millisecond))

	// Anonymizer: mask identifiers before anything leaves the client.
	maskedSchema, maskedWL, mapping, err := anonymize.Mask(schema, workload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client: anonymized %d tables / %d CCs (e.g. store_sales → %s)\n\n",
		len(maskedSchema.Tables), len(maskedWL.CCs), mapping.Table["store_sales"])

	// Vendor site: regenerate from the masked artifacts alone.
	start = time.Now()
	res, err := hydra.Regenerate(maskedSchema, maskedWL, hydra.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vendor: summary built in %v (LP: %d vars across views, solve %v summed over views)\n",
		res.BuildTime.Round(time.Millisecond), res.TotalVars, res.SolveTime.Round(time.Millisecond))
	fmt.Printf("vendor: summary holds %d rows (~%d bytes) for a %d-tuple database\n\n",
		res.Summary.NumRows(), res.Summary.SizeBytes(), rows)

	// Validation: CC satisfaction on the regenerated database.
	reports, err := res.Evaluate(maskedWL)
	if err != nil {
		log.Fatal(err)
	}
	exact, within10 := 0, 0
	worst := 0.0
	for _, r := range reports {
		a := math.Abs(r.RelErr)
		if a == 0 {
			exact++
		}
		if a <= 0.10 {
			within10++
		}
		if a > worst {
			worst = a
		}
	}
	fmt.Printf("volumetric similarity: %d CCs, %.1f%% exact, %.1f%% within 10%%, worst |rel err| %.4f\n",
		len(reports), 100*float64(exact)/float64(len(reports)),
		100*float64(within10)/float64(len(reports)), worst)

	extras := int64(0)
	for _, e := range res.Summary.Extra {
		extras += e
	}
	fmt.Printf("referential integrity: %d extra singleton tuples inserted (scale-independent)\n", extras)

	// Demonstrate plan-compatible dynamic execution: run one workload
	// query against the fully dynamic regenerated database.
	dynDB := engine.FromSummary(res.Summary)
	maskedQ := maskQuery(qs[0], mapping)
	aqp, err := engine.Execute(dynDB, maskedSchema, maskedQ)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndynamic execution of %s on generated data: join output %v (no materialized data touched)\n",
		qs[0].Name, aqp.JoinOut)
}

// maskQuery rewrites a client query onto the masked schema. Column ids in
// filters are positional, and masking preserves column order, so only
// table names need translation.
func maskQuery(q *engine.Query, m *anonymize.Mapping) *engine.Query {
	out := &engine.Query{Name: q.Name, Root: m.Table[q.Root], Filters: map[string]pred.DNF{}}
	for _, j := range q.Joins {
		out.Joins = append(out.Joins, engine.JoinStep{Table: m.Table[j.Table], Via: m.Table[j.Via]})
	}
	for tab, p := range q.Filters {
		out.Filters[m.Table[tab]] = p
	}
	return out
}
