// Command hydra-bench reproduces the paper's evaluation section: one
// experiment per table/figure of §7 (the index is package exp's doc
// comment, internal/exp/exp.go), printed as aligned text tables or as
// markdown.
//
// Usage:
//
//	hydra-bench -exp all                  # every experiment
//	hydra-bench -exp fig12,fig13          # a subset
//	hydra-bench -sf 0.5 -queries 131      # bigger substrate
//	hydra-bench -md > results.md          # markdown output
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/dsl-repro/hydra/internal/exp"
)

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
	sf := flag.Float64("sf", 0.2, "TPC-DS substrate scale factor (1.0 ≈ 1M tuples)")
	seed := flag.Int64("seed", 42, "workload/data seed")
	queries := flag.Int("queries", 0, "WLc query count (0 = paper's 131)")
	jobQueries := flag.Int("job-queries", 0, "JOB query count (0 = paper's 260)")
	dir := flag.String("dir", os.TempDir(), "scratch directory for disk experiments")
	md := flag.Bool("md", false, "emit markdown tables")
	flag.Parse()

	cfg := exp.Config{
		SF:         *sf,
		Seed:       *seed,
		QueriesWLc: *queries,
		QueriesJOB: *jobQueries,
		Dir:        *dir,
	}
	start := time.Now()
	fmt.Fprintf(os.Stderr, "building client environment (sf=%.2g, seed=%d)...\n", *sf, *seed)
	env, err := exp.NewEnv(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hydra-bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "environment ready in %v\n", time.Since(start).Round(time.Millisecond))

	var ids []string
	if *expFlag == "all" {
		for _, r := range exp.Runners() {
			ids = append(ids, r.ID)
		}
	} else {
		ids = strings.Split(*expFlag, ",")
	}
	failed := 0
	for _, id := range ids {
		id = strings.TrimSpace(id)
		t0 := time.Now()
		tab, err := exp.Run(env, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hydra-bench: %s: %v\n", id, err)
			failed++
			continue
		}
		fmt.Fprintf(os.Stderr, "%s done in %v\n", id, time.Since(t0).Round(time.Millisecond))
		if *md {
			printMarkdown(tab)
		} else {
			tab.Fprint(os.Stdout)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func printMarkdown(t *exp.Table) {
	fmt.Printf("### %s — %s\n\n", t.ID, t.Title)
	fmt.Println("| " + strings.Join(t.Header, " | ") + " |")
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Println("| " + strings.Join(seps, " | ") + " |")
	for _, row := range t.Rows {
		fmt.Println("| " + strings.Join(row, " | ") + " |")
	}
	for _, n := range t.Notes {
		fmt.Printf("\n_%s_\n", n)
	}
	fmt.Println()
}
