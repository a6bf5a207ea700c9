package main

import (
	"fmt"
	"sort"

	"github.com/dsl-repro/hydra"
	"github.com/dsl-repro/hydra/internal/cc"
	"github.com/dsl-repro/hydra/internal/engine"
	"github.com/dsl-repro/hydra/internal/schema"
	"github.com/dsl-repro/hydra/internal/workload/job"
	"github.com/dsl-repro/hydra/internal/workload/tpcds"
)

// The data set is part of the benchmark's definition, so its generator
// settings are constants: -seed drives only the request stream.
const (
	substrateSF   = 0.2
	substrateSeed = 42
	queriesWLs    = 90
	queriesWLc    = 55 // the largest WLc on which Regenerate is a function of its input
	queriesProbe  = 56 // the smallest WLc on which it is not: two digests of one size
)

// scale sizes one benchmark invocation. The full scale is the one every
// reported number refers to; the smoke scale exists so the unit tests can
// run all six workloads and the traced pass in seconds.
type scale struct {
	name       string
	mult       int64 // row and CC count multiplier over the SF 0.2 substrate (§7.4's recipe)
	rangeRows  int64 // rows per ranged request
	queryRows  int64 // pk window of one serve-query
	bigRows    int64 // relations with at least this many rows are request targets
	jobQueries int   // size of the JOB summarize input; its LP dominates a pass
	setups     int   // set-ups per untraced run; setup_s is their median
	probes     int   // Regenerate calls on the unstable-input probe
	rungReps   int   // repetitions of each cheap ladder rung; the median is reported
}

var (
	fullScale  = scale{name: "x50", mult: 50, rangeRows: 50_000, queryRows: 200_000, bigRows: 200_000, jobQueries: 30, setups: 5, probes: 16, rungReps: 3}
	smokeScale = scale{name: "x1", mult: 1, rangeRows: 1_000, queryRows: 10_000, bigRows: 4_000, jobQueries: 10, setups: 1, probes: 2, rungReps: 1}
)

// scaleWorkload multiplies every relation's row count and every CC's
// count by k: the exabyte recipe of §7.4, which changes data scale and
// leaves the LP's structure alone.
func scaleWorkload(s *schema.Schema, w *cc.Workload, k int64) (*schema.Schema, *cc.Workload) {
	tabs := make([]*schema.Table, len(s.Tables))
	for i, t := range s.Tables {
		nt := *t
		nt.RowCount = t.RowCount * k
		tabs[i] = &nt
	}
	nw := &cc.Workload{Name: w.Name, CCs: append([]cc.CC(nil), w.CCs...)}
	for i := range nw.CCs {
		nw.CCs[i].Count *= k
	}
	return schema.MustNew(tabs...), nw
}

// substrate is one synthetic client site: schema, populated database,
// and the CC workloads extracted from it by executing queries.
type substrate struct {
	schema *schema.Schema
	db     *engine.Database
}

func newTPCDS() (*substrate, error) {
	cfg := tpcds.Config{SF: substrateSF, Seed: substrateSeed}
	s := tpcds.Schema(cfg)
	db, err := tpcds.GenerateDB(s, cfg)
	if err != nil {
		return nil, fmt.Errorf("tpcds substrate: %w", err)
	}
	return &substrate{schema: s, db: db}, nil
}

func (sub *substrate) tpcdsWorkload(complex bool, n int) (*cc.Workload, error) {
	cfg := tpcds.Config{SF: substrateSF, Seed: substrateSeed}
	name, qs := "WLs", tpcds.QueriesSimple(sub.schema, cfg, n)
	if complex {
		name, qs = "WLc", tpcds.QueriesComplex(sub.schema, cfg, n)
	}
	wl, _, err := engine.WorkloadFromQueries(sub.db, sub.schema, name, qs)
	if err != nil {
		return nil, fmt.Errorf("tpcds %s-%d: %w", name, n, err)
	}
	return wl, nil
}

// input is one (schema, workload) pair fed to hydra.Regenerate.
type input struct {
	name   string
	schema *schema.Schema
	wl     *cc.Workload
}

// summarizeInputs builds the four inputs of one summarize pass. They are
// the largest workloads on which Regenerate was observed to be a function
// of its input (see README, "Excluded inputs").
func summarizeInputs(sc scale, tp *substrate) ([]input, error) {
	wls, err := tp.tpcdsWorkload(false, queriesWLs)
	if err != nil {
		return nil, err
	}
	wlc, err := tp.tpcdsWorkload(true, queriesWLc)
	if err != nil {
		return nil, err
	}
	bigSchema, bigWL := scaleWorkload(tp.schema, wlc, 100_000_000_000)
	jcfg := job.Config{SF: substrateSF, Seed: substrateSeed}
	js := job.Schema(jcfg)
	jdb, err := job.GenerateDB(js, jcfg)
	if err != nil {
		return nil, fmt.Errorf("job substrate: %w", err)
	}
	jwl, _, err := engine.WorkloadFromQueries(jdb, js, "JOB", job.Queries(js, jcfg, sc.jobQueries))
	if err != nil {
		return nil, fmt.Errorf("job q%d: %w", sc.jobQueries, err)
	}
	return []input{
		{"tpcds-wls90", tp.schema, wls},
		{"tpcds-wlc55", tp.schema, wlc},
		{"tpcds-wlc55-x1e11", bigSchema, bigWL},
		{fmt.Sprintf("job-q%d", sc.jobQueries), js, jwl},
	}, nil
}

// probeInput is the smallest input on which Regenerate's output was seen
// to vary between identical calls; the ladder watches it so the fix shows.
func probeInput(tp *substrate) (input, error) {
	wl, err := tp.tpcdsWorkload(true, queriesProbe)
	if err != nil {
		return input{}, err
	}
	return input{"tpcds-wlc56", tp.schema, wl}, nil
}

// tableInfo is what the request generator needs to know about a relation.
type tableInfo struct {
	name string
	rows int64
	rs   *hydra.RelationSummary
}

// dataset is `ds`: the regenerated database every data-plane workload
// reads, with the counts its oracles and exact metrics need.
type dataset struct {
	sum      *hydra.Summary
	rows     int64
	tables   []tableInfo // every relation, by name
	big      []tableInfo // request targets, by name
	exactCCs int
	totalCCs int
}

func buildDataset(sc scale, tp *substrate) (*dataset, error) {
	wls, err := tp.tpcdsWorkload(false, queriesWLs)
	if err != nil {
		return nil, err
	}
	s, wl := scaleWorkload(tp.schema, wls, sc.mult)
	res, err := hydra.Regenerate(s, wl, hydra.Config{})
	if err != nil {
		return nil, fmt.Errorf("regenerate ds: %w", err)
	}
	reports, err := res.Evaluate(wl)
	if err != nil {
		return nil, fmt.Errorf("evaluate ds: %w", err)
	}
	ds := &dataset{sum: res.Summary, totalCCs: len(reports), exactCCs: exactCCs(reports)}
	for name, rs := range res.Summary.Relations {
		ds.tables = append(ds.tables, tableInfo{name: name, rows: rs.Total, rs: rs})
		ds.rows += rs.Total
	}
	sort.Slice(ds.tables, func(i, j int) bool { return ds.tables[i].name < ds.tables[j].name })
	for _, t := range ds.tables {
		if t.rows >= sc.bigRows {
			ds.big = append(ds.big, t)
		}
	}
	if len(ds.big) == 0 {
		return nil, fmt.Errorf("ds has no relation with at least %d rows", sc.bigRows)
	}
	return ds, nil
}

func exactCCs(reports []hydra.CCReport) int {
	n := 0
	for _, r := range reports {
		if r.Got == r.Want {
			n++
		}
	}
	return n
}

// ladderTableName is the relation the single-table rungs run on.
const ladderTableName = "store_sales"

func (ds *dataset) table(name string) (tableInfo, error) {
	for _, t := range ds.tables {
		if t.name == name {
			return t, nil
		}
	}
	return tableInfo{}, fmt.Errorf("ds has no relation %q", name)
}
