// Package exp is the experiment harness: one runner per table and figure
// of the paper's evaluation (§7), each regenerating the same rows/series
// the paper reports. The harness works at laptop scale — absolute numbers
// differ from the paper's 100 GB testbed, but each experiment preserves
// the shape of the paper's result (who wins, by roughly what factor, where
// behaviour changes).
//
// Experiment index, by the -exp id hydra-bench takes:
//
//	fig9   CC cardinality distribution, WLc
//	fig10  volumetric similarity CDF, Hydra vs DataSynth (WLs)
//	fig11  extra tuples for referential integrity
//	fig12  LP variables per relation, region vs grid (WLc)
//	fig13  LP processing time, {WLc, WLs} × {Hydra, DataSynth}
//	fig14  materialization time at three scales
//	sec74  exabyte-scale summary construction (scale independence)
//	fig15  data supply time, disk scan vs dynamic generation
//	fig16  CC cardinality distribution, JOB
//	fig17  LP variables per JOB view
package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/dsl-repro/hydra/internal/cc"
	"github.com/dsl-repro/hydra/internal/engine"
	"github.com/dsl-repro/hydra/internal/schema"
	"github.com/dsl-repro/hydra/internal/workload/job"
	"github.com/dsl-repro/hydra/internal/workload/tpcds"
)

// Config parameterizes the harness.
type Config struct {
	// SF is the TPC-DS substrate scale factor (1.0 ≈ 1M tuples).
	SF float64
	// Seed drives data and workload generation.
	Seed int64
	// QueriesWLc / QueriesWLs / QueriesJOB size the workloads; zero means
	// the paper's counts (131 / 90 / 260).
	QueriesWLc, QueriesWLs, QueriesJOB int
	// Dir is the scratch directory for disk experiments (fig14/fig15).
	Dir string
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.SF <= 0 {
		c.SF = 0.2
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.QueriesWLc == 0 {
		c.QueriesWLc = tpcds.DefaultComplexQueries
	}
	if c.QueriesWLs == 0 {
		c.QueriesWLs = 90
	}
	if c.QueriesJOB == 0 {
		c.QueriesJOB = job.DefaultQueries
	}
	if c.Dir == "" {
		c.Dir = "."
	}
	return c
}

// Table is a formatted experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Env is the shared experimental environment: the synthetic client site.
// Building it executes every workload query against the client database,
// which is the priciest part of several experiments, so it is constructed
// once and passed to each runner.
type Env struct {
	Cfg      Config
	TPCDS    *tpcdsEnv
	builtJOB *jobEnv
}

type tpcdsEnv struct {
	Cfg      tpcds.Config
	Schema   *schema.Schema
	QueriesC []*engine.Query
	QueriesS []*engine.Query
	WLc, WLs *cc.Workload
}

type jobEnv struct {
	Cfg     job.Config
	Schema  *schema.Schema
	Queries []*engine.Query
	WL      *cc.Workload
}

// NewEnv builds the TPC-DS side of the environment (the JOB side is built
// lazily by the experiments that need it).
func NewEnv(cfg Config) (*Env, error) {
	cfg = cfg.withDefaults()
	tcfg := tpcds.Config{SF: cfg.SF, Seed: cfg.Seed}
	s := tpcds.Schema(tcfg)
	db, err := tpcds.GenerateDB(s, tcfg)
	if err != nil {
		return nil, err
	}
	qc := tpcds.QueriesComplex(s, tcfg, cfg.QueriesWLc)
	qs := tpcds.QueriesSimple(s, tcfg, cfg.QueriesWLs)
	wlc, _, err := engine.WorkloadFromQueries(db, s, "WLc", qc)
	if err != nil {
		return nil, err
	}
	wls, _, err := engine.WorkloadFromQueries(db, s, "WLs", qs)
	if err != nil {
		return nil, err
	}
	return &Env{
		Cfg: cfg,
		TPCDS: &tpcdsEnv{
			Cfg: tcfg, Schema: s,
			QueriesC: qc, QueriesS: qs,
			WLc: wlc, WLs: wls,
		},
	}, nil
}

// JOB lazily builds the JOB-side environment.
func (e *Env) JOB() (*jobEnv, error) {
	if e.builtJOB != nil {
		return e.builtJOB, nil
	}
	jcfg := job.Config{SF: e.Cfg.SF, Seed: e.Cfg.Seed}
	s := job.Schema(jcfg)
	db, err := job.GenerateDB(s, jcfg)
	if err != nil {
		return nil, err
	}
	qs := job.Queries(s, jcfg, e.Cfg.QueriesJOB)
	wl, _, err := engine.WorkloadFromQueries(db, s, "JOB", qs)
	if err != nil {
		return nil, err
	}
	e.builtJOB = &jobEnv{Cfg: jcfg, Schema: s, Queries: qs, WL: wl}
	return e.builtJOB, nil
}

// histogramTable renders a CountHistogram the way Figures 9 and 16 do.
func histogramTable(id, title string, w *cc.Workload) *Table {
	h := w.CountHistogram()
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"cardinality bucket", "#CCs"},
	}
	for i, n := range h {
		lo := int64(1)
		for k := 0; k < i; k++ {
			lo *= 10
		}
		label := fmt.Sprintf("[%d, %d)", lo, lo*10)
		if i == 0 {
			label = "[0, 10)"
		}
		t.Rows = append(t.Rows, []string{label, fmt.Sprintf("%d", n)})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("total CCs: %d", len(w.CCs)))
	return t
}

// Runner is one experiment entry point.
type Runner func(*Env) (*Table, error)

// Runners maps experiment ids to runners in presentation order.
func Runners() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"fig9", Fig9},
		{"fig10", Fig10},
		{"fig11", Fig11},
		{"fig12", Fig12},
		{"fig13", Fig13},
		{"fig14", Fig14},
		{"sec74", Sec74},
		{"fig15", Fig15},
		{"fig16", Fig16},
		{"fig17", Fig17},
	}
}

// Run executes one experiment by id.
func Run(e *Env, id string) (*Table, error) {
	for _, r := range Runners() {
		if r.ID == id {
			return r.Run(e)
		}
	}
	known := make([]string, 0)
	for _, r := range Runners() {
		known = append(known, r.ID)
	}
	sort.Strings(known)
	return nil, fmt.Errorf("exp: unknown experiment %q (known: %s)", id, strings.Join(known, ", "))
}
