package exp

import (
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	hydra "github.com/dsl-repro/hydra"
	"github.com/dsl-repro/hydra/internal/cc"
	"github.com/dsl-repro/hydra/internal/core"
	"github.com/dsl-repro/hydra/internal/datasynth"
	"github.com/dsl-repro/hydra/internal/engine"
	"github.com/dsl-repro/hydra/internal/preprocess"
	"github.com/dsl-repro/hydra/internal/schema"
	"github.com/dsl-repro/hydra/internal/summary"
)

// scaleWorkload returns a copy of the workload and schema with every CC
// count and row count multiplied by k — the paper's §7.4 methodology
// ("executed the obtained plans ... and scaled the intermediate row counts
// with the appropriate scale factor") implemented over CODD-style scaled
// metadata.
func scaleWorkload(s *schema.Schema, w *cc.Workload, k int64) (*schema.Schema, *cc.Workload) {
	tabs := make([]*schema.Table, len(s.Tables))
	for i, t := range s.Tables {
		nt := *t
		nt.RowCount = t.RowCount * k
		tabs[i] = &nt
	}
	ns := schema.MustNew(tabs...)
	nw := &cc.Workload{Name: w.Name}
	nw.CCs = append([]cc.CC(nil), w.CCs...)
	for i := range nw.CCs {
		nw.CCs[i].Count *= k
	}
	return ns, nw
}

// Fig9 reproduces Figure 9: the distribution of CC cardinalities in WLc.
func Fig9(e *Env) (*Table, error) {
	return histogramTable("fig9", "Distribution of cardinality in CCs (WLc)", e.TPCDS.WLc), nil
}

// Fig16 reproduces Figure 16: the JOB workload's CC cardinalities.
func Fig16(e *Env) (*Table, error) {
	j, err := e.JOB()
	if err != nil {
		return nil, err
	}
	return histogramTable("fig16", "Cardinality distribution of CCs in JOB", j.WL), nil
}

// fig10Thresholds are the relative-error levels the CDF is reported at.
var fig10Thresholds = []float64{0, 0.01, 0.05, 0.10, 0.20, 0.40, 0.60, 1.00}

// Fig10 reproduces Figure 10: the percentage of CCs within each relative
// error, Hydra versus DataSynth, on the simple workload both can solve.
func Fig10(e *Env) (*Table, error) {
	t := e.TPCDS
	hres, err := hydra.Regenerate(t.Schema, t.WLs, hydra.Config{})
	if err != nil {
		return nil, err
	}
	hrep, err := hres.Evaluate(t.WLs)
	if err != nil {
		return nil, err
	}
	dres, err := datasynth.Regenerate(t.Schema, t.WLs, datasynth.Options{Seed: e.Cfg.Seed})
	if err != nil {
		return nil, err
	}
	drep, err := summary.Evaluate(dres.Summary, dres.Views, t.WLs)
	if err != nil {
		return nil, err
	}
	hcdf := summary.ErrorCDF(hrep, fig10Thresholds)
	dcdf := summary.ErrorCDF(drep, fig10Thresholds)
	tab := &Table{
		ID:     "fig10",
		Title:  "Quality of volumetric similarity (WLs): % CCs within relative error",
		Header: []string{"|rel err| ≤", "Hydra %", "DataSynth %"},
	}
	for i, th := range fig10Thresholds {
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%.0f%%", th*100),
			fmt.Sprintf("%.1f", hcdf[i]),
			fmt.Sprintf("%.1f", dcdf[i]),
		})
	}
	neg := 0
	for _, r := range drep {
		if r.RelErr < 0 {
			neg++
		}
	}
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("%d CCs; DataSynth has %d negative-error CCs, Hydra none (positive-only additive error)", len(hrep), neg))
	return tab, nil
}

// fig11Tables are the representative relations reported in Figure 11.
var fig11Tables = []string{"store_sales", "catalog_sales", "web_sales", "store_returns", "inventory", "item", "customer"}

// Fig11 reproduces Figure 11: extra tuples inserted to restore referential
// integrity, Hydra versus DataSynth (on WLs, the workload both complete).
func Fig11(e *Env) (*Table, error) {
	t := e.TPCDS
	hres, err := hydra.Regenerate(t.Schema, t.WLs, hydra.Config{})
	if err != nil {
		return nil, err
	}
	dres, err := datasynth.Regenerate(t.Schema, t.WLs, datasynth.Options{Seed: e.Cfg.Seed})
	if err != nil {
		return nil, err
	}
	tab := &Table{
		ID:     "fig11",
		Title:  "Extra tuples for referential integrity",
		Header: []string{"relation", "Hydra", "DataSynth"},
	}
	var hTot, dTot int64
	for _, name := range fig11Tables {
		h := hres.Summary.Extra[name]
		d := dres.Summary.Extra[name]
		hTot += h
		dTot += d
		tab.Rows = append(tab.Rows, []string{name, fmt.Sprintf("%d", h), fmt.Sprintf("%d", d)})
	}
	tab.Rows = append(tab.Rows, []string{"(all relations)", fmt.Sprintf("%d", sumExtras(hres.Summary)), fmt.Sprintf("%d", sumExtras(dres.Summary))})
	tab.Notes = append(tab.Notes, "Hydra's insertions are scale-independent; DataSynth's grow with sampling error")
	return tab, nil
}

func sumExtras(s *summary.Summary) int64 {
	var n int64
	for _, e := range s.Extra {
		n += e
	}
	return n
}

// fig12Tables are the relations Figure 12 charts.
var fig12Tables = []string{"catalog_sales", "store_sales", "web_sales", "item", "customer", "date_dim"}

// Fig12 reproduces Figure 12: LP variables per relation under region
// partitioning (Hydra) versus grid partitioning (DataSynth) for WLc.
func Fig12(e *Env) (*Table, error) {
	t := e.TPCDS
	views, err := preprocess.BuildViews(t.Schema, t.WLc)
	if err != nil {
		return nil, err
	}
	tab := &Table{
		ID:     "fig12",
		Title:  "Number of variables in the LP (WLc)",
		Header: []string{"relation", "Hydra (regions)", "DataSynth (grid)", "ratio"},
	}
	for _, name := range fig12Tables {
		v := views[name]
		f := core.Formulate(v)
		grid := datasynth.GridVars(v)
		ratio := new(big.Float).Quo(new(big.Float).SetInt(grid), big.NewFloat(float64(max1(f.Stats.Vars))))
		tab.Rows = append(tab.Rows, []string{
			name,
			fmt.Sprintf("%d", f.Stats.Vars),
			grid.String(),
			fmt.Sprintf("%.1fx", ratio),
		})
	}
	return tab, nil
}

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// Fig13 reproduces the Figure 13 table: LP processing time for the four
// (technique, workload) combinations; DataSynth on WLc exceeds solver
// capacity ("crash" in the paper).
func Fig13(e *Env) (*Table, error) {
	t := e.TPCDS
	hc, err := hydra.Regenerate(t.Schema, t.WLc, hydra.Config{})
	if err != nil {
		return nil, err
	}
	hs, err := hydra.Regenerate(t.Schema, t.WLs, hydra.Config{})
	if err != nil {
		return nil, err
	}
	dsSimple, err := datasynth.Regenerate(t.Schema, t.WLs, datasynth.Options{Seed: e.Cfg.Seed})
	if err != nil {
		return nil, err
	}
	dsComplexCell := "crash"
	if _, err := datasynth.Regenerate(t.Schema, t.WLc, datasynth.Options{Seed: e.Cfg.Seed}); err != nil {
		var cap *datasynth.ErrSolverCapacity
		if !errors.As(err, &cap) {
			return nil, err
		}
		dsComplexCell = fmt.Sprintf("crash (%v grid cells in %s)", cap.Cells, cap.View)
	} else {
		dsComplexCell = "completed (unexpected)"
	}
	tab := &Table{
		ID:     "fig13",
		Title:  "LP processing time",
		Header: []string{"workload", "DataSynth", "Hydra"},
		Rows: [][]string{
			{"complex (WLc)", dsComplexCell, hc.SolveTime.Round(time.Millisecond).String()},
			{"simple (WLs)", dsSimple.SolveTime.Round(time.Millisecond).String(), hs.SolveTime.Round(time.Millisecond).String()},
		},
	}
	return tab, nil
}

// fig14Scales multiply the base environment size; the paper's 10/100/1000
// GB column becomes relative scale 1/10/100 here.
var fig14Scales = []int64{1, 10, 100}

// Fig14 reproduces the Figure 14 table: full data materialization time,
// Hydra versus DataSynth, across three database scales. Hydra's cost is
// summary construction (scale-free) plus a linear write of generated
// tuples; DataSynth additionally pays sampling proportional to the scale at
// view-instantiation time.
func Fig14(e *Env) (*Table, error) {
	t := e.TPCDS
	dir := e.Cfg.Dir
	tab := &Table{
		ID:     "fig14",
		Title:  "Data materialization time (relative scale ×1, ×10, ×100 of the base instance)",
		Header: []string{"scale", "rows", "DataSynth", "Hydra"},
	}
	for _, k := range fig14Scales {
		ss, ws := scaleWorkload(t.Schema, t.WLs, k)

		hStart := time.Now()
		hres, err := hydra.Regenerate(ss, ws, hydra.Config{})
		if err != nil {
			return nil, err
		}
		rows, err := materializeAll(hres.Summary, filepath.Join(dir, fmt.Sprintf("hydra_x%d", k)))
		if err != nil {
			return nil, err
		}
		hTime := time.Since(hStart)

		dStart := time.Now()
		dres, err := datasynth.Regenerate(ss, ws, datasynth.Options{Seed: e.Cfg.Seed})
		if err != nil {
			return nil, err
		}
		if _, err := materializeAll(dres.Summary, filepath.Join(dir, fmt.Sprintf("ds_x%d", k))); err != nil {
			return nil, err
		}
		dTime := time.Since(dStart)

		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("x%d", k),
			fmt.Sprintf("%d", rows),
			dTime.Round(time.Millisecond).String(),
			hTime.Round(time.Millisecond).String(),
		})
	}
	tab.Notes = append(tab.Notes, "both columns include LP + summary/instantiation + writing every tuple to paged heap files")
	return tab, nil
}

// materializeAll writes every relation of the summary to heap files under
// dir with matgen's parallel engine, one worker per GOMAXPROCS, and
// returns total tuples written.
func materializeAll(s *summary.Summary, dir string) (int64, error) {
	defer os.RemoveAll(dir)
	rep, err := hydra.Materialize(s, hydra.MaterializeOptions{Dir: dir, Format: "heap", Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		return 0, err
	}
	return rep.Rows, nil
}

// sec74Scales are powers of ten applied to the base instance; the largest
// models the paper's exabyte scenario (≈10¹⁶ rows at ~100 B/row ≈ 10¹⁸ B).
var sec74Scales = []int64{1, 1e3, 1e6, 1e9, 1e11}

// Sec74 reproduces §7.4: summary construction time as the modeled database
// grows to exabyte volume. The table demonstrates the paper's headline
// claim — the time and the summary size are independent of data scale.
func Sec74(e *Env) (*Table, error) {
	t := e.TPCDS
	tab := &Table{
		ID:     "sec74",
		Title:  "Exabyte-scale summary construction (scale independence)",
		Header: []string{"scale", "total rows", "≈bytes", "summary build", "summary rows", "summary bytes"},
	}
	for _, k := range sec74Scales {
		ss, ws := scaleWorkload(t.Schema, t.WLc, k)
		start := time.Now()
		res, err := hydra.Regenerate(ss, ws, hydra.Config{})
		if err != nil {
			return nil, err
		}
		build := time.Since(start)
		var rows int64
		for _, tb := range ss.Tables {
			rows += tb.RowCount
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("x%d", k),
			fmt.Sprintf("%.3g", float64(rows)),
			fmt.Sprintf("%.3g", float64(rows)*100),
			build.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", res.Summary.NumRows()),
			fmt.Sprintf("%d", res.Summary.SizeBytes()),
		})
	}
	return tab, nil
}

// fig15Relations are the five biggest relations of the 100 GB instance,
// as in Figure 15.
var fig15Relations = []string{"store_returns", "web_sales", "inventory", "catalog_sales", "store_sales"}

// Fig15 reproduces the Figure 15 table: time to supply every tuple of a
// relation to the executor via a disk scan of the materialized relation
// versus dynamic generation from the summary, measured with an aggregate
// query over each relation.
func Fig15(e *Env) (*Table, error) {
	t := e.TPCDS
	// Scale so the biggest relation has a few million tuples: big enough
	// for stable timing, small enough for a laptop.
	k := int64(1)
	if base := t.Schema.MustTable("store_sales").RowCount; base < 3_000_000 {
		k = 3_000_000 / base
	}
	ss, ws := scaleWorkload(t.Schema, t.WLs, k)
	res, err := hydra.Regenerate(ss, ws, hydra.Config{})
	if err != nil {
		return nil, err
	}
	tab := &Table{
		ID:     "fig15",
		Title:  "Data supply times: disk scan vs dynamic generation",
		Header: []string{"relation", "rows (millions)", "size (MB)", "disk scan", "dynamic"},
	}
	for _, name := range fig15Relations {
		s, err := MeasureSupply(res.Summary, name, e.Cfg.Dir)
		if err != nil {
			return nil, err
		}
		tab.Rows = append(tab.Rows, []string{
			name,
			fmt.Sprintf("%.1f", float64(s.Rows)/1e6),
			fmt.Sprintf("%.0f", float64(s.Bytes)/1e6),
			s.Disk.Round(time.Millisecond).String(),
			s.Dynamic.Round(time.Millisecond).String(),
		})
	}
	tab.Notes = append(tab.Notes, "both columns scan through the read path every backend shares: a heap DirSource (the part written a moment earlier, so the page cache is warm) and the summary")
	return tab, nil
}

// Supply is one relation's Fig. 15 measurement.
type Supply struct {
	Rows    int64         // tuples each side supplied
	Bytes   int64         // the heap part's size
	Disk    time.Duration // full scan of the heap DirSource
	Dynamic time.Duration // full scan of the summary
}

// MeasureSupply is Fig. 15 for one relation of sum: it materializes the
// relation as a heap directory under dir (removed on return), then times
// engine.AggregateScan, summing the relation's last column, over the
// directory's DirSource and over the summary. A DirSource hashes a part
// before it decodes the first row of it, so the disk side is timed on
// its second scan: reading and decoding alone. Both scans must agree on
// count and sum.
func MeasureSupply(sum *summary.Summary, table, dir string) (*Supply, error) {
	dir = filepath.Join(dir, "fig15_"+table)
	defer os.RemoveAll(dir)
	rep, err := hydra.Materialize(sum, hydra.MaterializeOptions{Dir: dir, Format: "heap", Tables: []string{table}})
	if err != nil {
		return nil, err
	}
	disk, err := hydra.OpenDirSource(dir)
	if err != nil {
		return nil, err
	}
	cols := rep.Tables[0].Cols
	col := cols[len(cols)-1]
	if _, _, err := engine.AggregateScan(disk, table, col); err != nil {
		return nil, err
	}
	s := &Supply{Bytes: rep.Bytes}
	start := time.Now()
	n, total, err := engine.AggregateScan(disk, table, col)
	if err != nil {
		return nil, err
	}
	s.Disk = time.Since(start)
	start = time.Now()
	gn, gtotal, err := engine.AggregateScan(hydra.NewSummarySource(sum), table, col)
	if err != nil {
		return nil, err
	}
	s.Dynamic = time.Since(start)
	if gn != n || gtotal != total {
		return nil, fmt.Errorf("fig15: %s: disk scan %d rows (sum %d) != dynamic %d (sum %d)", table, n, total, gn, gtotal)
	}
	s.Rows = n
	return s, nil
}

// Fig17 reproduces Figure 17: LP variables per JOB view under region
// partitioning, with the grid count for contrast.
func Fig17(e *Env) (*Table, error) {
	j, err := e.JOB()
	if err != nil {
		return nil, err
	}
	views, err := preprocess.BuildViews(j.Schema, j.WL)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(views))
	for name := range views {
		names = append(names, name)
	}
	sort.Strings(names)
	tab := &Table{
		ID:     "fig17",
		Title:  "Number of variables for JOB",
		Header: []string{"view", "Hydra (regions)", "DataSynth (grid)"},
	}
	maxVars := 0
	for _, name := range names {
		v := views[name]
		if len(v.CCs) == 0 {
			continue
		}
		f := core.Formulate(v)
		if f.Stats.Vars > maxVars {
			maxVars = f.Stats.Vars
		}
		tab.Rows = append(tab.Rows, []string{
			name,
			fmt.Sprintf("%d", f.Stats.Vars),
			datasynth.GridVars(v).String(),
		})
	}
	tab.Notes = append(tab.Notes, fmt.Sprintf("max view variables: %d (paper: never exceeding a hundred thousand)", maxVars))
	return tab, nil
}
