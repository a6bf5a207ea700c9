// Benchmarks regenerating each table and figure of the paper's evaluation
// (§7), plus ablations of this implementation's design choices. Mapping:
//
//	BenchmarkFig09/16  CC extraction + cardinality histograms (Figs 9, 16)
//	BenchmarkFig10     volumetric similarity, Hydra vs DataSynth (Fig 10)
//	BenchmarkFig11     referential-integrity extras (Fig 11)
//	BenchmarkFig12     LP variables, region vs grid (Fig 12)
//	BenchmarkFig13     LP processing time (Fig 13)
//	BenchmarkFig14     materialization (Fig 14)
//	BenchmarkSec74     exabyte-scale summary construction (§7.4)
//	BenchmarkFig15     disk scan vs dynamic generation (Fig 15)
//	BenchmarkFig17     JOB LP variables (Fig 17)
//
// The ablation suite isolates: region vs grid partitioning, deterministic
// alignment vs sampling instantiation, rational vs float simplex, joint vs
// sequential LP solving, FK spread, and tuple-lookup strategy.
package hydra_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	hydra "github.com/dsl-repro/hydra"
	"github.com/dsl-repro/hydra/internal/cc"
	"github.com/dsl-repro/hydra/internal/core"
	"github.com/dsl-repro/hydra/internal/datasynth"
	"github.com/dsl-repro/hydra/internal/engine"
	"github.com/dsl-repro/hydra/internal/exp"
	"github.com/dsl-repro/hydra/internal/lp"
	"github.com/dsl-repro/hydra/internal/preprocess"
	"github.com/dsl-repro/hydra/internal/schema"
	"github.com/dsl-repro/hydra/internal/serve"
	"github.com/dsl-repro/hydra/internal/summary"
	"github.com/dsl-repro/hydra/internal/tuplegen"
	"github.com/dsl-repro/hydra/internal/workload/job"
	"github.com/dsl-repro/hydra/internal/workload/tpcds"
)

// benchEnv is the shared benchmark environment: one synthetic client site,
// built once across all benchmarks.
type benchEnv struct {
	cfg      tpcds.Config
	schema   *schema.Schema
	db       *engine.Database
	queriesC []*engine.Query
	wlc      *cc.Workload
	wls      *cc.Workload

	jobCfg    job.Config
	jobSchema *schema.Schema
	jobWL     *cc.Workload
}

var (
	envOnce sync.Once
	env     *benchEnv
	envErr  error
)

func getEnv(b *testing.B) *benchEnv {
	b.Helper()
	envOnce.Do(func() {
		e := &benchEnv{cfg: tpcds.Config{SF: 0.05, Seed: 42}}
		e.schema = tpcds.Schema(e.cfg)
		db, err := tpcds.GenerateDB(e.schema, e.cfg)
		if err != nil {
			envErr = err
			return
		}
		e.db = db
		e.queriesC = tpcds.QueriesComplex(e.schema, e.cfg, 60)
		e.wlc, _, envErr = engine.WorkloadFromQueries(db, e.schema, "WLc", e.queriesC)
		if envErr != nil {
			return
		}
		e.wls, _, envErr = engine.WorkloadFromQueries(db, e.schema, "WLs", tpcds.QueriesSimple(e.schema, e.cfg, 40))
		if envErr != nil {
			return
		}
		e.jobCfg = job.Config{SF: 0.05, Seed: 11}
		e.jobSchema = job.Schema(e.jobCfg)
		jdb, err := job.GenerateDB(e.jobSchema, e.jobCfg)
		if err != nil {
			envErr = err
			return
		}
		e.jobWL, _, envErr = engine.WorkloadFromQueries(jdb, e.jobSchema, "JOB", job.Queries(e.jobSchema, e.jobCfg, 80))
		env = e
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return env
}

// BenchmarkFig09_CCDistributionWLc measures the client-side path behind
// Figure 9: executing the workload to obtain AQPs and deriving the CC set.
func BenchmarkFig09_CCDistributionWLc(b *testing.B) {
	e := getEnv(b)
	qs := e.queriesC[:20]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _, err := engine.WorkloadFromQueries(e.db, e.schema, "WLc", qs)
		if err != nil {
			b.Fatal(err)
		}
		if h := w.CountHistogram(); len(h) == 0 {
			b.Fatal("empty histogram")
		}
	}
}

// BenchmarkFig10_VolumetricSimilarity measures one full Hydra
// regenerate-and-evaluate cycle on the simple workload (the Fig. 10 loop).
func BenchmarkFig10_VolumetricSimilarity(b *testing.B) {
	e := getEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := hydra.Regenerate(e.schema, e.wls, hydra.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.Evaluate(e.wls); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11_RefIntegrityExtras measures the summary-construction tail
// (align/merge + consistency repair) that produces the Fig. 11 numbers.
func BenchmarkFig11_RefIntegrityExtras(b *testing.B) {
	e := getEnv(b)
	views, err := preprocess.BuildViews(e.schema, e.wls)
	if err != nil {
		b.Fatal(err)
	}
	order, _ := e.schema.TopoOrder()
	sols := map[string]*core.ViewSolution{}
	for _, t := range order {
		sol, err := core.FormulateAndSolve(views[t.Name], core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sols[t.Name] = sol
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := summary.Build(e.schema, views, sols)
		if err != nil {
			b.Fatal(err)
		}
		_ = sum.Extra
	}
}

// BenchmarkFig12_LPVariables measures region-partitioned LP formulation
// for the biggest fact view plus the analytic grid count (the Fig. 12
// comparison quantities).
func BenchmarkFig12_LPVariables(b *testing.B) {
	e := getEnv(b)
	views, err := preprocess.BuildViews(e.schema, e.wlc)
	if err != nil {
		b.Fatal(err)
	}
	v := views["store_sales"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := core.FormulateWith(v, core.RegionStrategy)
		if err != nil {
			b.Fatal(err)
		}
		grid := datasynth.GridVars(v)
		if f.Stats.Vars == 0 || grid.Sign() == 0 {
			b.Fatal("no variables")
		}
	}
}

// BenchmarkFig13_LPSolveTime measures the complete per-view formulate +
// solve pipeline over the complex workload (Hydra's Fig. 13 column).
func BenchmarkFig13_LPSolveTime(b *testing.B) {
	e := getEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := hydra.Regenerate(e.schema, e.wlc, hydra.Config{})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.SolveTime
	}
}

// BenchmarkFig14_Materialization measures Hydra's static materialization:
// summary construction plus writing every generated tuple to heap files
// with the parallel engine, one worker per GOMAXPROCS.
func BenchmarkFig14_Materialization(b *testing.B) {
	e := getEnv(b)
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		res, err := hydra.Regenerate(e.schema, e.wls, hydra.Config{})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := hydra.Materialize(res.Summary, hydra.MaterializeOptions{Dir: dir, Format: "heap", Workers: runtime.GOMAXPROCS(0)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Rows), "tuples/op")
	}
}

// BenchmarkMaterializeParallel measures end-to-end throughput scaling of
// the matgen worker pool at 1, 2, 4 and 8 workers, across three sink
// configurations: discard (pure generation plus pool overhead, no
// encoding or disk), csv (run-aware text encoding plus disk), and gzip
// (csv encoding plus worker-side per-chunk compression). The output is
// byte-identical at every worker count; only wall time moves. Metrics:
// tuples/s is generated-row throughput, MB/s is encoded (pre-compression)
// byte throughput, and -benchmem's allocs/op tracks the steady-state
// allocation cost of the whole pipeline.
func BenchmarkMaterializeParallel(b *testing.B) {
	e := getEnv(b)
	res, err := hydra.Regenerate(e.schema, e.wls, hydra.Config{})
	if err != nil {
		b.Fatal(err)
	}
	var rows int64
	for _, rs := range res.Summary.Relations {
		rows += rs.Total
	}
	cases := []struct{ name, format, compress string }{
		{"discard", "discard", ""},
		{"csv", "csv", ""},
		{"gzip", "csv", "gzip"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(b *testing.B) {
				opts := hydra.MaterializeOptions{
					Format: tc.format, Compress: tc.compress,
					Workers: workers, NoManifest: true,
				}
				if tc.format != "discard" {
					opts.Dir = b.TempDir()
				}
				b.ReportAllocs()
				var encoded int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rep, err := hydra.Materialize(res.Summary, opts)
					if err != nil {
						b.Fatal(err)
					}
					if rep.Rows != rows {
						b.Fatalf("rows = %d, want %d", rep.Rows, rows)
					}
					for _, tr := range rep.Tables {
						if tr.RawBytes > 0 {
							encoded += tr.RawBytes
						} else {
							encoded += tr.Bytes
						}
					}
				}
				b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
				if encoded > 0 {
					b.ReportMetric(float64(encoded)/1e6/b.Elapsed().Seconds(), "MB/s")
				}
			})
		}
	}
}

// BenchmarkServeStream measures the regeneration-as-a-service path: one
// client draining GET /v1/tables/store_sales from a loopback server —
// the matgen encode pipeline plus HTTP chunking, flushing, and trailer
// hashing. MB/s counts payload bytes as received (post-compression for
// the gzip case), so the csv case is directly comparable with
// BenchmarkMaterializeParallel's csv MB/s: the delta is the cost of the
// network face.
func BenchmarkServeStream(b *testing.B) {
	e := getEnv(b)
	res, err := hydra.Regenerate(e.schema, e.wls, hydra.Config{})
	if err != nil {
		b.Fatal(err)
	}
	h, err := serve.NewServer(res.Summary, serve.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	rows := res.Summary.Relations["store_sales"].Total
	for _, tc := range []struct{ name, query string }{
		{"csv", "format=csv"},
		{"gzip", "format=csv&compress=gzip"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var payload int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := http.Get(ts.URL + "/v1/tables/store_sales?" + tc.query)
				if err != nil {
					b.Fatal(err)
				}
				n, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Fatalf("status %s, err %v", resp.Status, err)
				}
				payload += n
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
			b.ReportMetric(float64(payload)/1e6/b.Elapsed().Seconds(), "MB/s")
		})
	}
}

// BenchmarkScan measures the unified read path's throughput per
// backend: draining one store_sales scan from the summary (pure
// generation), a materialized csv directory (decode; the part's
// checksum is verified by the first scan only), and a loopback serve
// fleet (stream + decode). rows/s is the
// figure of merit; the summary backend is the ceiling the readers are
// chasing. dir-read is the layer below dir: the same csv part read
// whole with no decode, the ceiling any decoder of it could reach, so
// dir ÷ dir-read is the decoder's ratio to its I/O.
func BenchmarkScan(b *testing.B) {
	e := getEnv(b)
	res, err := hydra.Regenerate(e.schema, e.wls, hydra.Config{})
	if err != nil {
		b.Fatal(err)
	}
	const table = "store_sales"
	rows := res.Summary.Relations[table].Total

	dir := b.TempDir()
	if _, err := hydra.Materialize(res.Summary, hydra.MaterializeOptions{
		Dir: dir, Format: "csv",
	}); err != nil {
		b.Fatal(err)
	}
	dirSrc, err := hydra.OpenDirSource(dir)
	if err != nil {
		b.Fatal(err)
	}
	h, err := serve.NewServer(res.Summary, serve.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	remoteSrc, err := hydra.NewRemoteSource([]string{ts.URL}, hydra.RemoteSourceOptions{})
	if err != nil {
		b.Fatal(err)
	}

	backends := []struct {
		name string
		src  hydra.Source
		spec hydra.ScanSpec
		want int64
	}{
		{"summary", hydra.NewSummarySource(res.Summary), hydra.ScanSpec{Table: table}, rows},
		{"dir", dirSrc, hydra.ScanSpec{Table: table}, rows},
		{"remote", remoteSrc, hydra.ScanSpec{Table: table}, rows},
		// A positioned read: the last 1% of the table from the one
		// long-lived directory source, which hashes the part on its first
		// scan only and seeks by the manifest's chunk index. rows/s counts
		// the rows delivered; hashing the part per scan, or reading to the
		// start row from byte 0, is paid per op and shows here as a
		// multiple.
		{"dir-ranged", dirSrc, hydra.ScanSpec{Table: table, StartPK: rows - rows/100 + 1}, rows / 100},
	}
	for _, tc := range backends {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc, err := tc.src.Scan(context.Background(), tc.spec)
				if err != nil {
					b.Fatal(err)
				}
				var got int64
				for sc.Next() {
					got += int64(sc.Batch().N)
				}
				if err := sc.Err(); err != nil {
					b.Fatal(err)
				}
				sc.Close()
				if got != tc.want {
					b.Fatalf("scanned %d rows, want %d", got, tc.want)
				}
			}
			b.ReportMetric(float64(tc.want)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}

	// A sequential read(2) of the part dir decodes, into one reused
	// buffer the size of the dir backend's read buffer (256 KiB); rows/s
	// counts the part's rows.
	b.Run("dir-read", func(b *testing.B) {
		part := filepath.Join(dir, table+".csv")
		st, err := os.Stat(part)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 1<<18)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := os.Open(part)
			if err != nil {
				b.Fatal(err)
			}
			var got int64
			for {
				n, err := f.Read(buf)
				got += int64(n)
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			f.Close()
			if got != st.Size() {
				b.Fatalf("read %d bytes of a %d-byte part", got, st.Size())
			}
		}
		b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})

	// Predicate pushdown's payoff: a ~0.1%-selectivity pk-range filter
	// over the summary backend. The span filter slices the range by
	// arithmetic, so rows/s here counts the rows COVERED (the full
	// table) per second of scanning, and should beat the unfiltered
	// summary scan by well over an order of magnitude.
	b.Run("filtered", func(b *testing.B) {
		mid := rows / 2
		filt := hydra.Col(table+"_pk").In(mid, mid+rows/1000)
		src := hydra.NewSummarySource(res.Summary)
		want := rows/1000 + 1
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc, err := src.Scan(context.Background(), hydra.ScanSpec{Table: table, Filter: filt})
			if err != nil {
				b.Fatal(err)
			}
			var got int64
			for sc.Next() {
				got += int64(sc.Batch().N)
			}
			if err := sc.Err(); err != nil {
				b.Fatal(err)
			}
			sc.Close()
			if got != want {
				b.Fatalf("scanned %d rows, want %d", got, want)
			}
		}
		b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
}

// BenchmarkSec74_ExabyteSummary measures summary construction with CC
// counts scaled to exabyte-class volumes — the §7.4 scale-independence
// claim: this should not be slower than BenchmarkFig13 at base scale.
func BenchmarkSec74_ExabyteSummary(b *testing.B) {
	e := getEnv(b)
	const k = 100_000_000_000
	tabs := make([]*schema.Table, len(e.schema.Tables))
	for i, t := range e.schema.Tables {
		nt := *t
		nt.RowCount *= k
		tabs[i] = &nt
	}
	bigSchema := schema.MustNew(tabs...)
	bigWL := &cc.Workload{Name: "exa", CCs: append([]cc.CC(nil), e.wlc.CCs...)}
	for i := range bigWL.CCs {
		bigWL.CCs[i].Count *= k
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hydra.Regenerate(bigSchema, bigWL, hydra.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Summary.SizeBytes()), "summary-bytes")
	}
}

// BenchmarkFig15 measures the two data supply paths of Fig. 15 over the
// same relation with the function the figure runs: a full scan of the
// materialized heap directory versus on-the-fly generation from the
// summary. Each op materializes the relation afresh; the two scans are
// timed apart from that and reported as tuples/s.
func BenchmarkFig15(b *testing.B) {
	e := getEnv(b)
	res, err := hydra.Regenerate(e.schema, e.wls, hydra.Config{})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	var rows int64
	var disk, dynamic time.Duration
	for i := 0; i < b.N; i++ {
		s, err := exp.MeasureSupply(res.Summary, "store_sales", dir)
		if err != nil {
			b.Fatal(err)
		}
		rows += s.Rows
		disk += s.Disk
		dynamic += s.Dynamic
	}
	b.ReportMetric(float64(rows)/disk.Seconds(), "disk-tuples/s")
	b.ReportMetric(float64(rows)/dynamic.Seconds(), "dynamic-tuples/s")
}

// BenchmarkFig16_CCDistributionJOB measures JOB CC extraction (Fig. 16).
func BenchmarkFig16_CCDistributionJOB(b *testing.B) {
	e := getEnv(b)
	jdb, err := job.GenerateDB(e.jobSchema, e.jobCfg)
	if err != nil {
		b.Fatal(err)
	}
	qs := job.Queries(e.jobSchema, e.jobCfg, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _, err := engine.WorkloadFromQueries(jdb, e.jobSchema, "JOB", qs)
		if err != nil {
			b.Fatal(err)
		}
		_ = w.CountHistogram()
	}
}

// BenchmarkFig17_JOBVariables measures per-view formulation over the whole
// JOB workload (Fig. 17's variable counts).
func BenchmarkFig17_JOBVariables(b *testing.B) {
	e := getEnv(b)
	views, err := preprocess.BuildViews(e.jobSchema, e.jobWL)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, v := range views {
			f, err := core.FormulateWith(v, core.RegionStrategy)
			if err != nil {
				b.Fatal(err)
			}
			total += f.Stats.Vars
		}
		if total == 0 {
			b.Fatal("no variables")
		}
	}
}

// --- Ablations ---

// BenchmarkAblation_RegionVsGrid isolates the paper's core claim: the cost
// of formulating (and counting variables for) one dimension view under
// region versus grid partitioning.
func BenchmarkAblation_RegionVsGrid(b *testing.B) {
	e := getEnv(b)
	views, err := preprocess.BuildViews(e.schema, e.wls)
	if err != nil {
		b.Fatal(err)
	}
	v := views["item"]
	b.Run("Region", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := core.FormulateWith(v, core.RegionStrategy)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(f.Stats.Vars), "vars")
		}
	})
	b.Run("Grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := core.FormulateWith(v, datasynth.GridStrategy("item", datasynth.DefaultMaxCells))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(f.Stats.Vars), "vars")
		}
	})
}

// BenchmarkAblation_AlignVsSampling compares Hydra's deterministic
// align-and-merge instantiation against DataSynth's per-tuple sampling for
// the same solved workload — the §5.1 design decision.
func BenchmarkAblation_AlignVsSampling(b *testing.B) {
	e := getEnv(b)
	b.Run("HydraAlign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hydra.Regenerate(e.schema, e.wls, hydra.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DataSynthSampling", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := datasynth.Regenerate(e.schema, e.wls, datasynth.Options{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_RationalVsFloat compares the simplex backends on the
// relaxation of one mid-size feasibility system, after the column presolve
// SolveInteger applies: the exact solver on each of its two tableaus (the
// fraction-free one on machine words, and the math/big one it restarts on
// after an overflow) and the float64 twin.
func BenchmarkAblation_RationalVsFloat(b *testing.B) {
	prob := &lp.Problem{NumVars: 120}
	hidden := make([]int64, 120)
	for i := range hidden {
		hidden[i] = int64((i * 13) % 50)
	}
	for r := 0; r < 25; r++ {
		var entries []lp.Entry
		var rhs int64
		for v := r; v < 120; v += 2 + r%3 {
			entries = append(entries, lp.Entry{Var: v, Coef: 1})
			rhs += hidden[v]
		}
		prob.AddRow(lp.Row{Entries: entries, Rel: lp.EQ, RHS: rhs, Name: "r"})
	}
	prob, _ = lp.DedupColumns(prob)
	for _, arm := range []struct {
		name  string
		solve func(*lp.Problem) (*lp.Solution, error)
	}{{"Rational/word", lp.SolveRational}, {"Rational/big", lp.SolveBigRat}, {"Float", lp.SolveFloat}} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := arm.solve(prob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_JointVsSequential compares the joint per-view LP
// against the clique-tree-sequential decomposition on the simple workload.
func BenchmarkAblation_JointVsSequential(b *testing.B) {
	e := getEnv(b)
	views, err := preprocess.BuildViews(e.schema, e.wls)
	if err != nil {
		b.Fatal(err)
	}
	order, _ := e.schema.TopoOrder()
	run := func(b *testing.B, solve func(*core.Formulation) (*core.ViewSolution, error)) {
		for i := 0; i < b.N; i++ {
			for _, t := range order {
				f, err := core.FormulateWith(views[t.Name], core.RegionStrategy)
				if err == nil {
					_, err = solve(f)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("Sequential", func(b *testing.B) {
		run(b, func(f *core.Formulation) (*core.ViewSolution, error) { return f.SolveSequential(core.Options{}) })
	})
	b.Run("Joint", func(b *testing.B) {
		run(b, func(f *core.Formulation) (*core.ViewSolution, error) { return f.Solve(core.Options{}) })
	})
}

// BenchmarkAblation_FKSpread compares first-row FK assignment (the
// paper's) against round-robin spreading on the probe side of a hash join.
func BenchmarkAblation_FKSpread(b *testing.B) {
	e := getEnv(b)
	res, err := hydra.Regenerate(e.schema, e.wls, hydra.Config{})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, spread bool) {
		in := *res.Summary
		in.FKSpread = spread
		src := hydra.NewSummarySource(&in)
		for i := 0; i < b.N; i++ {
			sc, err := src.Scan(context.Background(), hydra.ScanSpec{Table: "store_sales", Columns: []string{"ss_item_sk"}})
			if err != nil {
				b.Fatal(err)
			}
			var sum int64
			for sc.Next() {
				for _, v := range sc.Batch().Cols[0] {
					sum += v
				}
			}
			if err := sc.Err(); err != nil {
				b.Fatal(err)
			}
			sc.Close()
		}
	}
	b.Run("FirstRow", func(b *testing.B) { run(b, false) })
	b.Run("Spread", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblation_TupleLookup compares the prefix-sum binary search
// against the paper's literal linear scan for random tuple access (see
// also the micro-benchmarks in internal/tuplegen).
func BenchmarkAblation_TupleLookup(b *testing.B) {
	e := getEnv(b)
	res, err := hydra.Regenerate(e.schema, e.wls, hydra.Config{})
	if err != nil {
		b.Fatal(err)
	}
	gen := tuplegen.New(res.Summary.Relations["store_sales"])
	n := gen.NumRows()
	b.Run("BinarySearch", func(b *testing.B) {
		var buf []int64
		for i := 0; i < b.N; i++ {
			buf = gen.Row(int64(i)%n+1, buf)
		}
	})
	b.Run("LinearScan", func(b *testing.B) {
		var buf []int64
		for i := 0; i < b.N; i++ {
			buf = gen.RowLinear(int64(i)%n+1, buf)
		}
	})
}
