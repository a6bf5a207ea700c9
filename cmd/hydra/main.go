// Command hydra is the end-to-end regeneration driver: it takes a schema
// and a cardinality-constraint workload (both JSON), builds the database
// summary, and can validate, materialize, serve, or scan it.
//
// Subcommands:
//
//	summarize   -schema s.json -workload w.json -out summary.json [-fkspread]
//	validate    -schema s.json -workload w.json -summary summary.json
//	materialize -summary summary.json -dir out/ [-format heap|csv|jsonl|sql|spans|discard]
//	            [-workers K] [-shards N] [-shard i/N] [-compress gzip] [-tables a,b]
//	orchestrate -summary summary.json -dir out/ [-shards N] [-parallel P] [-compress gzip]
//	            [-retries R] [-runners http://a,http://b] [-verify-only] ...
//	serve       -summary summary.json [-addr :8372] [-max-streams N] [-rate-limit R]
//	scan        -table T (-summary summary.json | -dir out/ | -remote URLs) [-range A:B] ...
//
// Materialization runs on the parallel sharded engine (internal/matgen):
// output bytes are identical for any -workers count, and the -shard i/N
// pieces of a multi-machine run concatenate (in shard order) into
// byte-identical whole-table files, with a per-shard JSON manifest.
// Orchestration (internal/orchestrate) schedules all N shards with
// retries and then verifies the manifests: ranges must tile, rows must
// sum to the summary's cardinalities, files must match their checksums.
// With -runners the shards execute on a fleet of `hydra serve` machines
// (internal/serve) instead of in-process: jobs round-robin with
// failover, artifacts stream back as checksummed bundles, and the same
// verification proves the assembly. `hydra serve` is the fleet member:
// it loads one summary and regenerates tables over HTTP on demand,
// optionally rate-limited into a load generator.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	hydra "github.com/dsl-repro/hydra"
	"github.com/dsl-repro/hydra/internal/faultinject"
	"github.com/dsl-repro/hydra/internal/format"
	"github.com/dsl-repro/hydra/internal/obs"
	"github.com/dsl-repro/hydra/internal/summary"
	"github.com/dsl-repro/hydra/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "summarize":
		err = cmdSummarize(os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "materialize":
		err = cmdMaterialize(os.Args[2:])
	case "orchestrate":
		err = cmdOrchestrate(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "scan":
		err = cmdScan(os.Args[2:])
	case "loadgen":
		err = cmdLoadgen(os.Args[2:])
	case "faultproxy":
		err = cmdFaultProxy(os.Args[2:])
	case "traces":
		err = cmdTraces(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "hydra: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hydra:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `hydra — workload-dependent database regeneration (EDBT 2018)

usage:
  hydra summarize   -schema s.json -workload w.json -out summary.json [-fkspread]
  hydra validate    -schema s.json -workload w.json -summary summary.json
  hydra materialize -summary summary.json -dir out/ [-format heap|csv|jsonl|sql|spans|discard]
                    [-workers K] [-shard i/N] [-compress gzip] [-tables a,b]
  hydra orchestrate -summary summary.json -dir out/ [-format ...] [-shards N] [-parallel P]
                    [-workers K] [-compress gzip] [-retries R] [-tables a,b]
                    [-runners http://a,http://b] [-verify-only]
  hydra serve       -summary summary.json [-addr 127.0.0.1:8372] [-max-streams N]
                    [-rate-limit rows/s] [-workers K] [-debug-addr 127.0.0.1:8373] [-log-streams]
  hydra scan        -table T (-summary summary.json | -dir out/ | -remote http://a,http://b)
                    [-columns a,b] [-range A:B] [-where 'A >= 20 AND B IN (1,5)'] [-shard i/N]
                    [-format csv|jsonl|sql|heap|spans] [-batch N] [-rate rows/s]
                    [-timeout d] [-o file]
  hydra loadgen     (-summary summary.json | -dir out/ | -remote http://a,http://b)
                    [-c 8] [-d 10s] [-rows-per-request 10000] [-tables a,b] [-batch N]
                    [-max-requests N] [-seed S] [-json]
  hydra faultproxy  -upstream http://host:port [-listen 127.0.0.1:0] [-seed S] [-rate 0.3]
                    [-faults refuse,500,503,cut,stall,corrupt] [-flap down/period] [-exempt-health]
  hydra traces      -addr http://127.0.0.1:8373 [-id traceid] [-n 20]
`)
}

// timeoutContext returns a signal-aware context, deadline-bounded when
// timeout is positive — the CLI's one way to make any long-running verb
// abortable.
func timeoutContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	return ctx, func() { cancel(); stop() }
}

func loadInputs(schemaPath, workloadPath string) (*hydra.Schema, *hydra.Workload, error) {
	s, err := hydra.LoadSchema(schemaPath)
	if err != nil {
		return nil, nil, err
	}
	w, err := hydra.LoadWorkload(workloadPath)
	if err != nil {
		return nil, nil, err
	}
	if err := w.Validate(s); err != nil {
		return nil, nil, err
	}
	return s, w, nil
}

func cmdSummarize(args []string) error {
	fs := flag.NewFlagSet("summarize", flag.ExitOnError)
	schemaPath := fs.String("schema", "", "schema JSON")
	workloadPath := fs.String("workload", "", "workload JSON")
	out := fs.String("out", "summary.json", "output summary path")
	strict := fs.Bool("strict", false, "fail on inconsistent CCs instead of best effort")
	spread := fs.Bool("fkspread", false, "spread FKs round-robin within referenced spans in every database regenerated from this summary (part of its digest)")
	timeout := fs.Duration("timeout", 0, "abort regeneration after this long (0 = none)")
	fs.Parse(args)
	if *schemaPath == "" || *workloadPath == "" {
		return fmt.Errorf("summarize: -schema and -workload are required")
	}
	s, w, err := loadInputs(*schemaPath, *workloadPath)
	if err != nil {
		return err
	}
	ctx, cancel := timeoutContext(*timeout)
	defer cancel()
	res, err := hydra.RegenerateContext(ctx, s, w, hydra.Config{Strict: *strict})
	if err != nil {
		return err
	}
	res.Summary.FKSpread = *spread
	if err := res.Summary.Save(*out); err != nil {
		return err
	}
	fmt.Printf("summary: %d relations, %d rows, ~%d bytes\n",
		len(res.Summary.Relations), res.Summary.NumRows(), res.Summary.SizeBytes())
	fmt.Printf("build time %v (LP %v summed over views, %d variables)\n",
		res.BuildTime.Round(time.Millisecond), res.SolveTime.Round(time.Millisecond), res.TotalVars)
	fmt.Printf("wrote %s\n", *out)
	return nil
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	schemaPath := fs.String("schema", "", "schema JSON")
	workloadPath := fs.String("workload", "", "workload JSON")
	timeout := fs.Duration("timeout", 0, "abort regeneration after this long (0 = none)")
	fs.Parse(args)
	if *schemaPath == "" || *workloadPath == "" {
		return fmt.Errorf("validate: -schema and -workload are required")
	}
	s, w, err := loadInputs(*schemaPath, *workloadPath)
	if err != nil {
		return err
	}
	ctx, cancel := timeoutContext(*timeout)
	defer cancel()
	res, err := hydra.RegenerateContext(ctx, s, w, hydra.Config{})
	if err != nil {
		return err
	}
	reports, err := res.Evaluate(w)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CC\troot\twant\tgot\trel err")
	exact := 0
	for _, r := range reports {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%+.4f\n", r.Name, r.Root, r.Want, r.Got, r.RelErr)
		if r.RelErr == 0 {
			exact++
		}
	}
	tw.Flush()
	fmt.Printf("%d/%d CCs exact\n", exact, len(reports))
	return nil
}

func cmdMaterialize(args []string) error {
	fs := flag.NewFlagSet("materialize", flag.ExitOnError)
	sumPath := fs.String("summary", "", "summary JSON")
	dir := fs.String("dir", "hydra_db", "output directory")
	format := fs.String("format", "heap", "output format: "+strings.Join(hydra.MaterializeFormats(), "|"))
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS); output is byte-identical for any count")
	shardSpec := fs.String("shard", "", "generate only piece i/N, 1-based (e.g. -shard 2/4), for multi-machine runs; orchestrate -shards N runs all N")
	compress := fs.String("compress", "", "output codec: "+strings.Join(hydra.MaterializeCompressors(), "|")+" (default none)")
	tables := fs.String("tables", "", "comma-separated subset of relations (default all)")
	rateLimit := fs.Float64("rate-limit", 0, "cap emission at rows/s (0 = unlimited) — the load-generation knob")
	fs.Parse(args)
	if *sumPath == "" {
		return fmt.Errorf("materialize: -summary is required")
	}
	sum, err := summary.Load(*sumPath)
	if err != nil {
		return err
	}
	opts := hydra.MaterializeOptions{
		Dir:       *dir,
		Format:    *format,
		Compress:  *compress,
		Workers:   *workers,
		RateLimit: *rateLimit,
	}
	if *tables != "" {
		for _, name := range strings.Split(*tables, ",") {
			opts.Tables = append(opts.Tables, strings.TrimSpace(name))
		}
	}
	if *shardSpec != "" {
		var i, n int
		var tail string
		cnt, err := fmt.Sscanf(*shardSpec, "%d/%d%s", &i, &n, &tail)
		if !errors.Is(err, io.EOF) || cnt != 2 || i < 1 || n < 1 || i > n {
			return fmt.Errorf("materialize: -shard wants i/N with 1 <= i <= N, got %q", *shardSpec)
		}
		opts.Shard, opts.Shards = i-1, n
	}
	rep, err := hydra.Materialize(sum, opts)
	if err != nil {
		return err
	}
	for _, tr := range rep.Tables {
		where := tr.Path
		if where == "" {
			where = "(discarded)"
		}
		raw := ""
		if tr.RawBytes > 0 && tr.RawBytes != tr.Bytes {
			raw = fmt.Sprintf(" (%.1f MB raw)", float64(tr.RawBytes)/1e6)
		}
		fmt.Printf("  %-24s %12d rows %10.1f MB%s  %s\n",
			tr.Table, tr.Rows, float64(tr.Bytes)/1e6, raw, where)
	}
	if rep.ManifestPath != "" {
		fmt.Printf("  shard %d/%d manifest: %s\n", rep.Shard+1, rep.Shards, rep.ManifestPath)
	}
	fmt.Printf("materialized %s\n", rowStats(rep.Rows, rep.Elapsed, *format))
	return nil
}

// rowStats is the one rows/s report every batch verb shares — scan and
// materialize both compute throughput through obs.PerSec, the same
// function the metrics layer records with, so the CLI line and a
// scraped counter can never disagree on arithmetic.
func rowStats(rows int64, elapsed time.Duration, format string) string {
	return fmt.Sprintf("%d rows in %v (%.0f rows/sec, format %s)",
		rows, elapsed.Round(time.Millisecond), obs.PerSec(rows, elapsed), format)
}

func cmdOrchestrate(args []string) error {
	fs := flag.NewFlagSet("orchestrate", flag.ExitOnError)
	sumPath := fs.String("summary", "", "summary JSON")
	dir := fs.String("dir", "hydra_db", "output directory shared by all shards")
	format := fs.String("format", "heap", "output format: "+strings.Join(format.FileNames(), "|"))
	shards := fs.Int("shards", 1, "split each table into N verified pieces")
	parallel := fs.Int("parallel", 0, "shards running at once (0 = min(shards, GOMAXPROCS))")
	workers := fs.Int("workers", 0, "encode workers per shard (0 = GOMAXPROCS split across the parallel shards)")
	compress := fs.String("compress", "", "output codec: "+strings.Join(hydra.MaterializeCompressors(), "|")+" (default none)")
	retries := fs.Int("retries", 0, "re-runs per failed shard (0 = default 2, negative = none)")
	tables := fs.String("tables", "", "comma-separated subset of relations (default all)")
	runners := fs.String("runners", "", "comma-separated serve URLs; shards execute on this fleet instead of in-process")
	verifyOnly := fs.Bool("verify-only", false, "skip generation; verify the manifests and files already in -dir")
	timeout := fs.Duration("timeout", 0, "abort the whole orchestration after this long (0 = none)")
	fs.Parse(args)
	if *sumPath == "" {
		return fmt.Errorf("orchestrate: -summary is required")
	}
	sum, err := summary.Load(*sumPath)
	if err != nil {
		return err
	}
	var tableSubset []string
	if *tables != "" {
		for _, name := range strings.Split(*tables, ",") {
			tableSubset = append(tableSubset, strings.TrimSpace(name))
		}
	}
	if *verifyOnly {
		vopts := hydra.ShardVerifyOptions{Dir: *dir, Summary: sum, Tables: tableSubset}
		// An explicit -shards pins the expected width; the default
		// infers it from the manifests present.
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "shards" {
				vopts.Shards = *shards
			}
		})
		vr, err := hydra.VerifyShards(vopts)
		if err != nil {
			return err
		}
		printVerification(vr)
		return nil
	}
	opts := hydra.OrchestrateOptions{
		Dir:      *dir,
		Format:   *format,
		Compress: *compress,
		Shards:   *shards,
		Parallel: *parallel,
		Workers:  *workers,
		Retries:  *retries,
		Tables:   tableSubset,
	}
	if *runners != "" {
		var urls []string
		for _, u := range strings.Split(*runners, ",") {
			urls = append(urls, strings.TrimSpace(u))
		}
		// Each fleet member picks its own encode parallelism unless
		// -workers pins one; the local GOMAXPROCS split that governs
		// in-process shards says nothing about remote machines.
		runner, err := hydra.NewRemoteRunner(urls, hydra.RemoteRunnerOptions{Workers: *workers})
		if err != nil {
			return err
		}
		opts.Runner = runner
		if *parallel == 0 {
			// In-process parallelism is bounded by local cores; a fleet
			// is bounded by its membership.
			opts.Parallel = len(urls) * 2
			if opts.Parallel > *shards {
				opts.Parallel = *shards
			}
		}
		fmt.Printf("dispatching %d shards to %d runner(s): %s\n", *shards, len(urls), strings.Join(runner.Servers(), ", "))
	}
	ctx, cancel := timeoutContext(*timeout)
	defer cancel()
	res, err := hydra.Orchestrate(ctx, sum, opts)
	if res != nil {
		for _, sr := range res.Shards {
			if sr.Report == nil {
				fmt.Printf("  shard %d/%d FAILED after %d attempts: %v\n", sr.Shard+1, res.Plan.Shards, sr.Attempts, sr.Err)
				continue
			}
			retried := ""
			if sr.Attempts > 1 {
				retried = fmt.Sprintf("  (attempt %d)", sr.Attempts)
			}
			fmt.Printf("  shard %d/%d  %12d rows %10.1f MB  %s%s\n",
				sr.Shard+1, res.Plan.Shards, sr.Report.Rows,
				float64(sr.Report.Bytes)/1e6, sr.Report.ManifestPath, retried)
		}
	}
	if err != nil {
		return err
	}
	printVerification(res.Verification)
	fmt.Printf("orchestrated %d tuples across %d shards (%d parallel) in %v (%.0f rows/sec, format %s%s)\n",
		res.Rows, res.Plan.Shards, res.Plan.Parallel, res.Elapsed.Round(time.Millisecond),
		res.RowsPerSec(), *format, codecSuffix(*compress))
	return nil
}

// cmdServe runs the regeneration server: one loaded summary exposed as
// an HTTP data plane until SIGINT/SIGTERM, then a graceful drain.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	sumPath := fs.String("summary", "", "summary JSON")
	addr := fs.String("addr", "127.0.0.1:8372", "listen address")
	maxStreams := fs.Int("max-streams", 0, "concurrent table streams + shard jobs (0 = unlimited); excess requests get 503")
	rateLimit := fs.Float64("rate-limit", 0, "per-stream rows/s cap (0 = unlimited); clients may request lower, never higher")
	workers := fs.Int("workers", 0, "encode workers per shard job when the request leaves it unset (0 = GOMAXPROCS)")
	debugAddr := fs.String("debug-addr", "", "second listener with /debug/pprof/* and /metrics (e.g. 127.0.0.1:8373); empty disables")
	logStreams := fs.Bool("log-streams", false, "also log one line per completed table stream (failures are always logged) to stderr")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful drain bound after SIGTERM: in-flight streams get this long before force-close")
	writeTimeout := fs.Duration("write-timeout", time.Minute, "per-chunk write deadline; a client that stops reading for this long loses its stream (0 = none)")
	fs.Parse(args)
	if *sumPath == "" {
		return fmt.Errorf("serve: -summary is required")
	}
	sum, err := summary.Load(*sumPath)
	if err != nil {
		return err
	}
	var rows int64
	for _, rs := range sum.Relations {
		rows += rs.Total
	}
	fmt.Printf("serving %d relations (%d rows regenerable on demand) on http://%s\n",
		len(sum.Relations), rows, *addr)
	fmt.Printf("  GET  http://%s/v1/tables/{table}?format=csv|jsonl|sql|heap|spans&compress=gzip&shard=i/N&offset=K\n", *addr)
	fmt.Printf("  POST http://%s/v1/shardjobs   (hydra orchestrate -runners http://%s)\n", *addr, *addr)
	fmt.Printf("  GET  http://%s/metrics        (Prometheus text format)\n", *addr)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *debugAddr != "" {
		// The debug listener carries the operator surface — pprof and the
		// metrics scrape — on its own address so the data-plane port can
		// be exposed to clients without also exposing profiles. The same
		// metrics remain on the main mux for single-port deployments.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/metrics", hydra.MetricsHandler())
		dmux.Handle("/debug/traces", hydra.TraceHandler())
		dsrv := &http.Server{Addr: *debugAddr, Handler: dmux}
		defer context.AfterFunc(ctx, func() { dsrv.Close() })()
		go func() {
			fmt.Printf("  debug: http://%s/debug/pprof/, http://%s/metrics, http://%s/debug/traces\n",
				*debugAddr, *debugAddr, *debugAddr)
			if err := dsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "hydra: debug listener:", err)
			}
		}()
	}
	opts := hydra.ServeOptions{
		MaxStreams:   *maxStreams,
		RateLimit:    *rateLimit,
		Workers:      *workers,
		DrainTimeout: *drainTimeout,
		WriteTimeout: *writeTimeout,
	}
	// One log: failures always, one record per completed stream only
	// under -log-streams.
	level := slog.LevelWarn
	if *logStreams {
		level = slog.LevelInfo
	}
	opts.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	return hydra.Serve(ctx, *addr, sum, opts)
}

func codecSuffix(codec string) string {
	if codec == "" || codec == "none" {
		return ""
	}
	return "+" + codec
}

func printVerification(vr *hydra.ShardVerifyReport) {
	if vr == nil {
		return
	}
	for _, tc := range vr.Tables {
		raw := ""
		if tc.RawBytes != tc.Bytes {
			raw = fmt.Sprintf(" (%.1f MB raw)", float64(tc.RawBytes)/1e6)
		}
		fmt.Printf("  verified %-24s %12d rows %10.1f MB%s in %d parts\n",
			tc.Table, tc.Rows, float64(tc.Bytes)/1e6, raw, tc.Parts)
	}
	fmt.Printf("  verification OK: %d shards, %d files re-hashed (%.1f MB)\n",
		vr.Shards, vr.FilesHashed, float64(vr.BytesHashed)/1e6)
}

// cmdScan is the unified read path's CLI face: the same -table/-range/
// -columns scan against any backend — a summary file, a materialized
// directory, or a serve fleet — with byte-identical output, encoded in
// any materialization format.
func cmdScan(args []string) error {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	sumPath := fs.String("summary", "", "summary JSON: generate batches in-process")
	dir := fs.String("dir", "", "materialized directory: decode part files (checksums verified lazily)")
	remote := fs.String("remote", "", "comma-separated serve URLs: stream from the fleet with failover")
	table := fs.String("table", "", "relation to scan (required)")
	columns := fs.String("columns", "", "comma-separated column projection (default all, tuple order)")
	rng := fs.String("range", "", "pk range A:B, 1-based inclusive; either side may be omitted")
	where := fs.String("where", "", "row filter: AND of column comparisons, e.g. 'A >= 20 AND B IN (1,5)'")
	shardSpec := fs.String("shard", "", "scan only piece i/N of the range, 1-based (e.g. 2/4)")
	format := fs.String("format", "csv", "output encoding: "+strings.Join(format.FileNames(), "|"))
	batch := fs.Int("batch", 0, "rows per batch (0 = default)")
	rateLimit := fs.Float64("rate", 0, "cap the scan at rows/s (0 = unlimited)")
	timeout := fs.Duration("timeout", 0, "abort the scan after this long (0 = none)")
	outPath := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if *table == "" {
		return fmt.Errorf("scan: -table is required")
	}
	spec := hydra.ScanSpec{
		Table:     *table,
		BatchRows: *batch,
		RateLimit: *rateLimit,
	}
	if *columns != "" {
		for _, name := range strings.Split(*columns, ",") {
			spec.Columns = append(spec.Columns, strings.TrimSpace(name))
		}
	}
	if *where != "" {
		f, err := hydra.ParseWhere(*where)
		if err != nil {
			return fmt.Errorf("scan: -where: %v", err)
		}
		spec.Filter = f
	}
	if *rng != "" {
		lo, hi, ok := strings.Cut(*rng, ":")
		if !ok {
			return fmt.Errorf("scan: -range wants A:B, got %q", *rng)
		}
		var err error
		if lo != "" {
			if spec.StartPK, err = strconv.ParseInt(lo, 10, 64); err != nil {
				return fmt.Errorf("scan: -range start: %v", err)
			}
		}
		if hi != "" {
			if spec.EndPK, err = strconv.ParseInt(hi, 10, 64); err != nil {
				return fmt.Errorf("scan: -range end: %v", err)
			}
		}
	}
	if *shardSpec != "" {
		var i, n int
		var tail string
		cnt, err := fmt.Sscanf(*shardSpec, "%d/%d%s", &i, &n, &tail)
		if !errors.Is(err, io.EOF) || cnt != 2 || i < 1 || n < 1 || i > n {
			return fmt.Errorf("scan: -shard wants i/N with 1 <= i <= N, got %q", *shardSpec)
		}
		spec.Shard, spec.Shards = i-1, n
	}

	src, _, err := openSource("scan", *sumPath, *dir, *remote)
	if err != nil {
		return err
	}
	defer src.Close()

	ctx, cancel := timeoutContext(*timeout)
	defer cancel()

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	bw := bufio.NewWriterSize(out, 1<<20)
	start := time.Now()
	sc, err := src.Scan(ctx, spec)
	if err != nil {
		return err
	}
	defer sc.Close()
	rows, err := hydra.EncodeScan(bw, sc, *format)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "scanned %s: %s\n", *table, rowStats(rows, time.Since(start), *format))
	return nil
}

// openSource resolves the -summary/-dir/-remote backend triple every
// scan-path verb shares: exactly one must be set. The second return
// names the backend for reports.
func openSource(verb, sumPath, dir, remote string) (hydra.Source, string, error) {
	backends := 0
	for _, set := range []bool{sumPath != "", dir != "", remote != ""} {
		if set {
			backends++
		}
	}
	if backends != 1 {
		return nil, "", fmt.Errorf("%s: exactly one of -summary, -dir, -remote selects the backend", verb)
	}
	switch {
	case sumPath != "":
		sum, err := summary.Load(sumPath)
		if err != nil {
			return nil, "", err
		}
		return hydra.NewSummarySource(sum), "summary", nil
	case dir != "":
		ds, err := hydra.OpenDirSource(dir)
		if err != nil {
			return nil, "", err
		}
		return ds, "dir", nil
	default:
		var urls []string
		for _, u := range strings.Split(remote, ",") {
			urls = append(urls, strings.TrimSpace(u))
		}
		rs, err := hydra.NewRemoteSource(urls, hydra.RemoteSourceOptions{})
		if err != nil {
			return nil, "", err
		}
		return rs, "fleet", nil
	}
}

// cmdLoadgen drives concurrent ranged scans against any backend and
// prints throughput plus p50/p95/p99/p999 request latency — the
// client's side of the observability story, against the fleet's own
// /metrics histograms. A run with failed requests exits non-zero, so
// CI can use it as a smoke gate.
func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	sumPath := fs.String("summary", "", "summary JSON: load the in-process regeneration path")
	dir := fs.String("dir", "", "materialized directory: load the decode path")
	remote := fs.String("remote", "", "comma-separated serve URLs: load the fleet")
	tables := fs.String("tables", "", "comma-separated subset of relations (default all)")
	conc := fs.Int("c", 0, "concurrent workers (0 = default 8)")
	dur := fs.Duration("d", 0, "run duration (0 = default 10s)")
	rowsPerReq := fs.Int64("rows-per-request", 0, "pk-range size of each request (0 = default 10000)")
	batch := fs.Int("batch", 0, "rows per batch (0 = backend default)")
	maxReqs := fs.Int64("max-requests", 0, "stop after this many requests even before -d elapses (0 = unlimited)")
	seed := fs.Int64("seed", 0, "workload seed; same seed, same request sequence (0 = 1)")
	asJSON := fs.Bool("json", false, "emit the report as JSON on stdout (human summary goes to stderr)")
	fs.Parse(args)
	src, backend, err := openSource("loadgen", *sumPath, *dir, *remote)
	if err != nil {
		return err
	}
	defer src.Close()
	opts := hydra.LoadgenOptions{
		Source:         src,
		Concurrency:    *conc,
		Duration:       *dur,
		RowsPerRequest: *rowsPerReq,
		BatchRows:      *batch,
		MaxRequests:    *maxReqs,
		Seed:           *seed,
	}
	if *tables != "" {
		for _, name := range strings.Split(*tables, ",") {
			opts.Tables = append(opts.Tables, strings.TrimSpace(name))
		}
	}
	ctx, cancel := timeoutContext(0)
	defer cancel()
	rep, err := hydra.Loadgen(ctx, opts)
	if err != nil {
		return err
	}
	rep.Backend = backend
	human := io.Writer(os.Stdout)
	if *asJSON {
		human = os.Stderr
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
	rep.WriteHuman(human)
	if rep.Errors > 0 {
		return fmt.Errorf("loadgen: %d of %d requests failed", rep.Errors, rep.Requests)
	}
	return nil
}

// cmdTraces pulls a fleet member's flight recorder (the -debug-addr
// listener's GET /debug/traces) and renders it: a table of the retained
// traces, or one trace's span tree as a text waterfall with -id. The
// trace id comes from a stream's X-Hydra-Trace-Id response header, a
// -log-streams slog record, or a loadgen report's slow_traces entries.
func cmdTraces(args []string) error {
	fs := flag.NewFlagSet("traces", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8373", "base URL of a member's -debug-addr listener")
	id := fs.String("id", "", "render one trace's waterfall instead of the list")
	n := fs.Int("n", 20, "max traces to list")
	timeout := fs.Duration("timeout", 10*time.Second, "fetch timeout")
	fs.Parse(args)
	ctx, cancel := timeoutContext(*timeout)
	defer cancel()
	base := strings.TrimSuffix(*addr, "/")
	if *id != "" {
		var tr trace.Trace
		if err := fetchJSON(ctx, base+"/debug/traces?id="+url.QueryEscape(*id), &tr); err != nil {
			return err
		}
		printWaterfall(&tr)
		return nil
	}
	var list struct {
		Traces []trace.Summary `json:"traces"`
	}
	if err := fetchJSON(ctx, fmt.Sprintf("%s/debug/traces?n=%d", base, *n), &list); err != nil {
		return err
	}
	if len(list.Traces) == 0 {
		fmt.Println("traces: flight recorder is empty")
		return nil
	}
	fmt.Printf("%-32s  %-18s  %-12s  %5s  %-7s  %s\n",
		"TRACE", "ROOT", "DURATION", "SPANS", "KEEP", "ERROR")
	for _, s := range list.Traces {
		fmt.Printf("%-32s  %-18s  %-12s  %5d  %-7s  %s\n",
			s.TraceID, s.Root, fmtSeconds(s.DurationSec), s.SpansTotal, s.Keep, s.Err)
	}
	return nil
}

func fetchJSON(ctx context.Context, u string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("traces: %s answered %s: %s", u, resp.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// traceBarWidth is the waterfall bar's character budget per span line.
const traceBarWidth = 32

// printWaterfall renders one trace's span tree: indentation is depth,
// the bar is the span's window within the trace, events print beneath
// their span at their offsets.
func printWaterfall(tr *trace.Trace) {
	fmt.Printf("trace %s  %s  (%s, %d spans", tr.TraceID, tr.Root, fmtSeconds(tr.DurationSec), tr.SpansTotal)
	if tr.Keep != "" {
		fmt.Printf(", keep=%s", tr.Keep)
	}
	if tr.Err != "" {
		fmt.Printf(", error=%q", tr.Err)
	}
	fmt.Println(")")
	if tr.Tree != nil {
		printSpan(tr.Tree, 0, int64(tr.DurationSec*1e6))
	}
}

func printSpan(rec *trace.SpanRecord, depth int, totalUS int64) {
	indent := strings.Repeat("  ", depth)
	line := fmt.Sprintf("[%s] %s%s  +%s %s",
		spanBar(rec.StartOffsetUS, rec.DurationUS, totalUS),
		indent, rec.Name, usDur(rec.StartOffsetUS), usDur(rec.DurationUS))
	for _, a := range rec.Attrs {
		line += fmt.Sprintf("  %s=%s", a.Key, a.Value)
	}
	if rec.Err != "" {
		line += "  ERROR " + rec.Err
	}
	fmt.Println(line)
	pad := strings.Repeat(" ", traceBarWidth)
	for _, ev := range rec.Events {
		evline := fmt.Sprintf("[%s] %s  · %s +%s", pad, indent, ev.Name, usDur(ev.OffsetUS))
		for _, a := range ev.Attrs {
			evline += fmt.Sprintf("  %s=%s", a.Key, a.Value)
		}
		fmt.Println(evline)
	}
	for _, c := range rec.Children {
		printSpan(c, depth+1, totalUS)
	}
}

// spanBar marks the span's [start, start+dur) window on a fixed-width
// timeline of the whole trace.
func spanBar(startUS, durUS, totalUS int64) string {
	if totalUS <= 0 {
		totalUS = 1
	}
	b := []byte(strings.Repeat(" ", traceBarWidth))
	lo := int(startUS * traceBarWidth / totalUS)
	hi := int((startUS + durUS) * traceBarWidth / totalUS)
	if lo >= traceBarWidth {
		lo = traceBarWidth - 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	if hi > traceBarWidth {
		hi = traceBarWidth
	}
	for i := lo; i < hi; i++ {
		b[i] = '#'
	}
	return string(b)
}

// usDur renders a microsecond offset/duration with units.
func usDur(us int64) string {
	return (time.Duration(us) * time.Microsecond).String()
}

// fmtSeconds renders a latency sample with duration units.
func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

// cmdFaultProxy runs the chaos proxy standalone: it fronts one fleet
// member and injects a deterministic fault sequence, for torturing a
// fleet client outside the test suite.
func cmdFaultProxy(args []string) error {
	fs := flag.NewFlagSet("faultproxy", flag.ExitOnError)
	upstream := fs.String("upstream", "", "base URL of the fleet member to front (required)")
	listen := fs.String("listen", "127.0.0.1:0", "listen address")
	seed := fs.Int64("seed", 1, "fault sequence seed; same seed, same faults")
	rate := fs.Float64("rate", 0.3, "per-request fault probability")
	faultList := fs.String("faults", "refuse,500,503,cut,stall,corrupt",
		"comma-separated fault kinds to draw from")
	flap := fs.String("flap", "", "deterministic flapping as down/period request counts (overrides -rate)")
	exempt := fs.Bool("exempt-health", false, "never fault /healthz probes")
	fs.Parse(args)
	if *upstream == "" {
		return fmt.Errorf("faultproxy: -upstream is required")
	}
	var faults []faultinject.Fault
	for _, tok := range strings.Split(*faultList, ",") {
		switch strings.TrimSpace(tok) {
		case "":
		case "refuse":
			faults = append(faults, faultinject.Fault{Kind: faultinject.KindRefuse})
		case "500":
			faults = append(faults, faultinject.Fault{Kind: faultinject.KindStatus, Status: http.StatusInternalServerError})
		case "503":
			faults = append(faults, faultinject.Fault{Kind: faultinject.KindStatus, Status: http.StatusServiceUnavailable, RetryAfter: "1"})
		// Byte positions sit inside the first frame of a spans body: a
		// range scan's whole response is a few dozen bytes, so anything
		// later would let most streams through untouched.
		case "cut":
			faults = append(faults, faultinject.Fault{Kind: faultinject.KindCut, AfterBytes: 12})
		case "stall":
			faults = append(faults, faultinject.Fault{Kind: faultinject.KindStall, AfterBytes: 8, StallFor: 2 * time.Second})
		case "corrupt":
			faults = append(faults, faultinject.Fault{Kind: faultinject.KindCorrupt, AfterBytes: 6})
		default:
			return fmt.Errorf("faultproxy: unknown fault kind %q (want refuse, 500, 503, cut, stall, corrupt)", tok)
		}
	}
	if len(faults) == 0 {
		return fmt.Errorf("faultproxy: -faults selected nothing")
	}
	var decide faultinject.Decider
	if *flap != "" {
		downStr, periodStr, ok := strings.Cut(*flap, "/")
		down, err1 := strconv.ParseInt(downStr, 10, 64)
		period, err2 := strconv.ParseInt(periodStr, 10, 64)
		if !ok || err1 != nil || err2 != nil || down < 0 || period < 1 || down > period {
			return fmt.Errorf("faultproxy: -flap wants down/period request counts (e.g. 5/20), got %q", *flap)
		}
		decide = faultinject.Flap(period, down, faults[0])
	} else {
		decide = faultinject.Flaky(*seed, *rate, faults...)
	}
	if *exempt {
		decide = faultinject.ExemptHealth(decide)
	}
	proxy, err := faultinject.New(*upstream, decide)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	log.Printf("faultproxy: listening on http://%s, fronting %s", ln.Addr(), *upstream)
	srv := &http.Server{Handler: proxy}
	ctx, cancel := timeoutContext(0)
	defer cancel()
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
