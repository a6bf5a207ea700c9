// Command benchmark is the repository's one benchmark: six closed-loop
// workloads over one regenerated data set, every output checked against an
// oracle, end-to-end metrics from untraced runs and a per-layer ladder from
// a traced pass. BENCHMARK.json at the repository root names the metrics
// and their bounds; README.md in this directory says why each exists.
//
//	bash benchmark/run.sh --workload scan-remote --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload all --out results.jsonl
//	bash benchmark/run.sh --compare before.jsonl after.jsonl
//	bash benchmark/run.sh --dump-requests --workload scan-dir --seed 7 --n 5
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

// errChecksFailed is returned after the result has been printed: the run
// completed but an oracle rejected an output.
var errChecksFailed = errors.New("output checks failed")

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "all", "workload to run: one of the six names, or all")
		seed     = fs.Int64("seed", 1, "seed of the request stream (the data set is fixed)")
		seconds  = fs.Float64("seconds", 10, "length of the timed section")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced pass, per-layer metrics")
		traceOut = fs.String("trace-out", "", "span file of a traced pass (default <tmp>/trace-<workload>.jsonl)")
		outPath  = fs.String("out", "", "append each run's record to this result file")
		tmp      = fs.String("tmp", filepath.Join(".bench_build", "tmp"), "scratch directory, inside the checkout")
		smoke    = fs.Bool("smoke", false, "run at the x1 smoke scale")
		dump     = fs.Bool("dump-requests", false, "print the request stream and exit")
		n        = fs.Int("n", 20, "requests to print with -dump-requests")
		cmp      = fs.Bool("compare", false, "compare two result files: -compare A.jsonl B.jsonl")
		specPath = fs.String("spec", "BENCHMARK.json", "benchmark definition -compare takes bounds from")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc := fullScale
	if *smoke {
		sc = smokeScale
	}
	switch {
	case *cmp:
		return runCompare(*specPath, fs.Args())
	case *dump:
		return dumpRequests(sc, *seed, *n)
	case *seconds <= 0:
		return fmt.Errorf("-seconds %g: want a positive length", *seconds)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	case *name == "all":
		return runAll(args)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, sc: sc, tmpRoot: *tmp, traceOut: *traceOut}
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(*tmp, "trace-"+w.name+".jsonl")
	}
	rec, err := runWorkload(context.Background(), cfg, os.Stdout)
	if err != nil {
		return err
	}
	if *outPath != "" {
		if err := appendRecord(*outPath, rec); err != nil {
			return err
		}
	}
	if !rec.Correct {
		return errChecksFailed
	}
	return nil
}

// runAll runs every workload untraced and then traced, each in its own
// process so that peak RSS and GC state belong to one workload.
func runAll(args []string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []error
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			// Later flags win, so the caller's other flags pass through.
			cmd := exec.Command(exe, append(append([]string(nil), args...), "-workload", w.name, "-trace", strconv.Itoa(trace))...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, fmt.Errorf("%s trace %d: %w", w.name, trace, err))
			}
		}
	}
	return errors.Join(failed...)
}

func runCompare(specPath string, files []string) error {
	if len(files) != 2 {
		return errors.New("-compare wants two result files")
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	a, err := loadRecords(files[0])
	if err != nil {
		return err
	}
	b, err := loadRecords(files[1])
	if err != nil {
		return err
	}
	regressed, err := compare(os.Stdout, sp, a, b)
	if err != nil {
		return err
	}
	if regressed {
		return errors.New("at least one metric regressed")
	}
	return nil
}

// dumpRequests prints the first n requests of the seeded stream, one JSON
// object a line. The stream is the same for every workload; building it
// needs ds, because requests address its relations and summary values.
func dumpRequests(sc scale, seed int64, n int) error {
	tp, err := newTPCDS()
	if err != nil {
		return err
	}
	ds, err := buildDataset(sc, tp)
	if err != nil {
		return err
	}
	st := newStream(seed, sc, ds.big)
	enc := json.NewEncoder(os.Stdout)
	for i := 0; i < n; i++ {
		if err := enc.Encode(st.next()); err != nil {
			return err
		}
	}
	return nil
}
