package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the last line of standard output carries.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is a result with what is needed to compare it with another:
// which run it was and on what. -out appends one per run.
type record struct {
	Workload string      `json:"workload"`
	Trace    int         `json:"trace"`
	Env      environment `json:"env"`
	result
}

// environment is the block every result file carries.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Ops        int     `json:"ops"`
	Setups     int     `json:"setups"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// config is one run's parameters.
type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	sc       scale
	tmpRoot  string
	traceOut string
}

// sample is what a timed section measured.
type sample struct {
	durs      []float64 // per-op seconds inside the program, in issue order
	rows      int64
	attempted int
	failed    int
}

// timedSection issues requests from st to run in a closed loop, one at a
// time, until the section has lasted for seconds. Time the benchmark spends
// checking outputs counts towards the section's length but not towards any
// op, so rows_per_s is rows over the time the program was working.
func timedSection(ctx context.Context, run runner, st *stream, seconds float64, rec *recorder) sample {
	var s sample
	start := time.Now()
	for time.Since(start).Seconds() < seconds {
		dur, rows, err := run.op(ctx, st.next(), rec)
		s.attempted++
		s.durs = append(s.durs, dur.Seconds())
		s.rows += rows
		if err != nil {
			s.failed++
			if s.failed <= 5 {
				fmt.Fprintf(os.Stderr, "benchmark: op %d failed: %v\n", s.attempted-1, err)
			}
		}
	}
	return s
}

func (s sample) busy() float64 {
	var t float64
	for _, d := range s.durs {
		t += d
	}
	return t
}

// runWorkload is one invocation: set up, measure for cfg.seconds, check,
// tear down, and report. Untraced it yields the end-to-end metrics, traced
// the per-layer ones; the two never mix in one run.
func runWorkload(ctx context.Context, cfg config, out io.Writer) (*record, error) {
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	needs, setups := cfg.workload.needs, cfg.sc.setups
	if cfg.trace {
		needs, setups = needAll, 1
	}
	// Set up several times and keep the last: setup_s is the median, so a
	// cold first build or one slow write does not decide it.
	var e *env
	var setupS []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
			// Collect the previous set-up's garbage outside the timing, so
			// that peak RSS is one environment's, not how far the collector
			// happened to lag behind five.
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(ctx, cfg.sc, cfg.tmpRoot, needs); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer e.close()

	run := cfg.workload.start(e)
	var targets []tableInfo // none for summarize, whose ops take no request
	if e.ds != nil {
		targets = e.ds.big
	}
	warm := referenceRequests(cfg.sc, targets)
	for i := 0; i < cfg.workload.warmups; i++ {
		var r request
		if len(warm) > 0 {
			r = warm[i%len(warm)]
		}
		if _, _, err := run.op(ctx, r, nil); err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}

	rec := &record{Workload: cfg.workload.name, Env: environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: cfg.seed, Scale: cfg.sc.name, Seconds: cfg.seconds, Setups: setups,
	}}
	rec.Metrics = make(map[string]metric)
	st := newStream(cfg.seed, cfg.sc, targets)
	var err error
	if cfg.trace {
		rec.Trace = 1
		err = tracedPass(ctx, cfg, e, run, st, rec)
	} else {
		err = untracedPass(ctx, cfg, run, st, setupS, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.Correct = rec.Failed == 0
	return rec, report(out, rec)
}

// untracedPass measures the end-to-end metrics.
func untracedPass(ctx context.Context, cfg config, run runner, st *stream, setupS []float64, rec *record) error {
	s := timedSection(ctx, run, st, cfg.seconds, nil)
	rec.Attempted, rec.Failed, rec.Env.Ops = s.attempted, s.failed, s.attempted
	ex, err := run.exact(ctx)
	if err != nil {
		return err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	w := cfg.workload
	for _, p := range []float64{w.tail90, w.tail99} {
		if supportedPercentile(s.attempted, p) < p {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %d ops do not support p%g (fewer than ten beyond it)\n", w.name, s.attempted, p)
		}
	}
	sorted := sortedCopy(s.durs)
	m := rec.Metrics
	m["setup_s"] = metric{median(setupS), "s"}
	m["rows_per_s"] = metric{float64(s.rows) / s.busy(), "rows/s"}
	m["op_p50_s"] = metric{percentile(sorted, 50), "s"}
	m["op_p90_s"] = metric{percentile(sorted, w.tail90), "s"}
	m["op_p99_s"] = metric{percentile(sorted, w.tail99), "s"}
	m["peak_rss_mib"] = metric{rss, "MiB"}
	m["bytes_per_row"] = metric{ex.bytesPerRow, "B/row"}
	m["cc_exact_share"] = metric{ex.ccExactShare, "share"}
	m["summary_bytes"] = metric{ex.summaryBytes, "B"}
	return nil
}

// counters are the program's own failure counters; each is expected to
// stay at zero over the ops, and a non-zero one explains a tail.
var counters = []struct{ metric, series string }{
	{"serve.busy_rejected", "hydra_serve_busy_total"},
	{"resilience.retries", "hydra_fleet_retries_total"},
	{"scan.remote_failovers", "hydra_scan_remote_failovers_total"},
}

// tracedPass measures the per-layer metrics: a quarter of the run untraced
// and a quarter traced on the same stream (their medians give the cost of
// the benchmark's own tracing), then the ladder.
func tracedPass(ctx context.Context, cfg config, e *env, run runner, st *stream, rec *record) error {
	before, err := snapshotMetrics()
	if err != nil {
		return err
	}
	spans := newRecorder()
	plain := timedSection(ctx, run, st, cfg.seconds/4, nil)
	traced := timedSection(ctx, run, st, cfg.seconds/4, spans)
	after, err := snapshotMetrics()
	if err != nil {
		return err
	}
	rec.Attempted = plain.attempted + traced.attempted
	rec.Failed = plain.failed + traced.failed
	rec.Env.Ops = rec.Attempted
	opSpans := len(spans.spans)
	self, whole := medianSelfByName(spans.spans), medianDurationByName(spans.spans)

	rungs, err := runLadder(ctx, e, spans)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	if err := checkSpans(spans.spans); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := writeSpans(cfg.traceOut, spans.spans); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %d spans (%d from ops) written to %s\n", len(spans.spans), opSpans, cfg.traceOut)

	m := rec.Metrics
	for name, v := range rungs {
		m[name] = metric{v, layerUnit(name)}
	}
	for _, c := range counters {
		m[c.metric] = metric{promDelta(before, after, c.series)[c.series], "count"}
	}
	m["bench.trace_overhead_share"] = metric{median(traced.durs)/median(plain.durs) - 1, "share"}
	m["bench.failed_share"] = metric{float64(rec.Failed) / float64(rec.Attempted), "share"}
	m["bench.open_s"] = metric{whole["open"], "s"}
	m["bench.drain_s"] = metric{whole["drain"], "s"}
	m["bench.close_s"] = metric{whole["close"], "s"}
	m["bench.root_self_s"] = metric{self[cfg.workload.name], "s"}
	return nil
}

// layerUnit derives a per-layer metric's unit from its name's suffix, the
// convention BENCHMARK.json's per_layer list follows.
func layerUnit(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_rows_per_s", "rows/s"}, {"_mb_per_s", "MB/s"}, {"_s_per_mrow", "s/Mrow"},
		{"_allocs_per_krow", "allocs/krow"}, {"_share", "share"}, {"_span_rows", "rows"}, {"_s", "s"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// report prints every metric by name with its unit, then the result object
// as the last line.
func report(out io.Writer, rec *record) error {
	fmt.Fprintf(out, "workload %s  trace %d  seed %d  scale %s  ops %d  failed %d  setups %d  GOMAXPROCS %d  %s  commit %s\n",
		rec.Workload, rec.Trace, rec.Env.Seed, rec.Env.Scale, rec.Attempted, rec.Failed, rec.Env.Setups,
		rec.Env.GOMAXPROCS, rec.Env.GoVersion, rec.Env.Commit)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-42s %16.9g %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		return fmt.Errorf("result does not encode (a metric is NaN or Inf): %w", err)
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// appendRecord adds rec to the result file at path, one JSON object a line.
func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
