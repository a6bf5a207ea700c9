// Package loadgen drives concurrent resumable scans against any scan
// backend — a loaded summary, a materialized directory, a serve fleet —
// and reports throughput and latency percentiles. It is the load half
// of the observability story: serve's /metrics histograms describe what
// a fleet member experienced, loadgen's report describes what a client
// population experienced, and CI runs both against each other to put
// p50/p99 numbers next to every change.
//
// The workload is deterministic for a given seed: each worker draws
// tables and pk ranges from its own seeded generator, so two runs
// against the same backend issue the same request sequence (request
// interleaving still depends on timing, as in any load test).
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/dsl-repro/hydra/internal/obs"
	"github.com/dsl-repro/hydra/internal/scan"
	"github.com/dsl-repro/hydra/internal/trace"
)

// Options tunes one load run.
type Options struct {
	// Source is the backend under load. Required; the caller keeps
	// ownership (loadgen never closes it).
	Source scan.Source
	// Tables restricts the workload to a subset of relations (all when
	// nil). Unknown names are an error.
	Tables []string
	// Concurrency is the number of workers issuing scans back to back;
	// 0 means DefaultConcurrency.
	Concurrency int
	// Duration bounds the run's wall time; 0 means DefaultDuration.
	// Requests in flight at the deadline are drained, not aborted, so
	// every latency sample covers a whole request.
	Duration time.Duration
	// RowsPerRequest is each scan's pk-range size; 0 means
	// DefaultRowsPerRequest. Ranges starting near a table's end are
	// clamped and therefore shorter.
	RowsPerRequest int64
	// BatchRows sets the scans' batch granularity (0 = backend default).
	BatchRows int
	// MaxRequests stops the run after this many requests even if
	// Duration has not elapsed (0 = unlimited); the knob CI smoke tests
	// use to bound work deterministically.
	MaxRequests int64
	// Seed makes the request sequence reproducible; 0 means seed 1.
	Seed int64
}

// DefaultConcurrency is the worker count when Options leaves it zero.
const DefaultConcurrency = 8

// DefaultDuration bounds a run when Options leaves it zero.
const DefaultDuration = 10 * time.Second

// DefaultRowsPerRequest is each request's pk-range size when Options
// leaves it zero.
const DefaultRowsPerRequest = 10_000

// maxErrorSamples bounds how many distinct failure messages the report
// carries; the count is exact either way.
const maxErrorSamples = 5

// Latency summarizes the merged request-latency distribution, in
// seconds. Percentiles are nearest-rank over the raw samples — exact,
// not bucket-estimated, since loadgen keeps every sample.
type Latency struct {
	P50  float64 `json:"p50_s"`
	P95  float64 `json:"p95_s"`
	P99  float64 `json:"p99_s"`
	P999 float64 `json:"p999_s"`
	Max  float64 `json:"max_s"`
	Mean float64 `json:"mean_s"`
}

// Report is one load run's outcome.
type Report struct {
	Backend     string  `json:"backend,omitempty"`
	Concurrency int     `json:"concurrency"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	Rows        int64   `json:"rows"`
	ElapsedSec  float64 `json:"elapsed_s"`
	RowsPerSec  float64 `json:"rows_per_sec"`
	ReqPerSec   float64 `json:"requests_per_sec"`
	Latency     Latency `json:"latency"`
	// ErrorSamples holds up to a handful of failure messages — enough to
	// diagnose, bounded so a pathological run cannot balloon the report.
	ErrorSamples []string `json:"error_samples,omitempty"`
	// ErrorsByCategory breaks Errors down by coarse failure class
	// (refused / truncated / busy / timeout / spec / other), so a chaos
	// run reports what was absorbed, not just a count.
	ErrorsByCategory map[string]int64 `json:"errors_by_category,omitempty"`
	// SlowTraces links the run's worst requests to their span trees:
	// the p99.9-rank and slowest samples' trace ids, resolvable against
	// the flight recorder (`hydra traces`, GET /debug/traces) — a bench
	// regression or CI failure points straight at a waterfall.
	SlowTraces []TraceRef `json:"slow_traces,omitempty"`
}

// TraceRef names one request's trace: enough to fetch its span tree.
type TraceRef struct {
	// Rank is which latency statistic this request was: "max" or "p999".
	Rank    string  `json:"rank"`
	TraceID string  `json:"trace_id"`
	Seconds float64 `json:"seconds"`
	Table   string  `json:"table"`
}

// Categorize maps one request failure onto the report's coarse error
// classes. The classes are deliberately few: "refused" (could not
// reach or keep a connection), "truncated" (a stream died or tore
// mid-body), "busy" (capacity 503s exhausted the retry budget),
// "timeout" (deadline expired), "spec" (the request itself was
// rejected), "other" (everything else).
func Categorize(err error) string {
	if err == nil {
		return ""
	}
	var ne net.Error
	switch {
	case errors.Is(err, scan.ErrSpec):
		return "spec"
	case errors.Is(err, context.DeadlineExceeded), errors.As(err, &ne) && ne.Timeout():
		return "timeout"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "truncated"
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, "unexpected EOF"),
		strings.Contains(msg, "spans frame"),
		strings.Contains(msg, "csv row"),
		strings.Contains(msg, "csv cell"):
		return "truncated"
	case strings.Contains(msg, "503"),
		strings.Contains(msg, "Service Unavailable"):
		return "busy"
	case strings.Contains(msg, "connection refused"),
		strings.Contains(msg, "connection reset"),
		strings.Contains(msg, "EOF"),
		strings.Contains(msg, "no fleet member available"):
		return "refused"
	case strings.Contains(msg, "timeout"),
		strings.Contains(msg, "deadline"):
		return "timeout"
	}
	return "other"
}

// workload is one resolved target: a table and its cardinality.
type workload struct {
	table string
	rows  int64
}

// Run drives the load and blocks until the run completes. The context
// aborts in-flight scans early; a context-canceled run still returns
// the report accumulated so far alongside ctx's error.
func Run(ctx context.Context, opts Options) (*Report, error) {
	if opts.Source == nil {
		return nil, errors.New("loadgen: Source is required")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	conc := opts.Concurrency
	if conc <= 0 {
		conc = DefaultConcurrency
	}
	dur := opts.Duration
	if dur <= 0 {
		dur = DefaultDuration
	}
	perReq := opts.RowsPerRequest
	if perReq <= 0 {
		perReq = DefaultRowsPerRequest
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	targets, err := resolveTargets(opts.Source, opts.Tables)
	if err != nil {
		return nil, err
	}

	deadline := time.NewTimer(dur)
	defer deadline.Stop()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-deadline.C:
		case <-runCtx.Done():
		}
		cancel()
	}()

	var (
		budget   = newRequestBudget(opts.MaxRequests)
		mu       sync.Mutex
		requests int64
		errCount int64
		rows     int64
		samples  []sample
		errMsgs  []string
		errCats  map[string]int64
	)
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < conc; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(k)*1_000_003))
			var localSamples []sample
			var localReqs, localErrs, localRows int64
			var localMsgs []string
			localCats := make(map[string]int64)
			for runCtx.Err() == nil && budget.take() {
				wl := targets[rng.Intn(len(targets))]
				startPK := 1 + rng.Int63n(wl.rows)
				endPK := startPK + perReq - 1
				if endPK > wl.rows {
					endPK = wl.rows
				}
				// Each request is a root trace: the backend's scan span
				// (and, remotely, per-attempt spans) nests inside, and
				// the id links a latency sample to its span tree.
				rctx, sp := trace.Start(runCtx, "loadgen.request",
					trace.Str("table", wl.table))
				t0 := time.Now()
				n, err := oneScan(rctx, opts.Source, scan.Spec{
					Table: wl.table, StartPK: startPK, EndPK: endPK,
					BatchRows: opts.BatchRows,
				})
				d := time.Since(t0)
				sp.Fail(err)
				sp.End()
				localRows += n
				// A request the deadline interrupted is neither a whole
				// sample nor a backend failure; drop it.
				if runCtx.Err() != nil && err != nil {
					break
				}
				localReqs++
				localSamples = append(localSamples, sample{
					sec: d.Seconds(), traceID: sp.TraceID(), table: wl.table})
				if err != nil {
					localErrs++
					localCats[Categorize(err)]++
					if len(localMsgs) < maxErrorSamples {
						localMsgs = append(localMsgs, err.Error())
					}
				}
			}
			mu.Lock()
			requests += localReqs
			errCount += localErrs
			rows += localRows
			samples = append(samples, localSamples...)
			for _, m := range localMsgs {
				if len(errMsgs) < maxErrorSamples {
					errMsgs = append(errMsgs, m)
				}
			}
			for cat, n := range localCats {
				if errCats == nil {
					errCats = make(map[string]int64)
				}
				errCats[cat] += n
			}
			mu.Unlock()
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start)

	lat, slow := summarize(samples)
	rep := &Report{
		Concurrency: conc,
		Requests:    requests,
		Errors:      errCount,
		Rows:        rows,
		ElapsedSec:  elapsed.Seconds(),
		RowsPerSec:  obs.PerSec(rows, elapsed),
		ReqPerSec:   obs.PerSec(requests, elapsed),
		Latency:     lat,
		SlowTraces:  slow,
	}
	sort.Strings(errMsgs)
	rep.ErrorSamples = errMsgs
	rep.ErrorsByCategory = errCats
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	return rep, nil
}

// oneScan issues one ranged scan and drains it, returning the rows read.
func oneScan(ctx context.Context, src scan.Source, spec scan.Spec) (int64, error) {
	sc, err := src.Scan(ctx, spec)
	if err != nil {
		return 0, err
	}
	defer sc.Close()
	var n int64
	for sc.Next() {
		n += int64(sc.Batch().N)
	}
	return n, sc.Err()
}

// resolveTargets validates the table subset against the source.
func resolveTargets(src scan.Source, tables []string) ([]workload, error) {
	names := tables
	if len(names) == 0 {
		var err error
		if names, err = src.Tables(); err != nil {
			return nil, fmt.Errorf("loadgen: list tables: %w", err)
		}
	}
	if len(names) == 0 {
		return nil, errors.New("loadgen: source has no tables")
	}
	targets := make([]workload, 0, len(names))
	for _, name := range names {
		info, err := src.Table(name)
		if err != nil {
			return nil, fmt.Errorf("loadgen: table %q: %w", name, err)
		}
		if info.Rows < 1 {
			continue
		}
		targets = append(targets, workload{table: name, rows: info.Rows})
	}
	if len(targets) == 0 {
		return nil, errors.New("loadgen: every selected table is empty")
	}
	return targets, nil
}

// requestBudget caps total requests across workers (no-op when max<=0).
type requestBudget struct {
	mu   sync.Mutex
	left int64
	cap  bool
}

func newRequestBudget(max int64) *requestBudget {
	return &requestBudget{left: max, cap: max > 0}
}

func (b *requestBudget) take() bool {
	if !b.cap {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.left <= 0 {
		return false
	}
	b.left--
	return true
}

// summarize computes the nearest-rank percentiles over raw samples.
// sample is one completed request: its latency plus the trace that can
// explain it.
type sample struct {
	sec     float64
	traceID string
	table   string
}

func summarize(samples []sample) (Latency, []TraceRef) {
	if len(samples) == 0 {
		return Latency{}, nil
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].sec < samples[j].sec })
	var total float64
	for _, s := range samples {
		total += s.sec
	}
	rankIdx := func(q float64) int {
		i := int(q*float64(len(samples))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(samples) {
			i = len(samples) - 1
		}
		return i
	}
	rank := func(q float64) float64 { return samples[rankIdx(q)].sec }
	lat := Latency{
		P50:  rank(0.50),
		P95:  rank(0.95),
		P99:  rank(0.99),
		P999: rank(0.999),
		Max:  samples[len(samples)-1].sec,
		Mean: total / float64(len(samples)),
	}
	// The tail's names: the slowest request and the p99.9-rank one
	// (when distinct), so the report links straight into the flight
	// recorder. The slowest-N keep rule makes the max trace near-certain
	// to still be retained.
	maxS := samples[len(samples)-1]
	slow := []TraceRef{{Rank: "max", TraceID: maxS.traceID, Seconds: maxS.sec, Table: maxS.table}}
	if p := samples[rankIdx(0.999)]; p.traceID != maxS.traceID {
		slow = append(slow, TraceRef{Rank: "p999", TraceID: p.traceID, Seconds: p.sec, Table: p.table})
	}
	return lat, slow
}

// WriteHuman renders the report the way `hydra loadgen` prints it:
// totals, throughput, exact percentiles, per-category error counts
// alongside the total, sampled error messages, and the slow-trace
// handles into the flight recorder.
func (r *Report) WriteHuman(w io.Writer) {
	fmt.Fprintf(w, "loadgen: %s backend, %d workers, %d requests (%d rows) in %.1fs\n",
		r.Backend, r.Concurrency, r.Requests, r.Rows, r.ElapsedSec)
	fmt.Fprintf(w, "  throughput  %.0f rows/s, %.1f requests/s\n", r.RowsPerSec, r.ReqPerSec)
	fmt.Fprintf(w, "  latency     p50 %s  p95 %s  p99 %s  p99.9 %s  max %s\n",
		fmtSeconds(r.Latency.P50), fmtSeconds(r.Latency.P95),
		fmtSeconds(r.Latency.P99), fmtSeconds(r.Latency.P999), fmtSeconds(r.Latency.Max))
	if r.Errors > 0 {
		cats := make([]string, 0, len(r.ErrorsByCategory))
		for cat := range r.ErrorsByCategory {
			cats = append(cats, cat)
		}
		sort.Strings(cats)
		parts := make([]string, 0, len(cats))
		for _, cat := range cats {
			parts = append(parts, fmt.Sprintf("%s %d", cat, r.ErrorsByCategory[cat]))
		}
		fmt.Fprintf(w, "  errors      %d (%s)\n", r.Errors, strings.Join(parts, ", "))
		for _, msg := range r.ErrorSamples {
			fmt.Fprintf(w, "  error: %s\n", msg)
		}
	} else {
		fmt.Fprintf(w, "  errors      0\n")
	}
	for _, ref := range r.SlowTraces {
		fmt.Fprintf(w, "  trace       %-5s %s  %s  %s\n",
			ref.Rank, fmtSeconds(ref.Seconds), ref.Table, ref.TraceID)
	}
}

// fmtSeconds renders a latency statistic with duration units.
func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
