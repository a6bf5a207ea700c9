package matgen

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/dsl-repro/hydra/internal/summary"
)

// streamBytes runs one Stream call and returns its output.
func streamBytes(t *testing.T, opts StreamOptions) ([]byte, *StreamReport) {
	t.Helper()
	var buf bytes.Buffer
	rep, err := Stream(context.Background(), testSummary(), opts, &buf)
	if err != nil {
		t.Fatalf("stream %+v: %v", opts, err)
	}
	if rep.Bytes != int64(buf.Len()) {
		t.Fatalf("report bytes %d != written %d", rep.Bytes, buf.Len())
	}
	return buf.Bytes(), rep
}

// TestStreamMatchesMaterialize is the golden equivalence: for every file
// format, plain and gzip, whole tables and shard pieces, Stream emits
// exactly the bytes Materialize puts in the corresponding (part) file.
func TestStreamMatchesMaterialize(t *testing.T) {
	sum := testSummary()
	for _, format := range fileFormats() {
		for _, compress := range []string{"", "gzip"} {
			t.Run(format+"/"+compressName(compress), func(t *testing.T) {
				// Whole table, single shard.
				dir := t.TempDir()
				rep, err := Materialize(sum, Options{
					Dir: dir, Format: format, Compress: compress, Workers: 2, BatchRows: 128,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, tr := range rep.Tables {
					want, err := os.ReadFile(tr.Path)
					if err != nil {
						t.Fatal(err)
					}
					got, srep := streamBytes(t, StreamOptions{
						Table: tr.Table, Format: format, Compress: compress, BatchRows: 128,
					})
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: stream != materialized file (%d vs %d bytes)", tr.Table, len(got), len(want))
					}
					if srep.Rows != tr.Rows || srep.TotalRows != tr.TotalRows {
						t.Fatalf("report %+v vs table report %+v", srep, tr)
					}
				}

				// Shard pieces of a 3-way split.
				dir = t.TempDir()
				if _, err := Materialize(sum, Options{
					Dir: dir, Format: format, Compress: compress, Workers: 2, BatchRows: 128,
					Shards: 3, Shard: 1,
				}); err != nil {
					t.Fatal(err)
				}
				for _, table := range []string{"S", "T"} {
					comp, _ := CompressorFor(compress)
					ext := ""
					if comp != nil {
						ext = comp.Ext()
					}
					want, err := os.ReadFile(partPath(dir, table, formatFor(format).Ext(), 1, 3) + ext)
					if err != nil {
						t.Fatal(err)
					}
					got, _ := streamBytes(t, StreamOptions{
						Table: table, Format: format, Compress: compress, BatchRows: 128,
						Shards: 3, Shard: 1,
					})
					if !bytes.Equal(got, want) {
						t.Fatalf("%s shard 1/3: stream != part file", table)
					}
				}
			})
		}
	}
}

func compressName(c string) string {
	if c == "" {
		return "plain"
	}
	return c
}

// TestStreamResumeSplice pins the resume contract: a stream limited to k
// rows followed by a stream resumed at offset k concatenates to the
// unlimited stream, byte-identically — for compressed output too when
// the split sits on the chunk grid.
func TestStreamResumeSplice(t *testing.T) {
	for _, compress := range []string{"", "gzip"} {
		for _, format := range fileFormats() {
			t.Run(format+"/"+compressName(compress), func(t *testing.T) {
				base := StreamOptions{Table: "S", Format: format, Compress: compress, BatchRows: 128}
				full, rep := streamBytes(t, base)
				// Split on the chunk grid so compressed members reframe
				// identically; the grid is a multiple of the alignment.
				cut := 4 * rep.ChunkRows
				if cut >= rep.Rows {
					t.Fatalf("fixture too small: %d rows, chunk %d", rep.Rows, rep.ChunkRows)
				}
				head := base
				head.Limit = cut
				tail := base
				tail.Offset = cut
				got, _ := streamBytes(t, head)
				tailBytes, tailRep := streamBytes(t, tail)
				got = append(got, tailBytes...)
				if !bytes.Equal(got, full) {
					t.Fatalf("head(limit=%d) + tail(offset=%d) != full stream (%d vs %d bytes)",
						cut, cut, len(got), len(full))
				}
				if tailRep.StartRow != rep.StartRow+cut || tailRep.Rows != rep.Rows-cut {
					t.Fatalf("tail report %+v", tailRep)
				}
			})
		}
	}

	// Off-grid (but aligned) splits still splice byte-identically for
	// uncompressed output, where no member framing exists.
	base := StreamOptions{Table: "S", Format: "csv", BatchRows: 128}
	full, _ := streamBytes(t, base)
	head, tail := base, base
	head.Limit, tail.Offset = 37, 37
	h, _ := streamBytes(t, head)
	tl, _ := streamBytes(t, tail)
	if got := append(h, tl...); !bytes.Equal(got, full) {
		t.Fatal("aligned off-grid splice diverged for uncompressed csv")
	}

	// An off-grid compressed splice reframes members, so the compressed
	// bytes differ — but the decompressed assembly must not.
	gz := StreamOptions{Table: "S", Format: "csv", Compress: "gzip", BatchRows: 128}
	gzFull, _ := streamBytes(t, gz)
	gzHead, gzTail := gz, gz
	gzHead.Limit, gzTail.Offset = 37, 37
	gh, _ := streamBytes(t, gzHead)
	gt, _ := streamBytes(t, gzTail)
	comp, _ := CompressorFor("gzip")
	dec := func(b []byte) []byte {
		zr, err := comp.NewReader(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer zr.Close()
		var out bytes.Buffer
		if _, err := out.ReadFrom(zr); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if !bytes.Equal(dec(append(gh, gt...)), dec(gzFull)) {
		t.Fatal("off-grid gzip splice corrupted the decompressed stream")
	}
}

// TestStreamValidation: every malformed request fails with ErrStream
// (the client-error class) before any byte is produced.
func TestStreamValidation(t *testing.T) {
	sum := testSummary()
	heapAlign := func() int64 {
		info, err := StreamInfo(sum, StreamOptions{Table: "S", Format: "heap"})
		if err != nil {
			t.Fatal(err)
		}
		if info.Align < 2 {
			t.Fatalf("heap align = %d, fixture cannot exercise misalignment", info.Align)
		}
		return int64(info.Align)
	}()
	cases := map[string]StreamOptions{
		"unknown table":     {Table: "nope", Format: "csv"},
		"unknown format":    {Table: "S", Format: "parquet"},
		"no byte stream":    {Table: "S", Format: "discard"},
		"unknown codec":     {Table: "S", Format: "csv", Compress: "zstd?"},
		"negative offset":   {Table: "S", Format: "csv", Offset: -1},
		"offset past end":   {Table: "S", Format: "csv", Offset: 1 << 40},
		"misaligned offset": {Table: "S", Format: "heap", Offset: heapAlign + 1},
		"misaligned limit":  {Table: "S", Format: "sql", Limit: 3},
		"negative limit":    {Table: "S", Format: "csv", Limit: -5},
		"bad shard":         {Table: "S", Format: "csv", Shards: 4, Shard: 4},
		"negative rate":     {Table: "S", Format: "csv", RateLimit: -1},
	}
	for name, opts := range cases {
		var buf bytes.Buffer
		if _, err := Stream(context.Background(), sum, opts, &buf); !errors.Is(err, ErrStream) {
			t.Errorf("%s: err = %v, want ErrStream", name, err)
		} else if buf.Len() != 0 {
			t.Errorf("%s: wrote %d bytes before failing", name, buf.Len())
		}
		if _, err := StreamInfo(sum, opts); !errors.Is(err, ErrStream) {
			t.Errorf("%s: StreamInfo err = %v, want ErrStream", name, err)
		}
	}
}

// TestPlanStreamCostIndependentOfRows: a stream plan builds no part
// path and no chunk index — only Materialize writes files — so planning
// a stream over a 2^20-row relation allocates no more than over a
// 2^10-row one, even on a one-row chunk grid.
func TestPlanStreamCostIndependentOfRows(t *testing.T) {
	bytesPerPlan := func(rows int64) uint64 {
		rel := &summary.RelationSummary{
			Table: "R", Cols: []string{"A"},
			Rows: []summary.RelRow{
				{Vals: []int64{1}, Count: rows / 2},
				{Vals: []int64{2}, Count: rows - rows/2},
			},
			Total: rows,
		}
		sum := &summary.Summary{Relations: map[string]*summary.RelationSummary{"R": rel}}
		opts := StreamOptions{Table: "R", Format: "csv", BatchRows: 1}
		const plans = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < plans; i++ {
			if _, err := PlanStream(sum, opts); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / plans
	}
	small, big := bytesPerPlan(1<<10), bytesPerPlan(1<<20)
	// The slack absorbs a stray allocation elsewhere in the process; a
	// chunk index for 2^20 one-row chunks is 8 MiB.
	if big > small+1024 {
		t.Fatalf("planning a 2^20-row stream allocates %d B, a 2^10-row one %d B", big, small)
	}
}

// TestStreamRateLimit: a limited stream must land within ±10% of the
// configured rows/s.
func TestStreamRateLimit(t *testing.T) {
	const perSec = 8000.0 // ~1s for the 8208-row fixture
	var buf bytes.Buffer
	start := time.Now()
	rep, err := Stream(context.Background(), testSummary(), StreamOptions{
		Table: "S", Format: "csv", BatchRows: 128, RateLimit: perSec,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(rep.Rows) / time.Since(start).Seconds()
	if got < perSec*0.9 || got > perSec*1.1 {
		t.Fatalf("observed %.0f rows/s, configured %.0f (±10%%)", got, perSec)
	}
}

// TestStreamCancellation: a canceled context stops the stream between
// chunks with the context's error.
func TestStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var n int
	w := writerFunc(func(p []byte) (int, error) {
		if n++; n == 2 {
			cancel() // cancel mid-stream, after some bytes went out
		}
		return len(p), nil
	})
	_, err := Stream(ctx, testSummary(), StreamOptions{Table: "S", Format: "csv", BatchRows: 128}, w)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestMaterializeRateLimit: Options.RateLimit paces a whole run within
// ±10%, on both the sequential and pool paths, without changing bytes.
func TestMaterializeRateLimit(t *testing.T) {
	sum := testSummary()
	var totalRows int64
	for _, rs := range sum.Relations {
		totalRows += rs.Total
	}
	perSec := float64(totalRows) // target ~1s per run, well past the burst tolerance
	baseline := t.TempDir()
	if _, err := Materialize(sum, Options{Dir: baseline, Format: "csv", Workers: 2, BatchRows: 128}); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			start := time.Now()
			rep, err := Materialize(sum, Options{
				Dir: dir, Format: "csv", Workers: workers, BatchRows: 128, RateLimit: perSec,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := float64(rep.Rows) / time.Since(start).Seconds()
			if got < perSec*0.9 || got > perSec*1.1 {
				t.Fatalf("observed %.0f rows/s, configured %.0f (±10%%)", got, perSec)
			}
			for _, table := range []string{"S", "T"} {
				want, err := os.ReadFile(filepath.Join(baseline, table+".csv"))
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(dir, table+".csv"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: rate limiting changed output bytes", table)
				}
			}
		})
	}
}

// TestMaterializeContextCancel: cancellation aborts the run promptly,
// reports the context's error, removes the output, and leaves no
// dispatcher, worker or collector running — with two tables, and with
// many tables sharing the pool's chunk budget.
func TestMaterializeContextCancel(t *testing.T) {
	for _, tc := range []struct {
		prefix    string
		sum       *summary.Summary
		batchRows int
	}{
		{"", testSummary(), 128},
		{"many-tables/", manyRelations(manyTables, manyChunks*manyBatchRows), manyBatchRows},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%sworkers=%d", tc.prefix, workers), func(t *testing.T) {
				before := runtime.NumGoroutine()
				dir := t.TempDir()
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					time.Sleep(50 * time.Millisecond)
					cancel()
				}()
				start := time.Now()
				// A tight rate limit keeps the run alive long enough that the
				// cancellation strikes mid-flight.
				_, err := MaterializeContext(ctx, tc.sum, Options{
					Dir: dir, Format: "csv", Workers: workers, BatchRows: tc.batchRows, RateLimit: 500,
				})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if waited := time.Since(start); waited > 5*time.Second {
					t.Fatalf("cancellation took %v", waited)
				}
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					t.Errorf("partial artifact left behind: %s", e.Name())
				}
				waitGoroutines(t, before)
			})
		}
	}
}
