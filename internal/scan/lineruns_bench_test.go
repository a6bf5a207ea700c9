package scan

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"

	"github.com/dsl-repro/hydra/internal/format"
)

// BenchmarkLineRuns drains synthetic csv parts of 200 000 rows whose
// runs are 2, 30, 150 and 10 000 rows long through the line decoder
// alone — no file, no batch fill — asking for the rest of an 8 192-row
// batch at a time, as a scan does: short runs pay each run's parse and
// prediction set-up, long ones the compares.
func BenchmarkLineRuns(b *testing.B) {
	const rows, batch = 200_000, 8192
	cols := testCols(7, 0)
	for _, per := range []int{2, 30, 150, 10_000} {
		var data []byte
		for pk := 1; pk <= rows; pk++ {
			run := (pk - 1) / per
			data = fmt.Appendf(data, "%d,%d,17,2451545,-8,9007199254740993,%d\n", pk, run%1000, run)
		}
		b.Run(fmt.Sprintf("run=%d", per), func(b *testing.B) {
			br := bufio.NewReaderSize(nil, 1<<18)
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				br.Reset(bytes.NewReader(data))
				rr, err := format.CSV.NewRunReader(br, format.Part{Cols: cols, PKCol: 0, Rows: rows})
				if err != nil {
					b.Fatal(err)
				}
				var n int64
				for n < rows {
					sp, err := rr.Run(batch - n%batch)
					if err != nil {
						b.Fatal(err)
					}
					n += sp.N
				}
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
