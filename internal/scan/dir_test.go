package scan

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/dsl-repro/hydra/internal/format"
	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/summary"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// heapPageSize is the heap format's page size, and heapRowsPerPage the
// rows of ncols columns a page holds: its geometry, stated apart from
// its code.
const heapPageSize = 8192

func heapRowsPerPage(ncols int) int { return heapPageSize / (8 * ncols) }

// fileRows expands a run into its rows in file order — the inverse of
// the span order a run reader presents.
func fileRows(sp tuplegen.Span, ncols, pkCol int) [][]int64 {
	out := make([][]int64, sp.N)
	for i := range out {
		row := make([]int64, ncols)
		for c := range row {
			if s := spanCol(c, pkCol); s == 0 {
				row[c] = sp.Start + int64(i)
			} else {
				row[c] = sp.Vals[s-1]
			}
		}
		out[i] = row
	}
	return out
}

// readRuns drains a run reader over data with a read buffer of size
// bytes, asking for at most maxRun rows a call: every row in file order,
// every run's length, and the error that ended it (io.EOF at a clean
// end). A reader that yields more rows than data has bytes is broken.
func readRuns(name string, data []byte, cols []string, pkCol, size int, header bool, maxRun int64) (rows [][]int64, runs []int64, err error) {
	f, err := format.ByName(name)
	if err != nil {
		return nil, nil, err
	}
	rr, err := f.NewRunReader(bufio.NewReaderSize(bytes.NewReader(data), size), format.Part{Cols: cols, PKCol: pkCol, Header: header})
	if err != nil {
		return nil, nil, fmt.Errorf("no reader: %v", err) // not a clean end, even at EOF
	}
	for {
		sp, err := rr.Run(maxRun)
		if err != nil {
			return rows, runs, err
		}
		if sp.N < 1 || sp.N > maxRun || int64(len(rows))+sp.N > int64(len(data)) {
			return rows, runs, fmt.Errorf("run of %d rows (asked for at most %d) after %d rows of %d bytes", sp.N, maxRun, len(rows), len(data))
		}
		runs = append(runs, sp.N)
		rows = append(rows, fileRows(*sp, len(cols), pkCol)...)
	}
}

// refDecode is the row-at-a-time decode the run readers must agree
// with, written apart from them: strings and strconv for csv, a json
// Decoder for jsonl, encoding/binary for heap. It returns the rows and
// io.EOF at a clean end, or the rows before the first it refuses and
// why.
func refDecode(format string, data []byte, cols []string, header bool) ([][]int64, error) {
	var rows [][]int64
	if format == "heap" {
		perPage := heapRowsPerPage(len(cols))
		width, pad := 8*len(cols), heapPageSize-perPage*8*len(cols)
		if header {
			if len(data) < heapPageSize {
				return nil, errors.New("short header page")
			}
			data = data[heapPageSize:]
		}
		for inPage := 0; len(data) > 0; {
			if len(data) < width {
				return rows, io.ErrUnexpectedEOF
			}
			row := make([]int64, len(cols))
			for c := range row {
				row[c] = int64(binary.LittleEndian.Uint64(data[8*c:]))
			}
			rows, data = append(rows, row), data[width:]
			if inPage++; inPage == perPage {
				if len(data) < pad {
					return rows, errors.New("short page padding")
				}
				inPage, data = 0, data[pad:]
			}
		}
		return rows, io.EOF
	}
	if header && format == "csv" {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return nil, errors.New("no header line")
		}
		data = data[i+1:]
	}
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line = data[:i+1]
		}
		data = data[len(line):]
		row, err := refRow(format, line, cols)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, io.EOF
}

func refRow(format string, line []byte, cols []string) ([]int64, error) {
	row := make([]int64, len(cols))
	if format == "csv" {
		s := strings.TrimSuffix(strings.TrimSuffix(string(line), "\n"), "\r")
		cells := strings.Split(s, ",")
		if len(cells) != len(cols) {
			return nil, fmt.Errorf("%d cells", len(cells))
		}
		for c, cell := range cells {
			v, err := strconv.ParseInt(cell, 10, 64)
			if err != nil {
				return nil, err
			}
			row[c] = v
		}
		return row, nil
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("decode: %v", err) // a blank line is io.EOF to a Decoder
	}
	if rest := bytes.TrimLeft(line[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return nil, fmt.Errorf("%q after the object", rest)
	}
	if len(m) != len(cols) {
		return nil, fmt.Errorf("%d members", len(m))
	}
	for c, name := range cols {
		num, ok := m[name].(json.Number)
		if !ok {
			return nil, fmt.Errorf("member %q is %T", name, m[name])
		}
		v, err := strconv.ParseInt(string(num), 10, 64)
		if err != nil {
			return nil, err
		}
		row[c] = v
	}
	return row, nil
}

// testCols names n columns, the pk (if any) at pkCol.
func testCols(n, pkCol int) []string {
	cols := make([]string, n)
	for c := range cols {
		cols[c] = fmt.Sprintf("c%d", c)
	}
	if pkCol >= 0 {
		cols[pkCol] = "T_pk"
	}
	return cols
}

// TestCSVReaderRows: the in-place row decoder accepts what the csv sink
// writes (and the line-ending variants a file can pick up on the way)
// and names everything else, cell by cell.
func TestCSVReaderRows(t *testing.T) {
	long := strings.Repeat("1", 5000)
	cases := []struct {
		name, in string
		want     [][]int64
		err      string // substring of the error that ends the stream; "" = io.EOF
	}{
		{"plain", "1,-2,3\n4,5,6\n", [][]int64{{1, -2, 3}, {4, 5, 6}}, ""},
		{"crlf", "1,2,3\r\n4,5,6\r\n", [][]int64{{1, 2, 3}, {4, 5, 6}}, ""},
		{"final line without newline", "1,2,3\n4,5,6", [][]int64{{1, 2, 3}, {4, 5, 6}}, ""},
		{"extremes", "9223372036854775807,-9223372036854775808,+0\n",
			[][]int64{{math.MaxInt64, math.MinInt64, 0}}, ""},
		{"short row", "1,2,3\n4,5\n", [][]int64{{1, 2, 3}}, "csv row has 2 of 3 columns"},
		{"extra column", "1,2,3,4\n", nil, "csv row has more than 3 columns"},
		{"bad digit", "1,2x,3\n", nil, `csv cell 1: parsing "2x": invalid syntax`},
		{"nul byte", "1,\x00,3\n", nil, `csv cell 1: parsing "\x00": invalid syntax`},
		{"empty cell", "1,,3\n", nil, `csv cell 1: parsing "": invalid syntax`},
		{"bare sign", "1,2,-\n", nil, `csv cell 2: parsing "-": invalid syntax`},
		{"empty line", "\n", nil, "csv row has 1 of 3 columns"},
		{"above int64", "9223372036854775808,2,3\n", nil, "csv cell 0: parsing \"9223372036854775808\": value out of range"},
		{"below int64", "1,-9223372036854775809,3\n", nil, "csv cell 1: parsing \"-9223372036854775809\": value out of range"},
		{"far out of range", "1,2,99999999999999999999999\n", nil, "csv cell 2: parsing \"99999999999999999999999\": value out of range"},
		{"pk past the largest", "9223372036854775807,5,6\n9223372036854775808,5,6\n", [][]int64{{math.MaxInt64, 5, 6}},
			"csv cell 0: parsing \"9223372036854775808\": value out of range"},
		{"line longer than the buffer", "1,2," + long + "\n", nil, "csv row longer than 4096 bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows, _, err := readRuns("csv", []byte(tc.in), testCols(3, 0), 0, 4096, false, math.MaxInt64)
			if len(rows) != len(tc.want) || (len(rows) > 0 && !slices.EqualFunc(rows, tc.want, slices.Equal)) {
				t.Fatalf("rows = %v, want %v", rows, tc.want)
			}
			switch {
			case tc.err == "" && !errors.Is(err, io.EOF):
				t.Fatalf("after the rows: %v, want io.EOF", err)
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Fatalf("err = %v, want %q", err, tc.err)
			}
		})
	}

	// The header is one skipped line, with or without a carriage return.
	rows, _, err := readRuns("csv", []byte("a,b\r\n7,8\n"), testCols(2, 0), 0, 4096, true, math.MaxInt64)
	if !errors.Is(err, io.EOF) || len(rows) != 1 || rows[0][0] != 7 || rows[0][1] != 8 {
		t.Fatalf("rows after header = %v, %v", rows, err)
	}
}

// TestParseIntMatchesStrconv: the csv reader's in-place integer parser
// agrees with the strconv call it replaced, value and verdict, on the
// boundary cases, each a one-cell line.
func TestParseIntMatchesStrconv(t *testing.T) {
	for _, s := range []string{
		"0", "-0", "+7", "007", "-1", "12345678901234567",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"922337203685477580", "9223372036854775800", "9223372036854775810", "18446744073709551616",
		"", "-", "+", "1_000", " 1", "1 ", "0x10", "1e3", "--1", "１",
	} {
		rows, _, gerr := readRuns("csv", []byte(s+"\n"), testCols(1, -1), -1, 4096, false, 1)
		ok := len(rows) == 1 && errors.Is(gerr, io.EOF)
		want, werr := strconv.ParseInt(s, 10, 64)
		if ok != (werr == nil) || ok && rows[0][0] != want {
			t.Errorf("csv cell %q read as %v, %v; strconv says %d, %v", s, rows, gerr, want, werr)
		}
		if werr != nil && errors.Is(werr, strconv.ErrRange) != strings.Contains(gerr.Error(), "value out of range") {
			t.Errorf("csv cell %q: %v; strconv says %v", s, gerr, werr)
		}
	}
}

// TestCSVReaderAllocs pins the decoder at zero allocations per accepted
// row and per run: a part of 50-row runs, one of 1-row runs (each row
// its own tail, as in a spread-FK part), and one whose pk sits between
// other columns.
func TestCSVReaderAllocs(t *testing.T) {
	const runs, per = 400, 50
	cases := []struct {
		name  string
		pkCol int
		per   int64
		line  func(pk, run int) string
	}{
		{"runs", 0, per, func(pk, run int) string { return fmt.Sprintf("%d,-8,9007199254740993,%d\n", pk, run) }},
		{"1-row runs", 0, 1, func(pk, _ int) string { return fmt.Sprintf("%d,-8,9007199254740993,%d\n", pk, pk%7) }},
		{"pk in the middle", 2, per, func(pk, run int) string { return fmt.Sprintf("-8,%d,%d,701\n", run, pk) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			for pk := 1; pk <= runs*int(tc.per); pk++ {
				sb.WriteString(tc.line(pk, (pk-1)/int(tc.per)))
			}
			rr, err := format.CSV.NewRunReader(bufio.NewReaderSize(strings.NewReader(sb.String()), 1<<16),
				format.Part{Cols: testCols(4, tc.pkCol), PKCol: tc.pkCol})
			if err != nil {
				t.Fatal(err)
			}
			var last *tuplegen.Span
			allocs := testing.AllocsPerRun(runs-1, func() {
				if last, err = rr.Run(math.MaxInt64); err != nil {
					t.Fatal(err)
				}
				if last.N != tc.per {
					t.Fatalf("run of %d rows, want %d", last.N, tc.per)
				}
			})
			if allocs != 0 || last.Start+last.N-1 != runs*tc.per {
				t.Fatalf("%.1f allocs per run (last pk %d), want 0", allocs, last.Start+last.N-1)
			}
		})
	}
}

// TestDirRuns: the decoders do form runs — accepting the rows whose
// bytes are what the encoder writes next, a line per compare and, for
// csv and jsonl once a run is under way, a hundred from each pk that
// ends in 00, including across a pk that gains a digit and across the
// read buffer's edge — and every other spelling of a row reads correctly
// as a run of its own.
func TestDirRuns(t *testing.T) {
	seq := func(from, to int, line string) string {
		var sb strings.Builder
		for pk := from; pk <= to; pk++ {
			sb.WriteString(fmt.Sprintf(line, pk))
		}
		return sb.String()
	}
	heapRows := func(ncols, pkCol int, rows ...int64) string {
		perPage := heapRowsPerPage(ncols)
		var b []byte
		for i, pk := range rows {
			for c := 0; c < ncols; c++ {
				v := int64(40 + c)
				if c == pkCol {
					v = pk
				}
				b = binary.LittleEndian.AppendUint64(b, uint64(v))
			}
			if (i+1)%perPage == 0 {
				b = append(b, make([]byte, heapPageSize-perPage*8*ncols)...)
			}
		}
		return string(b)
	}
	cases := []struct {
		name, format, in string
		ncols, pkCol     int
		size             int
		runs             []int64
	}{
		{"rollover 9 to 10", "csv", seq(7, 12, "%d,5\n"), 2, 0, 4096, []int64{6}},
		{"rollover 999 to 1000", "csv", seq(997, 1002, "%d,5\n"), 2, 0, 4096, []int64{6}},
		{"rollover 99999 to 100000", "csv", seq(99997, 100002, "%d,5\n"), 2, 0, 4096, []int64{6}},
		{"crlf", "csv", seq(1, 5, "%d,5\r\n"), 2, 0, 4096, []int64{5}},
		{"final line without newline", "csv", "1,5\n2,5\n3,5", 2, 0, 4096, []int64{2, 1}},
		{"plus sign starts a run", "csv", "+7,5\n8,5\n9,5\n", 2, 0, 4096, []int64{3}},
		{"leading zeros start a run", "csv", "007,5\n8,5\n", 2, 0, 4096, []int64{2}},
		{"minus zero starts a run", "csv", "-0,5\n1,5\n", 2, 0, 4096, []int64{2}},
		// A row the prediction missed is parsed, and so is the row after
		// it, before the next prediction.
		{"plus sign inside a run", "csv", "7,5\n+8,5\n9,5\n10,5\n", 2, 0, 4096, []int64{1, 1, 2}},
		{"leading zero inside a run", "csv", "7,5\n08,5\n", 2, 0, 4096, []int64{1, 1}},
		{"negative pks", "csv", "-3,5\n-2,5\n", 2, 0, 4096, []int64{1, 1}},
		{"largest pk", "csv", "9223372036854775806,5\n9223372036854775807,5\n", 2, 0, 4096, []int64{2}},
		{"one-byte tail difference", "csv", "1,5\n2,5\n3,6\n4,6\n", 2, 0, 4096, []int64{2, 2}},
		{"pk skips", "csv", "1,5\n3,5\n4,5\n5,5\n", 2, 0, 4096, []int64{1, 1, 2}},
		{"buffer edge", "csv", seq(1, 300, "%d,5,6\n"), 3, 0, 16, []int64{300}},
		// Ten lines per compare from each pk ending in 0: across new pk
		// digits and the window's edge, and a block that repeats the
		// last one in place of the next ends the run where a line would.
		{"ten lines per compare", "csv", seq(1, 1005, "%d,5,6\n"), 3, 0, 4096, []int64{1005}},
		{"a block where the next should be", "csv", seq(1, 19, "%d,5\n") + seq(10, 19, "%d,5\n"), 2, 0, 4096, []int64{19, 10}},
		{"largest pks", "csv", largestPKs("%d,5\n", 25), 2, 0, 4096, []int64{26}},
		{"no pk, ten lines per compare", "csv", strings.Repeat("5,6\n", 45) + "5,7\n", 2, -1, 4096, []int64{45, 1}},
		{"jsonl ten lines per compare", "jsonl", seq(95, 130, `{"c0":-1,"T_pk":%d,"c2":5}`+"\n"), 3, 1, 4096, []int64{36}},
		// A hundred per compare from each pk ending in 00 once a run has
		// had 400 lines: the same edges, and a hundred repeated in place
		// of the next, differing only in the hundreds digit.
		{"a hundred lines per compare", "csv", seq(1, 2345, "%d,5,6\n"), 3, 0, 4096, []int64{2345}},
		{"a hundred where the next should be", "csv", seq(1, 599, "%d,5\n") + seq(500, 599, "%d,5\n"), 2, 0, 4096, []int64{599, 100}},
		{"largest pks, a hundred at a time", "csv", largestPKs("%d,5\n", 650), 2, 0, 4096, []int64{651}},
		{"no pk, a hundred lines per compare", "csv", strings.Repeat("5,6\n", 745) + "5,7\n", 2, -1, 4096, []int64{745, 1}},
		{"jsonl a hundred lines per compare", "jsonl", seq(95, 930, `{"c0":-1,"T_pk":%d,"c2":5}`+"\n"), 3, 1, 16384, []int64{836}},
		{"pk in the middle", "csv", seq(8, 12, "5,%d,6\n"), 3, 1, 4096, []int64{5}},
		{"no pk", "csv", "5,6\n5,6\n5,6\n5,7\n", 2, -1, 4096, []int64{3, 1}},
		{"jsonl", "jsonl", seq(8, 12, `{"T_pk":%d,"c1":5}`+"\n"), 2, 0, 4096, []int64{5}},
		{"jsonl pk in the middle", "jsonl", seq(98, 102, `{"c0":-1,"T_pk":%d,"c2":5}`+"\n"), 3, 1, 4096, []int64{5}},
		{"jsonl spaced row reads alone", "jsonl", `{"T_pk":1,"c1":5}` + "\n" + `{"T_pk": 2, "c1": 5}` + "\n" + seq(3, 5, `{"T_pk":%d,"c1":5}`+"\n"), 2, 0, 4096, []int64{1, 1, 3}},
		{"jsonl no pk", "jsonl", `{"c0":1,"c1":5}` + "\n" + `{"c0":1,"c1":5}` + "\n", 2, -1, 4096, []int64{2}},
		{"heap", "heap", heapRows(3, 0, 1, 2, 3, 5, 6, 7), 3, 0, 4096, []int64{3, 3}},
		{"heap pk in the middle", "heap", heapRows(3, 1, 1, 2, 3), 3, 1, 4096, []int64{3}},
		// 341 three-column rows fill a page, 8 bytes of padding end it;
		// the run carries on past it.
		{"heap across a page", "heap", heapRows(3, 0, seqInts(1, 701)...), 3, 0, 4096, []int64{700}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cols := testCols(tc.ncols, tc.pkCol)
			rows, runs, err := readRuns(tc.format, []byte(tc.in), cols, tc.pkCol, tc.size, false, math.MaxInt64)
			want, werr := refDecode(tc.format, []byte(tc.in), cols, false)
			if !errors.Is(err, io.EOF) || !errors.Is(werr, io.EOF) {
				t.Fatalf("ended with %v; the row-at-a-time decode with %v", err, werr)
			}
			if !slices.EqualFunc(rows, want, slices.Equal) {
				t.Fatalf("rows = %v, want %v", rows, want)
			}
			if !slices.Equal(runs, tc.runs) {
				t.Fatalf("runs = %v, want %v", runs, tc.runs)
			}
			// Asked for fewer rows at a time, the reader ends its runs
			// there and yields the same rows.
			capped, _, err := readRuns(tc.format, []byte(tc.in), cols, tc.pkCol, tc.size, false, 2)
			if !errors.Is(err, io.EOF) || !slices.EqualFunc(capped, want, slices.Equal) {
				t.Fatalf("two rows at a time: %v, %v; want %v", capped, err, want)
			}
		})
	}
}

// largestPKs formats line for the k+1 pks up to math.MaxInt64.
func largestPKs(line string, k int64) string {
	var sb strings.Builder
	for pk := math.MaxInt64 - k; pk > 0; pk++ { // stops where pk wraps
		fmt.Fprintf(&sb, line, pk)
	}
	return sb.String()
}

func seqInts(from, to int64) []int64 {
	var out []int64
	for v := from; v < to; v++ {
		out = append(out, v)
	}
	return out
}

// TestJSONLRefusesNonIntegers: a jsonl value the encoder never writes is
// an error, not a zero.
func TestJSONLRefusesNonIntegers(t *testing.T) {
	for _, v := range []string{"null", "1.5", "1e3", `"7"`, "true", "[1]", "{}"} {
		in := `{"T_pk":1,"c1":5}` + "\n" + `{"T_pk":2,"c1":` + v + "}\n"
		rows, _, err := readRuns("jsonl", []byte(in), testCols(2, 0), 0, 4096, false, math.MaxInt64)
		if len(rows) != 1 || err == nil || !strings.Contains(err.Error(), `jsonl column "c1" holds `+v+`, not an int64`) {
			t.Errorf("value %s: rows %v, err %v", v, rows, err)
		}
	}
	long := `{"T_pk":1,"c1":` + strings.Repeat("1", 5000) + "}\n"
	if _, _, err := readRuns("jsonl", []byte(long), testCols(2, 0), 0, 4096, false, math.MaxInt64); err == nil || !strings.Contains(err.Error(), "jsonl row longer than 4096 bytes") {
		t.Errorf("a line longer than the buffer: %v", err)
	}
}

// dirDecodeSeed is one FuzzDirDecode input: format 0/1/2 = csv/jsonl/heap,
// pkCol = pk%(ncols+1)-1 over 1+ncols%4 columns, a read buffer of
// 16+buf%4096 bytes, runs capped at maxRun rows (0 = uncapped).
type dirDecodeSeed struct {
	data                      []byte
	format, pk, ncols, maxRun uint8
	header                    bool
	buf                       uint16
}

// dirDecodeSeeds are the table cases of TestDirRuns plus parts the
// encoders wrote, in which a run crosses a chunk boundary.
func dirDecodeSeeds(t testing.TB) []dirDecodeSeed {
	seeds := []dirDecodeSeed{
		{data: []byte("7,5\n8,5\n9,5\n10,5\n11,5\n"), pk: 1, ncols: 1},
		{data: []byte("998,5\n999,5\n1000,5\n1001,5\n"), pk: 1, ncols: 1},
		{data: []byte("99998,5\n99999,5\n100000,5\n100001,5\n"), pk: 1, ncols: 1},
		{data: []byte("1,5\r\n2,5\r\n3,5\r\n"), pk: 1, ncols: 1},
		{data: []byte("1,5\n2,5\n3,5"), pk: 1, ncols: 1},
		{data: []byte("+7,5\n8,5\n007,5\n8,5\n-0,5\n1,5\n"), pk: 1, ncols: 1},
		{data: []byte("1,5\n2,5\n3,6\n4,6\n"), pk: 1, ncols: 1},
		{data: []byte("1,5\n3,5\n4,5\n"), pk: 1, ncols: 1},
		{data: []byte(strings.Repeat("5,6\n", 40)), pk: 0, ncols: 1, maxRun: 7},
		{data: []byte("5,8,6\n5,9,6\n5,10,6\n"), pk: 2, ncols: 2},
		{data: []byte("c0,T_pk\n5,8\n5,9\n"), pk: 2, ncols: 1, header: true},
		{data: []byte(`{"T_pk":9,"c1":5}` + "\n" + `{"T_pk":10,"c1":5}` + "\n" + `{"T_pk":11,"c1":null}` + "\n"), format: 1, pk: 1, ncols: 1},
		{data: []byte(`{"c0":-1,"T_pk":99,"c2":5}` + "\n" + `{"c0":-1,"T_pk":100,"c2":5}` + "\r\n"), format: 1, pk: 2, ncols: 2},
	}
	var sb strings.Builder
	for pk := 1; pk <= 300; pk++ {
		fmt.Fprintf(&sb, "%d,5,6\n", pk)
	}
	seeds = append(seeds, dirDecodeSeed{data: []byte(sb.String()), pk: 1, ncols: 2, buf: 0})

	seeds = append(seeds, blockEdgeSeeds()...)

	// A layout of three columns leaves padding at the end of every heap page.
	perPage := heapRowsPerPage(3)
	var heap []byte
	for pk := int64(1); pk <= int64(perPage)+5; pk++ {
		for _, v := range []int64{pk, 5, 6} {
			heap = binary.LittleEndian.AppendUint64(heap, uint64(v))
		}
		if pk == int64(perPage) {
			heap = append(heap, make([]byte, heapPageSize-perPage*24)...)
		}
	}
	seeds = append(seeds, dirDecodeSeed{data: heap, format: 2, pk: 1, ncols: 2})

	// Parts the encoders wrote: a 70-row relation of two runs in 32-row
	// chunks, its column named the way the fuzz names a layout's.
	sum := &summary.Summary{Relations: map[string]*summary.RelationSummary{"T": {
		Table: "T", Cols: []string{"c1"}, Total: 70,
		Rows: []summary.RelRow{{Vals: []int64{2}, Count: 40}, {Vals: []int64{7}, Count: 30}},
	}}}
	dir := t.TempDir()
	for code, format := range []string{"csv", "jsonl", "heap"} {
		if _, err := matgen.Materialize(sum, matgen.Options{Dir: dir, Format: format, Workers: 2, BatchRows: 32}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "T."+format))
		if err != nil {
			t.Fatal(err)
		}
		if format == "heap" {
			data = data[heapPageSize : heapPageSize+70*16] // the rows, without the header and footer pages
		}
		seeds = append(seeds, dirDecodeSeed{data: data, format: uint8(code), pk: 1, ncols: 1, header: format == "csv", buf: 100})
	}
	return seeds
}

// blockEdgeSeeds are the edges of the line decoders' prediction: runs
// in csv and jsonl with the pk first and in the middle of three columns
// across 9→10, 99→100 and 9 999→10 000, whole and each with one byte
// flipped in the first, middle or last line of a group of ten past the
// pk's new digit, on the pk's last digit or on the newline; capped at 9,
// 10, 11, 19 and 20 rows a run; and read through buffers shorter than
// ten lines, and than twenty. The rest read through a 4 KiB buffer. Then
// centuryFlips, where blocks of a hundred lines are compared, and a
// block repeated, and one near math.MaxInt64.
func blockEdgeSeeds() []dirDecodeSeed {
	var seeds []dirDecodeSeed
	for format, lines := range [][2]string{
		{"%d,5,-6\n", "5,%d,-6\n"},
		{`{"T_pk":%d,"c1":5,"c2":-6}` + "\n", `{"c0":5,"T_pk":%d,"c2":-6}` + "\n"},
	} {
		for pkCol, line := range lines {
			for _, r := range []struct{ from, to, block int }{{1, 65, 10}, {85, 150, 100}, {9985, 10050, 10000}} {
				var data []byte
				at := map[int]int{} // pk → offset of its line
				for pk := r.from; pk <= r.to; pk++ {
					at[pk] = len(data)
					data = fmt.Appendf(data, line, pk)
				}
				seed := dirDecodeSeed{data: data, format: uint8(format), pk: uint8(pkCol + 1), ncols: 2, buf: 4080}
				seeds = append(seeds, seed)
				for _, maxRun := range []uint8{9, 10, 11, 19, 20} {
					capped := seed
					capped.maxRun = maxRun
					seeds = append(seeds, capped)
				}
				for _, buf := range []uint16{40, 150} {
					short := seed
					short.buf = buf
					seeds = append(seeds, short)
				}
				for _, pk := range []int{r.block, r.block + 5, r.block + 9} {
					digits := strconv.Itoa(pk)
					lineAt := at[pk]
					for _, i := range []int{
						lineAt + bytes.Index(data[lineAt:], []byte(digits)) + len(digits) - 1, // the pk's last digit
						lineAt + bytes.IndexByte(data[lineAt:], '\n'),
					} {
						flipped := seed
						flipped.data = slices.Clone(data)
						flipped.data[i] ^= 1
						seeds = append(seeds, flipped)
					}
				}
			}
		}
	}
	// A block repeated where the next belongs, and a block that would
	// run past math.MaxInt64 into lines the reference refuses.
	var repeated []byte
	for _, r := range [][2]int{{1, 19}, {10, 19}, {30, 45}} {
		for pk := r[0]; pk <= r[1]; pk++ {
			repeated = fmt.Appendf(repeated, "%d,5\n", pk)
		}
	}
	seeds = append(seeds,
		dirDecodeSeed{data: repeated, pk: 1, ncols: 1, buf: 4080},
		dirDecodeSeed{data: []byte(largestPKs("%d,5\n", 35) + "9223372036854775808,5\n9223372036854775809,5\n"), pk: 1, ncols: 1, buf: 4080})

	for _, c := range centuryFlips() {
		seeds = append(seeds, c.seed)
	}
	// Whole runs across a century, capped at 99, 100, 101, 199 and 200
	// rows a run and read through buffers shorter than one line, than a
	// block and than two; the same hundred repeated with another
	// hundreds digit; and blocks up to math.MaxInt64 and past it.
	var century []byte
	for pk := 150; pk <= 520; pk++ {
		century = fmt.Appendf(century, "%d,5,-6\n", pk)
	}
	for _, maxRun := range []uint8{99, 100, 101, 199, 200} {
		seeds = append(seeds, dirDecodeSeed{data: century, pk: 1, ncols: 2, maxRun: maxRun, buf: 4080})
	}
	for _, buf := range []uint16{4, 700, 1500} {
		seeds = append(seeds, dirDecodeSeed{data: century, pk: 1, ncols: 2, buf: buf})
	}
	var hundred []byte
	for _, r := range [][2]int{{1, 199}, {100, 199}, {300, 450}} {
		for pk := r[0]; pk <= r[1]; pk++ {
			hundred = fmt.Appendf(hundred, "%d,5\n", pk)
		}
	}
	// A run whose block of ten was built at four digits, then one with
	// another tail that reaches a pk ending in 0 a digit shorter, grows to
	// four digits and goes on in the first run's lines: the block kept
	// from the first run must not pass for the second's.
	var stale []byte
	for _, r := range []struct {
		from, to int
		tail     string
	}{{990, 1010, "5"}, {989, 999, "6"}, {1000, 1015, "5"}} {
		for pk := r.from; pk <= r.to; pk++ {
			stale = fmt.Appendf(stale, "%d,%s\n", pk, r.tail)
		}
	}
	// A part that ends with a block but for its last newline.
	var unended []byte
	for pk := 1; pk <= 999; pk++ {
		unended = fmt.Appendf(unended, "%d,5\n", pk)
	}
	seeds = append(seeds,
		dirDecodeSeed{data: unended[:len(unended)-1], pk: 1, ncols: 1, buf: 4080},
		dirDecodeSeed{data: stale, pk: 1, ncols: 1, buf: 4080},
		dirDecodeSeed{data: hundred, pk: 1, ncols: 1, buf: 4080},
		dirDecodeSeed{data: []byte(largestPKs("%d,5\n", 250) + "9223372036854775808,5\n9223372036854775809,5\n"), pk: 1, ncols: 1, buf: 4080})
	return seeds
}

// centuryFlip is a part whose first run crosses a century — a pk that
// ends in 00, where a block starts — and has one byte flipped on the
// line of pk flip, so that the run ends on the line before it.
type centuryFlip struct {
	seed       dirDecodeSeed
	from, flip int
}

// centuryFlips are runs long enough for the line decoders to check a
// hundred lines per compare, in csv and jsonl with the pk first and in
// the middle of three columns — across 199→200, 999→1 000 and
// 99 999→100 000 — each with one byte flipped in the first, a middle or
// the last line of the block just past the century: the pk's hundreds
// digit, its last digit, a byte of the tail or the newline.
func centuryFlips() []centuryFlip {
	var out []centuryFlip
	for format, lines := range [][2]string{
		{"%d,5,-6\n", "5,%d,-6\n"},
		{`{"T_pk":%d,"c1":5,"c2":-6}` + "\n", `{"c0":5,"T_pk":%d,"c2":-6}` + "\n"},
	} {
		for pkCol, line := range lines {
			for _, r := range []struct{ from, to, block int }{{150, 420, 200}, {950, 1230, 1000}, {99950, 100230, 100000}} {
				var data []byte
				at := map[int]int{} // pk → offset of its line
				for pk := r.from; pk <= r.to; pk++ {
					at[pk] = len(data)
					data = fmt.Appendf(data, line, pk)
				}
				for _, pk := range []int{r.block, r.block + 50, r.block + 99} {
					digits := strconv.Itoa(pk)
					lineAt := at[pk]
					last := lineAt + bytes.Index(data[lineAt:], []byte(digits)) + len(digits) - 1
					for _, i := range []int{
						last - 2, // the hundreds digit
						last,
						lineAt + bytes.Index(data[lineAt:], []byte("-6")) + 1,
						lineAt + bytes.IndexByte(data[lineAt:], '\n'),
					} {
						flipped := slices.Clone(data)
						flipped[i] ^= 1
						out = append(out, centuryFlip{
							seed: dirDecodeSeed{data: flipped, format: uint8(format), pk: uint8(pkCol + 1), ncols: 2, buf: 4080},
							from: r.from, flip: pk,
						})
					}
				}
			}
		}
	}
	return out
}

// TestDirRunsEndBeforeFlip: a byte flipped inside a block ends the run
// on the line before it — the block's lines before the flip are walked
// again a line at a time — and everything reads as the row-at-a-time
// decode does.
func TestDirRunsEndBeforeFlip(t *testing.T) {
	for _, c := range centuryFlips() {
		fm := []string{"csv", "jsonl"}[c.seed.format]
		pkCol := int(c.seed.pk) - 1
		cols := testCols(3, pkCol)
		rows, runs, err := readRuns(fm, c.seed.data, cols, pkCol, 16+int(c.seed.buf), false, math.MaxInt64)
		want, werr := refDecode(fm, c.seed.data, cols, false)
		if errors.Is(err, io.EOF) != errors.Is(werr, io.EOF) || !slices.EqualFunc(rows, want, slices.Equal) {
			t.Fatalf("%s, pk %d flipped: rows %d (%v), the row-at-a-time decode %d (%v)", fm, c.flip, len(rows), err, len(want), werr)
		}
		if len(runs) == 0 || runs[0] != int64(c.flip-c.from) {
			t.Fatalf("%s, pk %d flipped: runs %v, want the first to end at pk %d", fm, c.flip, runs, c.flip-1)
		}
	}
}

// FuzzDirDecode is the differential check of the run decoders: over
// arbitrary part bytes, in csv, jsonl and heap, with and without a
// header, with the pk first, in the middle or absent, through read
// buffers of every size and runs capped anywhere, they yield exactly the
// rows a row-at-a-time decode does, or both fail — and never panic.
// Lines longer than the read buffer are refused rather than grown into:
// there the decoder must fail no later than the reference, and on the
// same rows.
func FuzzDirDecode(f *testing.F) {
	for _, s := range dirDecodeSeeds(f) {
		f.Add(s.data, s.format, s.pk, s.ncols, s.maxRun, s.header, s.buf)
	}
	f.Fuzz(func(t *testing.T, data []byte, format, pk, ncols, maxRun uint8, header bool, buf uint16) {
		fm := []string{"csv", "jsonl", "heap"}[format%3]
		n := 1 + int(ncols)%4
		pkCol := int(pk)%(n+1) - 1
		cols := testCols(n, pkCol)
		size := 16 + int(buf)%4096
		fits := true
		if fm == "heap" {
			size = max(size, 8*n)
		} else {
			for _, line := range bytes.SplitAfter(data, []byte{'\n'}) {
				fits = fits && len(line) < size
			}
		}
		runCap := int64(math.MaxInt64)
		if maxRun > 0 {
			runCap = int64(maxRun)
		}
		want, werr := refDecode(fm, data, cols, header)
		got, _, gerr := readRuns(fm, data, cols, pkCol, size, header, runCap)
		if len(got) > len(want) || !slices.EqualFunc(got, want[:len(got)], slices.Equal) {
			t.Fatalf("%s rows diverge from the row-at-a-time decode:\n got %v (%v)\nwant %v (%v)", fm, got, gerr, want, werr)
		}
		switch {
		case errors.Is(gerr, io.EOF) && !errors.Is(werr, io.EOF):
			t.Fatalf("%s decoder accepted what the reference refuses (%v)", fm, werr)
		case errors.Is(gerr, io.EOF) && len(got) != len(want):
			t.Fatalf("%s decoder ended cleanly after %d of %d rows", fm, len(got), len(want))
		case fits && errors.Is(werr, io.EOF) && !errors.Is(gerr, io.EOF):
			t.Fatalf("%s decoder refused what the reference accepts: %v", fm, gerr)
		case fits && fm != "heap" && len(got) != len(want):
			t.Fatalf("%s decoder failed after %d rows, the reference after %d: %v / %v", fm, len(got), len(want), gerr, werr)
		}
	})
}
