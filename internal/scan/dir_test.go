package scan

import (
	"errors"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

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
		{"line longer than the buffer", "1,2," + long + "\n", nil, "csv row longer than 4096 bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cr, err := newCSVReader(strings.NewReader(tc.in), 3, false)
			if err != nil {
				t.Fatal(err)
			}
			row := make([]int64, 3)
			for i, want := range tc.want {
				if err := cr.next(row); err != nil {
					t.Fatalf("row %d: %v", i, err)
				}
				for c := range want {
					if row[c] != want[c] {
						t.Fatalf("row %d = %v, want %v", i, row, want)
					}
				}
			}
			err = cr.next(row)
			switch {
			case tc.err == "" && !errors.Is(err, io.EOF):
				t.Fatalf("after the rows: %v, want io.EOF", err)
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Fatalf("err = %v, want %q", err, tc.err)
			}
		})
	}

	// The header is one skipped line, with or without a carriage return.
	cr, err := newCSVReader(strings.NewReader("a,b\r\n7,8\n"), 2, true)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]int64, 2)
	if err := cr.next(row); err != nil || row[0] != 7 || row[1] != 8 {
		t.Fatalf("row after header = %v, %v", row, err)
	}
}

// TestParseIntMatchesStrconv: the in-place parser agrees with the
// strconv call it replaced, value and verdict, on the boundary cases.
func TestParseIntMatchesStrconv(t *testing.T) {
	for _, s := range []string{
		"0", "-0", "+7", "007", "-1", "12345678901234567",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"922337203685477580", "9223372036854775800", "9223372036854775810", "18446744073709551616",
		"", "-", "+", "1_000", " 1", "1 ", "0x10", "1e3", "--1", "１",
	} {
		got, gerr := parseInt([]byte(s))
		want, werr := strconv.ParseInt(s, 10, 64)
		if (gerr == nil) != (werr == nil) || (werr == nil && got != want) {
			t.Errorf("parseInt(%q) = %d, %v; strconv says %d, %v", s, got, gerr, want, werr)
		}
		if werr != nil && errors.Is(werr, strconv.ErrRange) != errors.Is(gerr, errIntRange) {
			t.Errorf("parseInt(%q): %v; strconv says %v", s, gerr, werr)
		}
	}
}

// TestCSVReaderAllocs pins the decode loop at zero allocations per row.
func TestCSVReaderAllocs(t *testing.T) {
	const rows = 2000
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		sb.WriteString(strconv.Itoa(i+1) + ",-8,9007199254740993,701\n")
	}
	cr, err := newCSVReader(strings.NewReader(sb.String()), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]int64, 4)
	allocs := testing.AllocsPerRun(rows-1, func() {
		if err := cr.next(row); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || row[0] != rows {
		t.Fatalf("%.1f allocs per row (last pk %d), want 0", allocs, row[0])
	}
}
