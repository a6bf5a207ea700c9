package matgen

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/dsl-repro/hydra/internal/format"
)

// TestRunLinesStep steps a line a pk at a time across digit growth and
// carry chains, and refuses to step past math.MaxInt64 or from a
// negative pk.
func TestRunLinesStep(t *testing.T) {
	var r format.RunLines
	for _, start := range []int64{0, 1, 7, 9, 42, 99, 100, 987, 999999999999999998} {
		r.Reset([]byte("<"), start, []byte(">\n"))
		for v := start; v < start+1200; v++ {
			if got, want := string(r.Line()), fmt.Sprintf("<%d>\n", v); got != want {
				t.Fatalf("from %d: line %q, want %q", start, got, want)
			}
			if !r.Step() {
				t.Fatalf("from %d: no line after %d", start, v)
			}
		}
	}
	for _, pk := range []int64{math.MaxInt64, -1, math.MinInt64} {
		if r.Reset(nil, pk, []byte(",5\n")); r.Step() {
			t.Errorf("stepped past %d to %q", pk, r.Line())
		}
	}
}

// TestRunLinesBlocks: a block of a hundred starts at a pk that ends in
// 00 once the run has had 400 lines, one of ten at a pk that
// ends in 0 once it has had two; both only where the block's last pk is
// an int64, it fits the room and the line is narrow enough. A block
// built for one run serves the next with the same bytes around the pk at
// once.
func TestRunLinesBlocks(t *testing.T) {
	// A line of a hundredth of the 64 KiB cap on a block's bytes is too
	// wide for a block of a hundred.
	wide := "," + strings.Repeat("7", 1<<16/100) + "\n"
	for _, tc := range []struct {
		pk, steps, room int64
		after           string
		want            int
	}{
		{400, 400, 1000, ",5\n", 100}, {500, 450, 100, ",5\n", 100}, {1000, 400, 1000, ",5\n", 100},
		{400, 399, 1000, ",5\n", 10}, {400, 400, 99, ",5\n", 10}, {110, 100, 1000, ",5\n", 10},
		{10, 2, 10, ",5\n", 10}, {10, 1, 10, ",5\n", 0}, {10, 2, 9, ",5\n", 0},
		{101, 200, 1000, ",5\n", 0}, {0, 0, 1000, ",5\n", 0},
		{math.MaxInt64 - 7, 200, 1000, ",5\n", 0}, {math.MaxInt64 - 107, 400, 1000, ",5\n", 100},
		{math.MaxInt64 - 97, 200, 1000, ",5\n", 10},
		{400, 400, 1000, wide, 10},
	} {
		var r format.RunLines
		r.Reset(nil, tc.pk-tc.steps, []byte(tc.after))
		for range tc.steps {
			r.Step()
		}
		if got := len(r.Block(tc.room)) / len(r.Line()); got != tc.want {
			t.Errorf("pk %d after %d lines, room %d, %d bytes after it: a block of %d lines, want %d",
				tc.pk, tc.steps, tc.room, len(tc.after), got, tc.want)
		}
	}
	var r format.RunLines
	r.Reset(nil, 1, []byte(",5\n"))
	r.AppendRun(nil, 1000)
	for _, tc := range []struct {
		after string
		want  int
	}{{",5\n", 100}, {",6\n", 0}} {
		r.Reset(nil, 500, []byte(tc.after))
		if got := len(r.Block(1000)) / len(r.Line()); got != tc.want {
			t.Errorf("a fresh run with %q after the pk: a block of %d lines, want %d", tc.after, got, tc.want)
		}
	}
	r.Repeat([]byte("5,6\n"))
	r.AppendRun(nil, 1000)
	if !bytes.Equal(r.Block(1000), bytes.Repeat([]byte("5,6\n"), 100)) {
		t.Errorf("a line without a pk does not repeat a block")
	}
}

// strconvLines renders the lines of pks [from, from+n) one at a time.
func strconvLines(before []byte, from, n int64, after []byte) []byte {
	var b []byte
	for i := int64(0); i < n; i++ {
		b = append(b, before...)
		b = strconv.AppendInt(b, from+i, 10)
		b = append(b, after...)
	}
	return b
}

// FuzzRunLines is the differential check of RunLines' blocks: a run of
// up to 1 000 lines written a block at a time — cut in two at split,
// the second piece reusing the first's block, then written again around
// other bytes, which must not — equals the same lines rendered one at a
// time with strconv. Starts are folded into [0, math.MaxInt64-n+1], so
// the seeds near the top reach math.MaxInt64 itself.
func FuzzRunLines(f *testing.F) {
	for _, s := range []struct {
		start         int64
		n, split      uint16
		before, after string
	}{
		{1, 999, 0, "", ",5,6\n"},
		{1, 999, 150, "", ",5,6\n"},
		{95, 300, 5, "", ",5,6\n"},                     // 99 → 100
		{990, 300, 110, `{"T_pk":`, `,"c1":5}` + "\n"}, // 999 → 1 000
		{9901, 999, 99, "", ",-1\n"},                   // 9 999 → 10 000
		{99999999999999950, 500, 250, "(", ",7"},       // 17 → 18 digits
		{math.MaxInt64 - 99, 99, 0, "", ",5\n"},
		{math.MaxInt64 - 199, 199, 100, "", ",5\n"},
		{math.MaxInt64 - 250, 250, 7, "", ",5\n"},
		{1234500, 1000, 0, "", "\n"},
		{100, 200, 100, "", "0\n"}, // the tail continues the pk's digits
		{300, 200, 100, "9", "\n"}, // and so does the head
		{-5, 400, 3, "", ",5\n"},
	} {
		f.Add(s.start, s.n, s.split, []byte(s.before), []byte(s.after), []byte(",9\n"))
	}
	// A block of the first pass's width, left over while the second pass
	// starts a digit shorter, must not pass for the second's at 1 000.
	f.Add(int64(990), uint16(388), uint16(193), []byte("0"), []byte("0"), []byte("1"))
	f.Fuzz(func(t *testing.T, start int64, n, split uint16, before, after, other []byte) {
		rows := 1 + int64(n)%1000
		cut := int64(split) % rows
		if start < 0 {
			start = -(start + 1)
		}
		start = min(start, math.MaxInt64-(rows-1))

		var r format.RunLines
		for pass, tail := range [][]byte{after, other} {
			want := strconvLines(before, start, rows, tail)
			var got []byte
			if cut > 0 {
				r.Reset(before, start, tail)
				got = r.AppendRun(got, cut)
			}
			r.Reset(before, start+cut, tail)
			got = r.AppendRun(got, rows-cut)
			if !bytes.Equal(got, want) {
				t.Fatalf("pass %d: %d lines from %d cut at %d:\n got %q\nwant %q", pass, rows, start, cut, got, want)
			}
			if last := start + rows - 1; !bytes.Equal(r.Line(), strconvLines(before, last, 1, tail)) {
				t.Fatalf("pass %d: current line %q after the run, want the line of %d", pass, r.Line(), last)
			}
		}

		// Without a pk, every line is the same; like every line the
		// decoder repeats, it holds a byte at least.
		line := append(slices.Clone(after), '\n')
		r.Repeat(line)
		if got := r.AppendRun(nil, rows); !bytes.Equal(got, bytes.Repeat(line, int(rows))) {
			t.Fatalf("%d repeated lines: got %q", rows, got)
		}
	})
}
