package tuplegen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refFillPK is the one-store-per-value pk loop: the definition fillPK's
// unrolled loop must match.
func refFillPK(col []int64, start int64) {
	for i := range col {
		col[i] = start + int64(i)
	}
}

// refFillCycle is the one-store-per-value sawtooth with a wrapping
// counter: the definition fillCycle's period-then-copies fill must match.
func refFillCycle(col []int64, fk, span, off int64) {
	p := off % span
	for i := range col {
		col[i] = fk + p
		if p++; p == span {
			p = 0
		}
	}
}

// kernelGuard is how many cells on either side of a kernel's window must
// stay untouched. It exceeds fillPK's sixteen-store step, so a pass that
// wrote past the window's length into its capacity would show.
const kernelGuard = 24

// guardedWindow returns a buffer of n cells plus kernelGuard sentinel
// cells on each side, and the n-cell window inside it. The window keeps
// the buffer's capacity past its end, as a batch column's slice of a
// larger array does, so nothing but the kernel's own care keeps its
// stores inside.
func guardedWindow(n int) (buf, win []int64) {
	buf = make([]int64, n+2*kernelGuard)
	for i := range buf {
		buf[i] = -0x5a5a5a5a5a5a5a5a
	}
	return buf, buf[kernelGuard : kernelGuard+n]
}

// checkKernel runs fill and ref on guarded windows of n cells and fails
// on the first cell, inside or around the window, where they differ.
func checkKernel(t *testing.T, n int, what string, fill, ref func([]int64)) {
	t.Helper()
	gotBuf, got := guardedWindow(n)
	wantBuf, want := guardedWindow(n)
	fill(got)
	ref(want)
	for i := range gotBuf {
		if gotBuf[i] != wantBuf[i] {
			where := "window cell"
			if i < kernelGuard || i >= kernelGuard+n {
				where = "guard cell"
			}
			t.Fatalf("%s: %s %d is %d, want %d", what, where, i-kernelGuard, gotBuf[i], wantBuf[i])
		}
	}
}

// kernelLens is every length 0–100 and random lengths up to 20 000.
func kernelLens(rng *rand.Rand) []int {
	lens := make([]int, 0, 101+60)
	for n := 0; n <= 100; n++ {
		lens = append(lens, n)
	}
	for range 60 {
		lens = append(lens, 101+rng.Intn(20000-100))
	}
	return lens
}

// TestFillPKMatchesReference holds the unrolled pk loop to the
// one-store-per-value loop for every start class, up to the largest start
// whose last pk still fits an int64.
func TestFillPKMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, n := range kernelLens(rng) {
		top := math.MaxInt64 - int64(n)
		for _, start := range []int64{0, 1, -int64(n), rng.Int63n(1 << 40), rng.Int63n(top), top} {
			checkKernel(t, n, fmt.Sprintf("fillPK(len %d, start %d)", n, start),
				func(col []int64) { fillPK(col, start) },
				func(col []int64) { refFillPK(col, start) })
		}
	}
}

// TestFillCycleMatchesReference holds the spread-FK fill — first period in
// two segments, then doubling copies — to the counter loop for every
// period 1–70 and one longer than most windows, at offsets from 0 to
// several periods into the summary row.
func TestFillCycleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1853))
	spans := make([]int64, 0, 71)
	for s := int64(1); s <= 70; s++ {
		spans = append(spans, s)
	}
	spans = append(spans, 10000)
	offs := func(span int64) []int64 {
		return []int64{0, 1, span / 2, span - 1, span, span + 1, 3*span - 1, rng.Int63n(4 * span)}
	}
	check := func(n int, fk, span, off int64) {
		checkKernel(t, n, fmt.Sprintf("fillCycle(len %d, fk %d, span %d, off %d)", n, fk, span, off),
			func(col []int64) { fillCycle(col, fk, span, off) },
			func(col []int64) { refFillCycle(col, fk, span, off) })
	}
	for _, n := range kernelLens(rng) {
		top := math.MaxInt64 - int64(n)
		fks := []int64{1, rng.Int63n(top), top}
		if n <= 100 {
			// Short windows: every period and offset class.
			for _, span := range spans {
				for _, off := range offs(span) {
					check(n, fks[rng.Intn(len(fks))], span, off)
				}
			}
			continue
		}
		// Long windows: a few periods each, every fk class.
		for range 4 {
			span := spans[rng.Intn(len(spans))]
			for _, fk := range fks {
				check(n, fk, span, rng.Int63n(4*span))
			}
		}
	}
}
