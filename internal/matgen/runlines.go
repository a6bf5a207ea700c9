package matgen

import (
	"bytes"
	"math"
	"strconv"
)

// blockRows is how many lines of a run the larger of RunLines' blocks
// holds: the pks of one hundred, from one that ends in 00 to the one
// that ends in 99. The smaller holds the ten from one that ends in 0.
const blockRows = 100

// hundredsAfter is how many lines a run must have had before a block of
// a hundred is built for it. The decoder cannot know how long a run is
// until it ends, and a block built for a run that ends before it is
// wasted: a hundred line copies, small against a run this long.
const hundredsAfter = 4 * blockRows

// maxBlockBytes caps a block's size: a run of wider lines is written and
// checked ten lines, or one, at a time.
const maxBlockBytes = 1 << 16

// RunLines is the text of a run of rows that differ only in their pk, as
// the csv, jsonl and sql encoders write it and the directory scan's line
// decoder predicts it: a line holding the pk's canonical decimal digits
// at [lo, hi) between constant bytes, stepped from one pk to the next in
// place — the digits are never re-formatted per row — and, where a run
// is long enough, blocks of lines written or compared at once: from a
// pk that ends in 00, it and the 99 after it; from one that ends in 0,
// it and the 9 after it. A block's low digits are stamped when it is
// built; between blocks only the higher digits change, and they are
// patched by direct byte stores — one store per line when only the
// digit above the stamped ones moved.
//
// Blocks are built lazily — ten lines once a run has had two, a hundred
// once it has had hundredsAfter — so a short run pays for no more than it
// uses, and are kept across Reset for as long as the bytes around the pk
// stay the same, so a run cut into pieces (encode chunks, scan batches)
// builds them once.
//
// The zero value is ready for Reset. A RunLines is not safe for
// concurrent use.
type RunLines struct {
	line   []byte // the current line
	lo, hi int    // line[lo:hi] spells pk; lo < 0: no pk, the line repeats as is
	pk     int64  // -1 without a pk
	first  int64  // the run's first pk; without one, minus the lines stepped
	run    uint64 // counts the runs begun
	tens   lineBlock
	hunds  lineBlock
}

// lineBlock is rows lines of a run from a pk that ends in low zeros, as
// built for a line whose pk lay at [lo, hi); empty until a run needs it.
// Its room is allocated with the line's (grow).
type lineBlock struct {
	b      []byte
	lo, hi int
	rows   int    // 10 or blockRows
	low    int    // the pk's last low digits count 0 to rows-1 down the block
	run    uint64 // the run b was last checked against: within a run, only the pk's digits change
}

// Reset makes the line before, then pk in canonical decimal, then after
// — the first line of a run whose next lines step the pk by one.
func (r *RunLines) Reset(before []byte, pk int64, after []byte) {
	r.grow(len(before) + len(after))
	r.line = append(r.line[:0], before...)
	r.lo = len(r.line)
	r.line = strconv.AppendInt(r.line, pk, 10)
	r.hi = len(r.line)
	r.line = append(r.line, after...)
	r.pk, r.first = pk, pk
	r.run++
}

// ResetLine makes line, whose pk's digits are line[lo:hi] and spell pk,
// the first line of a run — with the pk re-spelled in canonical decimal
// where it was not ("+7", "007"), as the encoders write the lines after.
func (r *RunLines) ResetLine(line []byte, lo, hi int, pk int64) {
	if d := line[lo:hi]; d[0] == '+' || d[0] == '-' || d[0] == '0' && len(d) > 1 {
		r.Reset(line[:lo], pk, line[hi:])
		return
	}
	r.grow(len(line))
	r.line = append(r.line[:0], line...)
	r.lo, r.hi, r.pk, r.first = lo, hi, pk, pk
	r.run++
}

// Repeat makes line the first of a run of identical lines: a run in a
// layout without a pk.
func (r *RunLines) Repeat(line []byte) {
	r.grow(len(line))
	r.line = append(r.line[:0], line...)
	r.lo, r.hi, r.pk, r.first = -1, -1, -1, 0
	r.run++
}

// grow makes room for a line of n bytes around a pk that may grow to
// the longest int64, so that Step never allocates, and for blocks of
// such lines: one allocation, at least twice the last, so that a reader
// or encoder allocates a few times at most over all its runs.
func (r *RunLines) grow(n int) {
	if n += len("-9223372036854775808"); cap(r.line) >= n {
		return
	}
	n = max(n, 2*cap(r.line))
	t, h := min(10*n, maxBlockBytes), min(blockRows*n, maxBlockBytes)
	mem := make([]byte, n+t+h)
	r.line = mem[:0:n]
	r.tens = lineBlock{b: mem[n : n : n+t], rows: 10, low: 1}
	r.hunds = lineBlock{b: mem[n+t : n+t : n+t+h], rows: blockRows, low: 2}
}

// Line returns the current line, valid until the next call that moves
// or resets r.
func (r *RunLines) Line() []byte { return r.line }

// Step moves to the next line, reporting false when there is none to
// predict: after a negative pk (whose decimal does not step in place) or
// the largest.
//
//hydra:hotpath
func (r *RunLines) Step() bool {
	if uint64(r.pk) < math.MaxInt64 {
		if d := &r.line[r.hi-1]; *d != '9' {
			r.pk++
			*d++ // nine lines in ten
			return true
		}
	}
	return r.carry()
}

// had is how many lines the run has had before the current one.
func (r *RunLines) had() int64 {
	if r.lo < 0 {
		return -r.first
	}
	return r.pk - r.first
}

// carry is Step where the last digit carries, or there is no pk to step.
//
//hydra:hotpath
func (r *RunLines) carry() bool {
	if r.lo < 0 {
		r.first--
		return true
	}
	if r.pk < 0 || r.pk == math.MaxInt64 {
		return false
	}
	r.pk++
	for i := r.hi - 1; i >= r.lo; i-- {
		if r.line[i] != '9' {
			r.line[i]++
			return true
		}
		r.line[i] = '0'
	}
	// Every digit carried: the pk gains one, a 1 before the zeros.
	r.line = append(r.line, 0)
	copy(r.line[r.lo+1:], r.line[r.lo:])
	r.line[r.lo] = '1'
	r.hi++
	return true
}

// Block returns the current line and the lines after it that r writes
// or compares at once — a hundred from a pk that ends in 00, ten from
// one that ends in 0, never more than room — or nil where it has no
// block: at other pks, in a run too short yet to build one, near
// math.MaxInt64, and for lines too wide. The pk is not negative: Step
// refuses to step one. The slice is r's own, valid until the next call
// to Block.
//
//hydra:hotpath
func (r *RunLines) Block(room int64) []byte {
	if r.lo >= 0 && r.line[r.hi-1] != '0' {
		return nil // nine lines in ten, inlined
	}
	return r.block(room)
}

// block is Block for a line whose pk ends in 0: a hundred where the pk
// ends in 00 after another digit, else ten.
//
//hydra:hotpath
func (r *RunLines) block(room int64) []byte {
	if room >= blockRows && (r.lo < 0 || r.hi-r.lo >= 3 && r.line[r.hi-2] == '0') {
		if b := r.hunds.at(r, r.had() >= hundredsAfter); b != nil {
			return b
		}
	}
	if room >= 10 {
		return r.tens.at(r, r.had() >= 2)
	}
	return nil
}

// at returns k for r's current line, whose pk ends in k.low zeros (Block
// and block check) — patched, or built when build allows and it does
// not fit — or nil where the line is too wide or the block's last pk
// would not be an int64.
//
//hydra:hotpath
func (k *lineBlock) at(r *RunLines, build bool) []byte {
	w := len(r.line)
	if k.rows*w > maxBlockBytes || r.lo >= 0 && r.pk > math.MaxInt64-int64(k.rows-1) {
		return nil
	}
	if k.run != r.run {
		// A block built for another run serves this one where the bytes
		// around the pk are the same; any other is dropped, or it could
		// pass for this run's once the pk grows to its width.
		if len(k.b) != k.rows*w || k.lo != r.lo || k.hi != r.hi || !k.fits(r.line) {
			k.b = k.b[:0]
		}
		k.run = r.run
	}
	if len(k.b) != k.rows*w || k.lo != r.lo || k.hi != r.hi {
		if !build {
			return nil
		}
		k.build(r)
		return k.b
	}
	if r.lo < 0 {
		return k.b
	}
	// The same lines but for the higher digits: from the first that
	// differs on, they change on every line alike.
	i, end := r.lo, r.hi-k.low
	for i < end && k.b[i] == r.line[i] {
		i++
	}
	switch {
	case i == end:
	case i == end-1:
		c := r.line[i]
		for at := i; at < len(k.b); at += w {
			k.b[at] = c
		}
	default:
		for at := 0; at < len(k.b); at += w {
			for j := i; j < end; j++ {
				k.b[at+j] = r.line[j]
			}
		}
	}
	return k.b
}

// fits reports whether the block, of lines as wide as line, has line's
// bytes around the pk's digits.
func (k *lineBlock) fits(line []byte) bool {
	if k.lo < 0 {
		return bytes.Equal(k.b[:len(line)], line)
	}
	return bytes.Equal(k.b[:k.lo], line[:k.lo]) && bytes.Equal(k.b[k.hi:len(line)], line[k.hi:])
}

// build stamps k.rows copies of r's current line, the low pk digits of
// copy i spelling i, in the room grow made for them.
func (k *lineBlock) build(r *RunLines) {
	w := len(r.line)
	k.b, k.lo, k.hi = k.b[:0], r.lo, r.hi
	for i := range k.rows {
		k.b = append(k.b, r.line...)
		if r.lo >= 0 {
			for j, v := 1, i; j <= k.low; j, v = j+1, v/10 {
				k.b[i*w+r.hi-j] = '0' + byte(v%10)
			}
		}
	}
}

// EndBlock moves to the last line of b, the block Block just returned,
// as if Step had been called once for each line after the first, and
// returns how many lines b holds.
func (r *RunLines) EndBlock(b []byte) int64 {
	rows := int64(len(b) / len(r.line))
	if r.lo < 0 {
		r.first -= rows - 1
		return rows
	}
	r.pk += rows - 1
	for i, n := r.hi-1, rows; n > 1; i, n = i-1, n/10 {
		r.line[i] = '9'
	}
	return rows
}

// AppendRun appends the current line and the n-1 after it (n ≥ 1, the
// pks from 0 up to math.MaxInt64 at most) to dst — a block per append
// where one fits in n — and leaves the last of them current.
//
//hydra:hotpath
func (r *RunLines) AppendRun(dst []byte, n int64) []byte {
	for {
		if b := r.Block(n); b != nil {
			dst = append(dst, b...)
			n -= r.EndBlock(b)
		} else {
			dst = append(dst, r.line...)
			n--
		}
		if n <= 0 {
			return dst
		}
		r.Step()
	}
}
