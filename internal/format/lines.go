package format

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// CSV is comma-separated integers, one row a line, under a header line
// of the column names.
var CSV = &Format{
	name: "csv", ext: ".csv", contentType: "text/csv; charset=utf-8", lines: true,
	header:  func(l Layout) ([]byte, error) { return []byte(strings.Join(l.Cols, ",") + "\n"), nil },
	encoder: func(l Layout) Encoder { return newLineEncoder(l, "", false, "\n") },
	reader: func(br *bufio.Reader, p Part) (RunReader, error) {
		if p.Header {
			if err := skipLines(br, 1); err != nil {
				return nil, fmt.Errorf("reading csv header: %w", err)
			}
		}
		return newLineRuns(br, p, "csv", nil), nil
	},
}

// JSONL is one JSON object a line, each column a key and its value an
// integer. The encoder quotes the column names through encoding/json
// once per table; the per-row path only copies the `"name":` bytes.
var JSONL = &Format{
	name: "jsonl", ext: ".jsonl", contentType: "application/x-ndjson", lines: true,
	encoder: func(l Layout) Encoder { return newLineEncoder(l, "{", true, "}\n") },
	reader: func(br *bufio.Reader, p Part) (RunReader, error) {
		return newLineRuns(br, p, "jsonl", newJSONLRow(p.Cols)), nil
	},
}

// --- the line encoder of csv, jsonl and sql ---

// lineEncoder writes the rows of the three text formats, each a line:
// open, then every laid-out column's value behind its prefix, then close
// — a comma-separated row, a JSON object, or an sql VALUES row, whose
// statements (prologue) and terminators also depend on the row's place.
//
// A run's first row is rendered once, up to the first laid-out column
// that spreads, and its line becomes a RunLines line for the rows after
// it: stepped at the pk where the layout has one, repeated where it has
// not. Where no column spreads, the line is the whole row, and the run
// is written by RunLines.AppendRun, a block of lines per append, up to
// each sql statement's end; otherwise each row steps the line and
// renders the columns after it.
type lineEncoder struct {
	open     []byte
	pre      [][]byte // what goes before each column's value: separator, key
	close    []byte
	prologue []byte // sql: what each statement starts with; nil otherwise
	idx      []int  // span-order column of each laid-out one
	total    int64  // rows the statements are grouped over
	startRow int64
	lines    RunLines
}

// newLineEncoder builds the encoder of a format whose rows are open,
// then the columns, comma-separated, each value behind its JSON-quoted
// name and a ':' where keyed, then end.
func newLineEncoder(l Layout, open string, keyed bool, end string) *lineEncoder {
	e := &lineEncoder{open: []byte(open), close: []byte(end), idx: l.cols(),
		pre: make([][]byte, len(l.Cols)), total: l.TotalRows, startRow: l.StartRow}
	for c, name := range l.Cols {
		if c > 0 {
			e.pre[c] = append(e.pre[c], ',')
		}
		if keyed {
			e.pre[c] = append(e.pre[c], jsonKey(name)...)
		}
	}
	return e
}

//hydra:hotpath
func (e *lineEncoder) AppendSpan(dst []byte, sp tuplegen.Span) ([]byte, error) {
	if err := checkSpan(&sp); err != nil {
		return dst, err
	}
	k := slices.IndexFunc(e.idx, sp.Spreads) // the first column that spreads
	whole := k < 0
	if whole {
		k = len(e.idx)
	}
	row := sp.Start - 1 - e.startRow
	dst = e.appendFirst(e.appendPrologue(dst, row), &sp, k, whole)
	for i := int64(0); ; {
		// Row i's line is written: finish it, or write the rows after it
		// that its statement holds.
		n := int64(1)
		if whole {
			n = sp.N - i
			if e.prologue != nil {
				n = min(n, sqlRowsPerStmt-(row+i)%sqlRowsPerStmt)
			}
			if n > 1 {
				e.lines.Step()
				dst = e.lines.AppendRun(dst, n-1)
			}
		} else {
			for c := k; c < len(e.idx); c++ {
				dst = append(dst, e.pre[c]...)
				dst = strconv.AppendInt(dst, sp.At(e.idx[c], i), 10)
			}
			dst = append(dst, e.close...)
		}
		i += n
		dst = e.endStatement(dst, row+i-1)
		if i == sp.N {
			return dst, nil
		}
		e.lines.Step()
		dst = append(e.appendPrologue(dst, row+i), e.lines.Line()...)
	}
}

// appendFirst renders the line of the run's first row into dst — open
// and the columns before k, and close where the line is the whole row —
// and makes it the run's RunLines line when the run has more rows.
func (e *lineEncoder) appendFirst(dst []byte, sp *tuplegen.Span, k int, whole bool) []byte {
	at, lo, hi := len(dst), -1, -1
	dst = append(dst, e.open...)
	for c, src := range e.idx[:k] {
		dst = append(dst, e.pre[c]...)
		if src == 0 {
			lo = len(dst) - at
		}
		dst = strconv.AppendInt(dst, sp.At(src, 0), 10)
		if src == 0 {
			hi = len(dst) - at
		}
	}
	if whole {
		dst = append(dst, e.close...)
	}
	switch {
	case sp.N == 1:
	case lo >= 0:
		e.lines.ResetLine(dst[at:], lo, hi, sp.Start)
	default:
		e.lines.Repeat(dst[at:])
	}
	return dst
}

// --- the run reader of csv and jsonl ---

// lineRuns reads a csv or jsonl part a run at a time. A run's first row
// is parsed cell by cell; the rows after it are accepted against pred,
// the lines the encoder writes next in a run (RunLines, the type the
// encoders write them with), straight out of the read buffer's
// window: one line per compare until the run has accepted one, then ten
// from each pk that ends in 0 and, once the run has had 400 lines, a
// hundred from each pk that ends in 00. The first byte that differs ends
// the run — a block that differs is walked again a line at a time to
// find the exact last row — and that line is parsed in full as the first
// row of the next run (pace decides when a part of single-row runs is
// worth predicting again).
type lineRuns struct {
	runTemplate
	br   *bufio.Reader
	name string    // the format's, for errors
	json *jsonlRow // nil: csv
	pred *RunLines
	pace pacer
}

// runLinesPool recycles the predicted lines of closed line readers: a
// block is a hundred lines, and a fresh one per open would be most of
// what a ranged scan allocates.
var runLinesPool = sync.Pool{New: func() any { return new(RunLines) }}

func newLineRuns(br *bufio.Reader, p Part, name string, jr *jsonlRow) *lineRuns {
	return &lineRuns{runTemplate: newRunTemplate(len(p.Cols), p.PKCol), br: br, name: name, json: jr,
		pred: runLinesPool.Get().(*RunLines)}
}

func (l *lineRuns) Run(max int64) (*tuplegen.Span, error) {
	line, err := l.br.ReadSlice('\n')
	if err != nil {
		if errors.Is(err, bufio.ErrBufferFull) {
			return nil, fmt.Errorf("%s row longer than %d bytes", l.name, l.br.Size())
		}
		if !errors.Is(err, io.EOF) || len(line) == 0 {
			return nil, err
		}
		// A final row without its newline is still a row.
	}
	lo, hi := -1, -1
	if l.json != nil {
		line, lo, hi, err = l.json.parse(line, &l.runTemplate)
	} else {
		lo, hi, err = l.parseCSV(line)
	}
	if err != nil {
		return nil, err
	}
	return l.span(l.extend(line, lo, hi, max)), nil
}

// extend accepts the lines after a run's first, line (its pk's digits at
// line[lo:hi], lo < 0 without a pk), that are byte for byte what the
// encoder writes next, and returns the run's length: at most max rows in
// all. It walks the read buffer's window in place and hands the accepted
// bytes back once per refill and once at the end.
//
//hydra:hotpath
func (l *lineRuns) extend(line []byte, lo, hi int, max int64) int64 {
	if max == 1 || !l.pace.try() {
		return 1
	}
	p := l.pred
	if lo < 0 {
		p.Repeat(line)
	} else {
		p.ResetLine(line, lo, hi, l.row[l.pkCol])
	}
	win, _ := l.br.Peek(l.br.Buffered())
	off, n := 0, int64(1)
	for n < max && p.Step() {
		// A block of lines at once where the run has one, refilling the
		// window for it.
		if blk := p.Block(max - n); blk != nil {
			if len(win)-off < len(blk) && len(blk) <= l.br.Size() {
				l.br.Discard(off)
				off = 0
				_, _ = l.br.Peek(len(blk)) // short only where the part ends, which the lines below find
				win, _ = l.br.Peek(l.br.Buffered())
			}
			if len(win)-off >= len(blk) && bytes.Equal(win[off:off+len(blk)], blk) {
				off += len(blk)
				n += p.EndBlock(blk)
				continue
			}
			// One of its lines differs, or the part ends first: the lines
			// below find where.
		}
		b := p.Line()
		if len(win)-off < len(b) {
			l.br.Discard(off)
			off = 0
			if _, err := l.br.Peek(len(b)); err != nil {
				break
			}
			win, _ = l.br.Peek(l.br.Buffered())
		}
		if !bytes.Equal(win[off:off+len(b)], b) {
			break
		}
		off += len(b)
		n++
	}
	l.br.Discard(off)
	l.pace.record(n)
	return n
}

func (l *lineRuns) Skip(k int64) error { return skipLines(l.br, k) }

func (l *lineRuns) Close() int64 {
	runLinesPool.Put(l.pred)
	return l.parsed
}

// skipLines discards k lines of any length — how both line formats step
// over rows. Newlines are counted a window at a time; only the window
// holding the k-th is walked line by line.
func skipLines(br *bufio.Reader, k int64) error {
	for k > 0 {
		if _, err := br.Peek(1); err != nil { // fills an empty buffer
			return err
		}
		win, _ := br.Peek(min(br.Buffered(), 4096))
		if n := int64(bytes.Count(win, []byte{'\n'})); n < k {
			k -= n
			br.Discard(len(win))
			continue
		}
		i := 0
		for ; k > 0; k-- {
			i += bytes.IndexByte(win[i:], '\n') + 1
		}
		br.Discard(i)
	}
	return nil
}

// parseCSV decodes one line straight out of the read buffer — no line
// copy, no per-cell string, no allocation, one pass over the bytes — and
// returns where the pk's digits lie in it (-1 without a pk). The line
// after it is predicted from its own bytes, the same cells around the
// pk's, so a run whose lines end in \r\n reads as fast as one whose
// lines end in \n.
func (l *lineRuns) parseCSV(line []byte) (lo, hi int, err error) {
	lo, hi = -1, -1
	body := trimEOL(line)
	for i, at := 0, 0; i < len(l.row); i++ {
		// Up to 18 digits cannot overflow; anything else — a sign, more
		// digits, none — takes the general parser.
		u, end := digits(body, at)
		v := int64(u)
		if end == at || end-at > 18 {
			w, n, perr := parseIntPrefix(body[at:])
			if perr != nil {
				return lo, hi, csvRowError(body, len(l.row))
			}
			v, end = w, at+n
		}
		if last := i == len(l.row)-1; last != (end == len(body)) || !last && body[end] != ',' {
			return lo, hi, csvRowError(body, len(l.row))
		}
		l.row[i] = v
		if i == l.pkCol {
			lo, hi = at, end
		}
		at = end + 1
	}
	return lo, hi, nil
}

// csvRowError names what is wrong with a csv line parseCSV refused,
// walking it cell by cell.
func csvRowError(body []byte, ncols int) error {
	for i := 0; i < ncols; i++ {
		cell := body
		if j := bytes.IndexByte(body, ','); i < ncols-1 {
			if j < 0 {
				return fmt.Errorf("csv row has %d of %d columns", i+1, ncols)
			}
			cell, body = body[:j], body[j+1:]
		} else if j >= 0 {
			return fmt.Errorf("csv row has more than %d columns", ncols)
		}
		if _, err := parseInt(cell); err != nil {
			return fmt.Errorf("csv cell %d: parsing %q: %w", i, cell, err)
		}
	}
	return errors.New("csv row refused") // unreachable: parseCSV and this walk accept the same lines
}

var (
	errIntSyntax = errors.New("invalid syntax")
	errIntRange  = errors.New("value out of range")
)

// parseInt is strconv.ParseInt(string(b), 10, 64) without the string:
// an optional sign, then decimal digits only, overflow-checked.
func parseInt(b []byte) (int64, error) {
	v, n, err := parseIntPrefix(b)
	if err == nil && n < len(b) {
		return 0, errIntSyntax
	}
	return v, err
}

// digits reads the decimal digits b holds from at on: their value,
// exact for up to 19 of them, and where they end.
func digits(b []byte, at int) (uint64, int) {
	var u uint64
	for ; at < len(b) && b[at]-'0' <= 9; at++ {
		u = u*10 + uint64(b[at]-'0')
	}
	return u, at
}

// parseIntPrefix parses the integer b starts with — an optional sign,
// then decimal digits — and returns the number of bytes it spans.
func parseIntPrefix(b []byte) (int64, int, error) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		i, neg = 1, b[0] == '-'
	}
	const minMagnitude = 1 << 63 // |math.MinInt64|
	var u uint64
	start := i
	for ; i < len(b); i++ {
		d := b[i] - '0' // wraps far above 9 for bytes below '0'
		if d > 9 {
			break
		}
		if u > minMagnitude/10 {
			return 0, i, errIntRange
		}
		if u = u*10 + uint64(d); u > minMagnitude {
			return 0, i, errIntRange
		}
	}
	switch {
	case i == start:
		return 0, i, errIntSyntax
	case neg:
		return -int64(u), i, nil // u == 1<<63 wraps to MinInt64, as it should
	case u == minMagnitude:
		return 0, i, errIntRange
	}
	return int64(u), i, nil
}

func trimEOL(s []byte) []byte {
	if n := len(s); n > 0 && s[n-1] == '\n' {
		s = s[:n-1]
	}
	if n := len(s); n > 0 && s[n-1] == '\r' {
		s = s[:n-1]
	}
	return s
}

// jsonlRow parses jsonl lines: one object holding every column once,
// each value a JSON integer. null, fractions, exponents and strings are
// refused — the encoder writes none of them.
type jsonlRow struct {
	cols []string
	keys [][]byte // the encoder's quoted keys, each with its ':'
	raw  map[string]json.RawMessage
	line []byte // scratch: the canonical rendering of the parsed row
}

func newJSONLRow(cols []string) *jsonlRow {
	j := &jsonlRow{cols: cols, keys: make([][]byte, len(cols)), raw: make(map[string]json.RawMessage, len(cols))}
	for c, name := range cols {
		j.keys[c] = jsonKey(name)
	}
	return j
}

// jsonKey is a column name as a jsonl row spells it: quoted, then ':'.
func jsonKey(name string) []byte {
	q, _ := json.Marshal(name)
	return append(q, ':')
}

// parse decodes line into t.row and returns the line a run of it is
// predicted from — how the jsonl encoder writes the row — with the pk's
// digits at [lo, hi) (-1 without a pk). Any other spelling of a row
// (spacing, key order, escapes) is read the same and just does not
// extend a run.
func (j *jsonlRow) parse(line []byte, t *runTemplate) (canon []byte, lo, hi int, err error) {
	clear(j.raw)
	if err := json.Unmarshal(line, &j.raw); err != nil {
		return nil, 0, 0, fmt.Errorf("jsonl row: %w", err)
	}
	if len(j.raw) != len(j.cols) {
		return nil, 0, 0, fmt.Errorf("jsonl row has %d of %d columns", len(j.raw), len(j.cols))
	}
	for c, name := range j.cols {
		raw, ok := j.raw[name]
		if !ok {
			return nil, 0, 0, fmt.Errorf("jsonl row lacks column %q", name)
		}
		v, err := parseInt(raw)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("jsonl column %q holds %s, not an int64", name, raw)
		}
		t.row[c] = v
	}
	b := append(j.line[:0], '{')
	lo, hi = -1, -1
	for c, v := range t.row {
		if c > 0 {
			b = append(b, ',')
		}
		b = append(b, j.keys[c]...)
		if c == t.pkCol {
			lo = len(b)
		}
		b = strconv.AppendInt(b, v, 10)
		if c == t.pkCol {
			hi = len(b)
		}
	}
	j.line = append(b, '}', '\n')
	return j.line, lo, hi, nil
}

// --- RunLines ---

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
