// Package format holds Hydra's on-disk formats, one file each: csv and
// jsonl (lines.go, with the line encoder and RunLines they share), sql,
// heap, spans and discard. A format is everything one encoding means in
// one place: its name, file extension and media type; the row alignment
// its pieces concatenate at and the layouts it can carry; its header,
// footer and span encoder, which internal/matgen drives; and, for the
// formats a directory scan reads back, its run reader and the prediction
// of the row after a run's first, which internal/scan drives.
//
// The set is closed: ByName resolves csv, jsonl, sql, heap, spans and
// discard and nothing else, so every writer and reader of a format asks
// its value and none branches on its name.
package format

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// Format is one on-disk format. The values are the package's own
// variables; there is no other.
type Format struct {
	name, ext, contentType string
	// align returns the row multiple the layout's pieces concatenate at,
	// or why the format cannot carry the layout; nil means 1, any layout.
	align func(l Layout) (int, error)
	// header and footer render the file's prologue and epilogue; nil
	// means none.
	header, footer func(l Layout) ([]byte, error)
	encoder        func(l Layout) Encoder
	// reader builds the run reader of a part (see NewRunReader); nil for
	// a format that is written and never scanned.
	reader func(br *bufio.Reader, p Part) (RunReader, error)
	// lines: the format is text lines, so a chunk of it starts right
	// after a newline.
	lines bool
}

var all = []*Format{CSV, Discard, Heap, JSONL, Spans, SQL} // sorted by name

// ByName resolves a format name.
func ByName(name string) (*Format, error) {
	for _, f := range all {
		if f.name == name {
			return f, nil
		}
	}
	return nil, fmt.Errorf("unknown format %q (have %s)", name, strings.Join(Names(), ", "))
}

// Names lists every format's name, sorted.
func Names() []string { return names(all) }

// FileNames lists, sorted, the names of the formats that write bytes:
// every format but discard.
func FileNames() []string {
	return names(slices.DeleteFunc(slices.Clone(all), func(f *Format) bool { return !f.Writes() }))
}

func names(fs []*Format) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.name
	}
	return out
}

// Name is the format's name, as Options.Format and the -format flags
// take it.
func (f *Format) Name() string { return f.name }

// Ext is the file extension, the dot included; empty for discard.
func (f *Format) Ext() string { return f.ext }

// ContentType is the media type of a stream of the format.
func (f *Format) ContentType() string { return f.contentType }

// Writes reports whether the format produces bytes — a file, a stream —
// which every format but discard does.
func (f *Format) Writes() bool { return f.ext != "" }

// Scannable reports whether a directory scan reads the format back. sql
// is written to be loaded into a database, never scanned.
func (f *Format) Scannable() bool { return f.reader != nil }

// Lines reports whether the format is text lines, so that a chunk of an
// uncompressed part starts right after a newline.
func (f *Format) Lines() bool { return f.lines }

// Align returns the row multiple at which pieces of a table concatenate
// into exactly the bytes one encoder writes for the whole range (heap
// pages, sql statements; 1 means any split), or why the format cannot
// carry layout l at all. It is asked before any byte is produced, so a
// layout the format cannot express fails the request instead of writing
// a file no reader can open.
func (f *Format) Align(l Layout) (int, error) {
	if f.align == nil {
		return 1, nil
	}
	return f.align(l)
}

// Header returns the file prologue, written once per table by shard 0.
func (f *Format) Header(l Layout) ([]byte, error) {
	if f.header == nil {
		return nil, nil
	}
	return f.header(l)
}

// Footer returns the file epilogue, written once per table by the last
// shard.
func (f *Format) Footer(l Layout) ([]byte, error) {
	if f.footer == nil {
		return nil, nil
	}
	return f.footer(l)
}

// NewEncoder returns a fresh encoder for one table laid out by l, whose
// Align the caller has accepted. Layout constants — quoted JSON keys, sql
// statement prologues, heap page geometry — are computed here, once per
// worker per table, not per span.
func (f *Format) NewEncoder(l Layout) Encoder { return f.encoder(l) }

// Part is where a run reader starts: rows [Start, Start+Rows) of a part
// laid out by Cols, whose pk is column PKCol (-1 when the layout has
// none); Header says the reader starts at the csv header line or heap
// header page before them.
type Part struct {
	Cols   []string
	PKCol  int
	Start  int64
	Rows   int64
	Header bool
}

// NewRunReader builds the reader of part p, br positioned at its first
// row or header.
func (f *Format) NewRunReader(br *bufio.Reader, p Part) (RunReader, error) {
	if f.reader == nil {
		return nil, fmt.Errorf("format %q is not scannable", f.name)
	}
	return f.reader(br, p)
}

// Layout describes one relation's output stream: the table name, the
// column names in output order, the full-relation cardinality, which
// every shard knows up front from the summary, and where each output
// column and row come from.
type Layout struct {
	Table     string
	Cols      []string
	TotalRows int64
	// Idx is the span-order column (0 = pk, then Vals, then FKs; see
	// tuplegen.Span.At) each of Cols is read from; nil means span order
	// itself, the convention of tuplegen.Batch.FillSpan's idx.
	Idx []int
	// StartRow is the 0-based row heap pages and sql statements count
	// from: 0 for a table, the first scanned row for a scan's own file.
	StartRow int64
}

// cols returns l.Idx, or span order as a slice when it is nil.
func (l Layout) cols() []int {
	if l.Idx != nil {
		return l.Idx
	}
	idx := make([]int, len(l.Cols))
	for c := range idx {
		idx[c] = c
	}
	return idx
}

// Encoder turns runs of one table's rows into its byte stream: every
// writer — Materialize, Stream and a scan's EncodeScan — hands it
// tuplegen.Spans, and it renders a run's constant columns once and
// stamps them per row. For pieces encoded apart to concatenate into the
// bytes of one, the encoding of a row may depend only on the layout, the
// row's values and its absolute offset: an encoder carries layout
// constants and scratch memory, never state from one span to the next.
// Encoders are not safe for concurrent use.
type Encoder interface {
	// AppendSpan appends the encoding of the span's sp.N tuples, laid out
	// by the Layout's Idx, to dst and returns it. The first tuple is
	// absolute 0-based row sp.Start-1; position-dependent formats count
	// page and statement boundaries from the Layout's StartRow. The span
	// is passed by value so iteration stays allocation-free across the
	// interface boundary. A span that is no run of table rows, one of no
	// rows or with a pk outside [1, MaxInt64], is refused with ErrSpan,
	// and dst returned as it was.
	AppendSpan(dst []byte, sp tuplegen.Span) ([]byte, error)
}

// ErrSpan reports a span that no encoder writes: a table's pks number its
// rows from 1.
var ErrSpan = errors.New("format: span is not a run of table rows")

// checkSpan is every encoder's refusal of a span it cannot write.
func checkSpan(sp *tuplegen.Span) error {
	if sp.N < 1 || sp.Start < 1 || sp.N-1 > math.MaxInt64-sp.Start {
		return fmt.Errorf("%w: %d rows from pk %d", ErrSpan, sp.N, sp.Start)
	}
	return nil
}

// RunReader reads one part's rows a run at a time, the mirror image of
// how the encoder writes a summary run: a constant tail stamped with an
// incrementing pk.
type RunReader interface {
	// Run returns the next rows, at most max (≥ 1) of them — a spans
	// frame is decoded whole and comes whole — as one span in span order:
	// the pk first (as Start; a layout without one leaves it to the
	// caller), then the layout's other columns in file order, as Vals, so
	// the pk need not be the file's first column. The span is the
	// reader's own, valid until the next call, and the caller may advance
	// it in place.
	Run(max int64) (*tuplegen.Span, error)
	// Skip steps over k rows without producing them, cheaper than reading
	// them where the format allows.
	Skip(k int64) error
	// Close gives back the reader's pooled memory and returns how many
	// rows it parsed cell by cell: the first of each run, and every row
	// the prediction missed. A spans reader parses none.
	Close() (parsed int64)
}

// pacer spares a reader the prediction on parts where it keeps missing.
// After the k-th run in a row that ended at its first row, the next
// 2^k-1 rows (63 at most) are parsed without a prediction, and a run of
// more rows starts over: a part of single-row runs — a spread-FK part,
// whose FKs change every row — costs what parsing it costs, while a
// stray single-row run among long ones costs one more parsed row.
type pacer struct{ misses, rest int }

// try reports whether to predict after the row just parsed.
func (p *pacer) try() bool {
	if p.rest > 0 {
		p.rest--
		return false
	}
	return true
}

// record takes the length of a run that was predicted.
func (p *pacer) record(n int64) {
	if n > 1 {
		p.misses = 0
		return
	}
	p.misses = min(p.misses+1, 6)
	p.rest = 1<<p.misses - 1
}

// runTemplate is the row a run starts with, as parsed (file order), and
// the run in span order, whose Vals alias the row unless the pk sits
// between other columns. parsed counts the runs it started.
type runTemplate struct {
	row    []int64
	sp     tuplegen.Span
	pkCol  int
	parsed int64
}

func newRunTemplate(ncols, pkCol int) runTemplate {
	t := runTemplate{row: make([]int64, ncols), pkCol: pkCol}
	switch pkCol {
	case -1:
		t.sp.Vals = t.row
	case 0:
		t.sp.Vals = t.row[1:]
	default:
		t.sp.Vals = make([]int64, ncols-1)
	}
	return t
}

// span presents the run of n rows that starts with t.row in span order.
func (t *runTemplate) span(n int64) *tuplegen.Span {
	if t.pkCol > 0 {
		copy(t.sp.Vals[copy(t.sp.Vals, t.row[:t.pkCol]):], t.row[t.pkCol+1:])
	}
	if t.pkCol >= 0 {
		t.sp.Start = t.row[t.pkCol]
	}
	t.sp.N = n
	t.parsed++
	return &t.sp
}
