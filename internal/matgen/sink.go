package matgen

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/dsl-repro/hydra/internal/storage"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

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

// Sink describes one output format and manufactures its encoders. The
// engine hands disjoint chunks of a relation to parallel workers; each
// worker holds a private Encoder built by NewEncoder, encodes its chunks
// into pooled buffers, and an ordered collector concatenates the
// results. For that to be byte-deterministic, the encoding of a tuple
// may depend only on the layout, the tuple values, and the tuple's
// absolute row offset — encoders may carry precomputed layout constants
// and scratch buffers, but never state accumulated across chunks.
type Sink interface {
	// Name is the format name used by Options.Format and the CLI -format
	// flag.
	Name() string
	// Ext is the output file extension including the dot; empty means the
	// sink produces no files (the discard sink).
	Ext() string
	// Align returns the row-count multiple that chunk and shard
	// boundaries must respect so independently encoded pieces concatenate
	// into exactly the bytes a single sequential encoder would produce
	// (heap pages, SQL statement groups). Alignment 1 means any split
	// works. It may reject impossible layouts (a row wider than a heap
	// page).
	Align(ncols int) (int, error)
	// Header returns the file prologue, emitted once per table by shard 0.
	Header(l Layout) ([]byte, error)
	// NewEncoder returns a fresh encoder for one relation. Layout-derived
	// constants (quoted JSON keys, SQL statement prologues, heap page
	// geometry) are computed here, once per worker per table, instead of
	// on every encode call.
	NewEncoder(l Layout) Encoder
	// Footer returns the file epilogue, emitted once per table by the
	// last shard.
	Footer(l Layout) ([]byte, error)
}

// Encoder turns runs of one table's rows into its byte stream: every
// writer — Materialize, Stream and a scan's EncodeScan — hands it
// tuplegen.Spans, and it renders a run's constant columns once and
// stamps them per row. Encoders are not safe for concurrent use; the
// engine builds one per worker.
type Encoder interface {
	// AppendSpan appends the encoding of the span's sp.N tuples, laid out
	// by the Layout's Idx, to dst and returns it. The first tuple is
	// absolute 0-based row sp.Start-1; position-dependent formats count
	// page and statement boundaries from the Layout's StartRow. The span
	// is passed by value so iteration stays allocation-free across the
	// interface boundary.
	AppendSpan(dst []byte, sp tuplegen.Span) []byte
}

// LayoutChecker is implemented by sinks that cannot carry every column
// layout. The engine asks before any byte is produced, so a projection
// the format cannot express fails the request instead of writing a file
// no reader can open.
type LayoutChecker interface {
	CheckLayout(l Layout) error
}

// CheckLayout reports whether sink can carry layout l: the sink's own
// verdict when it is a LayoutChecker, nil otherwise.
func CheckLayout(sink Sink, l Layout) error {
	if lc, ok := sink.(LayoutChecker); ok {
		return lc.CheckLayout(l)
	}
	return nil
}

var (
	sinkMu   sync.RWMutex
	sinkReg  = map[string]Sink{}
	sinkName []string
)

// RegisterSink makes a sink selectable by Options.Format. It panics on a
// duplicate or empty name; the built-in formats register themselves.
func RegisterSink(s Sink) {
	sinkMu.Lock()
	defer sinkMu.Unlock()
	name := s.Name()
	if name == "" {
		panic("matgen: sink with empty name")
	}
	if _, dup := sinkReg[name]; dup {
		panic("matgen: duplicate sink " + name)
	}
	sinkReg[name] = s
	sinkName = append(sinkName, name)
	sort.Strings(sinkName)
}

// SinkNames lists the registered format names, sorted.
func SinkNames() []string {
	sinkMu.RLock()
	defer sinkMu.RUnlock()
	return append([]string(nil), sinkName...)
}

// SinkFor resolves a registered sink by format name.
func SinkFor(name string) (Sink, error) { return sinkFor(name) }

func sinkFor(name string) (Sink, error) {
	sinkMu.RLock()
	defer sinkMu.RUnlock()
	s, ok := sinkReg[name]
	if !ok {
		return nil, fmt.Errorf("matgen: unknown format %q (have %s)", name, strings.Join(sinkName, ", "))
	}
	return s, nil
}

func init() {
	RegisterSink(csvSink{})
	RegisterSink(jsonlSink{})
	RegisterSink(heapSink{})
	RegisterSink(sqlSink{})
	RegisterSink(spansSink{})
	RegisterSink(discardSink{})
}

// --- CSV, JSONL and SQL: one line encoder ---

type csvSink struct{}

func (csvSink) Name() string                  { return "csv" }
func (csvSink) Ext() string                   { return ".csv" }
func (csvSink) Align(int) (int, error)        { return 1, nil }
func (csvSink) Footer(Layout) ([]byte, error) { return nil, nil }

func (csvSink) Header(l Layout) ([]byte, error) {
	return []byte(strings.Join(l.Cols, ",") + "\n"), nil
}

func (csvSink) NewEncoder(l Layout) Encoder {
	return newLineEncoder(l, "", false, "\n")
}

type jsonlSink struct{}

func (jsonlSink) Name() string                  { return "jsonl" }
func (jsonlSink) Ext() string                   { return ".jsonl" }
func (jsonlSink) Align(int) (int, error)        { return 1, nil }
func (jsonlSink) Header(Layout) ([]byte, error) { return nil, nil }
func (jsonlSink) Footer(Layout) ([]byte, error) { return nil, nil }

// NewEncoder quotes the column names through the JSON encoder once per
// table; the per-row path only copies the precomputed `"name":` bytes.
func (jsonlSink) NewEncoder(l Layout) Encoder {
	return newLineEncoder(l, "{", true, "}\n")
}

// sqlRowsPerStmt groups this many tuples per INSERT statement. Statement
// boundaries fall on absolute row offsets, so the alignment guarantees
// every shard and chunk begins exactly at a statement start.
const sqlRowsPerStmt = 500

type sqlSink struct{}

func (sqlSink) Name() string           { return "sql" }
func (sqlSink) Ext() string            { return ".sql" }
func (sqlSink) Align(int) (int, error) { return sqlRowsPerStmt, nil }

func (sqlSink) Header(l Layout) ([]byte, error) {
	return []byte(fmt.Sprintf("-- hydra materialization of %s (%d rows)\nBEGIN;\n",
		l.Table, l.TotalRows)), nil
}

func (sqlSink) Footer(Layout) ([]byte, error) { return []byte("COMMIT;\n"), nil }

// NewEncoder builds the INSERT prologue string once per table. Every
// VALUES row ends in "),": lineEncoder.endStatement turns the ',' into
// ';' where a statement ends.
func (sqlSink) NewEncoder(l Layout) Encoder {
	e := newLineEncoder(l, "(", false, "),\n")
	e.prologue = []byte("INSERT INTO " + l.Table + " (" + strings.Join(l.Cols, ",") + ") VALUES\n")
	return e
}

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
			q, _ := json.Marshal(name)
			e.pre[c] = append(append(e.pre[c], q...), ':')
		}
	}
	return e
}

//hydra:hotpath
func (e *lineEncoder) AppendSpan(dst []byte, sp tuplegen.Span) []byte {
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
			return dst
		}
		e.lines.Step()
		dst = append(e.appendPrologue(dst, row+i), e.lines.Line()...)
	}
}

// appendPrologue starts an sql statement where row is the first of one.
func (e *lineEncoder) appendPrologue(dst []byte, row int64) []byte {
	if e.prologue != nil && row%sqlRowsPerStmt == 0 {
		return append(dst, e.prologue...)
	}
	return dst
}

// endStatement ends an sql statement where row, the row dst ends with,
// is the last of one or of the table: its "),\n" becomes ");\n".
func (e *lineEncoder) endStatement(dst []byte, row int64) []byte {
	if e.prologue != nil && (row+1 == e.total || (row+1)%sqlRowsPerStmt == 0) {
		dst[len(dst)-2] = ';'
	}
	return dst
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

// --- heap (internal/storage) ---

// heapSink emits the paged heap-file format of internal/storage, which
// internal/scan's DirSource reads. Alignment is the page's row capacity
// so every chunk and shard starts at a page boundary; the header page
// carries the exact row count, which the summary provides before
// generation starts.
type heapSink struct{}

var zeroPage [storage.PageSize]byte

func (heapSink) Name() string { return "heap" }
func (heapSink) Ext() string  { return ".heap" }

func (heapSink) Align(ncols int) (int, error) { return storage.RowsPerPage(ncols) }

func (heapSink) Header(l Layout) ([]byte, error) {
	return storage.EncodeHeaderPage(l.Table, l.Cols, l.TotalRows)
}

func (heapSink) Footer(l Layout) ([]byte, error) {
	ncols := len(l.Cols)
	perPage, err := storage.RowsPerPage(ncols)
	if err != nil {
		return nil, err
	}
	rem := int(l.TotalRows % int64(perPage))
	if rem == 0 {
		return nil, nil
	}
	return zeroPage[:storage.PageSize-rem*8*ncols], nil
}

// NewEncoder computes the page geometry once per table, through the
// same storage helper Align and Footer use so the three can never
// diverge. The engine validates Align before building encoders, so the
// layout is known to fit a page here.
func (heapSink) NewEncoder(l Layout) Encoder {
	ncols := len(l.Cols)
	perPage, err := storage.RowsPerPage(ncols)
	if err != nil {
		panic("matgen: heap encoder built for a layout Align rejected: " + err.Error())
	}
	return &heapEncoder{
		perPage:  perPage,
		pagePad:  storage.PageSize - perPage*8*ncols,
		idx:      l.cols(),
		startRow: l.StartRow,
	}
}

type heapEncoder struct {
	perPage  int
	pagePad  int
	idx      []int // span-order column of each laid-out one
	startRow int64
}

// AppendSpan renders the first row of each page's stretch of the run in
// place, as the stretch's template, fills the stretch with copies of it
// — doubling copies, so memmove does the work in a few wide calls — and
// patches the columns that vary, the pk and any spreading FK, one
// column at a time.
//
//hydra:hotpath
func (e *heapEncoder) AppendSpan(dst []byte, sp tuplegen.Span) []byte {
	w := 8 * len(e.idx)
	inPage := int((sp.Start - 1 - e.startRow) % int64(e.perPage))
	for i := int64(0); i < sp.N; {
		m := int(min(sp.N-i, int64(e.perPage-inPage))) // rows to the page's end
		at := len(dst)
		dst = slices.Grow(dst, m*w)[:at+m*w]
		for c, src := range e.idx {
			binary.LittleEndian.PutUint64(dst[at+8*c:], uint64(sp.At(src, i)))
		}
		for k := w; k < m*w; k *= 2 {
			copy(dst[at+k:], dst[at:at+k])
		}
		for c, src := range e.idx {
			switch {
			case src == 0:
				for r := 1; r < m; r++ {
					binary.LittleEndian.PutUint64(dst[at+r*w+8*c:], uint64(sp.Start+i+int64(r)))
				}
			case sp.Spreads(src):
				for r := 1; r < m; r++ {
					binary.LittleEndian.PutUint64(dst[at+r*w+8*c:], uint64(sp.At(src, i+int64(r))))
				}
			}
		}
		i += int64(m)
		if inPage += m; inPage == e.perPage {
			dst = append(dst, zeroPage[:e.pagePad]...)
			inPage = 0
		}
	}
	return dst
}

// --- discard ---

// discardSink drops every run after generation: the throughput-
// measurement sink, isolating span iteration and the worker pool from
// encoding and disk.
type discardSink struct{}

func (discardSink) Name() string                  { return "discard" }
func (discardSink) Ext() string                   { return "" }
func (discardSink) Align(int) (int, error)        { return 1, nil }
func (discardSink) Header(Layout) ([]byte, error) { return nil, nil }
func (discardSink) Footer(Layout) ([]byte, error) { return nil, nil }
func (discardSink) NewEncoder(Layout) Encoder     { return discardEncoder{} }

type discardEncoder struct{}

func (discardEncoder) AppendSpan(dst []byte, _ tuplegen.Span) []byte { return dst }
