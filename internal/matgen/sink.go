package matgen

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/dsl-repro/hydra/internal/storage"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// Layout describes one relation's output stream: the table name, the
// column names in tuple order (pk first), and the full-relation
// cardinality, which every shard knows up front from the summary.
type Layout struct {
	Table     string
	Cols      []string
	TotalRows int64
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

// Encoder turns tuple batches into one table's byte stream. Encoders are
// not safe for concurrent use; the engine builds one per worker.
type Encoder interface {
	// AppendBatch appends the encoding of b to dst and returns it. rowOff
	// is the absolute 0-based row offset of b's first tuple (row r holds
	// primary key r+1); position-dependent formats derive page and
	// statement boundaries from it.
	AppendBatch(dst []byte, b *tuplegen.Batch, rowOff int64) []byte
}

// SpanEncoder is implemented by encoders that can render a summary-row
// run directly from its span structure, without materializing a
// column-major batch first. The engine prefers this path: a run's
// constant column tail is rendered once and stamped per row with an
// incrementing primary key, turning O(rows x cols) value encodings into
// O(rows + spans x cols).
type SpanEncoder interface {
	Encoder
	// AppendSpan appends the encoding of the span's sp.N tuples to dst
	// and returns it. The absolute 0-based row offset of the first tuple
	// is sp.Start-1. The span is passed by value so iteration stays
	// allocation-free across the interface boundary.
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

// --- CSV ---

type csvSink struct{}

func (csvSink) Name() string                  { return "csv" }
func (csvSink) Ext() string                   { return ".csv" }
func (csvSink) Align(int) (int, error)        { return 1, nil }
func (csvSink) Footer(Layout) ([]byte, error) { return nil, nil }

func (csvSink) Header(l Layout) ([]byte, error) {
	return []byte(strings.Join(l.Cols, ",") + "\n"), nil
}

func (csvSink) NewEncoder(Layout) Encoder { return &csvEncoder{} }

type csvEncoder struct {
	lines RunLines
	tail  []byte // scratch for the current span's constant column tail
}

func (e *csvEncoder) AppendBatch(dst []byte, b *tuplegen.Batch, _ int64) []byte {
	for i := 0; i < b.N; i++ {
		for c, col := range b.Cols {
			if c > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, col[i], 10)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// AppendSpan writes a constant-FK run as RunLines' lines, a block of
// them per append; a spread-FK run steps the same line, the pk and the
// constant columns, and appends each row's FKs to it.
func (e *csvEncoder) AppendSpan(dst []byte, sp tuplegen.Span) []byte {
	t := e.tail[:0]
	for _, v := range sp.Vals {
		t = append(t, ',')
		t = strconv.AppendInt(t, v, 10)
	}
	if sp.ConstFKs() {
		for _, fk := range sp.FKs {
			t = append(t, ',')
			t = strconv.AppendInt(t, fk, 10)
		}
		t = append(t, '\n')
		e.tail = t
		e.lines.Reset(nil, sp.Start, t)
		return e.lines.AppendRun(dst, sp.N)
	}
	e.tail = t
	e.lines.Reset(nil, sp.Start, t)
	for i := int64(0); i < sp.N; i++ {
		dst = append(dst, e.lines.Line()...)
		for c, fk := range sp.FKs {
			if span := sp.FKSpans[c]; span > 1 {
				fk += (sp.Off + i) % span
			}
			dst = append(dst, ',')
			dst = strconv.AppendInt(dst, fk, 10)
		}
		dst = append(dst, '\n')
		e.lines.Step()
	}
	return dst
}

// --- JSONL ---

type jsonlSink struct{}

func (jsonlSink) Name() string                  { return "jsonl" }
func (jsonlSink) Ext() string                   { return ".jsonl" }
func (jsonlSink) Align(int) (int, error)        { return 1, nil }
func (jsonlSink) Header(Layout) ([]byte, error) { return nil, nil }
func (jsonlSink) Footer(Layout) ([]byte, error) { return nil, nil }

// NewEncoder quotes the column names through the JSON encoder once per
// table; the per-row path only copies the precomputed `"name":` bytes.
func (jsonlSink) NewEncoder(l Layout) Encoder {
	e := &jsonlEncoder{keys: make([][]byte, len(l.Cols))}
	for c, name := range l.Cols {
		q, _ := json.Marshal(name)
		e.keys[c] = append(q, ':')
	}
	if len(e.keys) > 0 {
		e.head = append([]byte{'{'}, e.keys[0]...)
	}
	return e
}

type jsonlEncoder struct {
	keys  [][]byte // quoted column names, each with the trailing ':'
	head  []byte   // '{' and the pk's key: what a span's lines start with
	lines RunLines
	tail  []byte
}

func (e *jsonlEncoder) AppendBatch(dst []byte, b *tuplegen.Batch, _ int64) []byte {
	for i := 0; i < b.N; i++ {
		dst = append(dst, '{')
		for c, col := range b.Cols {
			if c > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, e.keys[c]...)
			dst = strconv.AppendInt(dst, col[i], 10)
		}
		dst = append(dst, '}', '\n')
	}
	return dst
}

// AppendSpan writes a run the way csvEncoder.AppendSpan does, each line
// an object whose first member is the pk.
func (e *jsonlEncoder) AppendSpan(dst []byte, sp tuplegen.Span) []byte {
	t := e.tail[:0]
	for c, v := range sp.Vals {
		t = append(t, ',')
		t = append(t, e.keys[1+c]...)
		t = strconv.AppendInt(t, v, 10)
	}
	nvals := len(sp.Vals)
	if sp.ConstFKs() {
		for c, fk := range sp.FKs {
			t = append(t, ',')
			t = append(t, e.keys[1+nvals+c]...)
			t = strconv.AppendInt(t, fk, 10)
		}
		t = append(t, '}', '\n')
		e.tail = t
		e.lines.Reset(e.head, sp.Start, t)
		return e.lines.AppendRun(dst, sp.N)
	}
	e.tail = t
	e.lines.Reset(e.head, sp.Start, t)
	for i := int64(0); i < sp.N; i++ {
		dst = append(dst, e.lines.Line()...)
		for c, fk := range sp.FKs {
			if span := sp.FKSpans[c]; span > 1 {
				fk += (sp.Off + i) % span
			}
			dst = append(dst, ',')
			dst = append(dst, e.keys[1+nvals+c]...)
			dst = strconv.AppendInt(dst, fk, 10)
		}
		dst = append(dst, '}', '\n')
		e.lines.Step()
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
		perPage: perPage,
		pagePad: storage.PageSize - perPage*8*ncols,
	}
}

type heapEncoder struct {
	perPage int
	pagePad int
	row     []byte // scratch: one encoded row, the span template
}

func (e *heapEncoder) AppendBatch(dst []byte, b *tuplegen.Batch, rowOff int64) []byte {
	inPage := int(rowOff % int64(e.perPage))
	var tmp [8]byte
	for i := 0; i < b.N; i++ {
		for _, col := range b.Cols {
			binary.LittleEndian.PutUint64(tmp[:], uint64(col[i]))
			dst = append(dst, tmp[:]...)
		}
		inPage++
		if inPage == e.perPage {
			dst = append(dst, zeroPage[:e.pagePad]...)
			inPage = 0
		}
	}
	return dst
}

// AppendSpan renders the run's constant columns into a one-row template
// once, then per row copies the template and patches the pk (and any
// spread FK columns) in place.
func (e *heapEncoder) AppendSpan(dst []byte, sp tuplegen.Span) []byte {
	t := e.row[:0]
	var tmp [8]byte // pk placeholder, patched per row
	t = append(t, tmp[:]...)
	for _, v := range sp.Vals {
		binary.LittleEndian.PutUint64(tmp[:], uint64(v))
		t = append(t, tmp[:]...)
	}
	for _, fk := range sp.FKs {
		binary.LittleEndian.PutUint64(tmp[:], uint64(fk))
		t = append(t, tmp[:]...)
	}
	e.row = t
	constFK := sp.ConstFKs()
	fkBase := 8 * (1 + len(sp.Vals))
	inPage := int((sp.Start - 1) % int64(e.perPage))
	for i := int64(0); i < sp.N; i++ {
		at := len(dst)
		dst = append(dst, t...)
		binary.LittleEndian.PutUint64(dst[at:], uint64(sp.Start+i))
		if !constFK {
			for c, fk := range sp.FKs {
				if span := sp.FKSpans[c]; span > 1 {
					fk += (sp.Off + i) % span
					binary.LittleEndian.PutUint64(dst[at+fkBase+8*c:], uint64(fk))
				}
			}
		}
		inPage++
		if inPage == e.perPage {
			dst = append(dst, zeroPage[:e.pagePad]...)
			inPage = 0
		}
	}
	return dst
}

// --- SQL INSERT ---

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

// NewEncoder builds the INSERT prologue string once per table.
func (sqlSink) NewEncoder(l Layout) Encoder {
	return &sqlEncoder{
		prologue: []byte("INSERT INTO " + l.Table + " (" + strings.Join(l.Cols, ",") + ") VALUES\n"),
		total:    l.TotalRows,
	}
}

type sqlEncoder struct {
	prologue []byte
	total    int64
	lines    RunLines
	tail     []byte
}

// appendTerm closes one VALUES row: ';' at statement and table ends,
// ',' otherwise.
func (e *sqlEncoder) appendTerm(dst []byte, abs int64) []byte {
	if abs+1 == e.total || (abs+1)%sqlRowsPerStmt == 0 {
		return append(dst, ')', ';', '\n')
	}
	return append(dst, ')', ',', '\n')
}

func (e *sqlEncoder) AppendBatch(dst []byte, b *tuplegen.Batch, rowOff int64) []byte {
	for i := 0; i < b.N; i++ {
		abs := rowOff + int64(i)
		if abs%sqlRowsPerStmt == 0 {
			dst = append(dst, e.prologue...)
		}
		dst = append(dst, '(')
		for c, col := range b.Cols {
			if c > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, col[i], 10)
		}
		dst = e.appendTerm(dst, abs)
	}
	return dst
}

// AppendSpan steps one RunLines line per row — '(', the pk and the
// constant columns — and appends the row's FKs where they are spread and
// its terminator.
func (e *sqlEncoder) AppendSpan(dst []byte, sp tuplegen.Span) []byte {
	t := e.tail[:0]
	for _, v := range sp.Vals {
		t = append(t, ',')
		t = strconv.AppendInt(t, v, 10)
	}
	constFK := sp.ConstFKs()
	if constFK {
		for _, fk := range sp.FKs {
			t = append(t, ',')
			t = strconv.AppendInt(t, fk, 10)
		}
	}
	e.tail = t
	e.lines.Reset(sqlOpen, sp.Start, t)
	rowOff := sp.Start - 1
	for i := int64(0); i < sp.N; i++ {
		abs := rowOff + i
		if abs%sqlRowsPerStmt == 0 {
			dst = append(dst, e.prologue...)
		}
		dst = append(dst, e.lines.Line()...)
		if !constFK {
			for c, fk := range sp.FKs {
				if span := sp.FKSpans[c]; span > 1 {
					fk += (sp.Off + i) % span
				}
				dst = append(dst, ',')
				dst = strconv.AppendInt(dst, fk, 10)
			}
		}
		dst = e.appendTerm(dst, abs)
		e.lines.Step()
	}
	return dst
}

// sqlOpen is what every VALUES row starts with.
var sqlOpen = []byte{'('}

// --- discard ---

// discardSink drops every batch after generation: the throughput-
// measurement sink, isolating the generator and worker-pool cost from
// encoding and disk. Its encoder deliberately does not implement
// SpanEncoder — the point is to measure batch generation, so the engine
// must take the materializing path.
type discardSink struct{}

func (discardSink) Name() string                  { return "discard" }
func (discardSink) Ext() string                   { return "" }
func (discardSink) Align(int) (int, error)        { return 1, nil }
func (discardSink) Header(Layout) ([]byte, error) { return nil, nil }
func (discardSink) Footer(Layout) ([]byte, error) { return nil, nil }
func (discardSink) NewEncoder(Layout) Encoder     { return discardEncoder{} }

type discardEncoder struct{}

func (discardEncoder) AppendBatch(dst []byte, _ *tuplegen.Batch, _ int64) []byte { return dst }
