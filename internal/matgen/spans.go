package matgen

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"

	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// --- spans ---

// spansSink is the run-native format: where every other sink renders a
// summary-row run into its N tuples, this one writes the run itself, so
// thousands of rows cost a few dozen bytes and a reader rebuilds them
// with tuplegen.FillSpan — the one format only a summary-based
// generator can offer. A stream is a bare sequence of frames (no
// header, no footer, alignment 1), one per tuplegen.Span:
//
//	frame = uvarint(len(body)) body crc
//	body  = uvarint(Start) uvarint(N) uvarint(Off)
//	        varint(v) x (ncols-1)            Vals then base FKs
//	        uvarint(k) uvarint(span) x k     k = 0, or the FK count when spread
//	crc   = CRC-32C of everything before it in the frame, little-endian
//
// Widths come from the layout, not the frame: ncols is the stream's
// column count, and the last k of its ncols-1 tail values are the FKs
// the modular fills apply to (FK c of tuple i is base + (Off+i)%span
// where span > 1). A frame carries its own Start, so frames need no
// surrounding context: a filtered stream simply omits frames, a resumed
// stream starts with a frame clipped at the resume row, and shard parts
// concatenate into a valid stream. The frames themselves are clipped at
// chunk and shard boundaries, so — like gzip member framing — the bytes
// depend on where a table was split; the rows they decode to do not.
//
// The decoder lives with its consumers, in internal/scan.
type spansSink struct{}

func (spansSink) Name() string                  { return "spans" }
func (spansSink) Ext() string                   { return ".spans" }
func (spansSink) Align(int) (int, error)        { return 1, nil }
func (spansSink) Header(Layout) ([]byte, error) { return nil, nil }
func (spansSink) Footer(Layout) ([]byte, error) { return nil, nil }
func (spansSink) NewEncoder(Layout) Encoder     { return &spansEncoder{} }

// CheckLayout implements LayoutChecker: a frame anchors its run at the
// primary key, which therefore has to be the layout's first column.
// Projections are the reader's job for this format (the idx argument of
// tuplegen.FillSpan); one that keeps the pk first is still encodable,
// row runs being re-coalesced from the projected batches.
func (spansSink) CheckLayout(l Layout) error {
	if len(l.Cols) > 0 {
		if table, ok := strings.CutSuffix(l.Cols[0], "_pk"); ok && table == l.Table {
			return nil
		}
	}
	return fmt.Errorf("format \"spans\" anchors runs at the primary key: the layout must start with %s_pk (project on the reader instead)", l.Table)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type spansEncoder struct {
	body []byte  // scratch: the frame under construction
	vals []int64 // scratch: one batch row's tail
}

func (e *spansEncoder) AppendSpan(dst []byte, sp tuplegen.Span) []byte {
	fkSpans := sp.FKSpans
	if sp.ConstFKs() {
		fkSpans = nil
	}
	return e.appendFrame(dst, sp.Start, sp.N, sp.Off, sp.Vals, sp.FKs, fkSpans)
}

// AppendBatch re-coalesces the batch into runs: consecutive rows whose
// pk (column 0) increments while every other column repeats become one
// frame. A batch carries no run structure, so spread FKs come out as
// short runs — correct, just not compact; the engine only comes here
// for projected layouts.
func (e *spansEncoder) AppendBatch(dst []byte, b *tuplegen.Batch, _ int64) []byte {
	for i := 0; i < b.N; {
		j := i + 1
		for j < b.N && continuesRun(b, j) {
			j++
		}
		e.vals = e.vals[:0]
		for _, col := range b.Cols[1:] {
			e.vals = append(e.vals, col[i])
		}
		dst = e.appendFrame(dst, b.Cols[0][i], int64(j-i), 0, e.vals, nil, nil)
		i = j
	}
	return dst
}

// continuesRun reports whether row j of b extends the run row j-1 is in.
func continuesRun(b *tuplegen.Batch, j int) bool {
	if b.Cols[0][j] != b.Cols[0][j-1]+1 {
		return false
	}
	for _, col := range b.Cols[1:] {
		if col[j] != col[j-1] {
			return false
		}
	}
	return true
}

//hydra:hotpath
func (e *spansEncoder) appendFrame(dst []byte, start, n, off int64, vals, fks, fkSpans []int64) []byte {
	b := e.body[:0]
	b = binary.AppendUvarint(b, uint64(start))
	b = binary.AppendUvarint(b, uint64(n))
	b = binary.AppendUvarint(b, uint64(off))
	for _, v := range vals {
		b = binary.AppendVarint(b, v)
	}
	for _, fk := range fks {
		b = binary.AppendVarint(b, fk)
	}
	b = binary.AppendUvarint(b, uint64(len(fkSpans)))
	for _, s := range fkSpans {
		b = binary.AppendUvarint(b, uint64(s))
	}
	e.body = b
	at := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	dst = append(dst, b...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[at:], castagnoli))
}
