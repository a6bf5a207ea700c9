package format

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strings"

	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// Spans is the run-native format: where every other format renders a
// summary-row run into its N tuples, this one writes the run itself, so
// thousands of rows cost a few dozen bytes and a reader rebuilds them
// with tuplegen.Batch.FillSpan — the one format only a summary-based
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
// concatenate into a valid stream. Frames are clipped at chunk
// boundaries, and shards split a table on the chunk grid, so — like
// gzip member framing — the bytes depend on the chunk size a table was
// written with; the rows they decode to do not.
//
// A frame anchors its run at the primary key, which therefore has to be
// the layout's first column. Projections are the reader's job for this
// format (the idx argument of tuplegen.Batch.FillSpan); one that keeps
// the pk first is still encodable, as frames of the laid-out tail.
var Spans = &Format{
	name: "spans", ext: ".spans", contentType: "application/vnd.hydra.spans",
	align: func(l Layout) (int, error) {
		if len(l.Cols) > 0 {
			if table, ok := strings.CutSuffix(l.Cols[0], "_pk"); ok && table == l.Table {
				return 1, nil
			}
		}
		return 0, fmt.Errorf("format \"spans\" anchors runs at the primary key: the layout must start with %s_pk (project on the reader instead)", l.Table)
	},
	encoder: func(l Layout) Encoder { return &spansEncoder{idx: l.Idx} },
	// A spans part's runs are its decoded frames, whole (a frame never
	// crosses the part's end).
	reader: func(br *bufio.Reader, p Part) (RunReader, error) {
		dec := NewSpanDecoder(len(p.Cols), p.Start, p.Start+p.Rows, false)
		dec.br = br
		return &spansRuns{dec: dec}, nil
	},
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type spansEncoder struct {
	idx  []int   // Layout.Idx: nil, or the pk then the laid-out tail
	body []byte  // scratch: the frame under construction
	vals []int64 // scratch: a projected frame's tail
}

// AppendSpan writes the span's own frame. Under a projection it writes
// the laid-out tail instead: one frame for the run, or one per row where
// a laid-out FK spreads. Runs that the projection makes equal are not
// merged, so projected frame boundaries are the summary's.
func (e *spansEncoder) AppendSpan(dst []byte, sp tuplegen.Span) ([]byte, error) {
	if err := checkSpan(&sp); err != nil {
		return dst, err
	}
	if e.idx == nil {
		fkSpans := sp.FKSpans // written only where some FK spreads
		if !slices.ContainsFunc(fkSpans, func(s int64) bool { return s > 1 }) {
			fkSpans = nil
		}
		return e.appendFrame(dst, sp.Start, sp.N, sp.Off, sp.Vals, sp.FKs, fkSpans), nil
	}
	tail := e.idx[1:]
	frames, n := int64(1), sp.N
	if slices.ContainsFunc(tail, sp.Spreads) {
		frames, n = sp.N, 1
	}
	for i := range frames {
		e.vals = e.vals[:0]
		for _, src := range tail {
			e.vals = append(e.vals, sp.At(src, i))
		}
		dst = e.appendFrame(dst, sp.Start+i, n, 0, e.vals, nil, nil)
	}
	return dst, nil
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

// ErrSpanFrame marks a spans frame the decoder refused: bytes that are
// not what the encoder writes for the requested range. A remote scan
// treats it like any torn stream (resume at the last good row); a
// directory scan fails with it.
var ErrSpanFrame = errors.New("bad spans frame")

// SpanDecoder reads the frames of the spans format (see Spans) back
// into tuplegen.Spans. It reads bytes this process did not write, so
// everything a frame claims is checked before it is believed: the frame buffer and the value slices are sized once
// from the column count, never from a length field; the CRC must match;
// and the run must lie inside the range the caller asked for, after
// every row already delivered. A clean io.EOF between frames is the end
// of the stream; an EOF inside one is io.ErrUnexpectedEOF.
type SpanDecoder struct {
	br   *bufio.Reader
	pos  int64 // rows [.., pos) are accounted for: the next run starts at pk > pos
	end  int64 // pk of the last row the stream may carry
	gaps bool  // filtered stream: runs may skip rows; otherwise they must tile
	buf  []byte
	sp   tuplegen.Span // the last decoded run
	tail []int64       // its Vals ++ FKs, which alias this
	fks  []int64       // its FKSpans, ditto
}

// NewSpanDecoder sizes a decoder for streams of ncols columns that carry
// rows [pos, end) — with gaps, if the stream is filtered.
func NewSpanDecoder(ncols int, pos, end int64, gaps bool) *SpanDecoder {
	// The length, then Start, N, Off, the spread count, and at most one
	// value and one span per non-pk column, each a varint; then the CRC.
	fields := 5 + 2*(ncols-1)
	return &SpanDecoder{
		pos: pos, end: end, gaps: gaps,
		buf:  make([]byte, fields*binary.MaxVarintLen64+crc32.Size),
		tail: make([]int64, ncols-1),
		fks:  make([]int64, ncols-1),
	}
}

// Read points the decoder at a stream that starts (or, after a torn
// one, continues) at row pos. The first call sizes the decoder's read
// buffer; a caller that already buffers sets br instead.
func (d *SpanDecoder) Read(r io.Reader) {
	if d.br == nil {
		d.br = bufio.NewReaderSize(r, 4096)
		return
	}
	d.br.Reset(r)
}

// Next decodes one frame. The span is the decoder's own and is
// overwritten by the following call.
func (d *SpanDecoder) Next() (*tuplegen.Span, error) {
	// The whole frame — length, body, CRC — lands in d.buf, so the CRC is
	// one pass over one slice.
	nlen := 0
	for more := true; more; nlen++ {
		c, err := d.br.ReadByte()
		if err != nil {
			if nlen > 0 && errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if nlen == binary.MaxVarintLen64 {
			return nil, d.bad("length overflows")
		}
		d.buf[nlen], more = c, c >= 0x80
	}
	size, n := binary.Uvarint(d.buf[:nlen])
	if maxBody := len(d.buf) - binary.MaxVarintLen64 - crc32.Size; n <= 0 || size == 0 || size > uint64(maxBody) {
		return nil, d.bad("length outside (0, %d]", maxBody)
	}
	end := nlen + int(size)
	if _, err := io.ReadFull(d.br, d.buf[nlen:end+crc32.Size]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	body := d.buf[nlen:end]
	if got, sum := binary.LittleEndian.Uint32(d.buf[end:]), crc32.Checksum(d.buf[:end], castagnoli); got != sum {
		return nil, d.bad("crc %08x, computed %08x", got, sum)
	}

	var hdr [3]int64 // Start, N, Off
	for i := range hdr {
		v, n := binary.Uvarint(body)
		if n <= 0 || v > math.MaxInt64 {
			return nil, d.bad("header field %d overflows", i)
		}
		hdr[i], body = int64(v), body[n:]
	}
	sp := &d.sp
	*sp = tuplegen.Span{Start: hdr[0], N: hdr[1], Off: hdr[2]}
	switch {
	case sp.N <= 0:
		return nil, d.bad("run of %d rows", sp.N)
	case sp.Start <= d.pos || sp.Start > d.end:
		return nil, d.bad("run starts at pk %d, outside [%d, %d]", sp.Start, d.pos+1, d.end)
	case !d.gaps && sp.Start != d.pos+1:
		return nil, d.bad("run starts at pk %d, want %d", sp.Start, d.pos+1)
	case sp.N > d.end-(sp.Start-1):
		return nil, d.bad("run [%d, +%d) ends past pk %d", sp.Start, sp.N, d.end)
	case sp.Off > math.MaxInt64-sp.N:
		return nil, d.bad("offset %d overflows", sp.Off)
	}
	for i := range d.tail {
		v, n := binary.Varint(body)
		if n <= 0 {
			return nil, d.bad("value %d truncated or overflowing", i)
		}
		d.tail[i], body = v, body[n:]
	}
	k, n := binary.Uvarint(body)
	if n <= 0 || k > uint64(len(d.tail)) {
		return nil, d.bad("spread count outside [0, %d]", len(d.tail))
	}
	body = body[n:]
	nvals := len(d.tail) - int(k)
	sp.Vals, sp.FKs = d.tail[:nvals], d.tail[nvals:]
	if k > 0 {
		sp.FKSpans = d.fks[:k]
		for i := range sp.FKSpans {
			v, n := binary.Uvarint(body)
			if n <= 0 || v < 1 || v > math.MaxInt64 {
				return nil, d.bad("FK span %d outside [1, MaxInt64]", i)
			}
			sp.FKSpans[i], body = int64(v), body[n:]
		}
	}
	if len(body) != 0 {
		return nil, d.bad("%d trailing bytes", len(body))
	}
	d.pos = sp.Start - 1 + sp.N
	return sp, nil
}

// Pos is the row the stream has reached: the next run starts at pk
// Pos()+1 or later.
func (d *SpanDecoder) Pos() int64 { return d.pos }

// End is the pk of the last row the stream may carry.
func (d *SpanDecoder) End() int64 { return d.end }

func (d *SpanDecoder) bad(format string, args ...any) error {
	return fmt.Errorf("%w after row %d: %s", ErrSpanFrame, d.pos, fmt.Sprintf(format, args...))
}

// spansRuns reads a spans part: its runs are the decoded frames
// themselves, whole (a frame never crosses the part's end), and it skips
// by arithmetic — whole frames are stepped over
// without producing a row. A skip that ends inside a frame holds the
// rest of it for the next run.
type spansRuns struct {
	dec  *SpanDecoder
	held bool // dec.sp is the rest of a frame a skip ended inside
}

func (s *spansRuns) Run(int64) (*tuplegen.Span, error) {
	if s.held {
		s.held = false
		return &s.dec.sp, nil
	}
	return s.dec.Next()
}

func (s *spansRuns) Skip(k int64) error {
	for k > 0 {
		sp, err := s.Run(k)
		if err != nil {
			return err
		}
		if sp.N > k {
			sp.Start, sp.Off, sp.N = sp.Start+k, sp.Off+k, sp.N-k
			s.held = true
			return nil
		}
		k -= sp.N
	}
	return nil
}

func (s *spansRuns) Close() int64 { return 0 }
