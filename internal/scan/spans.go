package scan

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// errSpanFrame marks a spans frame the decoder refused: bytes that are
// not what matgen's spans sink writes for the requested range. A remote
// scan treats it like any torn stream (resume at the last good row); a
// directory scan fails with it.
var errSpanFrame = errors.New("bad spans frame")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// spanDecoder reads the frames of matgen's "spans" format (layout
// documented on the sink) back into tuplegen.Spans. It reads bytes this
// process did not write, so everything a frame claims is checked before
// it is believed: the frame buffer and the value slices are sized once
// from the column count, never from a length field; the CRC must match;
// and the run must lie inside the range the caller asked for, after
// every row already delivered. A clean io.EOF between frames is the end
// of the stream; an EOF inside one is io.ErrUnexpectedEOF.
type spanDecoder struct {
	br   *bufio.Reader
	pos  int64 // rows [.., pos) are accounted for: the next run starts at pk > pos
	end  int64 // pk of the last row the stream may carry
	gaps bool  // filtered stream: runs may skip rows; otherwise they must tile
	buf  []byte
	tail []int64 // Vals ++ FKs of the last decoded span, which aliases it
	fks  []int64 // FKSpans of the last decoded span, ditto
}

// newSpanDecoder sizes a decoder for streams of ncols columns that carry
// rows [pos, end) — with gaps, if the stream is filtered.
func newSpanDecoder(ncols int, pos, end int64, gaps bool) *spanDecoder {
	// The length, then Start, N, Off, the spread count, and at most one
	// value and one span per non-pk column, each a varint; then the CRC.
	fields := 5 + 2*(ncols-1)
	return &spanDecoder{
		br:  bufio.NewReaderSize(nil, 4096),
		pos: pos, end: end, gaps: gaps,
		buf:  make([]byte, fields*binary.MaxVarintLen64+crc32.Size),
		tail: make([]int64, ncols-1),
		fks:  make([]int64, ncols-1),
	}
}

// read points the decoder at a stream that starts (or, after a torn
// one, continues) at row pos.
func (d *spanDecoder) read(r io.Reader) { d.br.Reset(r) }

// next decodes one frame. The span's slices are the decoder's own and
// are overwritten by the following call.
func (d *spanDecoder) next() (tuplegen.Span, error) {
	// The whole frame — length, body, CRC — lands in d.buf, so the CRC is
	// one pass over one slice.
	nlen := 0
	for more := true; more; nlen++ {
		c, err := d.br.ReadByte()
		if err != nil {
			if nlen > 0 && errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return tuplegen.Span{}, err
		}
		if nlen == binary.MaxVarintLen64 {
			return tuplegen.Span{}, d.bad("length overflows")
		}
		d.buf[nlen], more = c, c >= 0x80
	}
	size, n := binary.Uvarint(d.buf[:nlen])
	if maxBody := len(d.buf) - binary.MaxVarintLen64 - crc32.Size; n <= 0 || size == 0 || size > uint64(maxBody) {
		return tuplegen.Span{}, d.bad("length outside (0, %d]", maxBody)
	}
	end := nlen + int(size)
	if _, err := io.ReadFull(d.br, d.buf[nlen:end+crc32.Size]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return tuplegen.Span{}, err
	}
	body := d.buf[nlen:end]
	if got, sum := binary.LittleEndian.Uint32(d.buf[end:]), crc32.Checksum(d.buf[:end], castagnoli); got != sum {
		return tuplegen.Span{}, d.bad("crc %08x, computed %08x", got, sum)
	}

	var hdr [3]int64 // Start, N, Off
	for i := range hdr {
		v, n := binary.Uvarint(body)
		if n <= 0 || v > math.MaxInt64 {
			return tuplegen.Span{}, d.bad("header field %d overflows", i)
		}
		hdr[i], body = int64(v), body[n:]
	}
	sp := tuplegen.Span{Start: hdr[0], N: hdr[1], Off: hdr[2]}
	switch {
	case sp.N <= 0:
		return tuplegen.Span{}, d.bad("run of %d rows", sp.N)
	case sp.Start <= d.pos || sp.Start > d.end:
		return tuplegen.Span{}, d.bad("run starts at pk %d, outside [%d, %d]", sp.Start, d.pos+1, d.end)
	case !d.gaps && sp.Start != d.pos+1:
		return tuplegen.Span{}, d.bad("run starts at pk %d, want %d", sp.Start, d.pos+1)
	case sp.N > d.end-(sp.Start-1):
		return tuplegen.Span{}, d.bad("run [%d, +%d) ends past pk %d", sp.Start, sp.N, d.end)
	case sp.Off > math.MaxInt64-sp.N:
		return tuplegen.Span{}, d.bad("offset %d overflows", sp.Off)
	}
	for i := range d.tail {
		v, n := binary.Varint(body)
		if n <= 0 {
			return tuplegen.Span{}, d.bad("value %d truncated or overflowing", i)
		}
		d.tail[i], body = v, body[n:]
	}
	k, n := binary.Uvarint(body)
	if n <= 0 || k > uint64(len(d.tail)) {
		return tuplegen.Span{}, d.bad("spread count outside [0, %d]", len(d.tail))
	}
	body = body[n:]
	nvals := len(d.tail) - int(k)
	sp.Vals, sp.FKs = d.tail[:nvals], d.tail[nvals:]
	if k > 0 {
		sp.FKSpans = d.fks[:k]
		for i := range sp.FKSpans {
			v, n := binary.Uvarint(body)
			if n <= 0 || v < 1 || v > math.MaxInt64 {
				return tuplegen.Span{}, d.bad("FK span %d outside [1, MaxInt64]", i)
			}
			sp.FKSpans[i], body = int64(v), body[n:]
		}
	}
	if len(body) != 0 {
		return tuplegen.Span{}, d.bad("%d trailing bytes", len(body))
	}
	d.pos = sp.Start - 1 + sp.N
	return sp, nil
}

func (d *spanDecoder) bad(format string, args ...any) error {
	return fmt.Errorf("%w after row %d: %s", errSpanFrame, d.pos, fmt.Sprintf(format, args...))
}

// advance drops the first k tuples of sp.
func advance(sp *tuplegen.Span, k int64) {
	sp.Start, sp.Off, sp.N = sp.Start+k, sp.Off+k, sp.N-k
}

// spansReader is DirSource's rowReader over a spans part: the row-at-a-
// time peer of the csv, jsonl and heap readers. Skipping is arithmetic —
// whole runs are stepped over without producing a row.
type spansReader struct {
	dec *spanDecoder
	cur tuplegen.Span // undelivered rest of the last decoded run
}

// newSpansReader reads a part holding rows [start, start+rows).
func newSpansReader(r io.Reader, ncols int, start, rows int64) *spansReader {
	dec := newSpanDecoder(ncols, start, start+rows, false)
	dec.read(r)
	return &spansReader{dec: dec}
}

func (s *spansReader) load() (err error) {
	if s.cur.N == 0 {
		s.cur, err = s.dec.next()
	}
	return err
}

func (s *spansReader) next(dst []int64) error {
	if err := s.load(); err != nil {
		return err
	}
	sp := &s.cur
	dst[0] = sp.Start
	fks := dst[1+copy(dst[1:], sp.Vals):]
	for c, fk := range sp.FKs {
		if sp.FKSpans != nil && sp.FKSpans[c] > 1 {
			fk += sp.Off % sp.FKSpans[c]
		}
		fks[c] = fk
	}
	advance(sp, 1)
	return nil
}

func (s *spansReader) skip(k int64) error {
	for k > 0 {
		if err := s.load(); err != nil {
			return err
		}
		m := min(k, s.cur.N)
		advance(&s.cur, m)
		k -= m
	}
	return nil
}
