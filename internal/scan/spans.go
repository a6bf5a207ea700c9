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
	sp   tuplegen.Span // the last decoded run
	tail []int64       // its Vals ++ FKs, which alias this
	fks  []int64       // its FKSpans, ditto
}

// newSpanDecoder sizes a decoder for streams of ncols columns that carry
// rows [pos, end) — with gaps, if the stream is filtered.
func newSpanDecoder(ncols int, pos, end int64, gaps bool) *spanDecoder {
	// The length, then Start, N, Off, the spread count, and at most one
	// value and one span per non-pk column, each a varint; then the CRC.
	fields := 5 + 2*(ncols-1)
	return &spanDecoder{
		pos: pos, end: end, gaps: gaps,
		buf:  make([]byte, fields*binary.MaxVarintLen64+crc32.Size),
		tail: make([]int64, ncols-1),
		fks:  make([]int64, ncols-1),
	}
}

// read points the decoder at a stream that starts (or, after a torn
// one, continues) at row pos. The first call sizes the decoder's read
// buffer; a caller that already buffers sets br instead.
func (d *spanDecoder) read(r io.Reader) {
	if d.br == nil {
		d.br = bufio.NewReaderSize(r, 4096)
		return
	}
	d.br.Reset(r)
}

// next decodes one frame. The span is the decoder's own and is
// overwritten by the following call.
func (d *spanDecoder) next() (*tuplegen.Span, error) {
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

func (d *spanDecoder) bad(format string, args ...any) error {
	return fmt.Errorf("%w after row %d: %s", errSpanFrame, d.pos, fmt.Sprintf(format, args...))
}

// spansRuns is DirSource's runReader over a spans part: its runs are
// the decoded frames themselves, whole (a frame never crosses the part's
// end), and it skips by arithmetic — whole frames are stepped over
// without producing a row. A skip that ends inside a frame holds the
// rest of it for the next run.
type spansRuns struct {
	dec  *spanDecoder
	held bool // dec.sp is the rest of a frame a skip ended inside
}

func (s *spansRuns) run(int64) (*tuplegen.Span, error) {
	if s.held {
		s.held = false
		return &s.dec.sp, nil
	}
	return s.dec.next()
}

func (s *spansRuns) skip(k int64) error {
	for k > 0 {
		sp, err := s.run(k)
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
