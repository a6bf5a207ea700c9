package format

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// Heap is the paged heap file behind the "disk scan" side of the
// paper's Fig. 15: a header page holding the table's name, columns and
// row count as JSON, then pages of densely packed little-endian int64
// rows, each zero-padded past its last whole row. Its alignment is a
// page's row capacity, so every chunk and shard starts a page; the
// header carries the exact row count, which the summary gives before
// generation starts.
var Heap = &Format{
	name: "heap", ext: ".heap", contentType: "application/octet-stream",
	align: func(l Layout) (int, error) {
		g, err := heapGeometry(len(l.Cols))
		return g.perPage, err
	},
	header: func(l Layout) ([]byte, error) {
		hb, err := json.Marshal(&heapHeader{Magic: heapMagic, Name: l.Table, Cols: l.Cols, NumRows: l.TotalRows})
		if err != nil {
			return nil, err
		}
		if len(hb) > pageSize {
			return nil, fmt.Errorf("heap header too large (%d bytes)", len(hb))
		}
		page := make([]byte, pageSize)
		copy(page, hb)
		return page, nil
	},
	// The footer pads the last page, where it is not full.
	footer: func(l Layout) ([]byte, error) {
		g, err := heapGeometry(len(l.Cols))
		if err != nil {
			return nil, err
		}
		rem := int(l.TotalRows % int64(g.perPage))
		if rem == 0 {
			return nil, nil
		}
		return zeroPage[:pageSize-rem*g.width], nil
	},
	encoder: func(l Layout) Encoder {
		g, err := heapGeometry(len(l.Cols))
		if err != nil {
			panic("format: heap encoder built for a layout Align rejected: " + err.Error())
		}
		return &heapEncoder{heapPage: g, idx: l.cols(), startRow: l.StartRow}
	},
	reader: func(br *bufio.Reader, p Part) (RunReader, error) {
		g, err := heapGeometry(len(p.Cols))
		if err != nil {
			return nil, err
		}
		if p.Header {
			// Shard 0 starts with the header page; its contents were already
			// interpreted via the manifest, so it is skipped, not parsed.
			if _, err := br.Discard(pageSize); err != nil {
				return nil, fmt.Errorf("skipping heap header page: %w", err)
			}
		}
		return &heapRuns{runTemplate: newRunTemplate(len(p.Cols), p.PKCol), br: br, heapPage: g}, nil
	},
}

// pageSize is the heap page size. 8 KiB matches PostgreSQL's default
// block size, keeping scan behaviour comparable to the paper's host
// engine.
const pageSize = 8192

const heapMagic = "HYDRAHF1"

// heapHeader is the header page's JSON payload.
type heapHeader struct {
	Magic   string   `json:"magic"`
	Name    string   `json:"name"`
	Cols    []string `json:"cols"`
	NumRows int64    `json:"num_rows"`
}

var zeroPage [pageSize]byte

// heapPage is the page geometry of a layout: the bytes of a row, the
// rows a page holds, and the zeros that pad a full page.
type heapPage struct{ width, perPage, pad int }

// heapGeometry is the one computation of the page geometry of ncols-wide
// rows, which the alignment, the footer, the encoder and the reader all
// take from here; a row wider than a page has none.
func heapGeometry(ncols int) (heapPage, error) {
	if ncols <= 0 {
		return heapPage{}, errors.New("heap relation needs at least one column")
	}
	g := heapPage{width: 8 * ncols, perPage: pageSize / (8 * ncols)}
	if g.perPage == 0 {
		return heapPage{}, fmt.Errorf("heap row of %d columns exceeds the page size", ncols)
	}
	g.pad = pageSize - g.perPage*g.width
	return g, nil
}

type heapEncoder struct {
	heapPage
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
func (e *heapEncoder) AppendSpan(dst []byte, sp tuplegen.Span) ([]byte, error) {
	if err := checkSpan(&sp); err != nil {
		return dst, err
	}
	w := e.width
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
			dst = append(dst, zeroPage[:e.pad]...)
			inPage = 0
		}
	}
	return dst, nil
}

// heapRuns reads a heap part a run at a time: a run's first row is
// decoded, and every row after it accepted with one compare against the
// same bytes with the pk slot stepped — the slot the encoder patches per
// row.
type heapRuns struct {
	runTemplate
	heapPage
	br     *bufio.Reader
	inPage int
	pred   []byte
	pace   pacer
}

func (h *heapRuns) Run(max int64) (*tuplegen.Span, error) {
	b, err := h.br.Peek(h.width)
	if err != nil {
		if len(b) > 0 && errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	for i := range h.row {
		h.row[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	n, err := h.extend(b, max)
	if err != nil {
		return nil, err
	}
	return h.span(n), nil
}

// extend consumes the run's first row, first, and accepts the rows
// after it that are byte for byte the prediction, stepping over page
// padding as it comes, and returns the run's length: at most max rows in
// all.
//
//hydra:hotpath
func (h *heapRuns) extend(first []byte, max int64) (int64, error) {
	predict := max > 1 && h.pace.try()
	if predict {
		h.pred = append(h.pred[:0], first...)
	}
	for n := int64(1); ; n++ {
		h.br.Discard(h.width)
		if h.inPage++; h.inPage == h.perPage {
			h.inPage = 0
			if _, err := h.br.Discard(h.pad); err != nil {
				return n, err
			}
		}
		if !predict {
			return n, nil
		}
		if n == max || !h.predict(n) {
			h.pace.record(n)
			return n, nil
		}
	}
}

// predict reports whether the next row is the one after the run's
// n-th: the first row's bytes with the pk slot stepped n times.
//
//hydra:hotpath
func (h *heapRuns) predict(n int64) bool {
	if h.pkCol >= 0 {
		pk := h.row[h.pkCol] + n - 1 // the last accepted row's
		if pk == math.MaxInt64 {
			return false
		}
		binary.LittleEndian.PutUint64(h.pred[8*h.pkCol:], uint64(pk+1))
	}
	b, err := h.br.Peek(h.width)
	return err == nil && bytes.Equal(b, h.pred)
}

// Skip is arithmetic: k rows and the padding of every page boundary
// crossed on the way are one discard.
func (h *heapRuns) Skip(k int64) error {
	to := int64(h.inPage) + k
	n := k*int64(h.width) + to/int64(h.perPage)*int64(h.pad)
	h.inPage = int(to % int64(h.perPage))
	_, err := h.br.Discard(int(n))
	return err
}

func (h *heapRuns) Close() int64 { return h.parsed }
