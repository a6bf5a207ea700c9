package scan

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"

	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/storage"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// DirSource scans a materialized shard directory — the output of
// Materialize or Orchestrate — by decoding the part files against their
// manifests. Formats csv, jsonl, heap, and spans are scannable (plus any
// of them gzip-compressed); sql is an import artifact, not a scan target.
//
// Checksums are verified lazily: the first time a scan opens a part
// file, the file is re-hashed against the manifest's SHA-256 before a
// single row is decoded, so a scan never silently reads a corrupted or
// tampered part — but parts no scan touches cost nothing (contrast
// orchestrate.Verify, which proves the whole directory up front).
type DirSource struct {
	dir    string
	format string
	comp   matgen.Compressor
	tables map[string]*dirTable
	m      *backendMetrics
}

var _ Source = (*DirSource)(nil)

type dirTable struct {
	info  TableInfo
	parts []dirPart // sorted by start row
}

type dirPart struct {
	path     string
	start    int64 // absolute 0-based offset of the part's first row
	rows     int64
	checksum string
	header   bool // shard 0: csv header line / heap header page present
}

var manifestNameRe = regexp.MustCompile(`^manifest-\d{3}-of-\d{3}\.json$`)

// OpenDir opens a materialized directory for scanning: it reads every
// shard manifest present, checks they describe one consistent run
// (format, codec, split width), and indexes each table's parts. The
// directory may hold any subset of a split's shards; scans fail only if
// they reach a row no present part covers.
func OpenDir(dir string) (*DirSource, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var manifests []*matgen.Manifest
	for _, e := range entries {
		if e.IsDir() || !manifestNameRe.MatchString(e.Name()) {
			continue
		}
		m, err := matgen.ReadManifest(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		manifests = append(manifests, m)
	}
	if len(manifests) == 0 {
		return nil, fmt.Errorf("scan: %s holds no shard manifests; materialize first", dir)
	}
	s := &DirSource{dir: dir, format: manifests[0].Format, tables: map[string]*dirTable{},
		m: metricsForBackend("dir")}
	switch s.format {
	case "csv", "jsonl", "heap", "spans":
	default:
		return nil, fmt.Errorf("scan: format %q is not scannable (csv, jsonl, heap, spans are)", s.format)
	}
	if s.comp, err = matgen.CompressorFor(manifests[0].Compression); err != nil {
		return nil, err
	}
	for _, m := range manifests {
		if m.Format != s.format || m.Compression != manifests[0].Compression {
			return nil, fmt.Errorf("scan: %s mixes materialization runs (%s+%s vs %s+%s)",
				dir, m.Format, m.Compression, s.format, manifests[0].Compression)
		}
		if m.Shards != manifests[0].Shards {
			return nil, fmt.Errorf("scan: %s mixes split widths %d and %d", dir, m.Shards, manifests[0].Shards)
		}
		for _, tr := range m.Tables {
			if tr.Path == "" || tr.Rows == 0 {
				continue
			}
			if len(tr.Cols) == 0 {
				return nil, fmt.Errorf("scan: %s: manifest for %s records no column layout; re-materialize with a current build",
					dir, tr.Table)
			}
			t := s.tables[tr.Table]
			if t == nil {
				t = &dirTable{info: TableInfo{Table: tr.Table, Cols: tr.Cols, Rows: tr.TotalRows}}
				s.tables[tr.Table] = t
			} else if t.info.Rows != tr.TotalRows || !slices.Equal(t.info.Cols, tr.Cols) {
				// Name-and-order equality, not just width: two same-width
				// projections of the same table would otherwise decode
				// positionally into swapped columns with no error.
				return nil, fmt.Errorf("scan: %s: manifests disagree on %s's layout", dir, tr.Table)
			}
			t.parts = append(t.parts, dirPart{
				path:     filepath.Join(dir, filepath.Base(tr.Path)),
				start:    tr.StartRow,
				rows:     tr.Rows,
				checksum: tr.Checksum,
				header:   m.Shard == 0,
			})
		}
	}
	for _, t := range s.tables {
		sort.Slice(t.parts, func(i, j int) bool { return t.parts[i].start < t.parts[j].start })
	}
	return s, nil
}

// Dir returns the directory being scanned.
func (s *DirSource) Dir() string { return s.dir }

// Format returns the materialization format the directory holds.
func (s *DirSource) Format() string { return s.format }

// Tables implements Source.
func (s *DirSource) Tables() ([]string, error) { return sortedNames(s.tables), nil }

// Table implements Source.
func (s *DirSource) Table(name string) (*TableInfo, error) {
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s holds no relation %q", ErrSpec, s.dir, name)
	}
	info := t.info
	info.Cols = append([]string(nil), info.Cols...)
	return &info, nil
}

// Scan implements Source. Spec.FKSpread is ignored: the directory's
// bytes already fixed the FK layout at materialization time, so a
// conforming scan requires the spec to match how the directory was
// generated.
func (s *DirSource) Scan(ctx context.Context, spec Spec) (*Scan, error) {
	t, ok := s.tables[spec.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %s holds no relation %q", ErrSpec, s.dir, spec.Table)
	}
	r, err := resolve(spec, &t.info)
	if err != nil {
		return nil, err
	}
	f := &dirFiller{src: s, t: t, proj: r.proj, ncolsOut: len(r.cols), pi: -1,
		row: make([]int64, len(t.info.Cols))}
	if r.filtered {
		f.filtered, f.filt = true, r.filt
		// A restriction on the pk column doubles as a seek accelerator:
		// decoded layouts store pk abs+1 at absolute row abs, so the
		// filler can jump straight to the next admissible key — and a
		// jump past a part's end means that part is never opened, never
		// hashed, never decoded.
		for i, name := range t.info.Cols {
			if name == spec.Table+"_pk" {
				if set, ok := r.filt.Restriction(i); ok {
					f.pkSet, f.hasPK = set, true
				}
				break
			}
		}
	}
	return newScan(ctx, r, f, s.m), nil
}

// Close implements Source; open part files belong to scans, not the
// source.
func (s *DirSource) Close() error { return nil }

// dirFiller sequentially decodes a table's part files. Under a filter
// it decodes every candidate row into the full file layout, evaluates
// the bound conjunct, and keeps only the matches — except rows a pk
// restriction excludes, which are skipped (cheap line/page skips within
// a part, whole parts never even opened when the next admissible key
// lies beyond them).
type dirFiller struct {
	src      *DirSource
	t        *dirTable
	proj     []int
	ncolsOut int
	filtered bool
	filt     pred.Conjunct
	pkSet    pred.Set
	hasPK    bool

	pi       int // index of the open part, -1 before the first open
	rr       rowReader
	closers  []io.Closer
	pos      int64 // absolute row the open reader yields next
	partLeft int64 // rows remaining in the open part
	row      []int64
}

// fillCheckRows is how often the dir decode loop polls the context: a
// few thousand rows decode in well under a millisecond, so cancellation
// stays prompt without a per-row atomic load.
const fillCheckRows = 4096

func (f *dirFiller) fill(ctx context.Context, b *tuplegen.Batch, lo, hi int64) error {
	n := int(hi - lo)
	cols := prepBatch(b, f.ncolsOut, n, lo)
	if f.filtered {
		return f.fillFiltered(ctx, b, cols, lo, hi)
	}
	for i := 0; i < n; i++ {
		if i%fillCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		abs := lo + int64(i)
		if err := f.seek(ctx, abs); err != nil {
			return err
		}
		if err := f.rr.next(f.row); err != nil {
			p := f.t.parts[f.pi]
			return fmt.Errorf("scan: %s: row %d: %w", p.path, abs, err)
		}
		if f.proj == nil {
			for c := range cols {
				cols[c][i] = f.row[c]
			}
		} else {
			for c, src := range f.proj {
				cols[c][i] = f.row[src]
			}
		}
		f.pos++
		f.partLeft--
	}
	return nil
}

// fillFiltered decodes the cell's candidate rows and keeps the matches;
// a pk restriction turns candidates into jumps.
func (f *dirFiller) fillFiltered(ctx context.Context, b *tuplegen.Batch, cols [][]int64, lo, hi int64) error {
	out := 0
	for i, abs := 0, lo; abs < hi; i, abs = i+1, abs+1 {
		if i%fillCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if f.hasPK {
			pk, ok := f.pkSet.Next(abs + 1)
			if !ok || pk > hi {
				break // no admissible key left in this cell
			}
			abs = pk - 1
		}
		if err := f.seek(ctx, abs); err != nil {
			return err
		}
		if err := f.rr.next(f.row); err != nil {
			p := f.t.parts[f.pi]
			return fmt.Errorf("scan: %s: row %d: %w", p.path, abs, err)
		}
		f.pos++
		f.partLeft--
		if !f.filt.Eval(f.row) {
			continue
		}
		if f.proj == nil {
			for c := range cols {
				cols[c][out] = f.row[c]
			}
		} else {
			for c, src := range f.proj {
				cols[c][out] = f.row[src]
			}
		}
		out++
	}
	b.N = out
	return nil
}

// seek positions the filler at absolute row abs: a no-op when already
// there, a cheap in-part skip when abs lies further inside the open
// part, and a full openAt (locate part, verify checksum, rebuild the
// decode stack) otherwise.
func (f *dirFiller) seek(ctx context.Context, abs int64) error {
	if f.rr != nil && f.partLeft > 0 && abs >= f.pos {
		if end := f.t.parts[f.pi].start + f.t.parts[f.pi].rows; abs < end {
			if abs > f.pos {
				if err := f.rr.skip(abs - f.pos); err != nil {
					return fmt.Errorf("scan: %s: skipping to row %d: %w", f.t.parts[f.pi].path, abs, err)
				}
				f.partLeft -= abs - f.pos
				f.pos = abs
			}
			return nil
		}
	}
	return f.openAt(ctx, abs)
}

// openAt positions the filler at absolute row abs: close the open part,
// locate the part covering abs, verify its checksum, build the decode
// stack, and skip to abs within it.
func (f *dirFiller) openAt(ctx context.Context, abs int64) error {
	f.close()
	pi := sort.Search(len(f.t.parts), func(i int) bool {
		p := f.t.parts[i]
		return p.start+p.rows > abs
	})
	if pi == len(f.t.parts) || f.t.parts[pi].start > abs {
		return fmt.Errorf("scan: %s: no part of %s covers row %d (directory holds a partial split?)",
			f.src.dir, f.t.info.Table, abs)
	}
	p := f.t.parts[pi]
	file, err := os.Open(p.path)
	if err != nil {
		return err
	}
	if p.checksum != "" {
		// The lazy verification hash reads the whole part, which can be
		// large — copy in bounded slices so a canceled scan (timeout,
		// Ctrl-C) aborts between them instead of hashing to the end.
		h := sha256.New()
		buf := make([]byte, 1<<20)
		for {
			if err := ctx.Err(); err != nil {
				file.Close()
				return err
			}
			n, err := file.Read(buf)
			h.Write(buf[:n])
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				file.Close()
				return fmt.Errorf("scan: %s: %w", p.path, err)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != p.checksum {
			file.Close()
			return fmt.Errorf("scan: %s: sha256 %s does not match manifest %s — part is corrupt or tampered",
				p.path, got, p.checksum)
		}
		if _, err := file.Seek(0, io.SeekStart); err != nil {
			file.Close()
			return err
		}
	}
	f.closers = append(f.closers, file)
	var r io.Reader = bufio.NewReaderSize(file, 1<<18)
	if f.src.comp != nil {
		zr, err := f.src.comp.NewReader(r)
		if err != nil {
			f.close()
			return fmt.Errorf("scan: %s: %w", p.path, err)
		}
		f.closers = append(f.closers, zr)
		r = zr
	}
	rr, err := newRowReader(f.src.format, r, f.t.info.Cols, p)
	if err != nil {
		f.close()
		return fmt.Errorf("scan: %s: %w", p.path, err)
	}
	if err := rr.skip(abs - p.start); err != nil {
		f.close()
		return fmt.Errorf("scan: %s: skipping to row %d: %w", p.path, abs, err)
	}
	f.pi, f.rr, f.pos, f.partLeft = pi, rr, abs, p.start+p.rows-abs
	return nil
}

func (f *dirFiller) close() error {
	var first error
	for i := len(f.closers) - 1; i >= 0; i-- {
		if err := f.closers[i].Close(); first == nil {
			first = err
		}
	}
	f.closers = f.closers[:0]
	f.rr = nil
	return first
}

// rowReader decodes one part file's rows sequentially. next fills dst
// (one value per file-layout column); skip discards k rows, cheaper
// than decoding them where the format allows.
type rowReader interface {
	next(dst []int64) error
	skip(k int64) error
}

func newRowReader(format string, r io.Reader, cols []string, p dirPart) (rowReader, error) {
	switch format {
	case "csv":
		return newCSVReader(r, len(cols), p.header)
	case "jsonl":
		return newJSONLReader(r, cols), nil
	case "heap":
		return newHeapReader(r, len(cols), p.header)
	case "spans":
		return newSpansReader(r, len(cols), p.start, p.rows), nil
	default:
		return nil, fmt.Errorf("format %q is not scannable", format)
	}
}

// --- csv ---

type csvReader struct {
	br    *bufio.Reader
	ncols int
}

// maxCSVCell is the longest rendering of an int64 ("-9223372036854775808")
// plus its separator.
const maxCSVCell = 21

func newCSVReader(r io.Reader, ncols int, header bool) (*csvReader, error) {
	// Rows are decoded in place from the reader's buffer, so it must hold
	// the widest row the layout can produce; a longer line is malformed.
	cr := &csvReader{br: bufio.NewReaderSize(r, max(4096, ncols*maxCSVCell+1)), ncols: ncols}
	if header {
		if err := cr.skipLine(); err != nil {
			return nil, fmt.Errorf("reading csv header: %w", err)
		}
	}
	return cr, nil
}

func (c *csvReader) skipLine() error {
	for {
		_, err := c.br.ReadSlice('\n')
		if err == nil {
			return nil
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return err
		}
	}
}

func (c *csvReader) skip(k int64) error {
	for ; k > 0; k-- {
		if err := c.skipLine(); err != nil {
			return err
		}
	}
	return nil
}

// next decodes one row straight out of the read buffer: no line copy, no
// per-cell string, no allocation.
func (c *csvReader) next(dst []int64) error {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		if errors.Is(err, bufio.ErrBufferFull) {
			return fmt.Errorf("csv row longer than %d bytes", c.br.Size())
		}
		if !errors.Is(err, io.EOF) || len(line) == 0 {
			return err
		}
		// A final row without its newline is still a row.
	}
	line = trimEOL(line)
	for i := 0; i < c.ncols; i++ {
		cell := line
		if i < c.ncols-1 {
			j := bytes.IndexByte(line, ',')
			if j < 0 {
				return fmt.Errorf("csv row has %d of %d columns", i+1, c.ncols)
			}
			cell, line = line[:j], line[j+1:]
		} else if bytes.IndexByte(line, ',') >= 0 {
			return fmt.Errorf("csv row has more than %d columns", c.ncols)
		}
		v, err := parseInt(cell)
		if err != nil {
			return fmt.Errorf("csv cell %d: parsing %q: %w", i, cell, err)
		}
		dst[i] = v
	}
	return nil
}

var (
	errIntSyntax = errors.New("invalid syntax")
	errIntRange  = errors.New("value out of range")
)

// parseInt is strconv.ParseInt(string(b), 10, 64) without the string:
// an optional sign, then decimal digits only, overflow-checked.
func parseInt(b []byte) (int64, error) {
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg, b = b[0] == '-', b[1:]
	}
	if len(b) == 0 {
		return 0, errIntSyntax
	}
	const minMagnitude = 1 << 63 // |math.MinInt64|
	var u uint64
	for _, ch := range b {
		d := ch - '0' // wraps far above 9 for bytes below '0'
		if d > 9 {
			return 0, errIntSyntax
		}
		if u > minMagnitude/10 {
			return 0, errIntRange
		}
		if u = u*10 + uint64(d); u > minMagnitude {
			return 0, errIntRange
		}
	}
	if neg {
		return -int64(u), nil // u == 1<<63 wraps to MinInt64, as it should
	}
	if u == minMagnitude {
		return 0, errIntRange
	}
	return int64(u), nil
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

// --- jsonl ---

type jsonlReader struct {
	br   *bufio.Reader
	keys map[string]int // column name → file-layout position
	vals map[string]int64
}

func newJSONLReader(r io.Reader, cols []string) *jsonlReader {
	keys := make(map[string]int, len(cols))
	for i, name := range cols {
		keys[name] = i
	}
	return &jsonlReader{br: bufio.NewReader(r), keys: keys, vals: make(map[string]int64, len(cols))}
}

func (j *jsonlReader) skip(k int64) error {
	for ; k > 0; k-- {
		for {
			_, err := j.br.ReadSlice('\n')
			if err == nil {
				break
			}
			if !errors.Is(err, bufio.ErrBufferFull) {
				return err
			}
		}
	}
	return nil
}

func (j *jsonlReader) next(dst []int64) error {
	line, err := j.br.ReadBytes('\n')
	if err != nil && (!errors.Is(err, io.EOF) || len(line) == 0) {
		return err
	}
	clear(j.vals)
	if err := json.Unmarshal(line, &j.vals); err != nil {
		return fmt.Errorf("jsonl row: %w", err)
	}
	if len(j.vals) != len(dst) {
		return fmt.Errorf("jsonl row has %d of %d columns", len(j.vals), len(dst))
	}
	for name, v := range j.vals {
		i, ok := j.keys[name]
		if !ok {
			return fmt.Errorf("jsonl row has unknown column %q", name)
		}
		dst[i] = v
	}
	return nil
}

// --- heap (internal/storage page format) ---

type heapReader struct {
	r       io.Reader
	ncols   int
	perPage int
	pagePad int
	inPage  int
	buf     []byte
}

func newHeapReader(r io.Reader, ncols int, header bool) (*heapReader, error) {
	perPage, err := storage.RowsPerPage(ncols)
	if err != nil {
		return nil, err
	}
	h := &heapReader{
		r: r, ncols: ncols, perPage: perPage,
		pagePad: storage.PageSize - perPage*8*ncols,
		buf:     make([]byte, 8*ncols),
	}
	if header {
		// Shard 0 starts with the header page; its contents were already
		// interpreted via the manifest, so it is skipped, not parsed.
		if _, err := io.CopyN(io.Discard, r, storage.PageSize); err != nil {
			return nil, fmt.Errorf("skipping heap header page: %w", err)
		}
	}
	return h, nil
}

func (h *heapReader) advancePage() error {
	h.inPage++
	if h.inPage == h.perPage {
		if _, err := io.CopyN(io.Discard, h.r, int64(h.pagePad)); err != nil {
			return err
		}
		h.inPage = 0
	}
	return nil
}

func (h *heapReader) skip(k int64) error {
	for ; k > 0; k-- {
		if _, err := io.CopyN(io.Discard, h.r, int64(8*h.ncols)); err != nil {
			return err
		}
		if err := h.advancePage(); err != nil {
			return err
		}
	}
	return nil
}

func (h *heapReader) next(dst []int64) error {
	if _, err := io.ReadFull(h.r, h.buf); err != nil {
		return err
	}
	for i := 0; i < h.ncols; i++ {
		dst[i] = int64(binary.LittleEndian.Uint64(h.buf[8*i:]))
	}
	return h.advancePage()
}
