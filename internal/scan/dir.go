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
	"sync"
	"time"

	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/obs"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/storage"
	"github.com/dsl-repro/hydra/internal/trace"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// Directory-backend counters, the two costs of a scan that are not its
// rows: bytes hashed to verify a part before reading it, and rows
// stepped over without being delivered.
var (
	mDirVerifyBytes = obs.Default.Counter("hydra_scan_dir_verify_bytes_total",
		"part-file bytes hashed against the manifest's SHA-256 before a scan read them")
	mDirSkippedRows = obs.Default.Counter("hydra_scan_dir_skipped_rows_total",
		"rows a directory scan decoded past without delivering: the remainder after a chunk seek, and rows a pk restriction excludes")
)

// DirSource scans a materialized shard directory — the output of
// Materialize or Orchestrate — by decoding the part files against their
// manifests. Formats csv, jsonl, heap, and spans are scannable (plus any
// of them gzip-compressed); sql is an import artifact, not a scan target.
//
// Checksums are verified lazily, once: a part is hashed against the
// manifest's SHA-256 before the first row this source decodes from it,
// and again before the next row whenever the file opened has a different
// size, mtime or identity than the one that was hashed — so a scan never
// silently reads a corrupted, replaced or rewritten part, parts no scan
// touches cost nothing, and a part scanned a thousand times is hashed
// once. What that stamp cannot see is a same-size rewrite in place that
// lands within the filesystem's timestamp granularity of the hash;
// orchestrate.Verify, which proves the whole directory up front, remains
// the check to run after shipping or suspecting one.
//
// A ranged scan does not read its way to its first row: the manifest's
// chunk index (matgen.TableReport.Offsets) gives the byte offset of
// every chunk the part was written in, a chunk starts a line, a heap
// page, a spans frame and a compressed member all at once, and the scan
// seeks to the chunk holding its start row and steps over fewer than
// chunk_rows rows. The manifest is not checksummed, so a seek is
// checked, not trusted: the index must fit the part's row count and
// size (matgen.ReadManifest), a csv or jsonl offset must follow a
// newline, and where the layout has the pk column the first row decoded
// must be the row asked for.
type DirSource struct {
	dir    string
	format string
	comp   matgen.Compressor
	// lines: chunks are runs of text lines read as written (csv or jsonl,
	// uncompressed), so a chunk offset can be checked to follow a newline.
	lines  bool
	tables map[string]*dirTable
	m      *backendMetrics
}

var _ Source = (*DirSource)(nil)

type dirTable struct {
	info  TableInfo
	pkCol int       // position of <table>_pk in info.Cols, -1 when projected out
	parts []dirPart // sorted by start row
}

type dirPart struct {
	path     string
	start    int64 // absolute 0-based offset of the part's first row
	rows     int64
	checksum string
	// Chunk i holds rows [start+i*chunkRows, start+(i+1)*chunkRows) and
	// begins at byte offsets[i]. A manifest without an index is the one
	// chunk at byte 0 — where shard 0 keeps its csv header line or heap
	// header page, which an index points past.
	chunkRows int64
	offsets   []int64
	header    bool
	check     *partCheck
}

// partCheck remembers that a part hashed to its manifest checksum, as
// the fstat of the descriptor that was hashed. An open whose descriptor
// shows the same file, size and mtime reads those bytes and is not
// hashed again; any other is. Only success is remembered, and scans
// arriving while one is hashing wait for its verdict rather than hash
// the part a second time.
type partCheck struct {
	mu      sync.Mutex
	stamp   os.FileInfo   // nil until a descriptor has verified
	hashing chan struct{} // non-nil while a scan hashes; closed when it is done
}

// verify hashes file against the part's checksum unless file is what a
// previous call already hashed.
func (p *dirPart) verify(ctx context.Context, file *os.File) error {
	// Stat before hashing: a write that lands in between moves the mtime
	// off the stamp, and the next open hashes again.
	fi, err := file.Stat()
	if err != nil {
		return err
	}
	c := p.check
	for {
		c.mu.Lock()
		s := c.stamp
		if s != nil && os.SameFile(s, fi) && s.Size() == fi.Size() && s.ModTime().Equal(fi.ModTime()) {
			c.mu.Unlock()
			return nil
		}
		busy := c.hashing
		if busy == nil {
			c.hashing = make(chan struct{})
		}
		c.mu.Unlock()
		if busy == nil {
			break
		}
		select {
		case <-busy:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	err = p.hash(ctx, file)
	c.mu.Lock()
	if err == nil {
		c.stamp = fi
	}
	close(c.hashing)
	c.hashing = nil
	c.mu.Unlock()
	return err
}

// hash reads file to its end and compares its SHA-256 to the manifest's.
func (p *dirPart) hash(ctx context.Context, file *os.File) error {
	// The part can be large — read in bounded slices so a canceled scan
	// (timeout, Ctrl-C) aborts between them instead of hashing to the end.
	t0 := time.Now()
	h := sha256.New()
	buf := make([]byte, 1<<20)
	var size int64
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := file.Read(buf)
		h.Write(buf[:n])
		size += int64(n)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("scan: %s: %w", p.path, err)
		}
	}
	mDirVerifyBytes.Add(size)
	trace.FromContext(ctx).Event("verify", trace.Str("part", filepath.Base(p.path)),
		trace.Int("bytes", size), trace.Dur("seconds", time.Since(t0)))
	if got := hex.EncodeToString(h.Sum(nil)); got != p.checksum {
		return fmt.Errorf("scan: %s: sha256 %s does not match manifest %s — part is corrupt or tampered",
			p.path, got, p.checksum)
	}
	return nil
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
	s.lines = s.comp == nil && (s.format == "csv" || s.format == "jsonl")
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
				t = &dirTable{info: TableInfo{Table: tr.Table, Cols: tr.Cols, Rows: tr.TotalRows},
					pkCol: slices.Index(tr.Cols, tr.Table+"_pk")}
				s.tables[tr.Table] = t
			} else if t.info.Rows != tr.TotalRows || !slices.Equal(t.info.Cols, tr.Cols) {
				// Name-and-order equality, not just width: two same-width
				// projections of the same table would otherwise decode
				// positionally into swapped columns with no error.
				return nil, fmt.Errorf("scan: %s: manifests disagree on %s's layout", dir, tr.Table)
			}
			p := dirPart{
				path:      filepath.Join(dir, filepath.Base(tr.Path)),
				start:     tr.StartRow,
				rows:      tr.Rows,
				checksum:  tr.Checksum,
				chunkRows: tr.ChunkRows,
				offsets:   tr.Offsets,
				check:     &partCheck{},
			}
			if len(p.offsets) == 0 {
				p.chunkRows, p.offsets, p.header = tr.Rows, []int64{0}, m.Shard == 0
			}
			t.parts = append(t.parts, p)
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
		if t.pkCol >= 0 {
			f.pkSet, f.hasPK = r.filt.Restriction(t.pkCol)
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
	landed   bool  // openAt sought by the index and the row it landed on is not yet checked
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
		if err := f.next(ctx, lo+int64(i)); err != nil {
			return err
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
		if err := f.next(ctx, abs); err != nil {
			return err
		}
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
	b.Truncate(out)
	return nil
}

// next decodes absolute row abs into f.row. The first row after a seek
// by the manifest's index proves the seek: where the layout carries the
// pk, a row that is not the one asked for is an error, never a result.
func (f *dirFiller) next(ctx context.Context, abs int64) error {
	if err := f.seek(ctx, abs); err != nil {
		return err
	}
	if err := f.rr.next(f.row); err != nil {
		return fmt.Errorf("scan: %s: row %d: %w", f.where(abs), abs, err)
	}
	if f.landed {
		if pk := f.t.pkCol; pk >= 0 && f.row[pk] != abs+1 {
			return fmt.Errorf("scan: %s: row %d: found pk %d, want %d — the manifest's index does not describe this part",
				f.where(abs), abs, f.row[pk], abs+1)
		}
		f.landed = false
	}
	f.pos++
	f.partLeft--
	return nil
}

// where names the open part for an error about row abs — and, while the
// seek that opened it is still unproven, the index offset it trusted.
func (f *dirFiller) where(abs int64) string {
	p := &f.t.parts[f.pi]
	if !f.landed {
		return p.path
	}
	return fmt.Sprintf("%s (chunk at offset %d)", p.path, p.offsets[(abs-p.start)/p.chunkRows])
}

// seek positions the filler at absolute row abs: a no-op when already
// there, a cheap in-part skip when abs lies further inside the open
// part, and a full openAt (locate part, verify checksum, rebuild the
// decode stack) otherwise.
func (f *dirFiller) seek(ctx context.Context, abs int64) error {
	if f.rr != nil && f.partLeft > 0 && abs >= f.pos {
		if end := f.t.parts[f.pi].start + f.t.parts[f.pi].rows; abs < end {
			if abs > f.pos {
				if err := f.skip(abs); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return f.openAt(ctx, abs)
}

// skip steps the open reader over rows [f.pos, abs).
func (f *dirFiller) skip(abs int64) error {
	k := abs - f.pos
	if err := f.rr.skip(k); err != nil {
		return fmt.Errorf("scan: %s: skipping to row %d: %w", f.where(abs), abs, err)
	}
	mDirSkippedRows.Add(k)
	f.partLeft -= k
	f.pos = abs
	return nil
}

// openAt positions the filler at absolute row abs: close the open part,
// locate the part covering abs, verify its checksum unless this source
// already has, seek to the chunk holding abs, build the decode stack
// there, and skip the rest of the way.
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
	p := &f.t.parts[pi]
	file, err := os.Open(p.path)
	if err != nil {
		return err
	}
	f.closers = append(f.closers, file)
	fail := func(err error) error {
		f.close()
		return err
	}
	if p.checksum != "" {
		if err := p.verify(ctx, file); err != nil {
			return fail(err)
		}
	}
	ci := (abs - p.start) / p.chunkRows
	off, chunkStart := p.offsets[ci], p.start+ci*p.chunkRows
	left := p.start + p.rows - chunkStart
	failAt := func(err error) error {
		return fail(fmt.Errorf("scan: %s (chunk at offset %d): %w", p.path, off, err))
	}
	// A chunk of lines must start right after one: land a byte early and
	// look. (A compressed chunk is a codec member and a spans chunk a
	// frame, whose readers check magic and CRC themselves; a heap page is
	// left to the pk check on the first row.)
	afterLine := f.src.lines && off > 0
	seekTo := off
	if afterLine {
		seekTo--
	}
	if _, err := file.Seek(seekTo, io.SeekStart); err != nil {
		return failAt(err)
	}
	br := bufio.NewReaderSize(file, 1<<18)
	if afterLine {
		if c, err := br.ReadByte(); err != nil || c != '\n' {
			return failAt(fmt.Errorf("the manifest's index does not point at the start of a line (%q before it, %v)", c, err))
		}
	}
	var r io.Reader = br
	if f.src.comp != nil {
		zr, err := f.src.comp.NewReader(r)
		if err != nil {
			return failAt(err)
		}
		f.closers = append(f.closers, zr)
		r = zr
	}
	rr, err := newRowReader(f.src.format, r, f.t.info.Cols, chunkStart, left, p.header)
	if err != nil {
		return failAt(err)
	}
	f.pi, f.rr, f.pos, f.partLeft, f.landed = pi, rr, chunkStart, left, true
	if abs > chunkStart {
		if err := f.skip(abs); err != nil {
			return fail(err)
		}
	}
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

// newRowReader builds the decoder for rows [start, start+rows) of a
// part, r positioned at the first of them — or, with header, at the csv
// header line or heap header page before it.
func newRowReader(format string, r io.Reader, cols []string, start, rows int64, header bool) (rowReader, error) {
	switch format {
	case "csv":
		return newCSVReader(r, len(cols), header)
	case "jsonl":
		return newJSONLReader(r, cols), nil
	case "heap":
		return newHeapReader(r, len(cols), header)
	case "spans":
		return newSpansReader(r, len(cols), start, rows), nil
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
		if err := skipLines(cr.br, 1); err != nil {
			return nil, fmt.Errorf("reading csv header: %w", err)
		}
	}
	return cr, nil
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

func (c *csvReader) skip(k int64) error { return skipLines(c.br, k) }

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

func (j *jsonlReader) skip(k int64) error { return skipLines(j.br, k) }

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

// skip is arithmetic: k rows and the padding of every page boundary
// crossed on the way are one discard.
func (h *heapReader) skip(k int64) error {
	to := int64(h.inPage) + k
	n := k*int64(8*h.ncols) + to/int64(h.perPage)*int64(h.pagePad)
	h.inPage = int(to % int64(h.perPage))
	_, err := io.CopyN(io.Discard, h.r, n)
	return err
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
