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
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/obs"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/storage"
	"github.com/dsl-repro/hydra/internal/trace"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// Directory-backend counters: the two costs of a scan that are not its
// rows — bytes hashed to verify a part before reading it, and rows
// stepped over without being delivered — and the rows that cost a full
// parse, whose share of hydra_scan_rows_total{backend="dir"} is the
// run prediction's miss rate.
var (
	mDirVerifyBytes = obs.Default.Counter("hydra_scan_dir_verify_bytes_total",
		"part-file bytes hashed against the manifest's SHA-256 before a scan read them")
	mDirSkippedRows = obs.Default.Counter("hydra_scan_dir_skipped_rows_total",
		"rows a directory scan decoded past without delivering: the remainder after a chunk seek, and rows a pk restriction excludes")
	mDirParsedRows = obs.Default.Counter("hydra_scan_dir_parsed_rows_total",
		"rows a directory scan parsed cell by cell — the first row of each run and every row the prediction missed")
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
//
// Rows are read a run at a time, the mirror image of how every encoder
// writes a summary run: a constant tail stamped with an incrementing pk.
// A run's first row is parsed cell by cell; the following rows are
// accepted by comparing them with the bytes the encoder writes next
// (the pk plus one, in canonical decimal or little-endian for heap, and
// the same tail) — csv and jsonl ten lines per compare once a run is
// under way — so the result is exactly a row-at-a-time decode, and a
// row that differs is parsed in full as the first of the next run. A
// layout without the pk forms runs of byte-identical rows only; a spans
// part's frames are its runs. A spread-FK part, whose FKs change every
// row, reads as runs of one, at what parsing it costs (see pacer).
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
	f := &dirRuns{src: s, t: t, pi: -1, pos: r.lo, end: r.hi, noPK: t.pkCol < 0}
	// Runs come in span order (pk first, then the other columns in file
	// order); a layout whose first column is not the pk maps onto it.
	idx := r.proj
	if t.pkCol != 0 {
		idx = make([]int, len(r.cols))
		for c, name := range r.cols {
			idx[c] = spanCol(slices.Index(t.info.Cols, name), t.pkCol)
		}
	}
	var sf *tuplegen.SpanFilter
	if r.filtered {
		toSpan := make(map[int]int, len(t.info.Cols))
		for c := range t.info.Cols {
			toSpan[c] = spanCol(c, t.pkCol)
		}
		ntail := len(t.info.Cols) - 1
		if t.pkCol < 0 {
			ntail++
		}
		if sf, err = tuplegen.NewSpanFilter(r.filt.Remap(toSpan), ntail, 0); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrSpec, spec.Table, err)
		}
		// A restriction on the pk column doubles as a seek accelerator:
		// decoded layouts store pk abs+1 at absolute row abs, so the
		// reader can jump straight to the next admissible key — and a
		// jump past a part's end means that part is never opened, never
		// hashed, never decoded.
		if t.pkCol >= 0 {
			f.pkSet, f.hasPK = r.filt.Restriction(t.pkCol)
		}
	}
	return newScan(ctx, r, runs(r, f, sf, idx), s.m), nil
}

// Close implements Source; open part files belong to scans, not the
// source.
func (s *DirSource) Close() error { return nil }

// dirRuns reads a table's runs from its parts: seek to the next row the
// scan needs and read the run there, capped at what the caller can place
// and at the part's end. A pk restriction doubles as a seek accelerator:
// rows it excludes are skipped (cheap line/page skips within a part,
// whole parts never even opened when the next admissible key lies
// beyond them).
type dirRuns struct {
	src    *DirSource
	t      *dirTable
	end    int64 // the scan's range ends at row end
	pkSet  pred.Set
	hasPK  bool
	noPK   bool  // the layout has no pk column: a run's Start is where it was read
	parsed int64 // runs read since the counter was last added to: parsed, but for spans

	pi      int // index of the open part, -1 before the first open
	rr      runReader
	closers []io.Closer
	bufs    []*bufio.Reader // the open part's read buffers, from readerPool
	pos     int64           // absolute row the scan reads next, and the open reader yields next
	partEnd int64           // the open part ends at row partEnd
	landed  bool            // openAt sought by the index and the row it landed on is not yet checked
}

func (f *dirRuns) run(ctx context.Context, max int64) (*tuplegen.Span, error) {
	if f.hasPK || f.rr == nil || f.pos >= f.partEnd {
		if err := f.seek(ctx); err != nil {
			return nil, err
		}
	}
	abs := f.pos
	sp, err := f.rr.run(min(max, f.partEnd-abs))
	if err != nil {
		return nil, fmt.Errorf("scan: %s: row %d: %w", f.where(abs), abs, err)
	}
	// The first row after a seek by the manifest's index proves the seek:
	// where the layout carries the pk, a row that is not the one asked for
	// is an error, never a result.
	if f.landed {
		if f.t.pkCol >= 0 && sp.Start != abs+1 {
			return nil, fmt.Errorf("scan: %s: row %d: found pk %d, want %d — the manifest's index does not describe this part",
				f.where(abs), abs, sp.Start, abs+1)
		}
		f.landed = false
	}
	if f.noPK {
		sp.Start = abs + 1 // the run is where it was read
	}
	f.pos += sp.N
	f.parsed++
	return sp, nil
}

// seek moves to the next row the scan needs — under a pk restriction the
// next admissible one, io.EOF when none is left: a step within the open
// part, an openAt anywhere else.
func (f *dirRuns) seek(ctx context.Context) error {
	abs := f.pos
	if f.hasPK {
		pk, ok := f.pkSet.Next(abs + 1)
		if !ok || pk > f.end {
			return io.EOF
		}
		abs = pk - 1
	}
	if f.rr == nil || abs >= f.partEnd {
		return f.openAt(ctx, abs)
	}
	return f.skip(abs)
}

// where names the open part for an error about row abs — and, while the
// seek that opened it is still unproven, the index offset it trusted.
func (f *dirRuns) where(abs int64) string {
	p := &f.t.parts[f.pi]
	if !f.landed {
		return p.path
	}
	return fmt.Sprintf("%s (chunk at offset %d)", p.path, p.offsets[(abs-p.start)/p.chunkRows])
}

// skip steps the open reader over rows [f.pos, abs).
func (f *dirRuns) skip(abs int64) error {
	k := abs - f.pos
	if k == 0 {
		return nil
	}
	if err := f.rr.skip(k); err != nil {
		return fmt.Errorf("scan: %s: skipping to row %d: %w", f.where(abs), abs, err)
	}
	mDirSkippedRows.Add(k)
	f.pos = abs
	return nil
}

// readerPool recycles the read buffers of closed directory scans: a
// ranged scan reads a few kilobytes, and a fresh buffer per open would
// be most of what it allocates.
var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 1<<18) }}

// buffer takes a pooled read buffer over r for the open part.
func (f *dirRuns) buffer(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	f.bufs = append(f.bufs, br)
	return br
}

// openAt positions the reader at absolute row abs: close the open part,
// locate the part covering abs, verify its checksum unless this source
// already has, seek to the chunk holding abs, build the decode stack
// there, and skip the rest of the way.
func (f *dirRuns) openAt(ctx context.Context, abs int64) error {
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
	off, chunkStart, end := p.offsets[ci], p.start+ci*p.chunkRows, p.start+p.rows
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
	br := f.buffer(file)
	if afterLine {
		if c, err := br.ReadByte(); err != nil || c != '\n' {
			return failAt(fmt.Errorf("the manifest's index does not point at the start of a line (%q before it, %v)", c, err))
		}
	}
	if f.src.comp != nil {
		zr, err := f.src.comp.NewReader(br)
		if err != nil {
			return failAt(err)
		}
		f.closers = append(f.closers, zr)
		br = f.buffer(zr)
	}
	rr, err := newRunReader(f.src.format, br, f.t.info.Cols, f.t.pkCol, chunkStart, end-chunkStart, p.header)
	if err != nil {
		return failAt(err)
	}
	f.pi, f.rr, f.pos, f.partEnd, f.landed = pi, rr, chunkStart, end, true
	if err := f.skip(abs); err != nil {
		return fail(err)
	}
	return nil
}

// close closes the open part and adds the runs parsed from it to the
// parsed-rows counter: once per part opened, not once per run.
func (f *dirRuns) close() error {
	if f.src.format != "spans" {
		mDirParsedRows.Add(f.parsed)
	}
	f.parsed = 0
	var first error
	for i := len(f.closers) - 1; i >= 0; i-- {
		if err := f.closers[i].Close(); first == nil {
			first = err
		}
	}
	f.closers = f.closers[:0]
	for _, br := range f.bufs {
		br.Reset(nil)
		readerPool.Put(br)
	}
	f.bufs = f.bufs[:0]
	f.rr = nil
	return first
}

// runReader reads one part file's rows a run at a time. run returns the
// next rows, at most max (≥ 1) of them — a spans part's frame is already
// decoded and comes whole — as one span in span order: the pk first (as
// Start; a layout without one leaves it to the caller), then the
// layout's other columns in file order, as Vals — so the pk need not be
// the file's first column. The span is the reader's own, valid until
// the next call, and the caller may advance it in place. skip steps over
// k rows without producing them, cheaper than reading them where the
// format allows.
type runReader interface {
	run(max int64) (*tuplegen.Span, error)
	skip(k int64) error
}

// newRunReader builds the reader for rows [start, start+rows) of a part,
// br positioned at the first of them — or, with header, at the csv
// header line or heap header page before it. pkCol is the pk's position
// in cols, -1 when the layout has none.
func newRunReader(format string, br *bufio.Reader, cols []string, pkCol int, start, rows int64, header bool) (runReader, error) {
	switch format {
	case "csv", "jsonl":
		l := &lineRuns{runTemplate: newRunTemplate(len(cols), pkCol), br: br, format: format}
		if format == "jsonl" {
			l.json = newJSONLRow(cols)
		} else if header {
			if err := skipLines(br, 1); err != nil {
				return nil, fmt.Errorf("reading csv header: %w", err)
			}
		}
		return l, nil
	case "heap":
		return newHeapRuns(br, len(cols), pkCol, header)
	case "spans":
		dec := newSpanDecoder(len(cols), start, start+rows, false)
		dec.br = br
		return &spansRuns{dec: dec}, nil
	default:
		return nil, fmt.Errorf("format %q is not scannable", format)
	}
}

// spanCol is file column c's position in span order: the pk first, then
// the layout's other columns in file order.
func spanCol(c, pkCol int) int {
	switch {
	case c == pkCol:
		return 0
	case pkCol < 0 || c < pkCol:
		return c + 1
	}
	return c
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
// between other columns.
type runTemplate struct {
	row   []int64
	sp    tuplegen.Span
	pkCol int
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
	return &t.sp
}

// --- csv and jsonl ---

// lineRuns reads a csv or jsonl part a run at a time. A run's first row
// is parsed cell by cell; the rows after it are accepted against pred,
// the lines the encoder writes next in a run, straight out of the read
// buffer's window: one line per compare until the run has accepted one,
// then, from each pk that ends in 0, ten lines per compare. The first
// byte that differs ends the run — a block that differs is walked again
// a line at a time to find the exact last row — and that line is parsed
// in full as the first row of the next run (pace decides when a part of
// single-row runs is worth predicting again).
type lineRuns struct {
	runTemplate
	br     *bufio.Reader
	format string
	json   *jsonlRow // nil: csv
	pred   predicted
	pace   pacer
}

func (l *lineRuns) run(max int64) (*tuplegen.Span, error) {
	line, err := l.br.ReadSlice('\n')
	if err != nil {
		if errors.Is(err, bufio.ErrBufferFull) {
			return nil, fmt.Errorf("%s row longer than %d bytes", l.format, l.br.Size())
		}
		if !errors.Is(err, io.EOF) || len(line) == 0 {
			return nil, err
		}
		// A final row without its newline is still a row.
	}
	lo, hi := -1, -1
	if l.json != nil {
		line, lo, hi, err = l.json.parse(line, &l.runTemplate)
	} else {
		lo, hi, err = l.parseCSV(line)
	}
	if err != nil {
		return nil, err
	}
	return l.span(l.extend(line, lo, hi, max)), nil
}

// extend accepts the lines after a run's first, line (its pk's digits at
// line[lo:hi], lo < 0 without a pk), that are byte for byte what the
// encoder writes next, and returns the run's length: at most max rows in
// all. It walks the read buffer's window in place and hands the accepted
// bytes back once per refill and once at the end.
//
//hydra:hotpath
func (l *lineRuns) extend(line []byte, lo, hi int, max int64) int64 {
	if max == 1 || !l.pace.try() {
		return 1
	}
	var pk int64
	if lo >= 0 {
		pk = l.row[l.pkCol]
	}
	l.pred.set(line, lo, hi, pk)
	win, _ := l.br.Peek(l.br.Buffered())
	off, n := 0, int64(1)
	for n < max && l.pred.step() {
		b := l.pred.b
		// Past the run's first predicted line, ten lines at once where
		// all ten fit the cap and the window.
		if n > 1 && max-n >= blockRows && len(win)-off >= blockRows*len(b) && l.pred.blockStart() {
			if blk := l.pred.block(); bytes.Equal(win[off:off+len(blk)], blk) {
				off += len(blk)
				n += blockRows
				l.pred.endBlock()
				continue
			}
			// One of the ten differs: the lines below find which.
		}
		if len(win)-off < len(b) {
			l.br.Discard(off)
			off = 0
			if _, err := l.br.Peek(len(b)); err != nil {
				break
			}
			win, _ = l.br.Peek(l.br.Buffered())
		}
		if !bytes.Equal(win[off:off+len(b)], b) {
			break
		}
		off += len(b)
		n++
	}
	l.br.Discard(off)
	l.pace.record(n)
	return n
}

func (l *lineRuns) skip(k int64) error { return skipLines(l.br, k) }

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

// blockRows is how many predicted lines extend checks with one compare.
const blockRows = 10

// predicted is the line an encoder writes after the last one a run
// accepted: the pk in canonical decimal between the other cells, its
// digits stepped in place the way matgen's pkWriter stamps a run —
// never re-formatted per row — and, built the first time a run reaches
// a pk that ends in 0, the block of that line and the nine after it.
type predicted struct {
	b      []byte // the line
	lo, hi int    // b[lo:hi] are the pk's digits; lo < 0: no pk, the line repeats as is
	pk     int64  // the value b[lo:hi] spells
	// blk is blockRows lines from a pk ending in 0 on (the last digit
	// 0 to 9), empty until this run needs it; between blocks of a run only
	// the pk's leading digits are patched. It is allocated with b.
	blk []byte
}

// set predicts the lines after line, whose pk, parsed from line[lo:hi],
// is pk: the same bytes with the pk stepped by one per line — or, when
// lo < 0, line itself again and again (in a layout without a pk a run
// is a run of identical lines). A pk not spelled in canonical decimal
// ("+7", "007") is re-spelled first.
func (p *predicted) set(line []byte, lo, hi int, pk int64) {
	p.lo, p.hi, p.pk = lo, hi, pk
	// A fresh allocation holds the line, room for its pk to grow to the
	// longest int64, and the block; the canonical spelling is never
	// longer than the parsed one.
	if cap(p.b) < len(line) {
		w := len(line) + len("9223372036854775807")
		mem := make([]byte, (1+blockRows)*w)
		p.b, p.blk = mem[:0:w], mem[w:w]
	}
	p.blk = p.blk[:0]
	if lo < 0 || canonical(line[lo:hi]) {
		p.b = append(p.b[:0], line...)
		return
	}
	p.b = strconv.AppendInt(append(p.b[:0], line[:lo]...), pk, 10)
	p.hi = len(p.b)
	p.b = append(p.b, line[hi:]...)
}

// canonical reports whether the digits of a parsed integer are how
// strconv spells it: no sign, no leading zero.
func canonical(cell []byte) bool {
	return cell[0] != '+' && cell[0] != '-' && (cell[0] != '0' || len(cell) == 1)
}

// step advances the prediction by one row, reporting false when there
// is no next pk to predict: after a negative one (whose decimal does not
// step in place) or the largest.
//
//hydra:hotpath
func (p *predicted) step() bool {
	if p.lo < 0 {
		return true
	}
	if p.pk < 0 || p.pk == math.MaxInt64 {
		return false
	}
	p.pk++
	for i := p.hi - 1; i >= p.lo; i-- {
		if p.b[i] != '9' {
			p.b[i]++
			return true
		}
		p.b[i] = '0'
	}
	// Every digit carried: the pk gains one, a 1 before the zeros.
	p.b = append(p.b, 0)
	copy(p.b[p.lo+1:], p.b[p.lo:])
	p.b[p.lo] = '1'
	p.hi++
	return true
}

// blockStart reports whether b starts a block: in a layout without a pk
// always, otherwise when the pk ends in 0 and the block's last pk does
// not pass math.MaxInt64.
func (p *predicted) blockStart() bool {
	return p.lo < 0 || p.b[p.hi-1] == '0' && p.pk <= math.MaxInt64-(blockRows-1)
}

// block returns b and the blockRows-1 lines after it, as one slice: built
// once per run and again when the pk gains a digit, otherwise patched
// from the first pk digit that changed since the last block.
//
//hydra:hotpath
func (p *predicted) block() []byte {
	w := len(p.b)
	if len(p.blk) != blockRows*w {
		p.blk = p.blk[:0]
		for i := range blockRows {
			p.blk = append(p.blk, p.b...)
			if p.lo >= 0 {
				p.blk[i*w+p.hi-1] = '0' + byte(i)
			}
		}
		return p.blk
	}
	for k := p.lo; k >= 0 && k < p.hi-1; k++ { // lo < 0: nothing to patch
		if p.blk[k] != p.b[k] {
			for at := 0; at < len(p.blk); at += w {
				copy(p.blk[at+k:at+p.hi-1], p.b[k:p.hi-1])
			}
			break
		}
	}
	return p.blk
}

// endBlock moves the prediction to the block's last line, as if step
// had been called blockRows-1 times.
func (p *predicted) endBlock() {
	if p.lo >= 0 {
		p.b[p.hi-1] = '0' + blockRows - 1
		p.pk += blockRows - 1
	}
}

// parseCSV decodes one line straight out of the read buffer — no line
// copy, no per-cell string, no allocation, one pass over the bytes — and
// returns where the pk's digits lie in it (-1 without a pk). The line
// after it is predicted from its own bytes, the same cells around the
// pk's, so a run whose lines end in \r\n reads as fast as one whose
// lines end in \n.
func (l *lineRuns) parseCSV(line []byte) (lo, hi int, err error) {
	lo, hi = -1, -1
	body := trimEOL(line)
	for i, at := 0, 0; i < len(l.row); i++ {
		// Up to 18 digits cannot overflow; anything else — a sign, more
		// digits, none — takes the general parser.
		u, end := digits(body, at)
		v := int64(u)
		if end == at || end-at > 18 {
			w, n, perr := parseIntPrefix(body[at:])
			if perr != nil {
				return lo, hi, csvRowError(body, len(l.row))
			}
			v, end = w, at+n
		}
		if last := i == len(l.row)-1; last != (end == len(body)) || !last && body[end] != ',' {
			return lo, hi, csvRowError(body, len(l.row))
		}
		l.row[i] = v
		if i == l.pkCol {
			lo, hi = at, end
		}
		at = end + 1
	}
	return lo, hi, nil
}

// csvRowError names what is wrong with a csv line parseCSV refused,
// walking it cell by cell.
func csvRowError(body []byte, ncols int) error {
	for i := 0; i < ncols; i++ {
		cell := body
		if j := bytes.IndexByte(body, ','); i < ncols-1 {
			if j < 0 {
				return fmt.Errorf("csv row has %d of %d columns", i+1, ncols)
			}
			cell, body = body[:j], body[j+1:]
		} else if j >= 0 {
			return fmt.Errorf("csv row has more than %d columns", ncols)
		}
		if _, err := parseInt(cell); err != nil {
			return fmt.Errorf("csv cell %d: parsing %q: %w", i, cell, err)
		}
	}
	return errors.New("csv row refused") // unreachable: parseCSV and this walk accept the same lines
}

var (
	errIntSyntax = errors.New("invalid syntax")
	errIntRange  = errors.New("value out of range")
)

// parseInt is strconv.ParseInt(string(b), 10, 64) without the string:
// an optional sign, then decimal digits only, overflow-checked.
func parseInt(b []byte) (int64, error) {
	v, n, err := parseIntPrefix(b)
	if err == nil && n < len(b) {
		return 0, errIntSyntax
	}
	return v, err
}

// digits reads the decimal digits b holds from at on: their value,
// exact for up to 19 of them, and where they end.
func digits(b []byte, at int) (uint64, int) {
	var u uint64
	for ; at < len(b) && b[at]-'0' <= 9; at++ {
		u = u*10 + uint64(b[at]-'0')
	}
	return u, at
}

// parseIntPrefix parses the integer b starts with — an optional sign,
// then decimal digits — and returns the number of bytes it spans.
func parseIntPrefix(b []byte) (int64, int, error) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		i, neg = 1, b[0] == '-'
	}
	const minMagnitude = 1 << 63 // |math.MinInt64|
	var u uint64
	start := i
	for ; i < len(b); i++ {
		d := b[i] - '0' // wraps far above 9 for bytes below '0'
		if d > 9 {
			break
		}
		if u > minMagnitude/10 {
			return 0, i, errIntRange
		}
		if u = u*10 + uint64(d); u > minMagnitude {
			return 0, i, errIntRange
		}
	}
	switch {
	case i == start:
		return 0, i, errIntSyntax
	case neg:
		return -int64(u), i, nil // u == 1<<63 wraps to MinInt64, as it should
	case u == minMagnitude:
		return 0, i, errIntRange
	}
	return int64(u), i, nil
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

// jsonlRow parses jsonl lines: one object holding every column once,
// each value a JSON integer. null, fractions, exponents and strings are
// refused — the encoder writes none of them.
type jsonlRow struct {
	cols []string
	keys [][]byte // the encoder's quoted keys, each with its ':'
	raw  map[string]json.RawMessage
	line []byte // scratch: the canonical rendering of the parsed row
}

func newJSONLRow(cols []string) *jsonlRow {
	j := &jsonlRow{cols: cols, keys: make([][]byte, len(cols)), raw: make(map[string]json.RawMessage, len(cols))}
	for c, name := range cols {
		q, _ := json.Marshal(name)
		j.keys[c] = append(q, ':')
	}
	return j
}

// parse decodes line into t.row and returns the line a run of it is
// predicted from — how the jsonl encoder writes the row — with the pk's
// digits at [lo, hi) (-1 without a pk). Any other spelling of a row
// (spacing, key order, escapes) is read the same and just does not
// extend a run.
func (j *jsonlRow) parse(line []byte, t *runTemplate) (canon []byte, lo, hi int, err error) {
	clear(j.raw)
	if err := json.Unmarshal(line, &j.raw); err != nil {
		return nil, 0, 0, fmt.Errorf("jsonl row: %w", err)
	}
	if len(j.raw) != len(j.cols) {
		return nil, 0, 0, fmt.Errorf("jsonl row has %d of %d columns", len(j.raw), len(j.cols))
	}
	for c, name := range j.cols {
		raw, ok := j.raw[name]
		if !ok {
			return nil, 0, 0, fmt.Errorf("jsonl row lacks column %q", name)
		}
		v, err := parseInt(raw)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("jsonl column %q holds %s, not an int64", name, raw)
		}
		t.row[c] = v
	}
	b := append(j.line[:0], '{')
	lo, hi = -1, -1
	for c, v := range t.row {
		if c > 0 {
			b = append(b, ',')
		}
		b = append(b, j.keys[c]...)
		if c == t.pkCol {
			lo = len(b)
		}
		b = strconv.AppendInt(b, v, 10)
		if c == t.pkCol {
			hi = len(b)
		}
	}
	j.line = append(b, '}', '\n')
	return j.line, lo, hi, nil
}

// --- heap (internal/storage page format) ---

// heapRuns reads a heap part a run at a time: a run's first row is
// decoded, and every row after it accepted with one compare against the
// same bytes with the pk slot stepped — the slot the heap encoder
// patches per row.
type heapRuns struct {
	runTemplate
	br      *bufio.Reader
	width   int // bytes per row
	perPage int
	pagePad int
	inPage  int
	pred    []byte
	pace    pacer
}

func newHeapRuns(br *bufio.Reader, ncols, pkCol int, header bool) (*heapRuns, error) {
	perPage, err := storage.RowsPerPage(ncols)
	if err != nil {
		return nil, err
	}
	if header {
		// Shard 0 starts with the header page; its contents were already
		// interpreted via the manifest, so it is skipped, not parsed.
		if _, err := br.Discard(storage.PageSize); err != nil {
			return nil, fmt.Errorf("skipping heap header page: %w", err)
		}
	}
	return &heapRuns{
		runTemplate: newRunTemplate(ncols, pkCol), br: br,
		width: 8 * ncols, perPage: perPage, pagePad: storage.PageSize - perPage*8*ncols,
	}, nil
}

func (h *heapRuns) run(max int64) (*tuplegen.Span, error) {
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
			if _, err := h.br.Discard(h.pagePad); err != nil {
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

// skip is arithmetic: k rows and the padding of every page boundary
// crossed on the way are one discard.
func (h *heapRuns) skip(k int64) error {
	to := int64(h.inPage) + k
	n := k*int64(h.width) + to/int64(h.perPage)*int64(h.pagePad)
	h.inPage = int(to % int64(h.perPage))
	_, err := h.br.Discard(int(n))
	return err
}
