package scan

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/dsl-repro/hydra/internal/format"
	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/obs"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/summary"
	"github.com/dsl-repro/hydra/internal/trace"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// Directory-backend counters: the two costs of a scan that are not its
// rows — bytes hashed to verify a part, and rows stepped over without
// being delivered — and the rows that cost a full parse, whose share of
// hydra_scan_rows_total{backend="dir"} is the run prediction's miss rate.
var (
	mDirVerifyBytes = obs.Default.Counter("hydra_scan_dir_verify_bytes_total",
		"part-file bytes hashed against the manifest's checksum, by a scan before it read them or by a whole-directory Verify")
	mDirSkippedRows = obs.Default.Counter("hydra_scan_dir_skipped_rows_total",
		"rows a directory scan decoded past without delivering: the remainder after a chunk seek, and rows a pk restriction excludes")
	mDirParsedRows = obs.Default.Counter("hydra_scan_dir_parsed_rows_total",
		"rows a directory scan parsed cell by cell — the first row of each run and every row the prediction missed")
)

// Shard-directory failure classes. Everything OpenDir and Verify find
// wrong with a directory's manifests or parts wraps exactly one of these
// or matgen.ErrManifestInconsistent (manifests that disagree about the
// run, or contradict themselves or their file names), so a caller tells
// a torn copy from bit rot from a mis-planned split with errors.Is, and
// a scan that meets a bad part says what Verify says.
var (
	// ErrManifestMissing: no manifest at all, or none for a shard of the split.
	ErrManifestMissing = errors.New("shard manifest missing")
	// ErrRangeOverlap: two shards claim overlapping rows of a table.
	ErrRangeOverlap = errors.New("shard row ranges overlap")
	// ErrRangeGap: rows of a table no shard covers.
	ErrRangeGap = errors.New("shard row ranges leave a gap")
	// ErrRowCount: a table's rows differ from the summary's cardinality.
	ErrRowCount = errors.New("row counts do not match summary cardinality")
	// ErrTruncated: a part's size is not the bytes its manifest recorded
	// (a torn copy or partial ship).
	ErrTruncated = errors.New("shard file truncated or resized")
	// ErrChecksum: a part's checksum is not the one its manifest recorded
	// (bit rot or a wrong file).
	ErrChecksum = errors.New("shard file checksum mismatch")
	// ErrSummaryDigest: the manifests name another summary than the one
	// the directory is verified against — another database.
	ErrSummaryDigest = errors.New("summary digest mismatch")
	// ErrStaleArtifacts: manifests or part files of another split width,
	// which a `cat *.part-*` glob would mix in.
	ErrStaleArtifacts = errors.New("stale artifacts from a different shard split")
)

// DirSource scans a materialized shard directory — the output of
// Materialize or Orchestrate — by decoding the part files against their
// manifests, and Verify proves such a directory whole: it is the one
// reader of what the directory means. Every format internal/format
// calls scannable scans, plain or gzip-compressed — csv, jsonl, heap and
// spans; sql is verified, never scanned.
//
// Checksums are verified lazily, once: a part is hashed against the
// manifest's size and checksum before the first row this source decodes
// from it, and again before the next row whenever the file opened has a
// different size, mtime or identity than the one that was hashed — so a
// scan never silently reads a corrupted, replaced or rewritten part,
// parts no scan touches cost nothing, and a part scanned a thousand
// times is hashed once. What that stamp cannot see is a same-size
// rewrite in place that lands within the filesystem's timestamp
// granularity of the hash; Verify, which hashes every part, remains the
// check to run after shipping or suspecting one. A part's blocks hash on
// every core (matgen.PartChecksum).
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
// Rows are read a run at a time by the format's run reader
// (format.RunReader), the mirror image of how its encoder writes a
// summary run, so the result is exactly a row-at-a-time decode.
type DirSource struct {
	dir    string
	digest string // the summary digest every manifest names
	format *format.Format
	comp   matgen.Compressor
	shards int          // the split's width
	held   map[int]bool // the shards whose manifests the directory holds
	stale  error        // a part file of another split width: only Verify minds
	tables map[string]*dirTable
	m      *backendMetrics
}

var _ Source = (*DirSource)(nil)

type dirTable struct {
	info  TableInfo
	pkCol int       // position of <table>_pk in info.Cols, -1 when projected out
	parts []dirPart // one per manifest reporting the table, by start row
}

type dirPart struct {
	path     string
	shard    int
	start    int64 // absolute 0-based offset of the part's first row
	rows     int64
	bytes    int64 // the file's size as written
	raw      int64 // its encoded size before compression
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
// hashed again; any other is. Only success is remembered — a failure
// forgets what was — and scans arriving while one is hashing wait for
// its verdict rather than hash the part a second time.
type partCheck struct {
	mu      sync.Mutex
	stamp   os.FileInfo   // nil until a descriptor has verified
	hashing chan struct{} // non-nil while a scan hashes; closed when it is done
}

// verify hashes file against the part's manifest entry unless file is
// what a previous call already hashed and force is false — Verify forces
// it. A clean hash stamps the part.
func (p *dirPart) verify(ctx context.Context, file *os.File, force bool) error {
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
		if !force && s != nil && os.SameFile(s, fi) && s.Size() == fi.Size() && s.ModTime().Equal(fi.ModTime()) {
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
	err = p.hash(ctx, file, fi)
	c.mu.Lock()
	// A failed hash drops the stamp too: a forced one may have found the
	// stamped file rewritten behind its stamp.
	c.stamp = nil
	if err == nil {
		c.stamp = fi
	}
	close(c.hashing)
	c.hashing = nil
	c.mu.Unlock()
	return err
}

// hash checks file, whose fstat is fi, against the part's manifest entry:
// its size first, then its checksum. A cancelled scan (timeout, Ctrl-C)
// stops hashing within a block.
func (p *dirPart) hash(ctx context.Context, file *os.File, fi os.FileInfo) error {
	if fi.Size() != p.bytes {
		return fmt.Errorf("scan: %w: %s: %d bytes on disk, manifest recorded %d",
			ErrTruncated, p.path, fi.Size(), p.bytes)
	}
	t0 := time.Now()
	got, err := matgen.PartChecksum(ctx, file, p.bytes)
	if errors.Is(err, io.ErrUnexpectedEOF) {
		err = fmt.Errorf("%w: shrank while hashed: %w", ErrTruncated, err)
	}
	if err != nil {
		return fmt.Errorf("scan: %s: %w", p.path, err)
	}
	mDirVerifyBytes.Add(p.bytes)
	trace.FromContext(ctx).Event("verify", trace.Str("part", filepath.Base(p.path)),
		trace.Int("bytes", p.bytes), trace.Dur("seconds", time.Since(t0)))
	if got != p.checksum {
		return fmt.Errorf("scan: %w: %s: checksum %s, manifest recorded %s — part is corrupt or tampered",
			ErrChecksum, p.path, got, p.checksum)
	}
	return nil
}

// splitNameRe matches the names matgen gives the files of a split —
// manifest-<i>-of-<n>.json, and <table>.<ext>.part-<i>-of-<n> with any
// codec extension after it — and captures the width n. Both numbers
// have three digits at least, more from 1 001 shards on.
var splitNameRe = regexp.MustCompile(`^(manifest|.+\.part)-\d{3,}-of-(\d{3,})(\..+)?$`)

// OpenDir opens a materialized directory: from one listing of it, it
// reads every shard manifest present, checks they describe one
// consistent run (summary digest, format, codec, split width, each
// table's layout — else matgen.ErrManifestInconsistent, or
// ErrStaleArtifacts for two widths),
// and indexes each table's parts. The directory may hold any subset of
// a split's shards; scans fail only if they reach a row no present part
// covers, and Verify demands the whole split.
func OpenDir(dir string) (*DirSource, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var manifests []*matgen.Manifest
	var parts [][]string // splitNameRe's matches of part file names
	for _, e := range entries {
		name := e.Name()
		match := splitNameRe.FindStringSubmatch(name)
		switch {
		case e.IsDir() || match == nil:
		case match[1] != "manifest":
			parts = append(parts, match)
		case match[3] == ".json":
			m, err := matgen.ReadManifest(filepath.Join(dir, name))
			if err != nil {
				return nil, err
			}
			if m.Shard < 0 || m.Shard >= m.Shards || name != filepath.Base(matgen.ManifestPath("", m.Shard, m.Shards)) {
				return nil, fmt.Errorf("scan: %w: %s claims shard %d of %d", matgen.ErrManifestInconsistent, name, m.Shard, m.Shards)
			}
			manifests = append(manifests, m)
		}
	}
	if len(manifests) == 0 {
		return nil, fmt.Errorf("scan: %w: %s holds no shard manifests; materialize first", ErrManifestMissing, dir)
	}
	first := manifests[0]
	s := &DirSource{dir: dir, digest: first.SummaryDigest, shards: first.Shards, held: map[int]bool{},
		tables: map[string]*dirTable{}, m: metricsForBackend("dir")}
	if s.format, err = format.ByName(first.Format); err != nil {
		return nil, fmt.Errorf("scan: %w: %s: %v", matgen.ErrManifestInconsistent, dir, err)
	}
	if s.comp, err = matgen.CompressorFor(first.Compression); err != nil {
		return nil, err
	}
	for _, m := range manifests {
		if m.Shards != first.Shards {
			return nil, fmt.Errorf("scan: %w: %s mixes split widths %d and %d", ErrStaleArtifacts, dir, m.Shards, first.Shards)
		}
		if m.SummaryDigest != first.SummaryDigest {
			return nil, fmt.Errorf("scan: %w: %s mixes the databases of summaries %s and %s",
				matgen.ErrManifestInconsistent, dir, m.SummaryDigest, first.SummaryDigest)
		}
		if m.Format != first.Format || m.Compression != first.Compression {
			return nil, fmt.Errorf("scan: %w: %s mixes materialization runs (%s+%s vs %s+%s)",
				matgen.ErrManifestInconsistent, dir, m.Format, m.Compression, first.Format, first.Compression)
		}
		s.held[m.Shard] = true
		for _, tr := range m.Tables {
			if tr.Rows > 0 && len(tr.Cols) == 0 {
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
				return nil, fmt.Errorf("scan: %w: %s: manifests disagree on %s's layout", matgen.ErrManifestInconsistent, dir, tr.Table)
			}
			p := dirPart{
				path:      filepath.Join(dir, filepath.Base(tr.Path)),
				shard:     m.Shard,
				start:     tr.StartRow,
				rows:      tr.Rows,
				bytes:     tr.Bytes,
				raw:       cmp.Or(tr.RawBytes, tr.Bytes),
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
	for _, match := range parts {
		if w, _ := strconv.Atoi(match[2]); w != first.Shards {
			s.stale = fmt.Errorf("scan: %w: %s belongs to a %d-shard split, the manifests to a %d-shard one",
				ErrStaleArtifacts, match[0], w, first.Shards)
			break
		}
	}
	for _, t := range s.tables {
		slices.SortStableFunc(t.parts, func(a, b dirPart) int { return cmp.Compare(a.start, b.start) })
	}
	return s, nil
}

// VerifyReport summarizes a successful Verify.
type VerifyReport struct {
	Shards      int
	Format      string
	Compression string
	Tables      []TableCheck
	// RawBytes is the directory's total encoded size before compression,
	// summed from the manifests.
	RawBytes int64
	// FilesHashed and BytesHashed count the re-hash work performed.
	FilesHashed int
	BytesHashed int64
}

// TableCheck is one verified table.
type TableCheck struct {
	Table string
	Rows  int64
	Bytes int64
	// RawBytes is the table's encoded size before compression, summed
	// from the manifests (equal to Bytes for uncompressed output).
	RawBytes int64
	Parts    int
}

// Verify proves the directory whole: no part file of another split
// width, a manifest for every shard of the split, every table reported
// by every shard with ranges that tile [0, TotalRows) — tables without a
// row included — and every part file, hashed now whatever was hashed
// before, the size and checksum its manifest recorded. sum, when set,
// anchors the check: the directory holds exactly the relations of
// tables (nil: all of sum's), each with sum's cardinality, and was
// regenerated from sum itself (ErrSummaryDigest otherwise). Parts that
// hash clean are stamped as a scan stamps them, so the scans after a
// Verify hash nothing it read. The first failure is returned wrapped
// around its sentinel.
func (s *DirSource) Verify(ctx context.Context, sum *summary.Summary, tables []string) (*VerifyReport, error) {
	if s.stale != nil {
		return nil, s.stale
	}
	for i := 0; i < s.shards; i++ {
		if !s.held[i] {
			return nil, fmt.Errorf("scan: %w: shard %d of %d (%s)",
				ErrManifestMissing, i, s.shards, matgen.ManifestPath(s.dir, i, s.shards))
		}
	}
	names := sortedNames(s.tables)
	if sum != nil {
		// The caller's subset may repeat names, as matgen allows.
		want := slices.Compact(slices.Sorted(slices.Values(tables)))
		if tables == nil {
			want = sortedNames(sum.Relations)
		}
		for _, name := range want {
			t, rs := s.tables[name], sum.Relations[name]
			switch {
			case t == nil || rs == nil:
				return nil, fmt.Errorf("scan: %w: relation %q absent from the manifests or the summary", matgen.ErrManifestInconsistent, name)
			case t.info.Rows != rs.Total:
				return nil, fmt.Errorf("scan: %w: %s: the manifests count %d rows, the summary %d", ErrRowCount, name, t.info.Rows, rs.Total)
			}
		}
		if len(names) != len(want) {
			return nil, fmt.Errorf("scan: %w: the manifests carry %d tables, expected %d", matgen.ErrManifestInconsistent, len(names), len(want))
		}
		digest, err := sum.Digest()
		if err != nil {
			return nil, err
		}
		if digest != s.digest {
			return nil, fmt.Errorf("scan: %w: %s holds the database of summary %s, not of %s", ErrSummaryDigest, s.dir, s.digest, digest)
		}
	}
	rep := &VerifyReport{Shards: s.shards, Format: s.format.Name()}
	if s.comp != nil {
		rep.Compression = s.comp.Name()
	}
	for _, name := range names {
		t := s.tables[name]
		check, err := t.tile(s.shards)
		if err != nil {
			return nil, err
		}
		rep.Tables = append(rep.Tables, check)
		rep.RawBytes += check.RawBytes
		for i := range t.parts {
			p := &t.parts[i]
			file, err := os.Open(p.path)
			if err != nil {
				return nil, err
			}
			err = p.verify(ctx, file, true)
			file.Close()
			if err != nil {
				return nil, err
			}
			rep.FilesHashed++
			rep.BytesHashed += p.bytes
		}
	}
	return rep, nil
}

// tile checks that t's parts, one per shard of the split, cover
// [0, TotalRows) with neither gap nor overlap.
func (t *dirTable) tile(shards int) (TableCheck, error) {
	name := t.info.Table
	check := TableCheck{Table: name, Parts: len(t.parts)}
	if len(t.parts) != shards {
		return check, fmt.Errorf("scan: %w: %s is reported by %d manifests of a %d-shard split",
			matgen.ErrManifestInconsistent, name, len(t.parts), shards)
	}
	var end int64 // next expected start row
	for _, p := range t.parts {
		switch {
		case p.start < end:
			return check, fmt.Errorf("scan: %w: %s: shard %d starts at row %d, already covered through %d",
				ErrRangeOverlap, name, p.shard, p.start, end)
		case p.start > end:
			return check, fmt.Errorf("scan: %w: %s: rows [%d, %d) covered by no shard", ErrRangeGap, name, end, p.start)
		}
		end = p.start + p.rows
		check.Rows += p.rows
		check.Bytes += p.bytes
		check.RawBytes += p.raw
	}
	if end != t.info.Rows {
		return check, fmt.Errorf("scan: %w: %s: rows [%d, %d) covered by no shard", ErrRangeGap, name, end, t.info.Rows)
	}
	return check, nil
}

// Digest returns the digest of the summary the directory was
// regenerated from, as its manifests name it.
func (s *DirSource) Digest() string { return s.digest }

// Shards returns the split width the directory's manifests describe.
func (s *DirSource) Shards() int { return s.shards }

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

// Scan implements Source.
func (s *DirSource) Scan(ctx context.Context, spec Spec) (*Scan, error) {
	if !s.format.Scannable() {
		return nil, fmt.Errorf("%w: %s holds %s parts, which are written to be loaded, not scanned", ErrSpec, s.dir, s.format.Name())
	}
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
	src   *DirSource
	t     *dirTable
	end   int64 // the scan's range ends at row end
	pkSet pred.Set
	hasPK bool
	noPK  bool // the layout has no pk column: a run's Start is where it was read

	pi      int // index of the open part, -1 before the first open
	rr      format.RunReader
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
	sp, err := f.rr.Run(min(max, f.partEnd-abs))
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
	if err := f.rr.Skip(k); err != nil {
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
	if err := p.verify(ctx, file, false); err != nil {
		return fail(err)
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
	afterLine := f.src.comp == nil && f.src.format.Lines() && off > 0
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
	rr, err := f.src.format.NewRunReader(br, format.Part{
		Cols: f.t.info.Cols, PKCol: f.t.pkCol, Start: chunkStart, Rows: end - chunkStart, Header: p.header})
	if err != nil {
		return failAt(err)
	}
	f.pi, f.rr, f.pos, f.partEnd, f.landed = pi, rr, chunkStart, end, true
	if err := f.skip(abs); err != nil {
		return fail(err)
	}
	return nil
}

// close closes the open part and adds the rows its reader parsed to the
// parsed-rows counter: once per part opened, not once per run.
func (f *dirRuns) close() error {
	if f.rr != nil {
		mDirParsedRows.Add(f.rr.Close())
		f.rr = nil
	}
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
	return first
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
