package orchestrate

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"

	"github.com/dsl-repro/hydra/internal/fsx"
	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/summary"
)

// Verification failure classes. Every failure Verify can report wraps
// exactly one of these sentinels, so callers (and tests) can distinguish
// a truncated part file from a bad checksum from a mis-tiled range with
// errors.Is instead of string matching.
var (
	// ErrManifestMissing: a shard of the split has no manifest in Dir.
	ErrManifestMissing = errors.New("shard manifest missing")
	// ErrManifestInconsistent: manifests disagree about the job (format,
	// codec, shard count, table set, or total cardinality), or one
	// contradicts itself — a chunk index that does not fit its own row
	// count or file size, which matgen.ReadManifest refuses for every
	// reader under this same value.
	ErrManifestInconsistent = matgen.ErrManifestInconsistent
	// ErrRangeOverlap: consecutive shards claim overlapping row ranges.
	ErrRangeOverlap = errors.New("shard row ranges overlap")
	// ErrRangeGap: a row range is missing between consecutive shards or
	// at either end of the table.
	ErrRangeGap = errors.New("shard row ranges leave a gap")
	// ErrRowCount: shard row counts do not sum to the summary's
	// cardinality for a table.
	ErrRowCount = errors.New("row counts do not match summary cardinality")
	// ErrTruncated: a part file's size differs from the bytes its
	// manifest recorded (the torn-copy / partial-ship failure).
	ErrTruncated = errors.New("shard file truncated or resized")
	// ErrChecksum: a part file re-hashes to a different checksum than
	// its manifest recorded (the bit-rot / wrong-file failure).
	ErrChecksum = errors.New("shard file checksum mismatch")
	// ErrStaleArtifacts: the directory holds manifests or part files
	// from a different shard split. Verification would pass on one
	// manifest set while a `cat *.part-*` consumption glob would mix
	// widths and corrupt the assembly, so the mixture is rejected.
	ErrStaleArtifacts = errors.New("stale artifacts from a different shard split")
)

// VerifyOptions selects what to verify.
type VerifyOptions struct {
	// Dir holds the part files and manifests. Part files are looked up
	// by base name under Dir, so artifacts generated elsewhere can be
	// shipped into one directory and verified there.
	Dir string
	// Shards is the expected split width; 0 infers it from the first
	// manifest found.
	Shards int
	// Summary, when set, anchors the row-count check: every table's
	// shard rows must sum to its cardinality, and every expected
	// relation must be present.
	Summary *summary.Summary
	// Tables is the expected table subset when Summary is set; nil means
	// all of Summary's relations.
	Tables []string
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

// VerifyReport summarizes a successful verification.
type VerifyReport struct {
	Shards      int
	Format      string
	Compression string
	Tables      []TableCheck
	// RawBytes is the assembly's total encoded size before compression,
	// summed from the manifests.
	RawBytes int64
	// FilesHashed and BytesHashed count the re-hash work performed.
	FilesHashed int
	BytesHashed int64
}

// Verify loads the split's manifests from Dir and proves the output
// whole: all manifests present and mutually consistent, every table's
// shard ranges tiling [0, TotalRows) with rows summing to the summary's
// cardinality, and every part file matching its recorded size and
// SHA-256. The first failure is returned wrapped around its sentinel.
func Verify(opts VerifyOptions) (*VerifyReport, error) {
	if opts.Dir == "" {
		return nil, errors.New("orchestrate: verify: Dir is required")
	}
	shards := opts.Shards
	if shards == 0 {
		inferred, err := inferShards(opts.Dir)
		if err != nil {
			return nil, err
		}
		shards = inferred
	}
	if err := checkStale(opts.Dir, shards); err != nil {
		return nil, err
	}
	manifests := make([]*matgen.Manifest, shards)
	for i := 0; i < shards; i++ {
		path := matgen.ManifestPath(opts.Dir, i, shards)
		m, err := matgen.ReadManifest(path)
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("orchestrate: %w: shard %d of %d (%s)", ErrManifestMissing, i, shards, path)
		}
		if err != nil {
			return nil, err
		}
		if m.Shard != i || m.Shards != shards {
			return nil, fmt.Errorf("orchestrate: %w: %s claims shard %d of %d", ErrManifestInconsistent, path, m.Shard, m.Shards)
		}
		if i > 0 && (m.Format != manifests[0].Format || m.Compression != manifests[0].Compression) {
			return nil, fmt.Errorf("orchestrate: %w: shard %d format %q/%q != shard 0 format %q/%q",
				ErrManifestInconsistent, i, m.Format, m.Compression, manifests[0].Format, manifests[0].Compression)
		}
		manifests[i] = m
	}
	rep := &VerifyReport{Shards: shards, Format: manifests[0].Format, Compression: manifests[0].Compression}

	byTable, order, err := collectTables(manifests)
	if err != nil {
		return nil, err
	}
	if err := checkSummaryCoverage(opts, order); err != nil {
		return nil, err
	}
	for _, name := range order {
		parts := byTable[name]
		check, err := verifyTable(opts, name, parts, rep)
		if err != nil {
			return nil, err
		}
		rep.Tables = append(rep.Tables, check)
		rep.RawBytes += check.RawBytes
	}
	return rep, nil
}

// tablePart is one shard's report for one table.
type tablePart struct {
	shard int
	tr    matgen.TableReport
}

// collectTables groups every manifest's table reports by table, in
// shard order, and cross-checks that all shards saw the same table set.
func collectTables(manifests []*matgen.Manifest) (map[string][]tablePart, []string, error) {
	byTable := map[string][]tablePart{}
	var order []string
	for _, tr := range manifests[0].Tables {
		order = append(order, tr.Table)
	}
	sort.Strings(order)
	for i, m := range manifests {
		if len(m.Tables) != len(order) {
			return nil, nil, fmt.Errorf("orchestrate: %w: shard %d reports %d tables, shard 0 reports %d",
				ErrManifestInconsistent, i, len(m.Tables), len(order))
		}
		for _, tr := range m.Tables {
			if _, ok := byTable[tr.Table]; !ok && i > 0 {
				return nil, nil, fmt.Errorf("orchestrate: %w: shard %d reports table %q unknown to shard 0",
					ErrManifestInconsistent, i, tr.Table)
			}
			byTable[tr.Table] = append(byTable[tr.Table], tablePart{shard: i, tr: tr})
		}
	}
	return byTable, order, nil
}

// checkSummaryCoverage confirms the manifests cover exactly the expected
// relations when a summary anchors the verification.
func checkSummaryCoverage(opts VerifyOptions, order []string) error {
	if opts.Summary == nil {
		return nil
	}
	// A set, not a slice: the caller's subset may repeat names (matgen
	// dedups them at generation time) and must not be mutated here.
	expect := map[string]bool{}
	if opts.Tables != nil {
		for _, name := range opts.Tables {
			expect[name] = true
		}
	} else {
		for name := range opts.Summary.Relations {
			expect[name] = true
		}
	}
	have := map[string]bool{}
	for _, name := range order {
		have[name] = true
	}
	for _, name := range sortedKeys(expect) {
		if !have[name] {
			return fmt.Errorf("orchestrate: %w: relation %q absent from manifests", ErrManifestInconsistent, name)
		}
	}
	if len(order) != len(expect) {
		return fmt.Errorf("orchestrate: %w: manifests carry %d tables, expected %d", ErrManifestInconsistent, len(order), len(expect))
	}
	return nil
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// verifyTable checks one table's tiling, cardinality, and files.
func verifyTable(opts VerifyOptions, name string, parts []tablePart, rep *VerifyReport) (TableCheck, error) {
	check := TableCheck{Table: name, Parts: len(parts)}
	total := parts[0].tr.TotalRows
	var end int64 // next expected StartRow
	for _, p := range parts {
		tr := p.tr
		if tr.TotalRows != total {
			return check, fmt.Errorf("orchestrate: %w: %s: shard %d claims %d total rows, shard %d claims %d",
				ErrManifestInconsistent, name, p.shard, tr.TotalRows, parts[0].shard, total)
		}
		switch {
		case tr.StartRow < end:
			return check, fmt.Errorf("orchestrate: %w: %s: shard %d starts at row %d, already covered through %d",
				ErrRangeOverlap, name, p.shard, tr.StartRow, end)
		case tr.StartRow > end:
			return check, fmt.Errorf("orchestrate: %w: %s: rows [%d, %d) covered by no shard",
				ErrRangeGap, name, end, tr.StartRow)
		}
		end = tr.StartRow + tr.Rows
		check.Rows += tr.Rows
		check.Bytes += tr.Bytes
		if tr.RawBytes > 0 {
			check.RawBytes += tr.RawBytes
		} else {
			check.RawBytes += tr.Bytes
		}
		if err := verifyPartFile(opts.Dir, name, p, rep); err != nil {
			return check, err
		}
	}
	if end != total {
		return check, fmt.Errorf("orchestrate: %w: %s: rows [%d, %d) covered by no shard", ErrRangeGap, name, end, total)
	}
	if opts.Summary != nil {
		rs, ok := opts.Summary.Relations[name]
		if !ok {
			return check, fmt.Errorf("orchestrate: %w: manifests carry table %q unknown to the summary", ErrManifestInconsistent, name)
		}
		if check.Rows != rs.Total {
			return check, fmt.Errorf("orchestrate: %w: %s: shards sum to %d rows, summary says %d",
				ErrRowCount, name, check.Rows, rs.Total)
		}
	} else if check.Rows != total {
		return check, fmt.Errorf("orchestrate: %w: %s: shards sum to %d rows, manifests claim %d total",
			ErrRowCount, name, check.Rows, total)
	}
	return check, nil
}

// verifyPartFile re-checks one shard file's size and checksum against
// what its manifest recorded at generation time.
func verifyPartFile(dir, table string, p tablePart, rep *VerifyReport) error {
	tr := p.tr
	if tr.Path == "" {
		return nil
	}
	path := filepath.Join(dir, filepath.Base(tr.Path))
	sum, size, err := fsx.HashFile(path)
	if err != nil {
		return fmt.Errorf("orchestrate: %s shard %d: %w", table, p.shard, err)
	}
	if size != tr.Bytes {
		return fmt.Errorf("orchestrate: %w: %s: %d bytes on disk, manifest recorded %d",
			ErrTruncated, path, size, tr.Bytes)
	}
	if tr.Checksum != "" && sum != tr.Checksum {
		return fmt.Errorf("orchestrate: %w: %s: sha256 %s, manifest recorded %s",
			ErrChecksum, path, sum, tr.Checksum)
	}
	rep.FilesHashed++
	rep.BytesHashed += size
	return nil
}

var (
	manifestNameRe = regexp.MustCompile(`^manifest-\d{3}-of-(\d{3})\.json$`)
	partNameRe     = regexp.MustCompile(`\.part-\d{3}-of-(\d{3})`)
)

// checkStale rejects manifests and part files left behind by a run with
// a different shard width. They cannot belong to the split under
// verification, and leaving them unflagged would let a passing report
// sit next to files that corrupt any glob-based consumption.
func checkStale(dir string, shards int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		m := manifestNameRe.FindStringSubmatch(name)
		if m == nil {
			m = partNameRe.FindStringSubmatch(name)
		}
		if m == nil {
			continue
		}
		w, err := strconv.Atoi(m[1])
		if err != nil || w != shards {
			return fmt.Errorf("orchestrate: %w: %s belongs to a %d-shard split, verifying %d",
				ErrStaleArtifacts, name, w, shards)
		}
	}
	return nil
}

// inferShards finds the split width from the manifest files present.
func inferShards(dir string) (int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "manifest-*-of-*.json"))
	if err != nil {
		return 0, err
	}
	if len(matches) == 0 {
		return 0, fmt.Errorf("orchestrate: %w: no manifests in %s", ErrManifestMissing, dir)
	}
	m, err := matgen.ReadManifest(matches[0])
	if err != nil {
		return 0, err
	}
	return m.Shards, nil
}
