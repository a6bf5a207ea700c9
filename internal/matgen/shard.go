package matgen

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"strconv"

	"github.com/dsl-repro/hydra/internal/fsx"
)

// Range is a half-open interval [Lo, Hi) of absolute 0-based row offsets;
// row r holds primary key r+1.
type Range struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
}

// Rows returns the range's cardinality.
func (r Range) Rows() int64 { return r.Hi - r.Lo }

// shardRange computes shard i of n over total rows, with interior
// boundaries moved to the nearest multiple of step — the table's chunk
// rows — so every piece starts and ends on a chunk boundary of the whole
// table. The partition depends only on (total, n, step) — never on which
// shard asks or how many workers run — which is what lets K machines
// generate pieces that concatenate, in shard order, into byte-identical
// whole-table output.
func shardRange(total int64, shard, n, step int) Range {
	lo := alignNear(SplitPoint(total, shard, n), total, step)
	hi := total
	if shard != n-1 {
		hi = alignNear(SplitPoint(total, shard+1, n), total, step)
	}
	if hi < lo {
		hi = lo
	}
	return Range{Lo: lo, Hi: hi}
}

// SplitPoint is ⌊total·i/n⌋, where piece i of an n-way split of total
// rows starts (0 ≤ i ≤ n, total ≥ 0). The product is taken in 128 bits:
// in 64 it overflows once total·i passes 2^63, and a split of a few
// thousand rows into 2^62 pieces would hand one piece every row.
func SplitPoint(total int64, i, n int) int64 {
	hi, lo := bits.Mul64(uint64(total), uint64(i))
	q, _ := bits.Div64(hi, lo, uint64(n))
	return int64(q)
}

// alignNear is the multiple of step nearest x (0 ≤ x ≤ total) that is
// at most total, the lower one on a tie.
func alignNear(x, total int64, step int) int64 {
	s := int64(step)
	down := x - x%s
	if 2*(x-down) > s && down <= total-s {
		return down + s
	}
	return down
}

// chunkRows picks the per-chunk row count handed to one worker: the
// configured batch size rounded up to the format's alignment, so every
// chunk starts on an encoding boundary.
func chunkRows(batchRows, align int) int {
	return (max(batchRows, align) + align - 1) / align * align
}

// Manifest is the per-shard JSON document written next to the output
// files. It records exactly which piece of the split this invocation
// produced — the coordination artifact for multi-machine runs: each
// machine materializes its shard, ships the parts, and the manifests say
// how to concatenate and verify them.
type Manifest struct {
	Version int    `json:"version"`
	Format  string `json:"format"`
	// Compression is the output codec recorded at generation time; a
	// verifier needs it to decompress parts, but checksums are over the
	// file bytes as written so verification itself needs no decoder.
	Compression string        `json:"compression,omitempty"`
	Shard       int           `json:"shard"`
	Shards      int           `json:"shards"`
	Tables      []TableReport `json:"tables"`
	Rows        int64         `json:"rows"`
	Bytes       int64         `json:"bytes"`
	// RawBytes is the shard's encoded size before compression (equal to
	// Bytes for uncompressed output) — the number a capacity planner
	// wants when deciding whether regenerating beats shipping.
	RawBytes int64 `json:"raw_bytes,omitempty"`
}

const manifestVersion = 1

// ManifestPath returns the manifest file name for one shard under dir.
func ManifestPath(dir string, shard, shards int) string {
	return filepath.Join(dir, "manifest-"+splitName(shard, shards)+".json")
}

// splitName is "<shard>-of-<shards>", both padded to the digits of the
// last shard's index and to three at least, so that a split's names sort
// in shard order at any width and splits under 1 000 shards keep their
// three-digit names.
func splitName(shard, shards int) string {
	w := max(3, len(strconv.Itoa(shards-1)))
	return fmt.Sprintf("%0*d-of-%0*d", w, shard, w, shards)
}

func writeManifest(path string, m *Manifest) error {
	return fsx.WriteAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}

// ErrManifestInconsistent marks a manifest that contradicts itself or
// its siblings. Every reader of a directory meets it the same way:
// ReadManifest returns it, and scan's DirSource, the one reader of a
// shard directory (orchestrate.Verify included), reports it under this
// very value.
var ErrManifestInconsistent = errors.New("shard manifests inconsistent")

// ReadManifest loads a manifest written by Materialize. The file is not
// checksummed, so what it says about positions inside a part is checked
// here, before any reader seeks by it: see TableReport's index fields.
func ReadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := decodeManifest(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("matgen: %s: %w", path, err)
	}
	return m, nil
}

func decodeManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, err
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("unsupported manifest version %d", m.Version)
	}
	for i := range m.Tables {
		if err := m.Tables[i].checkIndex(); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrManifestInconsistent, m.Tables[i].Table, err)
		}
	}
	return &m, nil
}

// checkIndex reports whether the report's chunk index can be sought by:
// one offset per chunk of Rows, strictly increasing, all inside the
// file. No index at all is the valid single-chunk case.
func (tr *TableReport) checkIndex() error {
	if tr.ChunkRows == 0 && len(tr.Offsets) == 0 {
		return nil
	}
	if tr.ChunkRows < 1 || tr.Rows < 1 {
		return fmt.Errorf("index of %d offsets over %d rows in chunks of %d", len(tr.Offsets), tr.Rows, tr.ChunkRows)
	}
	chunks := tr.Rows / tr.ChunkRows
	if tr.Rows%tr.ChunkRows != 0 {
		chunks++
	}
	if int64(len(tr.Offsets)) != chunks {
		return fmt.Errorf("index has %d offsets, %d rows in chunks of %d need %d",
			len(tr.Offsets), tr.Rows, tr.ChunkRows, chunks)
	}
	prev := int64(-1)
	for i, off := range tr.Offsets {
		if off <= prev {
			return fmt.Errorf("index offset %d (%d) does not follow %d", i, off, prev)
		}
		prev = off
	}
	if prev >= tr.Bytes {
		return fmt.Errorf("index ends at byte %d of a %d-byte file", prev, tr.Bytes)
	}
	return nil
}
