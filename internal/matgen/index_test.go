package matgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

// manifestBytes returns a run's manifest as written, with the one thing
// that differs between two runs of one job — the output directory inside
// the path fields — replaced.
func manifestBytes(t *testing.T, dir string, rep *Report) []byte {
	t.Helper()
	b, err := os.ReadFile(rep.ManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.ReplaceAll(b, []byte(dir), []byte("DIR"))
}

// TestManifestChunkIndex pins what the index says: Offsets[i] is the
// byte of the file as written at which row StartRow+i*ChunkRows starts —
// past the header for shard 0, a codec member's first byte when
// compressed — for any worker count.
func TestManifestChunkIndex(t *testing.T) {
	sum := testSummary()
	for _, compress := range []string{"", "gzip"} {
		for _, shard := range []int{0, 1} {
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("csv+%s/shard%d/w%d", compress, shard, workers), func(t *testing.T) {
					dir := t.TempDir()
					rep, err := materializeGrid(sum, Options{
						Dir: dir, Format: "csv", Compress: compress, Workers: workers,
						Shards: 2, Shard: shard, Tables: []string{"S"},
					}, 64)
					if err != nil {
						t.Fatal(err)
					}
					m, err := ReadManifest(rep.ManifestPath)
					if err != nil {
						t.Fatal(err)
					}
					tr := m.Tables[0]
					if tr.ChunkRows != 64 || int64(len(tr.Offsets)) != (tr.Rows+63)/64 {
						t.Fatalf("index = %d offsets in chunks of %d over %d rows", len(tr.Offsets), tr.ChunkRows, tr.Rows)
					}
					file, err := os.ReadFile(tr.Path)
					if err != nil {
						t.Fatal(err)
					}
					for i, off := range tr.Offsets {
						rest := file[off:]
						if compress != "" {
							rest = gunzip(t, rest)
						}
						wantPK := fmt.Sprintf("%d,", tr.StartRow+int64(i)*tr.ChunkRows+1)
						if !bytes.HasPrefix(rest, []byte(wantPK)) {
							t.Fatalf("offset %d (%d) starts %q, want row %s…", i, off, rest[:min(len(rest), 12)], wantPK)
						}
					}
					if (tr.Offsets[0] == 0) != (shard != 0) {
						t.Fatalf("shard %d: first chunk at byte %d; only shard 0 has a header before it", shard, tr.Offsets[0])
					}
				})
			}
		}
	}
}

// TestReadManifestRefusesBadIndex: the manifest is not checksummed, so
// an index that does not fit its own part is refused when it is read —
// before OpenDir or Verify could act on it.
func TestReadManifestRefusesBadIndex(t *testing.T) {
	ok := TableReport{Table: "S", Rows: 100, Bytes: 1000, ChunkRows: 40, Offsets: []int64{10, 400, 800}}
	cases := map[string]func(*TableReport){
		"short":            func(tr *TableReport) { tr.Offsets = tr.Offsets[:2] },
		"long":             func(tr *TableReport) { tr.Offsets = append(tr.Offsets, 900) },
		"not increasing":   func(tr *TableReport) { tr.Offsets = []int64{10, 800, 400} },
		"repeated":         func(tr *TableReport) { tr.Offsets = []int64{10, 400, 400} },
		"negative":         func(tr *TableReport) { tr.Offsets = []int64{-1, 400, 800} },
		"past the file":    func(tr *TableReport) { tr.Offsets = []int64{10, 400, 1000} },
		"no chunk size":    func(tr *TableReport) { tr.ChunkRows = 0 },
		"negative chunk":   func(tr *TableReport) { tr.ChunkRows = -40 },
		"index of nothing": func(tr *TableReport) { tr.Rows = 0 },
		"chunk size alone": func(tr *TableReport) { tr.Offsets = nil },
	}
	decode := func(tr TableReport) error {
		b, err := json.Marshal(Manifest{Version: manifestVersion, SummaryDigest: "d", Format: "csv", Shards: 1, Tables: []TableReport{tr}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = decodeManifest(bytes.NewReader(b))
		return err
	}
	if err := decode(ok); err != nil {
		t.Fatalf("well-formed index refused: %v", err)
	}
	old := ok
	old.ChunkRows, old.Offsets = 0, nil
	if err := decode(old); err != nil {
		t.Fatalf("manifest without an index refused: %v", err)
	}
	for name, mutate := range cases {
		tr := ok
		tr.Offsets = append([]int64(nil), ok.Offsets...)
		mutate(&tr)
		if err := decode(tr); !errors.Is(err, ErrManifestInconsistent) || !strings.Contains(err.Error(), "S") {
			t.Errorf("%s: err = %v, want ErrManifestInconsistent naming the table", name, err)
		}
	}
}

// FuzzReadManifest: whatever bytes a manifest file holds, reading it
// either fails or yields an index a reader can seek by without further
// checks — never more offsets than the part has rows, each inside the
// file, in order.
func FuzzReadManifest(f *testing.F) {
	dir := f.TempDir()
	for _, compress := range []string{"", "gzip"} {
		rep, err := materializeGrid(testSummary(), Options{Dir: dir, Format: "csv", Compress: compress, Workers: 1}, 1024)
		if err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(rep.ManifestPath)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"version":2,"summary_digest":"d","format":"csv","shards":1,"tables":[{"table":"S","rows":3,"bytes":9,"total_rows":3}]}`))
	f.Add([]byte(`{"version":2,"summary_digest":"d","tables":[{"table":"S","rows":3,"bytes":9,"chunk_rows":1,"offsets":[0,3,6]}]}`))
	f.Add([]byte(`{"version":2,"summary_digest":"d","tables":[{"table":"S","rows":9223372036854775807,"bytes":9,"chunk_rows":1,"offsets":[0,8]}]}`))
	f.Add([]byte(`{"version":2,"summary_digest":"d","tables":[{"rows":2,"bytes":-1,"chunk_rows":-9223372036854775808,"offsets":[0]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, tr := range m.Tables {
			if len(tr.Offsets) == 0 {
				if tr.ChunkRows != 0 {
					t.Fatalf("%s: chunk_rows %d without offsets", tr.Table, tr.ChunkRows)
				}
				continue
			}
			if tr.ChunkRows < 1 || int64(len(tr.Offsets)) > tr.Rows {
				t.Fatalf("%s: %d offsets in chunks of %d over %d rows", tr.Table, len(tr.Offsets), tr.ChunkRows, tr.Rows)
			}
			// The last chunk holds at least one row, and no row lies past it.
			if last := int64(len(tr.Offsets)-1) * tr.ChunkRows; last >= tr.Rows || tr.Rows-last > tr.ChunkRows {
				t.Fatalf("%s: %d chunks of %d do not tile %d rows", tr.Table, len(tr.Offsets), tr.ChunkRows, tr.Rows)
			}
			prev := int64(-1)
			for _, off := range tr.Offsets {
				if off <= prev || off >= tr.Bytes {
					t.Fatalf("%s: offsets %v not increasing inside %d bytes", tr.Table, tr.Offsets, tr.Bytes)
				}
				prev = off
			}
		}
	})
}
