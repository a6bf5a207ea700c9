package matgen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func gunzip(t *testing.T, b []byte) []byte {
	t.Helper()
	c, err := CompressorFor("gzip")
	if err != nil {
		t.Fatal(err)
	}
	zr, err := c.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer zr.Close()
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompressedWorkerCountDeterminism extends the headline guarantee to
// compressed output: because chunks are framed as independent gzip
// members on chunk boundaries that depend only on (BatchRows, alignment,
// range), the compressed bytes must be identical for any worker count.
func TestCompressedWorkerCountDeterminism(t *testing.T) {
	sum := testSummary()
	for _, format := range []string{"csv", "heap", "sql"} {
		t.Run(format, func(t *testing.T) {
			var got map[string][]byte
			var manifest []byte
			for _, workers := range []int{1, 8} {
				dir := t.TempDir()
				rep, err := Materialize(sum, Options{
					Dir: dir, Format: format, Compress: "gzip",
					Workers: workers, BatchRows: 64,
				})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Compression != "gzip" {
					t.Fatalf("report compression = %q", rep.Compression)
				}
				files := readDirFiles(t, dir)
				if got == nil {
					got, manifest = files, manifestBytes(t, dir, rep)
					continue
				}
				if m := manifestBytes(t, dir, rep); !bytes.Equal(m, manifest) {
					t.Fatalf("workers=%d: manifest (member offsets included) differs from workers=1", workers)
				}
				for name, b := range files {
					if !bytes.Equal(b, got[name]) {
						t.Fatalf("workers=%d: %s differs from workers=1 compressed output", workers, name)
					}
				}
			}
			for name := range got {
				if filepath.Ext(name) != ".gz" {
					t.Fatalf("compressed output %s lacks .gz suffix", name)
				}
			}
		})
	}
}

// TestCompressedRoundTrip: decompressing the compressed single-shard file
// must reproduce the uncompressed run byte-for-byte.
func TestCompressedRoundTrip(t *testing.T) {
	sum := testSummary()
	plain := t.TempDir()
	if _, err := Materialize(sum, Options{Dir: plain, Format: "csv", Workers: 2, BatchRows: 64}); err != nil {
		t.Fatal(err)
	}
	packed := t.TempDir()
	rep, err := Materialize(sum, Options{Dir: packed, Format: "csv", Compress: "gzip", Workers: 2, BatchRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range readDirFiles(t, plain) {
		b, err := os.ReadFile(filepath.Join(packed, name+".gz"))
		if err != nil {
			t.Fatal(err)
		}
		if got := gunzip(t, b); !bytes.Equal(got, want) {
			t.Fatalf("%s: decompressed %d bytes != plain %d bytes", name, len(got), len(want))
		}
	}
	for _, tr := range rep.Tables {
		if tr.RawBytes <= tr.Bytes || tr.RawBytes <= 0 {
			t.Fatalf("%s: raw %d vs compressed %d bytes; compression should shrink this data", tr.Table, tr.RawBytes, tr.Bytes)
		}
	}
}

// TestCompressedShardsConcatenate is the multi-machine contract under
// compression, both ways: decompressed parts concatenate into the plain
// whole-table file, and the raw .gz parts concatenate into a valid
// multi-member stream that decompresses to the same thing.
func TestCompressedShardsConcatenate(t *testing.T) {
	sum := testSummary()
	const shards = 3
	for _, format := range []string{"csv", "heap"} {
		t.Run(format, func(t *testing.T) {
			whole := t.TempDir()
			if _, err := Materialize(sum, Options{Dir: whole, Format: format, Workers: 2, BatchRows: 128}); err != nil {
				t.Fatal(err)
			}
			parts := t.TempDir()
			for i := 0; i < shards; i++ {
				if _, err := Materialize(sum, Options{
					Dir: parts, Format: format, Compress: "gzip",
					Workers: 3, Shards: shards, Shard: i, BatchRows: 128,
				}); err != nil {
					t.Fatal(err)
				}
			}
			for name, want := range readDirFiles(t, whole) {
				var catPlain, catGz []byte
				for i := 0; i < shards; i++ {
					b, err := os.ReadFile(filepath.Join(parts, fmt.Sprintf("%s.part-%03d-of-%03d.gz", name, i, shards)))
					if err != nil {
						t.Fatal(err)
					}
					catPlain = append(catPlain, gunzip(t, b)...)
					catGz = append(catGz, b...)
				}
				if !bytes.Equal(catPlain, want) {
					t.Fatalf("%s: concatenated decompressed parts != whole file", name)
				}
				if got := gunzip(t, catGz); !bytes.Equal(got, want) {
					t.Fatalf("%s: decompressing concatenated .gz parts != whole file", name)
				}
			}
		})
	}
}

// TestManifestRecordsChecksumAndCodec: the manifest must carry what a
// verifier needs — codec, post-compression size, and a checksum that
// matches a re-hash of the file as written.
func TestManifestRecordsChecksumAndCodec(t *testing.T) {
	sum := testSummary()
	dir := t.TempDir()
	rep, err := Materialize(sum, Options{Dir: dir, Format: "jsonl", Compress: "gzip", Workers: 2, Shards: 2, Shard: 0})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(rep.ManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Compression != "gzip" {
		t.Fatalf("manifest compression = %q", m.Compression)
	}
	for _, tr := range m.Tables {
		b, err := os.ReadFile(tr.Path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(b)) != tr.Bytes {
			t.Fatalf("%s: file %d bytes, manifest %d", tr.Table, len(b), tr.Bytes)
		}
		if h := sha256.Sum256(b); hex.EncodeToString(h[:]) != tr.Checksum {
			t.Fatalf("%s: re-hash %x != manifest checksum %s", tr.Table, h, tr.Checksum)
		}
	}
}

func TestCompressValidation(t *testing.T) {
	sum := testSummary()
	if _, err := Materialize(sum, Options{Dir: t.TempDir(), Format: "csv", Compress: "zstd"}); err == nil {
		t.Fatal("unregistered codec must error")
	}
	if _, err := Materialize(sum, Options{Format: "discard", Compress: "gzip"}); err == nil {
		t.Fatal("compressing the discard sink must error")
	}
	if names := CompressorNames(); len(names) != 1 || names[0] != "gzip" {
		t.Fatalf("CompressorNames = %v, want [gzip]", names)
	}
	if c, err := CompressorFor("none"); c != nil || err != nil {
		t.Fatalf("CompressorFor(none) = %v, %v", c, err)
	}
}
