package matgen

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// referenceChecksum is the part checksum's definition, spelled out: the
// SHA-256 of the concatenated SHA-256s of the consecutive 1 MiB blocks.
func referenceChecksum(b []byte) string {
	var list []byte
	for off := 0; off < len(b); off += 1 << 20 {
		d := sha256.Sum256(b[off:min(off+1<<20, len(b))])
		list = append(list, d[:]...)
	}
	sum := sha256.Sum256(list)
	return hex.EncodeToString(sum[:])
}

// checksumSizes straddle every block boundary the definition has.
var checksumSizes = []int{0, 1, ChecksumBlock - 1, ChecksumBlock, ChecksumBlock + 1, 3*ChecksumBlock + 17}

func randomBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestChecksumMatchesReference: the writer and the verifier both give
// the definition's checksum, at and around every block boundary; an
// empty part is the SHA-256 of no bytes.
func TestChecksumMatchesReference(t *testing.T) {
	for _, n := range checksumSizes {
		b := randomBytes(n, int64(n))
		want := referenceChecksum(b)
		c := NewChecksum()
		c.Write(b)
		if got := c.Sum(); got != want {
			t.Errorf("%d bytes: writer %s, reference %s", n, got, want)
		}
		got, err := PartChecksum(context.Background(), bytes.NewReader(b), int64(n))
		if err != nil || got != want {
			t.Errorf("%d bytes: verifier %s (%v), reference %s", n, got, err, want)
		}
	}
	if got, want := referenceChecksum(nil), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"; got != want {
		t.Errorf("empty part: %s, want the SHA-256 of no bytes %s", got, want)
	}
}

// TestChecksumWriteSizes: how the bytes are cut into writes does not
// move the checksum.
func TestChecksumWriteSizes(t *testing.T) {
	b := randomBytes(3*ChecksumBlock+17, 1)
	want := referenceChecksum(b)
	rng := rand.New(rand.NewSource(2))
	cuts := map[string]func() int{
		"random": func() int { return 1 + rng.Intn(3*ChecksumBlock/2) },
	}
	for _, k := range []int{1, 7, ChecksumBlock - 1, ChecksumBlock, ChecksumBlock + 1} {
		cuts[strconv.Itoa(k)+" bytes"] = func() int { return k }
	}
	for name, next := range cuts {
		c := NewChecksum()
		for rest := b; len(rest) > 0; {
			k := min(next(), len(rest))
			if n, err := c.Write(rest[:k]); n != k || err != nil {
				t.Fatalf("%s: Write = %d, %v", name, n, err)
			}
			rest = rest[k:]
		}
		if got := c.Sum(); got != want {
			t.Errorf("writes of %s: %s, want %s", name, got, want)
		}
	}
}

// countingReader counts ReadAt calls and runs onRead before each.
type countingReader struct {
	size   int64
	calls  atomic.Int64
	onRead func()
}

func (r *countingReader) ReadAt(p []byte, off int64) (int, error) {
	r.calls.Add(1)
	r.onRead()
	if off >= r.size {
		return 0, io.EOF
	}
	n := int(min(int64(len(p)), r.size-off))
	clear(p[:n])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// TestPartChecksumStopsWhenCancelled: a verify cancelled during its first
// read reads at most one more block per goroutine.
func TestPartChecksumStopsWhenCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &countingReader{size: 64 * ChecksumBlock, onRead: cancel}
	if _, err := PartChecksum(ctx, r, r.size); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls, most := r.calls.Load(), int64(runtime.GOMAXPROCS(0)); calls > most {
		t.Fatalf("%d blocks read after the cancel, want at most one per goroutine (%d)", calls, most)
	}
}

// TestPartChecksumShortReader: a part that ends before its size fails
// with io.ErrUnexpectedEOF, never with a checksum of what was there.
func TestPartChecksumShortReader(t *testing.T) {
	r := &countingReader{size: 2*ChecksumBlock + 5, onRead: func() {}}
	if _, err := PartChecksum(context.Background(), r, 3*ChecksumBlock); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestReadManifestRefusesUnverifiable: a version-1 manifest (whole-file
// SHA-256s) is refused with the way out, and a manifest that names no
// summary, or a part without a checksum, is inconsistent: none of them
// could vouch for what a directory holds.
func TestReadManifestRefusesUnverifiable(t *testing.T) {
	rep, err := Materialize(testSummary(), Options{Dir: t.TempDir(), Format: "csv"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(rep.ManifestPath); err != nil {
		t.Fatalf("fresh manifest: %v", err)
	}
	var m Manifest
	b, err := os.ReadFile(rep.ManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		mutate func(*Manifest)
		want   error
		says   string
	}{
		"version 1":      {func(m *Manifest) { m.Version = 1 }, nil, "re-materialize"},
		"no digest":      {func(m *Manifest) { m.SummaryDigest = "" }, ErrManifestInconsistent, "no summary digest"},
		"blank checksum": {func(m *Manifest) { m.Tables[1].Checksum = "" }, ErrManifestInconsistent, "without a checksum"},
	} {
		m := m
		m.Tables = append([]TableReport(nil), m.Tables...)
		tc.mutate(&m)
		b, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		_, err = decodeManifest(bytes.NewReader(b))
		if err == nil || !strings.Contains(err.Error(), tc.says) || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: err = %v, want %v saying %q", name, err, tc.want, tc.says)
		}
	}
}
