package matgen

import (
	"compress/gzip"
	"fmt"
	"io"
	"sync"
)

// Compressor wraps a format's byte stream in a compression codec without
// giving up matgen's determinism contract. The engine compresses each
// deterministic chunk — plus one frame for the header and one for the
// footer — into an independent, self-terminating member of the codec's
// stream format, inside the encode workers so members compress
// concurrently. Because chunk boundaries depend only on (codec, format
// alignment) and never on the worker count, the framed output is
// byte-identical for any -workers value, and concatenating compressed
// shard parts in shard order yields a valid multi-member stream whose
// decompression is the whole-table file.
//
// The codec is gzip or none; the interface is what the engine, the
// directory scan and this package's tests' failing fake need of it.
type Compressor interface {
	// Name is the codec name used by Options.Compress and the CLI
	// -compress flag.
	Name() string
	// Ext is the file suffix appended after the format's extension and
	// part suffix, e.g. ".gz".
	Ext() string
	// ContentType is the media type of a compressed stream: the codec is
	// part of the payload, not a transfer encoding.
	ContentType() string
	// AppendFrame appends one compressed frame containing exactly src to
	// dst and returns it. Frames must be self-terminating: a decoder of
	// the concatenated frames recovers the concatenated sources. The
	// engine calls AppendFrame from concurrent workers; implementations
	// must be safe for concurrent use (pool any writer state).
	AppendFrame(dst, src []byte) ([]byte, error)
	// NewReader decompresses a stream of concatenated frames.
	NewReader(r io.Reader) (io.ReadCloser, error)
}

// CompressorNames lists the codec names Options.Compress takes besides
// "" and "none".
func CompressorNames() []string { return []string{"gzip"} }

// CompressorFor resolves a codec by name; "" and "none" mean no
// compression (nil, nil).
func CompressorFor(name string) (Compressor, error) {
	switch name {
	case "", "none":
		return nil, nil
	case "gzip":
		return gzipCompressor{}, nil
	}
	return nil, fmt.Errorf("matgen: unknown compression %q (have gzip)", name)
}

// --- gzip ---

// gzipCompressor frames chunks as independent gzip members. Go's gzip
// writer emits a fixed header (zero mtime, no name) so the frame bytes
// are a pure function of the source bytes, keeping compressed output
// deterministic across runs and worker counts.
type gzipCompressor struct{}

// appendSliceWriter adapts append-to-slice to io.Writer so a pooled gzip
// writer can emit straight into the caller's buffer.
type appendSliceWriter struct{ b []byte }

func (a *appendSliceWriter) Write(p []byte) (int, error) {
	a.b = append(a.b, p...)
	return len(p), nil
}

var gzipPool = sync.Pool{
	New: func() any { return gzip.NewWriter(io.Discard) },
}

func (gzipCompressor) Name() string        { return "gzip" }
func (gzipCompressor) Ext() string         { return ".gz" }
func (gzipCompressor) ContentType() string { return "application/gzip" }

func (gzipCompressor) AppendFrame(dst, src []byte) ([]byte, error) {
	aw := &appendSliceWriter{b: dst}
	zw := gzipPool.Get().(*gzip.Writer)
	defer gzipPool.Put(zw)
	zw.Reset(aw)
	if _, err := zw.Write(src); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return aw.b, nil
}

func (gzipCompressor) NewReader(r io.Reader) (io.ReadCloser, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	return zr, nil // multistream mode reads concatenated members
}
