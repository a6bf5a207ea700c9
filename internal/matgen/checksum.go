package matgen

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// ChecksumBlock is the block size of a part checksum. It is part of the
// checksum's definition, not a setting: another size gives another
// checksum.
const ChecksumBlock = 1 << 20

// A part's checksum (TableReport.Checksum) is a hash list: the hex
// SHA-256 of the concatenated SHA-256 digests of the part's consecutive
// ChecksumBlock-byte blocks, the last of which may be shorter. An empty
// part has no blocks, so it hashes to the SHA-256 of no bytes. Two parts
// with one checksum have either colliding lists or, block by block,
// colliding SHA-256s, so the list is as collision-resistant as a SHA-256
// of the whole file; unlike one, its blocks hash independently, and a
// verifier (PartChecksum) hashes them on every core. The writer half
// (Checksum) hashes a part once, as it is written. Outside Go:
//
//	python3 -c 'import hashlib,sys; f=open(sys.argv[1],"rb"); print(hashlib.sha256(b"".join(hashlib.sha256(b).digest() for b in iter(lambda: f.read(1<<20), b""))).hexdigest())' PART

// Checksum computes a part checksum from the part's bytes, written in
// order in writes of any size.
type Checksum struct {
	list  hash.Hash // over the digests of the finished blocks
	block hash.Hash // over the open block's bytes
	n     int       // bytes in the open block
	d     [sha256.Size]byte
}

// NewChecksum returns a Checksum of no bytes.
func NewChecksum() *Checksum {
	return &Checksum{list: sha256.New(), block: sha256.New()}
}

// Write adds p to the part; it never fails.
func (c *Checksum) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		k := min(len(p), ChecksumBlock-c.n)
		c.block.Write(p[:k])
		c.n += k
		p = p[k:]
		if c.n == ChecksumBlock {
			c.endBlock()
		}
	}
	return n, nil
}

func (c *Checksum) endBlock() {
	c.list.Write(c.block.Sum(c.d[:0]))
	c.block.Reset()
	c.n = 0
}

// Sum ends the part and returns its hex checksum: call it once, after
// the last Write.
func (c *Checksum) Sum() string {
	if c.n > 0 {
		c.endBlock()
	}
	return hex.EncodeToString(c.list.Sum(nil))
}

// checksumBufs recycles PartChecksum's block buffers: a Verify hashes
// part after part.
var checksumBufs = sync.Pool{New: func() any { return new([ChecksumBlock]byte) }}

// PartChecksum returns the checksum of the first size bytes of r. Its
// blocks are read with ReadAt and hashed on GOMAXPROCS goroutines, one
// block buffer each, and combined in block order. Each goroutine checks
// ctx before it reads a block, so a cancelled verify stops within one
// block per goroutine and returns ctx's error. An r shorter than size
// fails with io.ErrUnexpectedEOF.
func PartChecksum(ctx context.Context, r io.ReaderAt, size int64) (string, error) {
	blocks := (size + ChecksumBlock - 1) / ChecksumBlock
	digests := make([]byte, blocks*sha256.Size)
	workers := int(min(int64(runtime.GOMAXPROCS(0)), blocks))
	errs := make([]error, workers)
	var next atomic.Int64 // the next block to hash; blocks or more once done or failed
	work := func(w int) {
		buf := checksumBufs.Get().(*[ChecksumBlock]byte)
		defer checksumBufs.Put(buf)
		for i := next.Add(1) - 1; i < blocks; i = next.Add(1) - 1 {
			if err := ctx.Err(); err != nil {
				errs[w] = err
				return
			}
			off := i * ChecksumBlock
			b := buf[:min(ChecksumBlock, size-off)]
			if n, err := r.ReadAt(b, off); n < len(b) {
				if errors.Is(err, io.EOF) {
					err = io.ErrUnexpectedEOF
				}
				errs[w] = fmt.Errorf("block at byte %d: %w", off, err)
				next.Store(blocks)
				return
			}
			d := sha256.Sum256(b)
			copy(digests[i*sha256.Size:], d[:])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	if workers > 0 {
		work(0)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return "", err
	}
	for _, err := range errs {
		if err != nil {
			return "", err
		}
	}
	sum := sha256.Sum256(digests)
	return hex.EncodeToString(sum[:]), nil
}
