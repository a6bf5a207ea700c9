package scan

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

func spansEncoder(t testing.TB) matgen.SpanEncoder {
	t.Helper()
	sink, err := matgen.SinkFor("spans")
	if err != nil {
		t.Fatal(err)
	}
	return sink.NewEncoder(matgen.Layout{}).(matgen.SpanEncoder)
}

// rawFrame wraps body the way the spans sink does — length prefix and a
// valid CRC — so a test can hand the decoder well-sealed nonsense.
func rawFrame(body []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(len(body)))
	out = append(out, body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
}

// rawBody renders the header fields, the tail values, and the spread
// spans without any of the encoder's sanity.
func rawBody(start, n, off uint64, tail []int64, fkSpans []uint64) []byte {
	b := binary.AppendUvarint(nil, start)
	b = binary.AppendUvarint(b, n)
	b = binary.AppendUvarint(b, off)
	for _, v := range tail {
		b = binary.AppendVarint(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(fkSpans)))
	for _, s := range fkSpans {
		b = binary.AppendUvarint(b, s)
	}
	return b
}

// spanRows materializes a span's tuples row-major through FillSpan, the
// way every consumer of a decoded frame does.
func spanRows(sp tuplegen.Span) [][]int64 {
	ncols := 1 + len(sp.Vals) + len(sp.FKs)
	cols := make([][]int64, ncols)
	for c := range cols {
		cols[c] = make([]int64, sp.N)
	}
	tuplegen.FillSpan(cols, 0, &sp, nil)
	rows := make([][]int64, sp.N)
	for i := range rows {
		rows[i] = make([]int64, ncols)
		for c := range cols {
			rows[i][c] = cols[c][i]
		}
	}
	return rows
}

// decodeAll drains a decoder into rows, failing the test on any error
// but the clean end of stream.
func decodeAll(t *testing.T, d *spanDecoder) [][]int64 {
	t.Helper()
	var rows [][]int64
	for {
		sp, err := d.next()
		if errors.Is(err, io.EOF) {
			return rows
		}
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, spanRows(sp)...)
	}
}

// TestSpanFrameRoundTrip: what the spans sink writes for any range of
// the fixture, spread on and off, decodes back to the generator's rows.
func TestSpanFrameRoundTrip(t *testing.T) {
	sum := testSummary()
	enc := spansEncoder(t)
	for _, spread := range []bool{false, true} {
		for _, rng := range [][2]int64{{1, 8208}, {2990, 40}, {5501, 1}, {8000, 208}} {
			g := newGeneratorForTest(sum, "S")
			g.SetFKSpread(spread)
			var wire []byte
			it := g.Spans(rng[0], rng[1])
			for sp, ok := it.Next(); ok; sp, ok = it.Next() {
				wire = enc.AppendSpan(wire, sp)
			}
			d := newSpanDecoder(g.NumCols(), rng[0]-1, rng[0]-1+rng[1], false)
			d.read(bytes.NewReader(wire))
			rows := decodeAll(t, d)
			if int64(len(rows)) != rng[1] {
				t.Fatalf("spread=%v %v: decoded %d rows", spread, rng, len(rows))
			}
			var want []int64
			for i, row := range rows {
				if want = g.Row(rng[0]+int64(i), want); !slices.Equal(row, want) {
					t.Fatalf("spread=%v pk %d: decoded %v, generator %v", spread, rng[0]+int64(i), row, want)
				}
			}
			if perRow := float64(len(wire)) / float64(rng[1]); rng[1] > 1000 && perRow > 0.1 {
				t.Fatalf("spread=%v %v: %.3f B/row on the wire", spread, rng, perRow)
			}
		}
	}
}

// TestSpanDecoderRejects walks the decoder's refusals: each stream is
// one well-formed frame [1, +10) of a 3-column layout followed by (or
// replaced with) something a hostile or broken writer could send. None
// may panic, none may deliver the bad run.
func TestSpanDecoderRejects(t *testing.T) {
	good := rawFrame(rawBody(1, 10, 0, []int64{7, 8}, nil))
	frame := func(start, n, off uint64, tail []int64, fkSpans []uint64) []byte {
		return rawFrame(rawBody(start, n, off, tail, fkSpans))
	}
	flip := func(b []byte, at int, to byte) []byte {
		out := bytes.Clone(b)
		out[at] = to
		return out
	}
	huge := bytes.Repeat([]byte{0xff}, 10) // a varint that overflows 64 bits
	cases := []struct {
		name   string
		stream []byte
		gaps   bool
		want   string // substring of the error; "" = io.ErrUnexpectedEOF
	}{
		{"crc mismatch", flip(good, 2, 9), false, "crc"},
		{"nul written into a frame", flip(good, 5, 0), false, "crc"},
		{"nul written into the length", flip(good, 0, 0), false, "length"},
		{"zero rows", frame(1, 0, 0, []int64{7, 8}, nil), false, "run of 0 rows"},
		{"start before the range", append(bytes.Clone(good), frame(10, 5, 0, []int64{7, 8}, nil)...), true, "outside [11, 100]"},
		{"overlaps the previous run", append(bytes.Clone(good), frame(5, 20, 0, []int64{7, 8}, nil)...), true, "outside [11, 100]"},
		{"start past the range", frame(101, 1, 0, []int64{7, 8}, nil), true, "outside [1, 100]"},
		{"ends past the range", frame(95, 7, 0, []int64{7, 8}, nil), true, "ends past pk 100"},
		{"gap in an unfiltered stream", append(bytes.Clone(good), frame(12, 5, 0, []int64{7, 8}, nil)...), false, "want 11"},
		{"fk span of zero", frame(1, 10, 0, []int64{7, 8}, []uint64{0}), false, "FK span 0"},
		{"more spans than columns", frame(1, 10, 0, []int64{7, 8}, []uint64{3, 3, 3}), false, "spread count"},
		{"start overflows", rawFrame(append(bytes.Clone(huge), 10, 0, 14, 16, 0)), false, "header field 0"},
		{"value overflows", rawFrame(append([]byte{1, 10, 0}, append(bytes.Clone(huge), 16, 0)...)), false, "value 0"},
		{"offset overflows", frame(1, 10, 1<<63-5, []int64{7, 8}, nil), false, "offset"},
		{"short of values", rawFrame([]byte{1, 10, 0, 14}), false, "value 1"},
		{"trailing garbage in the body", rawFrame(append(rawBody(1, 10, 0, []int64{7, 8}, nil), 0)), false, "trailing"},
		{"trailing garbage after the frames", append(bytes.Clone(good), 0xde, 0xad), false, ""},
		{"length beyond the layout's bound", append([]byte{0xff, 0x7f}, good...), false, "length"},
		{"length varint overflows", append(bytes.Clone(huge), 0xff, 0xff), false, "length"},
		{"empty frame", []byte{0}, false, "length"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newSpanDecoder(3, 0, 100, tc.gaps)
			d.read(bytes.NewReader(tc.stream))
			var err error
			for err == nil {
				_, err = d.next()
			}
			switch {
			case tc.want == "" && !errors.Is(err, io.ErrUnexpectedEOF):
				t.Fatalf("err = %v, want unexpected EOF", err)
			case tc.want != "" && (!errors.Is(err, errSpanFrame) || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want a refused frame mentioning %q", err, tc.want)
			}
		})
	}

	// A frame cut anywhere is a truncation, never a clean end and never
	// a delivered run; only the boundary between frames reads as EOF.
	two := append(bytes.Clone(good), frame(11, 5, 3, []int64{-1, 1 << 40}, []uint64{9})...)
	for cut := 0; cut <= len(two); cut++ {
		d := newSpanDecoder(3, 0, 100, false)
		d.read(bytes.NewReader(two[:cut]))
		var err error
		runs := 0
		for ; err == nil; runs++ {
			_, err = d.next()
		}
		want, wantRuns := io.ErrUnexpectedEOF, 0
		if cut == 0 || cut == len(good) || cut == len(two) {
			want = io.EOF
		}
		if cut >= len(good) {
			wantRuns++
		}
		if cut == len(two) {
			wantRuns++
		}
		if err != want || runs-1 != wantRuns {
			t.Fatalf("cut at %d of %d: %d runs then %v, want %d then %v", cut, len(two), runs-1, err, wantRuns, want)
		}
	}
}

// TestSpanFrameDetectsDamage: the CRC covers the whole frame, so no
// single flipped bit and no byte overwritten with NUL (what the chaos
// proxy's corrupt fault writes) gets a run delivered.
func TestSpanFrameDetectsDamage(t *testing.T) {
	enc := spansEncoder(t)
	wire := enc.AppendSpan(nil, tuplegen.Span{
		Start: 3002, N: 2500, Off: 17, Vals: []int64{-8, 0}, FKs: []int64{901}, FKSpans: []int64{613},
	})
	try := func(what string, damaged []byte) {
		d := newSpanDecoder(4, 3001, 5501, false)
		d.read(bytes.NewReader(damaged))
		if sp, err := d.next(); err == nil {
			t.Fatalf("%s: decoder delivered %+v", what, sp)
		}
	}
	for i := range wire {
		for bit := 0; bit < 8; bit++ {
			damaged := bytes.Clone(wire)
			damaged[i] ^= 1 << bit
			try(fmt.Sprintf("bit %d of byte %d flipped", bit, i), damaged)
		}
		if wire[i] != 0 {
			damaged := bytes.Clone(wire)
			damaged[i] = 0
			try(fmt.Sprintf("NUL at byte %d", i), damaged)
		}
	}
}

// FuzzSpanFrames holds the codec to its two contracts. Whatever span
// the inputs describe, encode → decode → encode is a fixed point and
// the decoded run produces the same rows. And the same wire bytes with
// arbitrary damage XORed in (and appended) never panic the decoder and
// never make it deliver a run outside the range it was given.
func FuzzSpanFrames(f *testing.F) {
	f.Add(int64(1), int64(8192), int64(0), int64(20), int64(15), int64(1), int64(900), []byte{})
	f.Add(int64(3002), int64(2500), int64(17), int64(-8), int64(1<<53+1), int64(901), int64(1), []byte{0, 0, 0, 0, 0, 1})
	f.Add(int64(1<<62), int64(1), int64(1<<61), int64(-1<<63), int64(1<<63-1), int64(0), int64(1<<63-1), []byte{0xff})
	f.Add(int64(7), int64(3), int64(2), int64(0), int64(0), int64(5), int64(0), []byte{0, 0x80, 0x80, 0x80, 0x80})
	f.Add(int64(1), int64(10), int64(0), int64(7), int64(8), int64(9), int64(4), []byte{0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	enc := spansEncoder(f)
	f.Fuzz(func(t *testing.T, start, n, off, a, b, fk, span int64, damage []byte) {
		// Any span the generator could emit: positive pk and length that
		// fit the key space, a phase inside the summary row.
		if start < 1 || n < 1 || off < 0 || start > 1<<62 || n > 1<<40 || off > 1<<62 {
			t.Skip()
		}
		sp := tuplegen.Span{Start: start, N: n, Off: off, Vals: []int64{a, b}, FKs: []int64{fk}}
		if span >= 1 {
			sp.FKSpans = []int64{span}
		}
		wire := enc.AppendSpan(nil, sp)
		d := newSpanDecoder(4, start-1, start-1+n, false)
		d.read(bytes.NewReader(wire))
		got, err := d.next()
		if err != nil {
			t.Fatalf("decoding the encoder's own frame for %+v: %v", sp, err)
		}
		if again := enc.AppendSpan(nil, got); !bytes.Equal(again, wire) {
			t.Fatalf("not a fixed point: %+v → %x → %+v → %x", sp, wire, got, again)
		}
		sp.N, got.N = min(n, 64), min(n, 64)
		if !slices.EqualFunc(spanRows(sp), spanRows(got), slices.Equal[[]int64]) {
			t.Fatalf("%+v decoded to %+v: rows differ", sp, got)
		}
		if _, err := d.next(); err != io.EOF {
			t.Fatalf("after the only frame: %v, want io.EOF", err)
		}

		torn := bytes.Clone(wire)
		for i, x := range damage {
			if i < len(torn) {
				torn[i] ^= x
			} else {
				torn = append(torn, x)
			}
		}
		d = newSpanDecoder(4, start-1, start-1+n, true)
		d.read(bytes.NewReader(torn))
		for {
			sp, err := d.next()
			if err != nil {
				return
			}
			if sp.N < 1 || sp.Start < start || sp.N > start+n-sp.Start || len(sp.Vals)+len(sp.FKs) != 3 {
				t.Fatalf("damaged stream delivered %+v outside [%d, +%d)", sp, start, n)
			}
		}
	})
}

// TestSpansShardsConcatenate is the spans form of the shard contract:
// frames are clipped at shard boundaries, so parts do not concatenate
// to the single-shard file's bytes — they concatenate to a valid stream
// of exactly the same rows.
func TestSpansShardsConcatenate(t *testing.T) {
	sum := testSummary()
	for _, spread := range []bool{false, true} {
		for _, compress := range []string{"", "gzip"} {
			whole, parts := t.TempDir(), t.TempDir()
			opts := matgen.Options{Dir: whole, Format: "spans", Compress: compress, Workers: 2, BatchRows: 128, FKSpread: spread}
			if _, err := matgen.Materialize(sum, opts); err != nil {
				t.Fatal(err)
			}
			const shards = 3
			opts.Dir, opts.Shards = parts, shards
			for opts.Shard = 0; opts.Shard < shards; opts.Shard++ {
				if _, err := matgen.Materialize(sum, opts); err != nil {
					t.Fatal(err)
				}
			}
			comp, err := matgen.CompressorFor(compress)
			if err != nil {
				t.Fatal(err)
			}
			ext := ".spans"
			if comp != nil {
				ext += comp.Ext()
			}
			for table, rs := range sum.Relations {
				var cat []byte
				for i := 0; i < shards; i++ {
					name := table + ".spans" + fmt.Sprintf(".part-%03d-of-%03d", i, shards) + strings.TrimPrefix(ext, ".spans")
					b, err := os.ReadFile(filepath.Join(parts, name))
					if err != nil {
						t.Fatal(err)
					}
					cat = append(cat, b...)
				}
				one, err := os.ReadFile(filepath.Join(whole, table+ext))
				if err != nil {
					t.Fatal(err)
				}
				ncols := 1 + len(rs.Cols) + len(rs.FKCols)
				decode := func(b []byte) [][]int64 {
					var r io.Reader = bytes.NewReader(b)
					if comp != nil {
						zr, err := comp.NewReader(r)
						if err != nil {
							t.Fatal(err)
						}
						defer zr.Close()
						r = zr
					}
					d := newSpanDecoder(ncols, 0, rs.Total, false)
					d.read(r)
					return decodeAll(t, d)
				}
				got, want := decode(cat), decode(one)
				if int64(len(want)) != rs.Total || !slices.EqualFunc(got, want, slices.Equal[[]int64]) {
					t.Fatalf("%s spread=%v %q: concatenated parts decode to %d rows, whole file to %d (of %d)",
						table, spread, compress, len(got), len(want), rs.Total)
				}
			}
		}
	}
}
