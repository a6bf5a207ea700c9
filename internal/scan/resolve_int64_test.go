//go:build amd64 || arm64 || loong64 || mips64 || mips64le || ppc64 || ppc64le || riscv64 || s390x || wasm

package scan

import (
	"math"
	"testing"
)

// TestResolveShardsOfHugeN: a split into far more pieces than rows, up
// to 2^62 of them and beyond, still tiles the range — pieces are
// monotone, each ends where the next starts, none holds more than its
// share, and together they run from the range's first row to its last.
// A 64-bit product of rows and piece index overflows long before that.
// Spec.Shards is an int, so the file builds only where an int is 64 bits.
func TestResolveShardsOfHugeN(t *testing.T) {
	const lo, hi = 99, 5000 // StartPK 100, EndPK 5000
	info := &TableInfo{Table: "S", Cols: []string{"S_pk"}, Rows: 8208}
	piece := func(i, n int) (int64, int64) {
		r, err := resolve(Spec{Table: "S", StartPK: lo + 1, EndPK: hi, Shards: n, Shard: i}, info)
		if err != nil {
			t.Fatal(err)
		}
		return r.lo, r.hi
	}
	for _, n := range []int{3 * (hi - lo), 1 << 31, 1<<62 - 1, 1 << 62, math.MaxInt} {
		pos := int64(lo)
		for _, i := range []int{0, 1, 2, n/3 - 1, n / 3, n/2 - 1, n / 2, n - 3, n - 2, n - 1} {
			a, b := piece(i, n)
			if a < pos || b < a || b-a > 1 {
				t.Fatalf("n=%d: piece %d is [%d,%d), after row %d", n, i, a, b, pos)
			}
			if i+1 < n {
				if next, _ := piece(i+1, n); next != b {
					t.Fatalf("n=%d: piece %d ends at %d, piece %d starts at %d", n, i, b, i+1, next)
				}
			}
			pos = b
		}
		if first, _ := piece(0, n); first != lo || pos != hi {
			t.Fatalf("n=%d: pieces run from %d to %d, want [%d,%d)", n, first, pos, lo, hi)
		}
	}
}
