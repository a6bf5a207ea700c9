package lp

import (
	"cmp"
	"math/bits"
)

// wordRat is a rational in lowest terms with den > 0, held in two machine
// words: a component of a word-sized exact vertex. Zero is 0/1.
type wordRat struct{ num, den int64 }

// lowest is n/d in lowest terms, for d > 0.
func lowest(n, d int64) wordRat {
	if g := int64(gcd64(abs64(n), uint64(d))); g > 1 {
		n, d = n/g, d/g
	}
	return wordRat{n, d}
}

// cmpFrac compares an/ad with bn/bd for ad, bd > 0 through the 128-bit
// cross products an·bd and bn·ad; it cannot overflow.
func cmpFrac(an, ad, bn, bd int64) int {
	if ad == bd {
		return cmp.Compare(an, bn)
	}
	sa, sb := cmp.Compare(an, 0), cmp.Compare(bn, 0)
	if sa != sb {
		return cmp.Compare(sa, sb)
	}
	ah, al := bits.Mul64(abs64(an), uint64(bd))
	bh, bl := bits.Mul64(abs64(bn), uint64(ad))
	c := cmp.Compare(ah, bh)
	if c == 0 {
		c = cmp.Compare(al, bl)
	}
	return sa * c // both negative: the larger magnitude is the smaller value
}

// mag is |v| for v ≥ 0 and |v|−1 for v < 0: one's-complement magnitude.
func mag(v int64) uint64 { return uint64(v ^ v>>63) }

// abs64 is |v| as an unsigned word, correct for MinInt64 too.
func abs64(v int64) uint64 {
	s := v >> 63
	return uint64((v ^ s) - s)
}

// gcd64 is the binary GCD; gcd64(0, b) = b.
func gcd64(a, b uint64) uint64 {
	if a == 0 || b == 1 {
		return b
	}
	if b == 0 || a == 1 {
		return a
	}
	shift := bits.TrailingZeros64(a | b)
	a >>= bits.TrailingZeros64(a)
	for b != 0 {
		b >>= bits.TrailingZeros64(b)
		if a > b {
			a, b = b, a
		}
		b -= a
	}
	return a << shift
}
