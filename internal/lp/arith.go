package lp

import (
	"cmp"
	"math"
	"math/big"
	"math/bits"
)

// exactArith is the arithmetic the exact simplex runs on: rationals whose
// every result is either exact or reported through overflowed. Values are
// immutable; each operation returns a fresh one.
type exactArith[T any] interface {
	fromInt(v int64) T
	add(a, b T) T
	sub(a, b T) T
	subMul(a, f, p T) T // a - f·p, the elimination step
	quo(a, b T) T       // b must be non-zero
	sign(a T) int
	cmp(a, b T) int
	rat(a T) *big.Rat
	// overflowed reports that some result so far was not representable.
	// Everything computed after that point is meaningless (though still
	// well-formed) and the solve must be discarded.
	overflowed() bool
}

// bigArith is unbounded math/big arithmetic: never overflows, allocates on
// every operation.
type bigArith struct{}

func (bigArith) fromInt(v int64) *big.Rat   { return new(big.Rat).SetInt64(v) }
func (bigArith) add(a, b *big.Rat) *big.Rat { return new(big.Rat).Add(a, b) }
func (bigArith) sub(a, b *big.Rat) *big.Rat { return new(big.Rat).Sub(a, b) }
func (bigArith) quo(a, b *big.Rat) *big.Rat { return new(big.Rat).Quo(a, b) }
func (bigArith) sign(a *big.Rat) int        { return a.Sign() }
func (bigArith) cmp(a, b *big.Rat) int      { return a.Cmp(b) }
func (bigArith) rat(a *big.Rat) *big.Rat    { return new(big.Rat).Set(a) }
func (bigArith) overflowed() bool           { return false }

func (bigArith) subMul(a, f, p *big.Rat) *big.Rat {
	z := new(big.Rat).Mul(f, p)
	return z.Sub(a, z)
}

// wordRat is a rational in lowest terms with den > 0, held in two machine
// words. Zero is 0/1.
type wordRat struct{ num, den int64 }

// wordArith is exact arithmetic on wordRat. An operation whose result (or
// one of its intermediates) does not fit int64 returns zero and latches
// overflow; no wrapped value is ever produced.
type wordArith struct{ overflow bool }

func (k *wordArith) overflowed() bool { return k.overflow }

func (k *wordArith) fail() wordRat {
	k.overflow = true
	return wordRat{0, 1}
}

func (*wordArith) fromInt(v int64) wordRat    { return wordRat{v, 1} }
func (*wordArith) rat(a wordRat) *big.Rat     { return big.NewRat(a.num, a.den) }
func (*wordArith) sign(a wordRat) int         { return cmp.Compare(a.num, 0) }
func (k *wordArith) add(a, b wordRat) wordRat { return k.addSub(a, b, addOK) }
func (k *wordArith) sub(a, b wordRat) wordRat { return k.addSub(a, b, subOK) }

// smallBound bounds the operands of subMul's unchecked path: every
// numerator in [-smallBound, smallBound] and every denominator in
// [1, smallBound). Then each of the triple products a.num·f.den·p.den,
// f.num·p.num·a.den and a.den·f.den·p.den is at most 2²⁰·2²⁰·2²⁰ = 2⁶⁰ in
// magnitude, their difference at most 2⁶¹, and nothing overflows int64.
const smallBound = 1 << 20

// mag is |v| for v ≥ 0 and |v|−1 for v < 0: one's-complement magnitude,
// so mag(v) < smallBound iff -smallBound ≤ v < smallBound.
func mag(v int64) uint64 { return uint64(v ^ v>>63) }

// subMul is a − f·p. Operands within smallBound (nearly all of them on
// Hydra's 0/1 systems) are combined over the common denominator with plain
// multiplies and reduced by one gcd, which yields the same lowest-terms
// result as the checked path that everything else takes.
//
//hydra:hotpath
func (k *wordArith) subMul(a, f, p wordRat) wordRat {
	if mag(a.num)|mag(f.num)|mag(p.num)|uint64(a.den|f.den|p.den) >= smallBound {
		return k.addSub(a, k.mul(f, p), subOK)
	}
	if a.den|f.den|p.den == 1 {
		return wordRat{a.num - f.num*p.num, 1}
	}
	n := a.num*f.den*p.den - f.num*p.num*a.den
	if n == 0 {
		return wordRat{0, 1}
	}
	d := a.den * f.den * p.den
	if g := int64(gcd64(abs64(n), uint64(d))); g != 1 {
		n, d = n/g, d/g
	}
	return wordRat{n, d}
}

// addSub computes a op b for op ∈ {addOK, subOK} over the common
// denominator lcm(a.den, b.den).
func (k *wordArith) addSub(a, b wordRat, op func(x, y int64) (int64, bool)) wordRat {
	if a.den == 1 && b.den == 1 {
		n, ok := op(a.num, b.num)
		if !ok {
			return k.fail()
		}
		return wordRat{n, 1}
	}
	g := int64(gcd64(uint64(a.den), uint64(b.den)))
	ad, bd := a.den/g, b.den/g
	x, ok1 := mulOK(a.num, bd)
	y, ok2 := mulOK(b.num, ad)
	n, ok3 := op(x, y)
	// Knuth 4.5.1: n/(ad·bd·g) can only still cancel by a divisor of g.
	g2 := int64(gcd64(abs64(n), uint64(g)))
	d, ok4 := mulOK(ad, b.den/g2)
	switch {
	case !(ok1 && ok2 && ok3 && ok4):
		return k.fail()
	case n == 0:
		return wordRat{0, 1}
	}
	return wordRat{n / g2, d}
}

func (k *wordArith) mul(a, b wordRat) wordRat {
	if a.den == 1 && b.den == 1 {
		n, ok := mulOK(a.num, b.num)
		if !ok {
			return k.fail()
		}
		return wordRat{n, 1}
	}
	// Cancel across the diagonal first: the products are then already in
	// lowest terms and as small as they can be.
	g1 := int64(gcd64(abs64(a.num), uint64(b.den)))
	g2 := int64(gcd64(abs64(b.num), uint64(a.den)))
	n, ok1 := mulOK(a.num/g1, b.num/g2)
	d, ok2 := mulOK(a.den/g2, b.den/g1)
	if !(ok1 && ok2) {
		return k.fail()
	}
	return wordRat{n, d}
}

func (k *wordArith) quo(a, b wordRat) wordRat {
	if b.num == math.MinInt64 {
		return k.fail() // |b.num| does not fit a denominator
	}
	if b.num < 0 {
		return k.mul(a, wordRat{-b.den, -b.num})
	}
	return k.mul(a, wordRat{b.den, b.num})
}

// cmp compares a and b through the 128-bit cross products a.num·b.den and
// b.num·a.den; it cannot overflow.
func (*wordArith) cmp(a, b wordRat) int {
	if a.den == b.den {
		return cmp.Compare(a.num, b.num)
	}
	sa, sb := cmp.Compare(a.num, 0), cmp.Compare(b.num, 0)
	if sa != sb {
		return cmp.Compare(int64(sa), int64(sb))
	}
	ah, al := bits.Mul64(abs64(a.num), uint64(b.den))
	bh, bl := bits.Mul64(abs64(b.num), uint64(a.den))
	c := cmp.Compare(ah, bh)
	if c == 0 {
		c = cmp.Compare(al, bl)
	}
	return sa * c // both negative: the larger magnitude is the smaller value
}

// abs64 is |v| as an unsigned word, correct for MinInt64 too.
func abs64(v int64) uint64 {
	if v < 0 {
		return -uint64(v)
	}
	return uint64(v)
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

func addOK(a, b int64) (int64, bool) {
	s := a + b
	return s, (a^s)&(b^s) >= 0
}

func subOK(a, b int64) (int64, bool) {
	d := a - b
	return d, (a^b)&(a^d) >= 0
}

func mulOK(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(abs64(a), abs64(b))
	if (a < 0) != (b < 0) {
		return -int64(lo), hi == 0 && lo <= 1<<63
	}
	return int64(lo), hi == 0 && lo < 1<<63
}
