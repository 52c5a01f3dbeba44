package rational

import (
	"math"
	"math/big"
	"math/bits"
	"slices"
	"strconv"
)

// Rat64 is an exact rational with a single machine word per component:
// num/den with den ≥ 1 and gcd(|num|, den) = 1. It is the small-word
// kernel of the allocation engine: every quantity the paper's
// constructions produce (unit capacities, rates like 1/(k+1), 1/n,
// (n-1)/2·(1+1/(k+1))) fits comfortably, so the water-filling hot path
// runs on Rat64 values and falls back to *big.Rat only when an
// operation reports overflow.
//
// Arithmetic methods return (result, ok). ok = false means the exact
// result may not fit in an int64 fraction; the receiver and arguments
// are unchanged and the caller must redo the computation on *big.Rat
// (every Rat64 converts losslessly via Rat). Overflow detection is
// conservative: an operation may report false even when the reduced
// result would fit, which costs a promotion but never an inexact value.
//
// The zero value is NOT a valid Rat64 (its denominator is 0); use
// Zero64, Int64, Make64 or FromRat.
type Rat64 struct {
	num, den int64
}

// Zero64 returns the Rat64 zero, 0/1.
func Zero64() Rat64 { return Rat64{0, 1} }

// Int64 returns the Rat64 v/1.
func Int64(v int64) Rat64 { return Rat64{v, 1} }

// Make64 returns the normalized rational p/q. ok is false when q is
// zero or the reduced fraction does not fit (only possible for
// magnitudes involving math.MinInt64).
func Make64(p, q int64) (Rat64, bool) {
	if q == 0 {
		return Rat64{}, false
	}
	neg := (p < 0) != (q < 0)
	return norm64(neg, absU64(p), absU64(q))
}

// FromRat returns the Rat64 image of x, with ok = false when either
// component of x exceeds an int64. The conversion is exact when ok.
func FromRat(x *big.Rat) (Rat64, bool) {
	if !x.Num().IsInt64() || !x.Denom().IsInt64() {
		return Rat64{}, false
	}
	// big.Rat is always normalized with positive denominator, so the
	// components can be adopted directly.
	return Rat64{x.Num().Int64(), x.Denom().Int64()}, true
}

// Rat returns the *big.Rat image of a. The conversion is always exact.
func (a Rat64) Rat() *big.Rat { return big.NewRat(a.num, a.den) }

// Num returns the numerator of a (negative iff a is negative).
func (a Rat64) Num() int64 { return a.num }

// Den returns the denominator of a (always ≥ 1 for valid values).
func (a Rat64) Den() int64 { return a.den }

// Sign returns -1, 0 or +1 according to the sign of a.
func (a Rat64) Sign() int {
	switch {
	case a.num < 0:
		return -1
	case a.num > 0:
		return 1
	default:
		return 0
	}
}

// IsZero reports whether a equals 0.
func (a Rat64) IsZero() bool { return a.num == 0 }

// String formats a in lowest terms, using plain integers where
// possible — the big.Rat.RatString form of the same value.
func (a Rat64) String() string {
	if a.den == 1 {
		return strconv.FormatInt(a.num, 10)
	}
	var buf [41]byte // two 20-byte int64s and the slash
	b := strconv.AppendInt(buf[:0], a.num, 10)
	b = append(b, '/')
	return string(strconv.AppendInt(b, a.den, 10))
}

// maxParseDigits bounds the digit runs ParseRat64 accepts: 18 decimal
// digits always fit in an int64, so the fast path never overflows.
const maxParseDigits = 18

// ParseRat64 parses the plain decimal forms "p" and "p/q" (optional
// leading '-', no leading zeros, at most 18 digits per component,
// q ≠ 0) and returns the normalized value. ok is false for every other
// string — including forms big.Rat.SetString accepts, such as "1.5",
// "1e3", "+2", "0x10" or "010/3" (which SetString reads as octal) — so
// callers fall back to SetString and get exactly its value.
func ParseRat64(s string) (Rat64, bool) {
	neg := len(s) > 0 && s[0] == '-'
	if neg {
		s = s[1:]
	}
	num, rest, ok := parseDigits(s)
	if !ok {
		return Rat64{}, false
	}
	den := int64(1)
	if rest != "" {
		if rest[0] != '/' {
			return Rat64{}, false
		}
		if den, rest, ok = parseDigits(rest[1:]); !ok || rest != "" || den == 0 {
			return Rat64{}, false
		}
	}
	if neg {
		num = -num
	}
	return Make64(num, den)
}

// parseDigits reads a leading run of 1..maxParseDigits decimal digits
// without a leading zero (a lone "0" is fine) and returns its value and
// the unread rest of s.
func parseDigits(s string) (int64, string, bool) {
	n := 0
	for n < len(s) && s[n] >= '0' && s[n] <= '9' {
		n++
	}
	if n == 0 || n > maxParseDigits || (s[0] == '0' && n > 1) {
		return 0, s, false
	}
	v := int64(0)
	for _, c := range s[:n] {
		v = v*10 + int64(c-'0')
	}
	return v, s[n:], true
}

// Cmp compares a and b, returning -1, 0 or +1. Unlike the arithmetic
// methods it can never overflow: the cross products are compared in
// 128 bits.
func (a Rat64) Cmp(b Rat64) int {
	sa, sb := a.Sign(), b.Sign()
	switch {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	case sa == 0:
		return 0
	}
	// Same non-zero sign: compare |a.num|·b.den against |b.num|·a.den.
	h1, l1 := bits.Mul64(absU64(a.num), uint64(b.den))
	h2, l2 := bits.Mul64(absU64(b.num), uint64(a.den))
	c := cmpU128(h1, l1, h2, l2)
	if sa < 0 {
		c = -c
	}
	return c
}

// CmpRat compares a against the *big.Rat b exactly, allocating nothing
// when both components of b fit in int64 — the overwhelmingly common
// case for the rates this library produces. The block search path uses
// it to screen Rat64 candidate lanes against a *big.Rat incumbent
// without materializing the candidate.
func (a Rat64) CmpRat(b *big.Rat) int {
	bn, bd := b.Num(), b.Denom()
	if bn.IsInt64() && bd.IsInt64() {
		// big.Rat is always normalized with positive denominator, so the
		// components form a valid Rat64 directly.
		return a.Cmp(Rat64{bn.Int64(), bd.Int64()})
	}
	return a.Rat().Cmp(b)
}

// Sort64 sorts v ascending in place, allocating nothing. Equal values
// are interchangeable (Rat64 is normalized, so equality is structural),
// so the instability of the underlying sort is unobservable.
func Sort64(v []Rat64) {
	slices.SortFunc(v, Rat64.Cmp)
}

// Add returns a+b with ok = false on overflow.
func (a Rat64) Add(b Rat64) (Rat64, bool) { return a.addSub(b, false) }

// Sub returns a-b with ok = false on overflow.
func (a Rat64) Sub(b Rat64) (Rat64, bool) { return a.addSub(b, true) }

func (a Rat64) addSub(b Rat64, sub bool) (Rat64, bool) {
	bn := b.num
	if sub {
		if bn == math.MinInt64 {
			return Rat64{}, false
		}
		bn = -bn
	}
	// a.num/a.den + bn/b.den with the shared factor of the denominators
	// divided out first (Knuth 4.5.1): with g = gcd(a.den, b.den), the
	// sum is (a.num·(b.den/g) + bn·(a.den/g)) / (a.den·(b.den/g)).
	g := int64(gcd64(uint64(a.den), uint64(b.den)))
	db := b.den / g
	x, ok := mulI64(a.num, db)
	if !ok {
		return Rat64{}, false
	}
	y, ok := mulI64(bn, a.den/g)
	if !ok {
		return Rat64{}, false
	}
	p, ok := addI64(x, y)
	if !ok {
		return Rat64{}, false
	}
	q, ok := mulI64(a.den, db)
	if !ok {
		return Rat64{}, false
	}
	return norm64(p < 0, absU64(p), absU64(q))
}

// Mul returns a·b with ok = false on overflow.
func (a Rat64) Mul(b Rat64) (Rat64, bool) {
	// Cross-reduce before multiplying: since a and b are themselves in
	// lowest terms, the result of the reduced products is too.
	g1 := int64(gcd64(absU64(a.num), uint64(b.den)))
	g2 := int64(gcd64(absU64(b.num), uint64(a.den)))
	p, ok := mulI64(a.num/g1, b.num/g2)
	if !ok {
		return Rat64{}, false
	}
	q, ok := mulI64(a.den/g2, b.den/g1)
	if !ok {
		return Rat64{}, false
	}
	if p == math.MinInt64 {
		return Rat64{}, false
	}
	return Rat64{p, q}, true
}

// Quo returns a/b with ok = false on overflow. It panics if b is zero,
// matching big.Rat.Quo.
func (a Rat64) Quo(b Rat64) (Rat64, bool) {
	if b.num == 0 {
		panic("rational: division by zero Rat64")
	}
	if b.num == math.MinInt64 {
		return Rat64{}, false
	}
	inv := Rat64{b.den, b.num}
	if inv.den < 0 {
		inv.num, inv.den = -inv.num, -inv.den
	}
	return a.Mul(inv)
}

// MulInt returns a·k with ok = false on overflow.
func (a Rat64) MulInt(k int64) (Rat64, bool) {
	g := int64(gcd64(absU64(k), uint64(a.den)))
	p, ok := mulI64(a.num, k/g)
	if !ok || p == math.MinInt64 {
		return Rat64{}, false
	}
	return Rat64{p, a.den / g}, true
}

// DivInt returns a/k with ok = false on overflow. It panics if k is
// zero. It is the water-filling step remaining/active, so it avoids the
// general Quo path: the denominator product is the only thing that can
// grow.
func (a Rat64) DivInt(k int64) (Rat64, bool) {
	if k == 0 {
		panic("rational: division of Rat64 by zero integer")
	}
	if k == math.MinInt64 || a.num == math.MinInt64 {
		return Rat64{}, false
	}
	num := a.num
	if k < 0 {
		num, k = -num, -k
	}
	g := int64(gcd64(absU64(num), uint64(k)))
	q, ok := mulI64(a.den, k/g)
	if !ok {
		return Rat64{}, false
	}
	return Rat64{num / g, q}, true
}

// norm64 builds the normalized Rat64 with the given sign and component
// magnitudes. uq must be non-zero.
func norm64(neg bool, up, uq uint64) (Rat64, bool) {
	if up == 0 {
		return Rat64{0, 1}, true
	}
	g := gcd64(up, uq)
	up, uq = up/g, uq/g
	if up > math.MaxInt64 || uq > math.MaxInt64 {
		return Rat64{}, false
	}
	n := int64(up)
	if neg {
		n = -n
	}
	return Rat64{n, int64(uq)}, true
}

// gcd64 returns the greatest common divisor of a and b, with
// gcd64(0, b) = b and gcd64(a, 0) = a.
func gcd64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// absU64 returns |v| as a uint64 (exact even for math.MinInt64).
func absU64(v int64) uint64 {
	if v < 0 {
		return -uint64(v)
	}
	return uint64(v)
}

// addI64 returns a+b with ok = false on int64 overflow.
func addI64(a, b int64) (int64, bool) {
	c := a + b
	if (b > 0 && c < a) || (b < 0 && c > a) {
		return 0, false
	}
	return c, true
}

// mulI64 returns a·b with ok = false on int64 overflow.
func mulI64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	neg := (a < 0) != (b < 0)
	hi, lo := bits.Mul64(absU64(a), absU64(b))
	if hi != 0 {
		return 0, false
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	if lo > limit {
		return 0, false
	}
	if neg {
		return -int64(lo), true
	}
	return int64(lo), true
}

// cmpU128 compares the 128-bit values (h1,l1) and (h2,l2).
func cmpU128(h1, l1, h2, l2 uint64) int {
	switch {
	case h1 < h2:
		return -1
	case h1 > h2:
		return 1
	case l1 < l2:
		return -1
	case l1 > l2:
		return 1
	default:
		return 0
	}
}

// Cmp compares two *big.Rat values exactly, taking a single-word fast
// path when all four components fit in int64 (the overwhelmingly common
// case for the rates this library produces: the cross products are
// compared in 128 bits with no allocation). It is a drop-in for
// a.Cmp(b).
func Cmp(a, b *big.Rat) int {
	an, ad := a.Num(), a.Denom()
	bn, bd := b.Num(), b.Denom()
	if an.IsInt64() && ad.IsInt64() && bn.IsInt64() && bd.IsInt64() {
		return Rat64{an.Int64(), ad.Int64()}.Cmp(Rat64{bn.Int64(), bd.Int64()})
	}
	return a.Cmp(b)
}
