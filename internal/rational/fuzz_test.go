package rational

import (
	"encoding/binary"
	"math"
	"math/big"
	"testing"
)

// fuzzOp encodes one arithmetic step: an opcode byte followed by two
// little-endian int64 operands forming a rational p/q.
func fuzzOp(op byte, p, q int64) []byte {
	buf := make([]byte, 17)
	buf[0] = op
	binary.LittleEndian.PutUint64(buf[1:9], uint64(p))
	binary.LittleEndian.PutUint64(buf[9:17], uint64(q))
	return buf
}

// FuzzRat64 drives random operation sequences through a Rat64
// accumulator and a *big.Rat reference side by side. Every successful
// Rat64 step must match the big.Rat value exactly and keep the
// normalized-form invariant (den ≥ 1, gcd(num, den) = 1); every
// overflow must promote losslessly — re-entering the small-word domain
// through FromRat whenever the exact value fits — mirroring how
// core.Evaluator falls back to its big.Rat path and later resumes the
// fast one.
func FuzzRat64(f *testing.F) {
	// Plain arithmetic on small values.
	f.Add(append(fuzzOp(0, 1, 3), append(fuzzOp(1, 1, 6), fuzzOp(2, 7, 2)...)...))
	// Division chains, the evaluator's min-delta shape.
	f.Add(append(fuzzOp(3, 3, 7), append(fuzzOp(5, 5, 1), fuzzOp(4, 9, 1)...)...))
	// Forced overflow: repeated multiplication by MaxInt64.
	f.Add(append(fuzzOp(0, math.MaxInt64, 1), append(fuzzOp(2, math.MaxInt64, 1), fuzzOp(2, math.MaxInt64, 1)...)...))
	// Conservative Add overflow: huge coprime denominators.
	f.Add(append(fuzzOp(0, 1, math.MaxInt64), fuzzOp(0, 1, math.MaxInt64-1)...))
	// Promotion boundary probing around ±2^62 denominators.
	f.Add(append(fuzzOp(0, 1, 1<<62), append(fuzzOp(1, 1, (1<<62)-1), fuzzOp(2, -(1<<61), 3)...)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		cur := Zero64()
		ref := new(big.Rat)
		check := func(got Rat64, want *big.Rat) {
			if got.Rat().Cmp(want) != 0 {
				t.Fatalf("Rat64 %s != big.Rat %s", got, want.RatString())
			}
			if got.Den() <= 0 {
				t.Fatalf("denormalized denominator in %s", got)
			}
			if got.String() != want.RatString() {
				t.Fatalf("Rat64.String %q != big.Rat.RatString %q", got.String(), want.RatString())
			}
			g := new(big.Int).GCD(nil, nil,
				new(big.Int).Abs(big.NewInt(got.Num())), big.NewInt(got.Den()))
			if g.Cmp(big.NewInt(1)) > 0 && got.Num() != 0 {
				t.Fatalf("unreduced value %d/%d", got.Num(), got.Den())
			}
		}
		for len(data) >= 17 {
			op := data[0] % 6
			p := int64(binary.LittleEndian.Uint64(data[1:9]))
			q := int64(binary.LittleEndian.Uint64(data[9:17]))
			data = data[17:]
			operand, ok := Make64(p, q)
			if !ok {
				continue // q = 0 or a MinInt64 magnitude survived reduction
			}
			operandBig := operand.Rat()
			check(operand, operandBig)
			if cur.Cmp(operand) != ref.Cmp(operandBig) {
				t.Fatalf("Cmp(%s, %s) = %d, big says %d",
					cur, operand, cur.Cmp(operand), ref.Cmp(operandBig))
			}
			var (
				next   Rat64
				stepOK bool
			)
			refNext := new(big.Rat)
			switch op {
			case 0:
				next, stepOK = cur.Add(operand)
				refNext.Add(ref, operandBig)
			case 1:
				next, stepOK = cur.Sub(operand)
				refNext.Sub(ref, operandBig)
			case 2:
				next, stepOK = cur.Mul(operand)
				refNext.Mul(ref, operandBig)
			case 3:
				if operand.IsZero() {
					continue
				}
				next, stepOK = cur.Quo(operand)
				refNext.Quo(ref, operandBig)
			case 4:
				next, stepOK = cur.MulInt(p)
				refNext.Mul(ref, new(big.Rat).SetInt64(p))
			case 5:
				if p == 0 {
					continue
				}
				next, stepOK = cur.DivInt(p)
				refNext.Quo(ref, new(big.Rat).SetInt64(p))
			}
			if stepOK {
				check(next, refNext)
				cur = next
				ref = refNext
				continue
			}
			// Overflow: the promotion path. The exact value lives on in the
			// reference; whenever it fits back into 64-bit words, FromRat
			// must round-trip it losslessly and the fast path resumes.
			if c64, fits := FromRat(refNext); fits {
				check(c64, refNext)
				cur = c64
				ref = refNext
				continue
			}
			// Genuinely out of range: restart the accumulator. (The
			// evaluator equivalent is a whole-state big.Rat re-evaluation.)
			cur = Zero64()
			ref = new(big.Rat)
		}
	})
}

// FuzzParseRat64: every string the fast parser accepts, big.Rat
// accepts with the same value and the same RatString, and every value
// whose components have at most 18 digits round-trips through String.
func FuzzParseRat64(f *testing.F) {
	for _, s := range []string{"0", "-0", "2/4", "-7/21", "999999999999999999/3", "1000000000000000000",
		"010/3", "1.5", "+3", "1/0", "0x10", "1_0", "3/-4", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := ParseRat64(s)
		if !ok {
			return
		}
		want, wantOK := new(big.Rat).SetString(s)
		if !wantOK {
			t.Fatalf("ParseRat64 accepted %q, big.Rat rejects it", s)
		}
		if got.Rat().Cmp(want) != 0 || got.String() != want.RatString() {
			t.Fatalf("ParseRat64(%q) = %s, big.Rat says %s", s, got, want.RatString())
		}
		if back, ok := ParseRat64(got.String()); !ok || back != got {
			t.Fatalf("%s does not round-trip through String", got)
		}
	})
}
