package codec

import (
	"math/big"
	"math/rand"
	"testing"

	"closnet/internal/core"
	"closnet/internal/rational"
)

// TestParseDemandMatchesBigRat: the demand parser — ParseRat64 fast
// path, big.Rat fallback — accepts exactly the strings big.Rat.SetString
// accepts (and rejects negatives), normalizes them to the same
// RatString, and orders them like big.Rat.Cmp. The table covers the
// fast path, every form only SetString reads (decimals, exponents,
// signs, base prefixes, octal leading zeros, underscores) and values
// that overflow a Rat64 and must stay on big.Rat.
func TestParseDemandMatchesBigRat(t *testing.T) {
	inputs := []string{
		"0", "1", "-0", "2/4", "10/20", "3/9", "1/3", "7/7", "123/1",
		"999999999999999999", "999999999999999999/999999999999999998",
		"1000000000000000000", "9223372036854775807", "9223372036854775808",
		"1/9223372036854775807", "1/9223372036854775808",
		"123456789012345678901234567890/7", "1e30", "1.5", "0.1", "1e3",
		"007", "00", "010/3", "0x10/3", "0b11", "1_000/3", "+3", "+3/4",
		"-1/2", "-3", "1/0", "0/0", "3/-4", "3/+4", " 3", "3 ", "", "/", "1/",
		"/2", "abc", "--1", "1/2/3",
	}
	var parsed []demand
	var refs []*big.Rat
	for fi, str := range inputs {
		d, err := parseDemand(fi, str)
		ref, ok := new(big.Rat).SetString(str)
		wantOK := ok && ref.Sign() >= 0
		if (err == nil) != wantOK {
			t.Errorf("%q: parse error %v, big.Rat ok=%v", str, err, ok)
			continue
		}
		if err != nil {
			continue
		}
		if got, want := d.String(), ref.RatString(); got != want {
			t.Errorf("%q: normalized to %q, big.Rat says %q", str, got, want)
		}
		if d.rat().Cmp(ref) != 0 {
			t.Errorf("%q: value %s, big.Rat says %s", str, d.rat().RatString(), ref.RatString())
		}
		_, fits := rational.FromRat(ref)
		if fits != (d.big == nil) {
			t.Errorf("%q: Rat64 fits=%v but fallback used=%v", str, fits, d.big != nil)
		}
		parsed = append(parsed, d)
		refs = append(refs, ref)
	}
	for i := range parsed {
		for j := range parsed {
			if got, want := parsed[i].cmp(parsed[j]), refs[i].Cmp(refs[j]); got != want {
				t.Errorf("cmp(%s, %s) = %d, big.Rat says %d", refs[i].RatString(), refs[j].RatString(), got, want)
			}
		}
	}
}

// TestRateStrings64MatchesBigPath: rendering a Rat64 rate lane directly
// gives exactly the strings and throughput of the big.Rat rendering of
// the same allocation, including lanes whose sum overflows a Rat64 and
// finishes on big.Rat.
func TestRateStrings64MatchesBigPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mk := func(p, q int64) rational.Rat64 {
		r, ok := rational.Make64(p, q)
		if !ok {
			t.Fatalf("Make64(%d, %d) failed", p, q)
		}
		return r
	}
	lanes := [][]rational.Rat64{
		nil,
		{mk(1, 3), mk(1, 1), mk(0, 1), mk(5, 2)},
		// Sums past int64: huge numerators, then coprime denominators.
		{mk(1<<62, 1), mk(1<<62, 1), mk(1<<62, 1)},
		{mk(1, 1<<62-1), mk(1, 1<<61-1), mk(1, 1<<60-1)},
	}
	for i := 0; i < 200; i++ {
		lane := make([]rational.Rat64, rng.Intn(20))
		for j := range lane {
			lane[j] = mk(rng.Int63n(50), rng.Int63n(12)+1)
		}
		lanes = append(lanes, lane)
	}
	for i, lane := range lanes {
		a := make(core.Allocation, len(lane))
		for j, r := range lane {
			a[j] = r.Rat()
		}
		rates, tp := RateStrings64(lane)
		want := RateStrings(a)
		if len(rates) != len(want) {
			t.Fatalf("lane %d: %d rates, want %d", i, len(rates), len(want))
		}
		for j := range want {
			if rates[j] != want[j] {
				t.Errorf("lane %d rate %d: %q, want %q", i, j, rates[j], want[j])
			}
		}
		if wantTP := rational.String(core.Throughput(a)); tp != wantTP {
			t.Errorf("lane %d: throughput %q, want %q", i, tp, wantTP)
		}
	}
}
