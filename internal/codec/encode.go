package codec

import (
	"encoding/json"
	"math/big"

	"closnet/internal/core"
	"closnet/internal/rational"
)

// RateStrings renders an allocation as exact rational strings, the wire
// form every closnet response uses for rates. One renderer keeps CLI
// output and server bodies from drifting apart.
func RateStrings(a core.Allocation) []string {
	out := make([]string, len(a))
	for i, r := range a {
		out[i] = rational.String(r)
	}
	return out
}

// RateStrings64 renders a Rat64 rate lane and its sum, exactly as
// RateStrings and rational.String(core.Throughput(a)) render the same
// allocation a: Rat64.String is the RatString form, and the sum is
// accumulated in Rat64 with overflow checks, finishing on big.Rat only
// if a partial sum overflows.
func RateStrings64(lane []rational.Rat64) (rates []string, throughput string) {
	rates = make([]string, len(lane))
	sum, ok := rational.Zero64(), true
	for i, r := range lane {
		rates[i] = r.String()
		if ok {
			sum, ok = sum.Add(r)
		}
	}
	if ok {
		return rates, sum.String()
	}
	total := new(big.Rat)
	for _, r := range lane {
		total.Add(total, r.Rat())
	}
	return rates, rational.String(total)
}

// MarshalBody encodes a response value as compact JSON with a trailing
// newline — the deterministic single-line body shape of every engine
// result, cacheable and concatenable (a batch response is exactly the
// concatenation of its items' bodies).
func MarshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// apiError is the JSON error body of every non-200 response.
type apiError struct {
	Error string `json:"error"`
}

// ErrorBody renders an error message in the shared single-line JSON
// error shape: {"error": msg} plus a trailing newline.
func ErrorBody(msg string) []byte {
	b, _ := json.Marshal(apiError{Error: msg})
	return append(b, '\n')
}
