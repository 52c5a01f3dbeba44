package codec

import (
	"bytes"
	"math"
	"strings"
)

// scanScenario decodes data in one pass, without reflection, when it is
// spelled in a strict subset of JSON, the one Encode and json.Marshal
// write for every scenario whose strings are printable ASCII other than
// '"', '\', '<', '>' and '&' (which they escape):
//
//   - JSON whitespace between tokens;
//   - one object holding only the eight Scenario keys, each at most
//     once, spelled exactly as their tags (flow objects likewise hold
//     only their four keys);
//   - integers without fraction or exponent, leading zeros or "-0",
//     that fit an int;
//   - strings of printable ASCII (0x20–0x7E) without escapes;
//   - arrays of these.
//
// For anything else — unknown, duplicate or case-variant keys, null,
// escapes, bytes >= 0x80, floats, overflow, a byte-order mark, trailing
// bytes, any syntax error — it returns ok = false and no error, and
// Decode hands the input to json.Unmarshal. Within the grammar every
// value is the one json.Unmarshal produces, nil-versus-empty slices
// included, so the two paths accept the same inputs, decode the same
// values and, through the shared validate, fail with the same errors.
//
// No returned string aliases data: the server decodes from a pooled
// buffer that the next request overwrites.
func scanScenario(data []byte) (s *Scenario, ok bool) {
	d := scanner{data: data}
	s = new(Scenario)
	var seen uint
	ok = d.object(func(key []byte) bool {
		var bit uint
		var ok bool
		switch string(key) {
		case "name":
			bit = 1 << 0
			s.Name, ok = d.str()
		case "topology":
			bit = 1 << 1
			s.Topology, ok = d.str()
		case "tors":
			bit = 1 << 2
			s.Tors, ok = d.int()
		case "servers":
			bit = 1 << 3
			s.Servers, ok = d.int()
		case "middles":
			bit = 1 << 4
			s.Middles, ok = d.int()
		case "flows":
			bit = 1 << 5
			s.Flows, ok = d.flows()
		case "demands":
			bit = 1 << 6
			s.Demands, ok = d.strs()
		case "assignment":
			bit = 1 << 7
			s.Assignment, ok = d.ints()
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		return true
	})
	d.space()
	if !ok || d.pos != len(d.data) {
		return nil, false
	}
	return s, true
}

// scanner is a cursor over the input of scanScenario. Every method
// skips the whitespace before its token and reports false, leaving the
// cursor anywhere, when the token is not in the strict grammar.
type scanner struct {
	data []byte
	pos  int
}

// space skips JSON whitespace.
func (d *scanner) space() {
	data, i := d.data, d.pos
	for ; i < len(data) && data[i] <= ' '; i++ {
		if c := data[i]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			break
		}
	}
	d.pos = i
}

// consume advances past c if it is the next token.
func (d *scanner) consume(c byte) bool {
	d.space()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// object scans '{' [key ':' value {',' key ':' value}] '}', calling
// member after each key's colon to scan its value.
func (d *scanner) object(member func(key []byte) bool) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	for {
		key, ok := d.raw()
		if !ok || !d.consume(':') || !member(key) {
			return false
		}
		if d.consume('}') {
			return true
		}
		if !d.consume(',') {
			return false
		}
	}
}

// array scans '[' [value {',' value}] ']', calling elem to scan each
// value.
func (d *scanner) array(elem func() bool) bool {
	if !d.consume('[') {
		return false
	}
	if d.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if d.consume(']') {
			return true
		}
		if !d.consume(',') {
			return false
		}
	}
}

// count returns the number of c bytes between the cursor and the next
// ']'. It only sizes slices, so a malformed body can make it wrong but
// never larger than the body.
func (d *scanner) count(c byte) int {
	rest := d.data[d.pos:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return bytes.Count(rest, []byte{c})
}

// raw scans a string and returns its contents, which alias the input.
func (d *scanner) raw() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	data, start := d.data, d.pos
	for i := start; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			return data[start:i], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// str scans a string and copies it out of the input.
func (d *scanner) str() (string, bool) {
	b, ok := d.raw()
	return string(b), ok
}

// int scans an integer. The byte after it is left to the caller's
// delimiter check, which rejects a fraction or exponent.
func (d *scanner) int() (int, bool) {
	d.space()
	data, i := d.data, d.pos
	neg := i < len(data) && data[i] == '-'
	limit := uint64(math.MaxInt)
	if neg {
		i++
		limit++
	}
	start := i
	var v uint64
	for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		digit := uint64(data[i] - '0')
		if v > (limit-digit)/10 {
			return 0, false
		}
		v = v*10 + digit
	}
	if n := i - start; n == 0 || data[start] == '0' && (n > 1 || neg) {
		return 0, false // no digits, a leading zero, or "-0"
	}
	d.pos = i
	if neg {
		return int(-v), true
	}
	return int(v), true
}

// flows scans an array of flow objects into a slice sized by the number
// of objects the body holds.
func (d *scanner) flows() ([]FlowJSON, bool) {
	fs := make([]FlowJSON, 0, d.count('{'))
	ok := d.array(func() bool {
		var f FlowJSON
		var seen uint
		ok := d.object(func(key []byte) bool {
			var dst *int
			var bit uint
			switch string(key) {
			case "srcSwitch":
				dst, bit = &f.SrcSwitch, 1<<0
			case "srcServer":
				dst, bit = &f.SrcServer, 1<<1
			case "dstSwitch":
				dst, bit = &f.DstSwitch, 1<<2
			case "dstServer":
				dst, bit = &f.DstServer, 1<<3
			default:
				return false
			}
			if seen&bit != 0 {
				return false
			}
			seen |= bit
			var ok bool
			*dst, ok = d.int()
			return ok
		})
		fs = append(fs, f)
		return ok
	})
	return fs, ok
}

// ints scans an array of integers.
func (d *scanner) ints() ([]int, bool) {
	out := make([]int, 0, d.count(',')+1)
	ok := d.array(func() bool {
		v, ok := d.int()
		out = append(out, v)
		return ok
	})
	return out, ok
}

// strs scans an array of strings in two passes: the first checks the
// grammar and measures the array, the second copies every string into
// one allocation and slices the results from it, so an array of n
// strings costs two allocations rather than n + 1.
func (d *scanner) strs() ([]string, bool) {
	start := d.pos
	n, size := 0, 0
	ok := d.array(func() bool {
		b, ok := d.raw()
		n, size = n+1, size+len(b)
		return ok
	})
	if !ok {
		return nil, false
	}
	// The array is well-formed and no string holds a quote or an
	// escape, so every '"' in it opens or closes a string.
	rest := d.data[start:d.pos]
	out := make([]string, n)
	var sb strings.Builder
	sb.Grow(size) // the Builder never reallocates, so every String() shares one buffer
	for i := range out {
		open := bytes.IndexByte(rest, '"') + 1
		end := open + bytes.IndexByte(rest[open:], '"')
		from := sb.Len()
		sb.Write(rest[open:end])
		out[i] = sb.String()[from:]
		rest = rest[end+1:]
	}
	return out, true
}
