package codec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// stdlibDecode is Decode without the scanner: json.Unmarshal, then the
// shared validate. It is the oracle of every scanner test.
func stdlibDecode(data []byte) (*Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// StdlibDecode and ScanScenario export the oracle and the scanner to
// the external test package.
var (
	StdlibDecode = stdlibDecode
	ScanScenario = scanScenario
)

// coldBodyFile is an evaluate-cold-shaped request: a C_8 gravity
// scenario with 128 flows, demands and a random assignment, indented by
// Encode (the external TestColdBodyFixture pins it to internal/gen).
const coldBodyFile = "testdata/cold_c8.json"

func coldBody(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(coldBodyFile)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// compact re-encodes a JSON body without whitespace.
func compact(tb testing.TB, data []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// checkMatchesStdlib asserts that Decode agrees with the stdlib path on
// data: the same error text, or DeepEqual scenarios. When the scanner
// accepts data, json.Unmarshal must accept it too and decode the same
// value before validation, and no decoded string may alias data.
func checkMatchesStdlib(t *testing.T, data []byte) (scanned bool) {
	t.Helper()
	want, wantErr := stdlibDecode(data)
	buf := append([]byte(nil), data...)
	got, gotErr := Decode(buf)
	for i := range buf {
		buf[i] = 'x' // the server recycles its body buffer
	}
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("Decode error %v, stdlib %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Decode = %+v, stdlib %+v", got, want)
	}
	s, ok := scanScenario(data)
	if !ok {
		return false
	}
	var ref Scenario
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatalf("scanner accepted a body json.Unmarshal rejects: %v", err)
	}
	if !reflect.DeepEqual(s, &ref) {
		t.Fatalf("scanner = %+v, json.Unmarshal %+v", s, &ref)
	}
	return true
}

// FuzzDecodeMatchesStdlib: whatever the bytes, Decode returns what
// json.Unmarshal plus validate returns — the same scenario, nil versus
// empty slices included, or the same error text — and every body the
// scanner accepts is one json.Unmarshal decodes to the same value.
func FuzzDecodeMatchesStdlib(f *testing.F) {
	cold := coldBody(f)
	f.Add(cold)
	f.Add(compact(f, cold))
	for _, tc := range fallbackSpellings {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(`{"tors":2,"servers":1,"middles":2,"flows":[{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1}],"demands":["1/2"],"assignment":[2]}`))
	f.Add([]byte(`{"tors":-9223372036854775808,"servers":9223372036854775807,"middles":0,"flows":[{}],"demands":[""],"assignment":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesStdlib(t, data)
	})
}

// validBase is a scanner-accepted body every fallback spelling below
// perturbs in one place.
const validBase = `{"name":"x","topology":"clos","tors":2,"servers":1,"middles":2,` +
	`"flows":[{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1}],"demands":["1/2"],"assignment":[2]}`

var fallbackSpellings = []struct{ name, body string }{
	{"case-variant key", strings.Replace(validBase, `"tors"`, `"Tors"`, 1)},
	{"case-variant flow key", strings.Replace(validBase, `"srcSwitch"`, `"SRCSWITCH"`, 1)},
	{"duplicate key", strings.Replace(validBase, `"tors":2,`, `"tors":2,"tors":2,`, 1)},
	{"duplicate slice key", strings.Replace(validBase, `"assignment":[2]`, `"assignment":[1,1],"assignment":[2]`, 1)},
	{"duplicate flow key", strings.Replace(validBase, `"dstServer":1}`, `"dstServer":1,"dstServer":1}`, 1)},
	{"null name", strings.Replace(validBase, `"x"`, `null`, 1)},
	{"null topology", strings.Replace(validBase, `"clos"`, `null`, 1)},
	{"null tors", strings.Replace(validBase, `"tors":2`, `"tors":null`, 1)},
	{"null servers", strings.Replace(validBase, `"servers":1`, `"servers":null`, 1)},
	{"null middles", strings.Replace(validBase, `"middles":2`, `"middles":null`, 1)},
	{"null flows", `{"tors":2,"servers":1,"middles":2,"flows":null}`},
	{"null flow", `{"tors":2,"servers":1,"middles":2,"flows":[null]}`},
	{"null flow field", strings.Replace(validBase, `"srcServer":1`, `"srcServer":null`, 1)},
	{"null demands", strings.Replace(validBase, `["1/2"]`, `null`, 1)},
	{"null demand", strings.Replace(validBase, `["1/2"]`, `[null]`, 1)},
	{"null assignment", strings.Replace(validBase, `[2]}`, `null}`, 1)},
	{"escaped string", strings.Replace(validBase, `"1/2"`, `"1\/2"`, 1)},
	{"escaped key", strings.Replace(validBase, `"tors"`, `"\u0074ors"`, 1)},
	{"non-ASCII name", strings.Replace(validBase, `"x"`, `"réseau"`, 1)},
	{"invalid UTF-8 name", strings.Replace(validBase, `"x"`, "\"\xff\"", 1)},
	{"DEL in name", strings.Replace(validBase, `"x"`, "\"\x7f\"", 1)},
	{"control byte in name", strings.Replace(validBase, `"x"`, "\"\t\"", 1)},
	{"fraction", strings.Replace(validBase, `"tors":2`, `"tors":1.0`, 1)},
	{"exponent", strings.Replace(validBase, `"tors":2`, `"tors":1e2`, 1)},
	{"negative zero", strings.Replace(validBase, `"assignment":[2]`, `"assignment":[-0]`, 1)},
	{"leading zero", strings.Replace(validBase, `"tors":2`, `"tors":01`, 1)},
	{"overflow", strings.Replace(validBase, `"tors":2`, `"tors":9223372036854775808`, 1)},
	{"negative overflow", strings.Replace(validBase, `"tors":2`, `"tors":-9223372036854775809`, 1)},
	{"quoted integer", strings.Replace(validBase, `"tors":2`, `"tors":"2"`, 1)},
	{"integer name", strings.Replace(validBase, `"x"`, `7`, 1)},
	{"unknown field", strings.Replace(validBase, `{"name"`, `{"comment":"hi","name"`, 1)},
	{"unknown flow field", strings.Replace(validBase, `"dstServer":1}`, `"dstServer":1,"weight":2}`, 1)},
	{"trailing garbage", validBase + `x`},
	{"trailing object", validBase + `{}`},
	{"UTF-8 BOM", "\xef\xbb\xbf" + validBase},
	{"empty body", ``},
	{"whitespace body", " \n"},
	{"top-level array", `[` + validBase + `]`},
	{"top-level null", `null`},
	{"truncated", validBase[:len(validBase)/2]},
	{"trailing comma", strings.Replace(validBase, `[2]`, `[2,]`, 1)},
	{"missing colon", strings.Replace(validBase, `"tors":2`, `"tors" 2`, 1)},
	{"single quotes", strings.Replace(validBase, `"x"`, `'x'`, 1)},
	{"flow is an array", strings.Replace(validBase, `[{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1}]`, `[[1,1,2,1]]`, 1)},
}

// TestDecodeFallbackSpellings: every spelling outside the strict
// grammar takes the json.Unmarshal path and still matches it exactly,
// value or error.
func TestDecodeFallbackSpellings(t *testing.T) {
	if _, ok := scanScenario([]byte(validBase)); !ok {
		t.Fatal("the scanner rejects the unperturbed base body")
	}
	for _, tc := range fallbackSpellings {
		t.Run(tc.name, func(t *testing.T) {
			if checkMatchesStdlib(t, []byte(tc.body)) {
				t.Fatalf("scanner accepted %q", tc.body)
			}
		})
	}
}

// TestDecodeScannedSpellings: the strict grammar covers what clients
// write — whitespace anywhere, any key order, empty versus absent
// arrays, the extreme ints — and decodes it exactly as json.Unmarshal.
func TestDecodeScannedSpellings(t *testing.T) {
	cases := map[string]string{
		"base":            validBase,
		"cold indented":   string(coldBody(t)),
		"cold compact":    string(compact(t, coldBody(t))),
		"empty object":    `{}`,
		"whitespace":      " \t\r\n{ \"tors\" :\n2 , \"servers\":1,\"middles\":2 ,\"flows\" : [ ] } \n",
		"demands empty":   `{"tors":1,"servers":1,"middles":1,"flows":[],"demands":[]}`,
		"demands absent":  `{"tors":1,"servers":1,"middles":1,"flows":[]}`,
		"assignment []":   `{"tors":1,"servers":1,"middles":1,"flows":[],"assignment":[]}`,
		"flows absent":    `{"tors":1,"servers":1,"middles":1}`,
		"empty flow":      `{"tors":1,"servers":1,"middles":1,"flows":[{}]}`,
		"reordered keys":  `{"assignment":[2],"demands":["1/2"],"flows":[{"dstServer":1,"dstSwitch":2,"srcServer":1,"srcSwitch":1}],"middles":2,"servers":1,"tors":2}`,
		"extreme ints":    `{"tors":9223372036854775807,"servers":-9223372036854775808,"middles":-1}`,
		"bad demand text": `{"tors":2,"servers":1,"middles":2,"flows":[{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1}],"demands":["[1,x]"]}`,
		"empty strings":   `{"name":"","topology":"","tors":1,"servers":1,"middles":1,"flows":[{"srcSwitch":1,"srcServer":1,"dstSwitch":1,"dstServer":1},{"srcSwitch":1,"srcServer":1,"dstSwitch":1,"dstServer":1}],"demands":["",""]}`,
		"invalid shape":   `{"tors":0,"servers":1,"middles":1}`,
		"unknown family":  `{"topology":"ring","tors":1,"servers":1,"middles":1}`,
		"count mismatch":  `{"tors":1,"servers":1,"middles":1,"flows":[],"demands":["1"]}`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			if !checkMatchesStdlib(t, []byte(body)) {
				t.Fatalf("scanner rejected %q", body)
			}
		})
	}
}

// TestDecodeAllocations: decoding the cold body costs a constant number
// of allocations — one per slice and per copied string field, two for
// all the demand strings together — however many flows it carries.
func TestDecodeAllocations(t *testing.T) {
	body := coldBody(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Decode(body); err != nil {
			t.Fatal(err)
		}
	})
	// Scenario, name, topology, flows, demands slice, demand text,
	// assignment.
	if allocs > 7 {
		t.Fatalf("Decode of the cold body made %.0f allocations, want at most 7", allocs)
	}
}
