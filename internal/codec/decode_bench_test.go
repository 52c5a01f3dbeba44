package codec_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"closnet/internal/codec"
	"closnet/internal/gen"
)

var updateFixture = flag.Bool("update-fixture", false, "rewrite testdata/cold_c8.json from internal/gen")

// coldScenario is an evaluate-cold-shaped request: a C_8 gravity
// scenario with 128 flows and exact demands, plus a uniformly random
// middle per flow.
func coldScenario(tb testing.TB, seed int64) *codec.Scenario {
	tb.Helper()
	sp, err := gen.ClosSpec(8)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := gen.Scenario(sp, gen.TrafficConfig{Model: gen.ModelGravity, Flows: 128, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(^seed))
	s.Assignment = make([]int, len(s.Flows))
	for i := range s.Assignment {
		s.Assignment[i] = 1 + r.Intn(sp.Middles)
	}
	return s
}

func coldBody(tb testing.TB) []byte {
	tb.Helper()
	data, err := codec.Encode(coldScenario(tb, 7))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestColdBodyFixture pins the codec package's fuzz seed to the
// generator, so the seed stays the body the benchmark decodes.
func TestColdBodyFixture(t *testing.T) {
	want := coldBody(t)
	if *updateFixture {
		if err := os.WriteFile("testdata/cold_c8.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("testdata/cold_c8.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("testdata/cold_c8.json differs from the generated cold body (rerun with -update-fixture)")
	}
}

// TestScanAcceptsGeneratedBodies: every scenario the corpus and the
// generators produce, in every variant, encoded indented (Encode) or
// compact (json.Marshal), takes the scanner path and decodes to the
// same value as json.Unmarshal.
func TestScanAcceptsGeneratedBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checked := 0
	for name, base := range onePassScenarios(t) {
		for vname, s := range variants(base, rng) {
			indented, err := codec.Encode(s)
			if err != nil {
				t.Fatal(err)
			}
			compact, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, body := range [][]byte{indented, compact} {
				got, ok := codec.ScanScenario(body)
				if !ok {
					t.Fatalf("%s/%s: scanner rejected %s", name, vname, body)
				}
				var want codec.Scenario
				if err := json.Unmarshal(body, &want); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, &want) {
					t.Fatalf("%s/%s: scanner = %+v, json.Unmarshal %+v", name, vname, got, &want)
				}
				checked++
			}
		}
	}
	if checked < 200 {
		t.Fatalf("only %d bodies checked", checked)
	}
}

// BenchmarkDecode decodes the cold body through Decode (the scanner)
// and through json.Unmarshal plus validation (the fallback).
func BenchmarkDecode(b *testing.B) {
	body := coldBody(b)
	for _, bc := range []struct {
		name   string
		decode func([]byte) (*codec.Scenario, error)
	}{{"scan", codec.Decode}, {"stdlib", codec.StdlibDecode}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, err := bc.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
