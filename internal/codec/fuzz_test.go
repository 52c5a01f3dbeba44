package codec

import (
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the scenario decoder: it must
// never panic, and anything it accepts must Build and re-Encode.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"tors":2,"servers":1,"middles":1,"flows":[{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1}]}`))
	f.Add([]byte(`{"tors":2,"servers":1,"middles":2,"flows":[{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1}],"demands":["1/2"],"assignment":[2]}`))
	// Rate-string normalization seed: "2/4" must canonicalize (and hash)
	// exactly like "1/2".
	f.Add([]byte(`{"tors":2,"servers":1,"middles":2,"flows":[{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1}],"demands":["2/4"],"assignment":[2]}`))
	// Demand fallback seeds: forms only big.Rat parses, and a value too
	// large for a Rat64.
	f.Add([]byte(`{"topology":"clos","tors":2,"servers":1,"middles":2,"flows":[{"srcSwitch":2,"srcServer":1,"dstSwitch":1,"dstServer":1},{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1}],"demands":["1.5","010/3"]}`))
	f.Add([]byte(`{"tors":1,"servers":2,"middles":1,"flows":[{"srcSwitch":1,"srcServer":1,"dstSwitch":1,"dstServer":1},{"srcSwitch":1,"srcServer":1,"dstSwitch":1,"dstServer":1}],"demands":["123456789012345678901234567890/7","1e30"],"assignment":[1,1]}`))
	// An evaluate-cold-shaped body: C_8, 128 flows, indented.
	f.Add(coldBody(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if _, _, _, _, err := s.Build(); err != nil {
			// Decode validates structure but not demand strings; Build
			// rejects a bad one (so does Canonicalize, which every
			// serving path runs first). Errors are fine, panics are not.
			return
		}
		if _, err := Encode(s); err != nil {
			t.Fatalf("accepted scenario failed to re-encode: %v", err)
		}
		// Anything that builds must canonicalize, and the content address
		// must be a fixed point: hashing the canonical form reproduces
		// the original hash (normalization is idempotent).
		h1, err := s.Hash()
		if err != nil {
			t.Fatalf("buildable scenario failed to hash: %v", err)
		}
		c, err := Canonical(s)
		if err != nil {
			t.Fatalf("buildable scenario failed to canonicalize: %v", err)
		}
		h2, err := c.Hash()
		if err != nil {
			t.Fatalf("canonical form failed to hash: %v", err)
		}
		if h1 != h2 {
			t.Fatalf("hash is not a fixed point of canonicalization: %x vs %x", h1, h2)
		}
		// The one-pass hashes equal the direct json.Marshal ones.
		cz, err := Canonicalize(s)
		if err != nil {
			t.Fatalf("buildable scenario failed to canonicalize in one pass: %v", err)
		}
		hash, topo, err := referenceHashes(s)
		if err != nil {
			t.Fatal(err)
		}
		if cz.Hash != hash || cz.TopologyHash != topo {
			t.Fatalf("one-pass hashes (%x, %x) differ from the reference (%x, %x)", cz.Hash, cz.TopologyHash, hash, topo)
		}
	})
}
