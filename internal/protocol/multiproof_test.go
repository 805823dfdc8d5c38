package protocol

import (
	"fmt"
	"math/rand"
	"testing"

	"transedge/internal/merkle"
)

// proofTestTree builds a deterministic tree plus its key/value bindings.
func proofTestTree(n int, seed int64) (*merkle.Tree, [][]byte, map[string][]byte) {
	rng := rand.New(rand.NewSource(seed))
	tr := merkle.New()
	keys := make([][]byte, 0, n)
	vals := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("pk-%06d-%d", i, rng.Intn(100)))
		v := []byte(fmt.Sprintf("pv-%d", i))
		keys = append(keys, k)
		vals[string(k)] = v
		tr = tr.Insert(k, merkle.HashValue(v))
	}
	return tr, keys, vals
}

// TestMultiProofBytesProperty: the encoded multi-proof is strictly smaller
// than the N independent per-key proofs it replaces — shared path levels
// are shipped once, and membership leaves ship no digests at all (the
// verifier recomputes them from the served answers). A per-key proof
// costs a version byte, a u32 step count and 34 bytes per step (crit bit
// and sibling); an absence proof adds the 64-byte leaf it ends at.
func TestMultiProofBytesProperty(t *testing.T) {
	tr, keys, _ := proofTestTree(1000, 14)
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(32)
		seen := map[string]bool{}
		query := make([][]byte, 0, n)
		for len(query) < n {
			var k []byte
			if rng.Intn(5) == 0 {
				k = []byte(fmt.Sprintf("void-%d-%d", trial, len(query)))
			} else {
				k = keys[rng.Intn(len(keys))]
			}
			if !seen[string(k)] {
				seen[string(k)] = true
				query = append(query, k)
			}
		}
		mp, err := tr.ProveMulti(query)
		if err != nil {
			t.Fatal(err)
		}
		multiBytes := len(EncodeMultiProof(&mp))
		singleBytes := 0
		for _, k := range query {
			if p, _, err := tr.Prove(k); err == nil {
				singleBytes += 5 + 34*len(p.Steps)
			} else {
				ap, err := tr.ProveAbsent(k)
				if err != nil {
					t.Fatal(err)
				}
				singleBytes += 5 + 34*len(ap.Steps) + 64
			}
		}
		if multiBytes >= singleBytes {
			t.Fatalf("n=%d: multi-proof %dB not smaller than %dB of independent proofs", n, multiBytes, singleBytes)
		}
	}
}
