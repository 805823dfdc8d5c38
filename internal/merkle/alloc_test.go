package merkle

import (
	"fmt"
	"reflect"
	"testing"
)

// TestNodeSizes pins the resident cost of the ADS: every replica keeps one
// leaf and (amortized) one inner node per key per retained version delta.
// A leaf must stay pointer-free so the collector never scans it, and holds
// its two bindings only: its hash is recomputed where it is read.
func TestNodeSizes(t *testing.T) {
	if got := reflect.TypeOf(leaf{}).Size(); got != 64 {
		t.Errorf("leaf is %d bytes, want 64", got)
	}
	if got := reflect.TypeOf(inner{}).Size(); got > 80 {
		t.Errorf("inner is %d bytes, want <= 80 (the allocator's size class)", got)
	}
	lt := reflect.TypeOf(leaf{})
	for i := 0; i < lt.NumField(); i++ {
		if k := lt.Field(i).Type.Kind(); k != reflect.Array {
			t.Errorf("leaf field %s has kind %v: leaves must hold no pointers", lt.Field(i).Name, k)
		}
	}
}

var sinkDigest Digest

func TestNodeHashingDoesNotAllocate(t *testing.T) {
	a, b := HashKey([]byte("a")), HashValue([]byte("b"))
	if n := testing.AllocsPerRun(100, func() { sinkDigest = leafHash(a, b) }); n != 0 {
		t.Errorf("leafHash: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkDigest = innerHash(17, a, b) }); n != 0 {
		t.Errorf("innerHash: %v allocs per call, want 0", n)
	}
}

// multiFixture returns a 10 000-key tree and an n-key query against it in
// which every eighth key is absent, with the honest answers.
func multiFixture(n int) (*Tree, [][]byte, []KeyAnswer) {
	tr, pool := buildTestTree(10000, 21)
	keys := make([][]byte, n)
	answers := make([]KeyAnswer, n)
	for i := range keys {
		if i%8 == 7 {
			keys[i] = []byte(fmt.Sprintf("absent-%d", i))
			answers[i] = KeyAnswer{Key: keys[i]}
			continue
		}
		j := (i * 977) % len(pool)
		keys[i] = pool[j]
		answers[i] = KeyAnswer{Key: keys[i], Value: valueFor(j), Found: true}
	}
	return tr, keys, answers
}

// TestMultiProofAllocations: building a multi-proof costs the key-hash
// array and the exactly-sized node slice; verifying one costs the hashed
// answer array. Neither grows with the number of keys or proof nodes.
func TestMultiProofAllocations(t *testing.T) {
	for _, n := range []int{1, 10, 100} {
		tr, keys, answers := multiFixture(n)
		root := tr.Root()
		mp, err := tr.ProveMulti(keys)
		if err != nil {
			t.Fatal(err)
		}
		if len(mp.Nodes) != cap(mp.Nodes) {
			t.Errorf("keys=%d: %d nodes in a slice of capacity %d, want exactly sized", n, len(mp.Nodes), cap(mp.Nodes))
		}
		if a := testing.AllocsPerRun(20, func() { _, _ = tr.ProveMulti(keys) }); a > 4 {
			t.Errorf("keys=%d: ProveMulti made %v allocs, want <= 4", n, a)
		}
		a := testing.AllocsPerRun(20, func() {
			if err := VerifyMulti(root, answers, mp); err != nil {
				t.Fatal(err)
			}
		})
		if a > 2 {
			t.Errorf("keys=%d (%d proof nodes): VerifyMulti made %v allocs, want <= 2", n, len(mp.Nodes), a)
		}
	}
}
