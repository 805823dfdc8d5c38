package merkle

import (
	"fmt"
	"math/rand"
	"testing"
)

// A leaf does not store its hash, so these tests pin where leaf hashes are
// computed: HashOps counts are exact metrics of the benchmark, and each
// expected count below is derived from the tree's shape, not from the code
// under test.

// hashesOf returns how many node hashes fn computes.
func hashesOf(fn func()) int {
	start := HashOps()
	fn()
	return int(HashOps() - start)
}

// TestBuildHashCount: Build hashes every node of the new tree exactly
// once — each leaf from the parent that links it, the one-key tree's leaf
// from Root — so n keys cost 2n−1 node hashes.
func TestBuildHashCount(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 1000} {
		ups := make([]Update, n)
		for i := range ups {
			k := []byte(fmt.Sprintf("build-%d", i))
			ups[i] = Update{KeyHash: HashKey(k), ValHash: HashValue(k)}
		}
		if got := hashesOf(func() { Build(ups).Root() }); got != 2*n-1 {
			t.Errorf("Build of %d keys computed %d node hashes, want %d", n, got, 2*n-1)
		}
	}
}

// pathShape walks tr by kh's bits and returns the number of inner nodes
// on the path and how many of their off-path children are leaves.
func pathShape(tr *Tree, kh Digest) (depth, leafSiblings int) {
	for r := tr.root; !r.isLeaf(); {
		n := tr.nodes.in(r)
		depth++
		next, sibling := n.left, n.right
		if bitAt(kh, int(n.bit)) == 1 {
			next, sibling = n.right, n.left
		}
		if sibling.isLeaf() {
			leafSiblings++
		}
		r = next
	}
	return depth, leafSiblings
}

// TestOverwriteHashCount: overwriting one existing key rebuilds its path:
// one hash per inner node on it, one for the new leaf, and one for every
// untouched sibling on the path that is a leaf.
func TestOverwriteHashCount(t *testing.T) {
	one := New().Insert([]byte("only"), HashValue([]byte("v")))
	kh := HashKey([]byte("only"))
	if got := hashesOf(func() { one.ApplyBulk([]Update{{KeyHash: kh, ValHash: HashValue([]byte("w"))}}).Root() }); got != 1 {
		t.Errorf("overwrite in a one-key tree computed %d node hashes, want 1", got)
	}

	tr, keys := buildTestTree(2000, 8)
	rng := rand.New(rand.NewSource(9))
	sawLeafSibling := false
	for trial := 0; trial < 300; trial++ {
		kh := HashKey(keys[rng.Intn(len(keys))])
		depth, leafSiblings := pathShape(tr, kh)
		sawLeafSibling = sawLeafSibling || leafSiblings > 0
		up := []Update{{KeyHash: kh, ValHash: HashValue([]byte{byte(trial)})}}
		if got, want := hashesOf(func() { tr.ApplyBulk(up).Root() }), depth+1+leafSiblings; got != want {
			t.Fatalf("trial %d: overwrite at depth %d with %d leaf siblings computed %d node hashes, want %d",
				trial, depth, leafSiblings, got, want)
		}
	}
	if !sawLeafSibling {
		t.Fatal("no overwritten path had a leaf sibling: the fixture does not exercise the recomputation")
	}
}

// prunedLeafSiblings returns how many leaves a multi-proof over keys
// prunes to a sibling hash: children of an inner node some key's path
// passes through that no key's path enters.
func prunedLeafSiblings(tr *Tree, keys [][]byte) int {
	passed := make(map[ref]bool)
	entered := make(map[ref]bool)
	for _, k := range keys {
		kh := HashKey(k)
		for r := tr.root; !r.isLeaf(); {
			passed[r] = true
			n := tr.nodes.in(r)
			if bitAt(kh, int(n.bit)) == 0 {
				r = n.left
			} else {
				r = n.right
			}
			entered[r] = true
		}
	}
	count := 0
	for p := range passed {
		n := tr.nodes.in(p)
		for _, c := range []ref{n.left, n.right} {
			if c.isLeaf() && !entered[c] {
				count++
			}
		}
	}
	return count
}

// TestProveMultiHashCount: ProveMulti computes a node hash for exactly the
// pruned siblings that are leaves; every other hash it ships is cached in
// an inner node.
func TestProveMultiHashCount(t *testing.T) {
	one := New().Insert([]byte("only"), HashValue([]byte("v")))
	if got := hashesOf(func() { _, _ = one.ProveMulti([][]byte{[]byte("only"), []byte("other")}) }); got != 0 {
		t.Errorf("ProveMulti over a one-key tree computed %d node hashes, want 0", got)
	}

	tr, keys := buildTestTree(2000, 10)
	rng := rand.New(rand.NewSource(11))
	sawLeafSibling := false
	for trial := 0; trial < 200; trial++ {
		query := make([][]byte, 1+rng.Intn(20))
		for i := range query {
			if rng.Intn(5) == 0 {
				query[i] = []byte(fmt.Sprintf("absent-%d-%d", trial, i))
			} else {
				query[i] = keys[rng.Intn(len(keys))]
			}
		}
		want := prunedLeafSiblings(tr, query)
		sawLeafSibling = sawLeafSibling || want > 0
		if got := hashesOf(func() { _, _ = tr.ProveMulti(query) }); got != want {
			t.Fatalf("trial %d: ProveMulti over %d keys computed %d node hashes, want %d (pruned leaf siblings)",
				trial, len(query), got, want)
		}
	}
	if !sawLeafSibling {
		t.Fatal("no proof pruned a leaf sibling: the fixture does not exercise the recomputation")
	}
}
