package merkle

import (
	"fmt"
	"reflect"
	"testing"
)

// TestNodeSizes pins the resident cost of the ADS: every replica keeps one
// leaf and (amortized) one inner node per key per retained version delta.
// A leaf holds its two bindings only (its hash is recomputed where it is
// read), an inner node links its children by arena index, and neither
// holds a pointer, so no chunk is ever scanned by the collector. A growth
// chunk fills the 8 KiB size class to within one node.
func TestNodeSizes(t *testing.T) {
	if got := reflect.TypeOf(leaf{}).Size(); got != 64 {
		t.Errorf("leaf is %d bytes, want 64", got)
	}
	if got := reflect.TypeOf(inner{}).Size(); got > 48 {
		t.Errorf("inner is %d bytes, want <= 48", got)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(leaf{}), reflect.TypeOf(inner{})} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); !pointerFree(f.Type) {
				t.Errorf("%s.%s has type %v: nodes must hold no pointers", typ.Name(), f.Name, f.Type)
			}
		}
	}
	const class = 8192
	for _, chunk := range []reflect.Type{reflect.TypeOf([innerChunk]inner{}), reflect.TypeOf([leafChunk]leaf{})} {
		if size, node := chunk.Size(), chunk.Elem().Size(); size > class || class-size >= node {
			t.Errorf("%v is %d bytes: want the most nodes that fit %d", chunk, size, class)
		}
	}
}

// pointerFree reports whether values of typ hold no pointer anywhere.
func pointerFree(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return pointerFree(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if !pointerFree(typ.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
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
