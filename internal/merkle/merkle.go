// Package merkle implements the Authenticated Data Structure (ADS) at the
// heart of TransEdge's trusted read path (paper Sec. 4.1, [38]).
//
// The tree is a persistent (copy-on-write) crit-bit Merkle trie keyed by
// the SHA-256 hash of the application key. Persistence gives TransEdge two
// properties it needs:
//
//   - every committed batch has its own immutable tree version whose root
//     is certified by f+1 replica signatures, and
//   - historical versions stay available so the second round of the
//     read-only protocol can serve (and prove) the state "as of batch i"
//     long after later batches committed.
//
// The root is a pure function of the key/value mapping — independent of
// insertion order — which is what allows every replica of a cluster to
// recompute and certify the same root without a trusted party.
package merkle

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"transedge/internal/cryptoutil"
)

// Digest aliases the system-wide SHA-256 digest type.
type Digest = cryptoutil.Digest

const (
	leafTag  = 0x00
	innerTag = 0x01
	numBits  = 256 // keys are SHA-256 hashes
)

// The trie is built from two node types, both immutable after
// construction and both pointer-free, stored in arenas (arena.go). Every
// replica keeps every retained version resident, so their sizes are the
// ADS's memory cost: 64 + 44 bytes per key.

// leaf binds one key hash to one value hash. It holds no hash: its hash is
// recomputed wherever it is read (see nodes.hash).
type leaf struct {
	keyHash Digest
	valHash Digest
}

// inner splits its subtree at a crit-bit index: left holds the keys whose
// bit is 0, right those whose bit is 1.
type inner struct {
	hash        Digest
	left, right ref
	bit         int16
}

func bitAt(d Digest, i int) byte {
	return (d[i>>3] >> (7 - uint(i&7))) & 1
}

// firstDiffBit returns the index of the most significant bit at which a
// and b differ. The caller guarantees a != b.
func firstDiffBit(a, b Digest) int {
	for i := 0; i < len(a); i++ {
		if x := a[i] ^ b[i]; x != 0 {
			bit := 0
			for x&0x80 == 0 {
				x <<= 1
				bit++
			}
			return i*8 + bit
		}
	}
	panic("merkle: firstDiffBit called with equal digests")
}

// hashOps counts node-hash computations — an observability hook for the
// bulk-apply benchmarks and property tests, which assert that ApplyBulk
// hashes strictly fewer nodes than sequential insertion.
var hashOps atomic.Uint64

// HashOps returns the total node hashes computed since process start.
func HashOps() uint64 { return hashOps.Load() }

// Node hashes are SHA-256 over the length-framed concatenation of their
// parts, the layout cryptoutil.HashConcat produces (each part preceded by
// its length as a big-endian uint64). The part lengths are fixed, so the
// preimage is assembled in a fixed stack buffer and hashed in one call,
// with no allocation. golden_test.go pins both layouts.

// leafHash = SHA-256( u64(1) leafTag | u64(32) keyHash | u64(32) valHash ).
func leafHash(keyHash, valHash Digest) Digest {
	hashOps.Add(1)
	var buf [8 + 1 + 8 + 32 + 8 + 32]byte
	buf[7], buf[8] = 1, leafTag
	buf[16] = 32
	copy(buf[17:], keyHash[:])
	buf[56] = 32
	copy(buf[57:], valHash[:])
	return sha256.Sum256(buf[:])
}

// innerHash = SHA-256( u64(3) innerTag bitHi bitLo | u64(32) left | u64(32) right ).
func innerHash(bit int16, left, right Digest) Digest {
	hashOps.Add(1)
	var buf [8 + 3 + 8 + 32 + 8 + 32]byte
	buf[7], buf[8], buf[9], buf[10] = 3, innerTag, byte(bit>>8), byte(bit)
	buf[18] = 32
	copy(buf[19:], left[:])
	buf[58] = 32
	copy(buf[59:], right[:])
	return sha256.Sum256(buf[:])
}

// Tree is an immutable Merkle trie version. The zero value is not usable;
// call New. All update operations return a new version sharing structure
// with the receiver, in the receiver's arena.
//
// One rule comes with the arena: a lineage — the versions derived from one
// Build, one first write to an empty tree, or one Compact — has one writer
// at a time. Insert, ApplyBulk, Compact, Reachable and Arena on any of its
// versions must not run concurrently with each other; any number of
// readers (Root, Get, the provers, Walk) may run beside the writer, on
// versions published to them (handed over through a channel, a lock or an
// atomic).
type Tree struct {
	nodes *nodes // nil while the tree holds no key
	root  ref
	size  int
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Len returns the number of keys in this version.
func (t *Tree) Len() int { return t.size }

// EmptyRoot is the root digest of an empty tree.
var EmptyRoot = cryptoutil.Hash([]byte("transedge-merkle-empty"))

// Root returns the authenticated root digest of this version.
func (t *Tree) Root() Digest {
	if t.size == 0 {
		return EmptyRoot
	}
	return t.nodes.hash(t.root)
}

// HashKey maps an application key to its trie position.
func HashKey(key []byte) Digest { return cryptoutil.Hash(key) }

// HashValue maps a value to the leaf value digest.
func HashValue(value []byte) Digest { return cryptoutil.Hash(value) }

// Insert returns a new version with key bound to valHash. It rebuilds the
// key's whole root path; batches go through Apply, and Insert stays as the
// independent oracle the property tests and fuzzers compare Apply against.
func (t *Tree) Insert(key []byte, valHash Digest) *Tree {
	return t.InsertHashed(HashKey(key), valHash)
}

// InsertHashed is Insert for a pre-hashed key.
func (t *Tree) InsertHashed(keyHash, valHash Digest) *Tree {
	if t.size == 0 {
		a := newArena(0, 1)
		return a.publish(a.newLeaf(keyHash, valHash), 1)
	}
	a := t.nodes.a
	lf := t.nodes.lf(findLeaf(t.nodes, t.root, keyHash))
	if lf.keyHash == keyHash {
		return a.publish(a.replace(t.root, keyHash, valHash), t.size)
	}
	crit := int16(firstDiffBit(lf.keyHash, keyHash))
	return a.publish(a.insertAt(t.root, crit, keyHash, valHash), t.size+1)
}

// findLeaf walks from r to the leaf whose position keyHash's bits select.
func findLeaf(v *nodes, r ref, keyHash Digest) ref {
	for !r.isLeaf() {
		n := v.in(r)
		if bitAt(keyHash, int(n.bit)) == 0 {
			r = n.left
		} else {
			r = n.right
		}
	}
	return r
}

// replace copies the path to the existing leaf for keyHash and swaps in a
// new value hash.
func (a *arena) replace(r ref, keyHash, valHash Digest) ref {
	if r.isLeaf() {
		return a.newLeaf(keyHash, valHash)
	}
	n := a.view.in(r)
	if bitAt(keyHash, int(n.bit)) == 0 {
		return a.newInner(n.bit, a.replace(n.left, keyHash, valHash), n.right)
	}
	return a.newInner(n.bit, n.left, a.replace(n.right, keyHash, valHash))
}

// insertAt inserts a new leaf for keyHash, creating the split node at the
// crit-bit position.
func (a *arena) insertAt(r ref, crit int16, keyHash, valHash Digest) ref {
	if r.isLeaf() || a.view.in(r).bit > crit {
		nl := a.newLeaf(keyHash, valHash)
		if bitAt(keyHash, int(crit)) == 0 {
			return a.newInner(crit, nl, r)
		}
		return a.newInner(crit, r, nl)
	}
	n := a.view.in(r)
	if bitAt(keyHash, int(n.bit)) == 0 {
		return a.newInner(n.bit, a.insertAt(n.left, crit, keyHash, valHash), n.right)
	}
	return a.newInner(n.bit, n.left, a.insertAt(n.right, crit, keyHash, valHash))
}

// Apply returns a new version with every update applied. Updates with the
// same key keep the last value.
func (t *Tree) Apply(updates map[string]Digest) *Tree {
	if len(updates) == 0 {
		return t
	}
	ups := make([]Update, 0, len(updates))
	for k, vh := range updates {
		ups = append(ups, Update{KeyHash: HashKey([]byte(k)), ValHash: vh})
	}
	return t.ApplyBulk(ups)
}

// Update is one pre-hashed key/value binding of a bulk apply.
type Update struct {
	KeyHash Digest
	ValHash Digest
}

// ApplyBulk returns a new version with every update applied in a single
// merge pass: the updates are sorted by key hash and merged into the
// persistent crit-bit trie recursively, so every trie node on an updated
// path is rebuilt — and hashed — exactly once, instead of once per
// inserted key as with sequential Insert. Duplicate key hashes keep the
// last occurrence. The input slice is reordered in place.
func (t *Tree) ApplyBulk(ups []Update) *Tree {
	if len(ups) == 0 {
		return t
	}
	sortUpdates(ups)
	// Collapse duplicate keys, keeping the last occurrence (equal keys stay
	// in input order).
	w := 0
	for i := range ups {
		if i+1 < len(ups) && ups[i+1].KeyHash == ups[i].KeyHash {
			continue
		}
		ups[w] = ups[i]
		w++
	}
	ups = ups[:w]
	if t.size == 0 {
		a := newArena(len(ups)-1, len(ups))
		return a.publish(a.buildSubtree(ups), len(ups))
	}
	a := t.nodes.a
	root, added := a.bulkMerge(t.root, a.leftmostKey(t.root), ups)
	return a.publish(root, t.size+added)
}

// sortKey stands in for one update while the set is ordered: 16 bytes
// moved per swap instead of the update's 64. prefix is the head of the key
// hash — key hashes are SHA-256 outputs, so it decides every comparison
// between distinct keys short of a 64-bit collision — and idx is the
// update's position in the input, the final tie-break: equal key hashes
// sort in input order, which is what "the last occurrence wins" reads.
type sortKey struct {
	prefix uint64
	idx    uint32
}

// sortUpdates orders ups by key hash, equal key hashes in input order, in
// place: it sorts one sortKey per update and then moves every update once,
// straight to its final position.
func sortUpdates(ups []Update) {
	if len(ups) < 2 {
		return
	}
	keys := make([]sortKey, len(ups))
	for i := range ups {
		keys[i] = sortKey{prefix: binary.BigEndian.Uint64(ups[i].KeyHash[:8]), idx: uint32(i)}
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		if c := bytes.Compare(ups[a.idx].KeyHash[8:], ups[b.idx].KeyHash[8:]); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	// keys[i].idx is where position i's update sits now. Follow each cycle
	// of that permutation, marking a filled position by pointing it at
	// itself.
	for i := range keys {
		if int(keys[i].idx) == i {
			continue
		}
		first := ups[i]
		j := i
		for {
			src := int(keys[j].idx)
			keys[j].idx = uint32(j)
			if src == i {
				ups[j] = first
				break
			}
			ups[j] = ups[src]
			j = src
		}
	}
}

// leftmostKey returns the key hash of the leftmost leaf under r; because
// every key in a subtree agrees on all bits above the subtree's crit bit,
// it represents the subtree's common prefix.
func (a *arena) leftmostKey(r ref) Digest {
	for !r.isLeaf() {
		r = a.view.in(r).left
	}
	return a.view.lf(r).keyHash
}

// firstDiffBefore returns the index of the most significant bit at which
// a and b differ, or limit if they agree on every bit below it.
func firstDiffBefore(a, b Digest, limit int) int {
	bytesToCheck := (limit + 7) / 8
	for i := 0; i < bytesToCheck; i++ {
		if x := a[i] ^ b[i]; x != 0 {
			bit := 0
			for x&0x80 == 0 {
				x <<= 1
				bit++
			}
			if d := i*8 + bit; d < limit {
				return d
			}
			return limit
		}
	}
	return limit
}

// splitAt partitions sorted updates that share all bits above bit into
// the zero-bit prefix and one-bit suffix at bit.
func splitAt(ups []Update, bit int) ([]Update, []Update) {
	i := sort.Search(len(ups), func(i int) bool { return bitAt(ups[i].KeyHash, bit) == 1 })
	return ups[:i], ups[i:]
}

// buildSubtree constructs the canonical crit-bit subtree over sorted,
// distinct key hashes.
func (a *arena) buildSubtree(ups []Update) ref {
	if len(ups) == 1 {
		return a.newLeaf(ups[0].KeyHash, ups[0].ValHash)
	}
	crit := int16(firstDiffBit(ups[0].KeyHash, ups[len(ups)-1].KeyHash))
	zeros, ones := splitAt(ups, int(crit))
	return a.newInner(crit, a.buildSubtree(zeros), a.buildSubtree(ones))
}

// bulkMerge merges sorted, distinct updates into the subtree rooted at r,
// whose common key prefix is represented by rep (the leftmost leaf's key
// hash). Returns the new subtree and how many keys were newly added.
func (a *arena) bulkMerge(r ref, rep Digest, ups []Update) (ref, int) {
	if len(ups) == 0 {
		return r, 0
	}
	if r.isLeaf() {
		return a.mergeLeaf(a.view.lf(r), ups)
	}
	n := a.view.in(r)
	b := int(n.bit)
	// All keys in the subtree agree on bits above b, so rep stands in for
	// the whole subtree there; and since the updates are sorted, the
	// minimal divergence from that prefix is at one of the endpoints.
	dmin := firstDiffBefore(ups[0].KeyHash, rep, b)
	if d := firstDiffBefore(ups[len(ups)-1].KeyHash, rep, b); d < dmin {
		dmin = d
	}
	if dmin >= b {
		// Every update conforms to the prefix: route by this node's bit.
		// leftmostKey walks the right child's left spine, so it runs only
		// when an update goes right.
		zeros, ones := splitAt(ups, b)
		left, al := a.bulkMerge(n.left, rep, zeros)
		right, ar := n.right, 0
		if len(ones) > 0 {
			right, ar = a.bulkMerge(n.right, a.leftmostKey(n.right), ones)
		}
		return a.newInner(n.bit, left, right), al + ar
	}
	// Some updates split off above this node, at bit dmin. Updates agreeing
	// with the prefix at dmin keep merging into r; the others form a fresh
	// sibling subtree under a new inner node at dmin.
	zeros, ones := splitAt(ups, dmin)
	conform, diverge := zeros, ones
	if bitAt(rep, dmin) == 1 {
		conform, diverge = ones, zeros
	}
	merged, added := a.bulkMerge(r, rep, conform)
	side := a.buildSubtree(diverge)
	if bitAt(rep, dmin) == 0 {
		return a.newInner(int16(dmin), merged, side), added + len(diverge)
	}
	return a.newInner(int16(dmin), side, merged), added + len(diverge)
}

// mergeLeaf merges updates into a single-leaf subtree: an update matching
// the leaf's key overwrites its value; the rest join it in a canonical
// subtree.
func (a *arena) mergeLeaf(lf *leaf, ups []Update) (ref, int) {
	i := sort.Search(len(ups), func(i int) bool {
		return bytes.Compare(ups[i].KeyHash[:], lf.keyHash[:]) >= 0
	})
	if i < len(ups) && ups[i].KeyHash == lf.keyHash {
		return a.buildSubtree(ups), len(ups) - 1
	}
	merged := make([]Update, 0, len(ups)+1)
	merged = append(merged, ups[:i]...)
	merged = append(merged, Update{KeyHash: lf.keyHash, ValHash: lf.valHash})
	merged = append(merged, ups[i:]...)
	return a.buildSubtree(merged), len(ups)
}

// Get returns the value hash bound to key in this version.
func (t *Tree) Get(key []byte) (Digest, bool) {
	if t.size == 0 {
		return Digest{}, false
	}
	kh := HashKey(key)
	lf := t.nodes.lf(findLeaf(t.nodes, t.root, kh))
	if lf.keyHash != kh {
		return Digest{}, false
	}
	return lf.valHash, true
}

// ProofStep is one level of a membership proof: the crit-bit index of the
// inner node and the hash of the sibling subtree not on the lookup path.
type ProofStep struct {
	Bit     int16
	Sibling Digest
}

// Proof is a membership proof for one key in one tree version, ordered
// from the root down to the leaf's parent.
type Proof struct {
	Steps []ProofStep
}

// Errors returned by proving and verification.
var (
	ErrNotFound   = errors.New("merkle: key not present in this version")
	ErrBadProof   = errors.New("merkle: proof does not verify")
	ErrProofShape = errors.New("merkle: malformed proof")
)

// Prove produces a membership proof that key -> valHash in this version.
// The returned value hash is the one bound in the tree.
func (t *Tree) Prove(key []byte) (Proof, Digest, error) {
	if t.size == 0 {
		return Proof{}, Digest{}, ErrNotFound
	}
	kh := HashKey(key)
	steps, lf := t.lookupPath(kh)
	if lf.keyHash != kh {
		return Proof{}, Digest{}, ErrNotFound
	}
	return Proof{Steps: steps}, lf.valHash, nil
}

// lookupPath walks a non-empty tree by kh's bits and returns the sibling
// hash at every level, root first, with the leaf the walk ends at.
func (t *Tree) lookupPath(kh Digest) ([]ProofStep, *leaf) {
	var steps []ProofStep
	v, r := t.nodes, t.root
	for !r.isLeaf() {
		n := v.in(r)
		if bitAt(kh, int(n.bit)) == 0 {
			steps = append(steps, ProofStep{Bit: n.bit, Sibling: v.hash(n.right)})
			r = n.left
		} else {
			steps = append(steps, ProofStep{Bit: n.bit, Sibling: v.hash(n.left)})
			r = n.right
		}
	}
	return steps, v.lf(r)
}

// VerifyProof checks that proof authenticates key -> value under root.
// It recomputes the leaf hash from the raw key and value, folds the proof
// steps back to a root digest, and enforces the structural invariants of
// the crit-bit trie (strictly increasing bit indices, directions matching
// the key's bits) so a malicious server cannot splice subtrees.
func VerifyProof(root Digest, key, value []byte, proof Proof) error {
	kh := HashKey(key)
	return foldPath(root, kh, leafHash(kh, HashValue(value)), proof.Steps)
}

// foldPath folds a root-to-leaf path back up from the terminal leaf hash h
// and compares the result with root. Directions are forced by kh, the
// REQUESTED key's bits: this pins the path to the one the canonical lookup
// takes.
func foldPath(root, kh, h Digest, steps []ProofStep) error {
	lastBit := int16(numBits)
	for i := len(steps) - 1; i >= 0; i-- {
		s := steps[i]
		if s.Bit < 0 || s.Bit >= numBits {
			return fmt.Errorf("%w: bit index %d out of range", ErrProofShape, s.Bit)
		}
		if s.Bit >= lastBit {
			return fmt.Errorf("%w: bit indices not strictly increasing root-to-leaf", ErrProofShape)
		}
		lastBit = s.Bit
		if bitAt(kh, int(s.Bit)) == 0 {
			h = innerHash(s.Bit, h, s.Sibling)
		} else {
			h = innerHash(s.Bit, s.Sibling, h)
		}
	}
	if h != root {
		return ErrBadProof
	}
	return nil
}

// AbsenceProof proves a key is NOT bound in a tree version. In a crit-bit
// trie the structure is canonical for a given content set, so the lookup
// path for any key is forced by the certified root: the proof exhibits
// the leaf that the key's bits lead to (which would have to BE the key's
// leaf if the key were present) together with its path. A verifier checks
// the path shape, that every direction matches the requested key's bits,
// and that the terminal leaf holds a different key hash.
type AbsenceProof struct {
	Steps       []ProofStep
	LeafKeyHash Digest
	LeafValHash Digest
}

// ErrPresent is returned when asked to prove absence of a present key.
var ErrPresent = errors.New("merkle: key is present")

// ProveAbsent produces a non-membership proof for key.
func (t *Tree) ProveAbsent(key []byte) (AbsenceProof, error) {
	if t.size == 0 {
		// The empty tree's well-known root is itself the proof.
		return AbsenceProof{}, nil
	}
	kh := HashKey(key)
	steps, lf := t.lookupPath(kh)
	if lf.keyHash == kh {
		return AbsenceProof{}, ErrPresent
	}
	return AbsenceProof{Steps: steps, LeafKeyHash: lf.keyHash, LeafValHash: lf.valHash}, nil
}

// VerifyAbsence checks that proof establishes key's absence under root.
func VerifyAbsence(root Digest, key []byte, proof AbsenceProof) error {
	kh := HashKey(key)
	if root == EmptyRoot {
		return nil // nothing is in the empty tree
	}
	if proof.LeafKeyHash == kh {
		return fmt.Errorf("%w: terminal leaf holds the key itself", ErrBadProof)
	}
	return foldPath(root, kh, leafHash(proof.LeafKeyHash, proof.LeafValHash), proof.Steps)
}

// ExportLeaves returns every (keyHash, valHash) binding of this version
// in trie order (ascending key hash), for tests and offline tooling.
// Note that state transfer does NOT ship merkle leaves: it ships raw
// store entries (key, value, writer) and the receiver rebuilds the tree
// from them with Build, comparing the root against the certified one.
func (t *Tree) ExportLeaves() []Update {
	out := make([]Update, 0, t.size)
	t.Walk(func(keyHash, valHash Digest) {
		out = append(out, Update{KeyHash: keyHash, ValHash: valHash})
	})
	return out
}

// Build constructs a tree version directly from a set of bindings in one
// bulk pass (state-transfer install: a joining replica rebuilds the
// checkpoint tree from the snapshot and compares its root against the
// certified one). The input slice is reordered in place.
func Build(ups []Update) *Tree {
	return New().ApplyBulk(ups)
}

// Walk visits every (keyHash, valHash) leaf in the version, in trie order.
// Intended for tests and debugging tools.
func (t *Tree) Walk(fn func(keyHash, valHash Digest)) {
	if t.size > 0 {
		walk(t.nodes, t.root, fn)
	}
}

func walk(v *nodes, r ref, fn func(keyHash, valHash Digest)) {
	if r.isLeaf() {
		lf := v.lf(r)
		fn(lf.keyHash, lf.valHash)
		return
	}
	n := v.in(r)
	walk(v, n.left, fn)
	walk(v, n.right, fn)
}
