package merkle

import (
	"errors"
	"fmt"
	"slices"
)

// MultiProof is a compact proof for N keys in one tree version: the union
// of the keys' lookup paths, pruned — every subtree no path enters is
// replaced by its single hash, so a sibling shared by several paths is
// shipped (and re-hashed by the verifier) once instead of once per key.
// Membership and absence are co-proved by the same structure: the proof
// pins the full pruned shape of the certified tree along every path, so a
// key either terminates at its own leaf (membership) or at the leaf the
// canonical trie forces its bits to (absence).
//
// The proof is a preorder flattening. Leaves holding a REQUESTED key carry
// no digests at all (MultiLeafRef): the verifier recomputes the leaf hash
// from the raw key and served value, which is what binds the answer to the
// certified root. Leaves off the requested set (absence terminals) ship
// their key and value hashes like AbsenceProof does.
type MultiProof struct {
	Nodes []MultiNode
}

// MultiNode kinds. An inner node on ≥1 lookup path is materialized; when
// only one of its children is entered, the other is pruned to its hash and
// packed into the same node, so a single-key path costs exactly one
// (bit, sibling) pair per level — the same as a ProofStep.
const (
	// MultiInner: both children are entered; they follow in preorder,
	// left then right. Bit is valid.
	MultiInner uint8 = 1
	// MultiPrunedLeft: the left child is pruned to Sibling; the right
	// child follows. Bit is valid.
	MultiPrunedLeft uint8 = 2
	// MultiPrunedRight: the right child is pruned to Sibling; the left
	// child follows. Bit is valid.
	MultiPrunedRight uint8 = 3
	// MultiLeafRef: a leaf holding one of the requested keys. No payload;
	// the verifier resolves its hashes from the served answer.
	MultiLeafRef uint8 = 4
	// MultiLeafOther: a leaf holding an unrequested key (an absence
	// terminal). KeyHash/ValHash are valid.
	MultiLeafOther uint8 = 5
)

// MultiNode is one node of the flattened pruned subtree. Which fields are
// meaningful depends on Kind (see the kind constants).
type MultiNode struct {
	Kind    uint8
	Bit     int16
	Sibling Digest
	KeyHash Digest
	ValHash Digest
}

// ErrNoKeys is returned by ProveMulti for an empty key set.
var ErrNoKeys = errors.New("merkle: multi-proof over zero keys")

// ProveMulti produces one MultiProof covering every key. The proof
// collects the hashes the tree's inner nodes hold; the only node hashes
// computed here are those of pruned siblings that are leaves, since a leaf
// does not store its hash. The empty tree yields an empty proof — EmptyRoot is well known, so the
// proof that nothing is present is the root itself.
//
// The walk carries the key hashes that reach each node as one sub-slice of
// a single array, partitioned in place by the node's crit bit, and a
// counting pass sizes the node slice exactly, so a proof costs two
// allocations whatever its length. Duplicate keys need no collapsing: they
// route identically, and only whether ANY key reaches a subtree decides
// what is emitted.
func (t *Tree) ProveMulti(keys [][]byte) (MultiProof, error) {
	if len(keys) == 0 {
		return MultiProof{}, ErrNoKeys
	}
	if t.size == 0 {
		return MultiProof{}, nil
	}
	khs := make([]Digest, len(keys))
	for i, k := range keys {
		khs[i] = HashKey(k)
	}
	out := make([]MultiNode, 0, countMulti(t.nodes, t.root, khs))
	return MultiProof{Nodes: emitMulti(out, t.nodes, t.root, khs)}, nil
}

// partitionByBit reorders khs so the hashes whose bit is 0 come first and
// returns how many there are. Unlike ApplyBulk's splitAt it cannot binary
// search: absent keys routed through a node need not share the subtree's
// prefix, so sorted order would not make the split contiguous.
func partitionByBit(khs []Digest, bit int) int {
	i, j := 0, len(khs)
	for i < j {
		if bitAt(khs[i], bit) == 0 {
			i++
		} else {
			j--
			khs[i], khs[j] = khs[j], khs[i]
		}
	}
	return i
}

// countMulti returns how many nodes emitMulti emits for the subtree at r
// when the (non-empty) reach set routes into it.
func countMulti(v *nodes, r ref, reach []Digest) int {
	if r.isLeaf() {
		return 1
	}
	n := v.in(r)
	count := 1
	zeros := partitionByBit(reach, int(n.bit))
	if zeros > 0 {
		count += countMulti(v, n.left, reach[:zeros])
	}
	if zeros < len(reach) {
		count += countMulti(v, n.right, reach[zeros:])
	}
	return count
}

// emitMulti appends the preorder flattening of the subtree at r, pruned to
// the lookup paths of the (non-empty) reach set.
func emitMulti(out []MultiNode, v *nodes, r ref, reach []Digest) []MultiNode {
	if r.isLeaf() {
		lf := v.lf(r)
		if slices.Contains(reach, lf.keyHash) {
			return append(out, MultiNode{Kind: MultiLeafRef})
		}
		return append(out, MultiNode{Kind: MultiLeafOther, KeyHash: lf.keyHash, ValHash: lf.valHash})
	}
	n := v.in(r)
	switch zeros := partitionByBit(reach, int(n.bit)); zeros {
	case len(reach):
		out = append(out, MultiNode{Kind: MultiPrunedRight, Bit: n.bit, Sibling: v.hash(n.right)})
		return emitMulti(out, v, n.left, reach)
	case 0:
		out = append(out, MultiNode{Kind: MultiPrunedLeft, Bit: n.bit, Sibling: v.hash(n.left)})
		return emitMulti(out, v, n.right, reach)
	default:
		out = append(out, MultiNode{Kind: MultiInner, Bit: n.bit})
		out = emitMulti(out, v, n.left, reach[:zeros])
		return emitMulti(out, v, n.right, reach[zeros:])
	}
}

// KeyAnswer is one key's claimed outcome, as served: the raw key, the
// value (meaningful when Found), and whether the key exists in the
// snapshot. VerifyMulti checks every answer against one proof.
type KeyAnswer struct {
	Key   []byte
	Value []byte
	Found bool
}

// VerifyMulti checks that proof authenticates every answer under root.
//
// It folds the preorder node stream in one recursive pass without building
// a tree: the answers that route into a subtree travel with the recursion
// as one sub-slice, partitioned in place by each crit bit. The structural
// checks are those of a parsed tree, applied as the stream is consumed:
//
//   - crit-bit indices strictly increase root-to-leaf (the invariant that
//     stops subtree splicing, as in VerifyProof), every kind is known, and
//     the stream holds exactly one tree: running out of nodes and having
//     nodes left over are both shape errors;
//   - an answer routed into a pruned subtree fails verification: the proof
//     does not cover that key;
//   - at a leaf, every Found answer that lands there must carry the one
//     binding the leaf hashes to, and every absent answer must carry a
//     different key. A MultiLeafRef takes its binding from the answers, so
//     one that no Found answer resolves is a shape error.
//
// Each materialized node is hashed exactly once, and the fold must equal
// the certified root.
func VerifyMulti(root Digest, answers []KeyAnswer, proof MultiProof) error {
	if len(proof.Nodes) == 0 {
		// Only the empty tree is proven by an empty proof.
		if root != EmptyRoot {
			return fmt.Errorf("%w: empty multi-proof for non-empty root", ErrProofShape)
		}
		for _, a := range answers {
			if a.Found {
				return fmt.Errorf("%w: membership of %q claimed in empty tree", ErrBadProof, a.Key)
			}
		}
		return nil
	}
	reach := make([]hashedAnswer, len(answers))
	for i, a := range answers {
		reach[i] = hashedAnswer{key: a.Key, keyHash: HashKey(a.Key), found: a.Found}
		if a.Found {
			reach[i].valHash = HashValue(a.Value)
		}
	}
	f := multiFold{rest: proof.Nodes}
	h, err := f.subtree(0, reach)
	if err != nil {
		return err
	}
	if len(f.rest) != 0 {
		return fmt.Errorf("%w: %d trailing nodes", ErrProofShape, len(f.rest))
	}
	if h != root {
		return ErrBadProof
	}
	return nil
}

// hashedAnswer is a KeyAnswer in the form the fold compares: hashes, plus
// the raw key for error messages.
type hashedAnswer struct {
	keyHash Digest
	valHash Digest // zero unless found
	found   bool
	key     []byte
}

// multiFold is the cursor over the unconsumed preorder stream.
type multiFold struct {
	rest []MultiNode
}

// subtree consumes one subtree from the stream and returns its hash. reach
// holds the answers whose keys route into it; minBit is one above the
// parent's crit bit. Recursion is bounded by numBits because crit bits
// strictly increase.
func (f *multiFold) subtree(minBit int16, reach []hashedAnswer) (Digest, error) {
	if len(f.rest) == 0 {
		return Digest{}, fmt.Errorf("%w: truncated multi-proof", ErrProofShape)
	}
	nd := &f.rest[0]
	f.rest = f.rest[1:]
	switch nd.Kind {
	case MultiLeafRef, MultiLeafOther:
		return foldLeaf(nd, reach)
	case MultiInner, MultiPrunedLeft, MultiPrunedRight:
	default:
		return Digest{}, fmt.Errorf("%w: unknown node kind %d", ErrProofShape, nd.Kind)
	}
	if nd.Bit < minBit || nd.Bit >= numBits {
		return Digest{}, fmt.Errorf("%w: crit bit %d out of order", ErrProofShape, nd.Bit)
	}
	z := partitionAnswers(reach, int(nd.Bit))
	var left, right Digest
	var err error
	if nd.Kind == MultiPrunedLeft {
		left, err = prunedChild(nd, reach[:z])
	} else {
		left, err = f.subtree(nd.Bit+1, reach[:z])
	}
	if err != nil {
		return Digest{}, err
	}
	if nd.Kind == MultiPrunedRight {
		right, err = prunedChild(nd, reach[z:])
	} else {
		right, err = f.subtree(nd.Bit+1, reach[z:])
	}
	if err != nil {
		return Digest{}, err
	}
	return innerHash(nd.Bit, left, right), nil
}

// partitionAnswers is partitionByBit over answers' key hashes.
func partitionAnswers(reach []hashedAnswer, bit int) int {
	i, j := 0, len(reach)
	for i < j {
		if bitAt(reach[i].keyHash, bit) == 0 {
			i++
		} else {
			j--
			reach[i], reach[j] = reach[j], reach[i]
		}
	}
	return i
}

// prunedChild returns the shipped hash of nd's pruned child. An answer
// routed into it is one the proof does not cover.
func prunedChild(nd *MultiNode, reach []hashedAnswer) (Digest, error) {
	if len(reach) > 0 {
		return Digest{}, fmt.Errorf("%w: path for key %q pruned from proof", ErrBadProof, reach[0].key)
	}
	return nd.Sibling, nil
}

// foldLeaf checks the answers that land on a leaf against its binding and
// returns the leaf hash, recomputed from that binding.
func foldLeaf(nd *MultiNode, reach []hashedAnswer) (Digest, error) {
	// A MultiLeafOther ships its binding. A MultiLeafRef ships nothing: the
	// verifier recomputes the hash from a served key and value, which is
	// what ties that answer to the certified root.
	keyHash, valHash, bound := nd.KeyHash, nd.ValHash, nd.Kind == MultiLeafOther
	for i := 0; !bound && i < len(reach); i++ {
		if reach[i].found {
			keyHash, valHash, bound = reach[i].keyHash, reach[i].valHash, true
		}
	}
	if !bound {
		// A shape error, not a hash mismatch: the server marked the leaf as
		// a requested key's, but no served answer resolves it. Absence
		// terminals must ship as MultiLeafOther.
		return Digest{}, fmt.Errorf("%w: leaf reference resolved by no served answer", ErrProofShape)
	}
	for i := range reach {
		a := &reach[i]
		switch {
		case a.found && (a.keyHash != keyHash || a.valHash != valHash):
			// Covers a second, different binding claimed for one leaf.
			return Digest{}, fmt.Errorf("%w: leaf does not bind %q to the served value", ErrBadProof, a.key)
		case !a.found && a.keyHash == keyHash:
			return Digest{}, fmt.Errorf("%w: terminal leaf holds %q itself", ErrBadProof, a.key)
		}
	}
	return leafHash(keyHash, valHash), nil
}
