package protocol

import "transedge/internal/merkle"

// The canonical encoding of the read-only protocol's multi-proof. The
// in-process transport passes proofs as Go values, so this encoding only
// measures: proof bytes per request are a per-layer metric of the
// benchmark, and the Merkle golden vectors pin it.
//
// The encoding is self-delimiting: the preorder structure determines
// exactly how many nodes follow, so no count prefix is needed and one
// key's multi-proof costs one (bit, sibling) pair per level, the same as
// a per-key proof step.

// multiProofCodecVersion tags the multi-proof encoding.
const multiProofCodecVersion = 1

// EncodeMultiProof returns the canonical encoding of a multi-proof: the
// version byte followed by the preorder node stream. Crit bits fit one
// byte (keys are 256-bit hashes), so an inner node with one pruned child —
// the common case, one per path level — costs 34 bytes, the same as a
// single ProofStep.
func EncodeMultiProof(p *merkle.MultiProof) []byte {
	e := enc{b: make([]byte, 0, 1+34*len(p.Nodes))}
	e.u8(multiProofCodecVersion)
	for _, nd := range p.Nodes {
		e.u8(nd.Kind)
		switch nd.Kind {
		case merkle.MultiInner:
			e.u8(uint8(nd.Bit))
		case merkle.MultiPrunedLeft, merkle.MultiPrunedRight:
			e.u8(uint8(nd.Bit))
			e.digest(nd.Sibling)
		case merkle.MultiLeafRef:
		case merkle.MultiLeafOther:
			e.digest(nd.KeyHash)
			e.digest(nd.ValHash)
		}
	}
	return e.b
}
