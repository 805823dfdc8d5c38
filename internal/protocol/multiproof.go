package protocol

import (
	"fmt"

	"transedge/internal/merkle"
)

// Canonical codecs for the Merkle proof types the read-only protocol
// ships. The in-process transport passes proofs as Go values, so these
// encodings serve measurement (proof bytes per request are a per-layer
// metric of the benchmark), durability-style tooling, and the fuzzers
// that pin the decoders' crash-safety.
//
// The multi-proof encoding is self-delimiting: the preorder structure
// determines exactly how many nodes follow, so no count prefix is needed
// and one key's multi-proof costs no more bytes than its single proof
// (one (bit, sibling) pair per level either way).

// Proof codec version tags.
const (
	proofCodecVersion      = 1
	multiProofCodecVersion = 1
)

// EncodeProof returns the canonical encoding of a membership proof.
func EncodeProof(p *merkle.Proof) []byte {
	e := enc{b: make([]byte, 0, 5+34*len(p.Steps))}
	e.u8(proofCodecVersion)
	e.u32(uint32(len(p.Steps)))
	for _, s := range p.Steps {
		e.u8(uint8(s.Bit >> 8))
		e.u8(uint8(s.Bit))
		e.digest(s.Sibling)
	}
	return e.b
}

// DecodeProof parses a canonical membership proof encoding.
func DecodeProof(b []byte) (*merkle.Proof, error) {
	d := dec{b: b}
	if v := d.u8(); d.err == nil && v != proofCodecVersion {
		return nil, fmt.Errorf("protocol: proof codec version %d unsupported", v)
	}
	n := d.u32()
	if d.err == nil && uint64(n)*34 > uint64(len(d.b)) {
		return nil, errDecShort
	}
	p := &merkle.Proof{}
	for i := uint32(0); i < n && d.err == nil; i++ {
		hi, lo := d.u8(), d.u8()
		p.Steps = append(p.Steps, merkle.ProofStep{
			Bit:     int16(hi)<<8 | int16(lo),
			Sibling: d.digest(),
		})
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return p, nil
}

// EncodeAbsenceProof returns the canonical encoding of an absence proof.
func EncodeAbsenceProof(p *merkle.AbsenceProof) []byte {
	e := enc{b: make([]byte, 0, 69+34*len(p.Steps))}
	e.u8(proofCodecVersion)
	e.u32(uint32(len(p.Steps)))
	for _, s := range p.Steps {
		e.u8(uint8(s.Bit >> 8))
		e.u8(uint8(s.Bit))
		e.digest(s.Sibling)
	}
	e.digest(p.LeafKeyHash)
	e.digest(p.LeafValHash)
	return e.b
}

// DecodeAbsenceProof parses a canonical absence proof encoding.
func DecodeAbsenceProof(b []byte) (*merkle.AbsenceProof, error) {
	d := dec{b: b}
	if v := d.u8(); d.err == nil && v != proofCodecVersion {
		return nil, fmt.Errorf("protocol: proof codec version %d unsupported", v)
	}
	n := d.u32()
	if d.err == nil && uint64(n)*34 > uint64(len(d.b)) {
		return nil, errDecShort
	}
	p := &merkle.AbsenceProof{}
	for i := uint32(0); i < n && d.err == nil; i++ {
		hi, lo := d.u8(), d.u8()
		p.Steps = append(p.Steps, merkle.ProofStep{
			Bit:     int16(hi)<<8 | int16(lo),
			Sibling: d.digest(),
		})
	}
	p.LeafKeyHash = d.digest()
	p.LeafValHash = d.digest()
	if err := d.finish(); err != nil {
		return nil, err
	}
	return p, nil
}

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

// DecodeMultiProof parses a canonical multi-proof encoding. The stream is
// self-delimiting: decoding walks the preorder structure, enforcing the
// strict crit-bit ordering (which also bounds recursion depth to the
// 256-bit key length), and rejects trailing bytes. The empty proof (the
// empty tree's) encodes to just the version byte.
func DecodeMultiProof(b []byte) (*merkle.MultiProof, error) {
	d := dec{b: b}
	if v := d.u8(); d.err == nil && v != multiProofCodecVersion {
		return nil, fmt.Errorf("protocol: multi-proof codec version %d unsupported", v)
	}
	p := &merkle.MultiProof{}
	if d.err == nil && len(d.b) > 0 {
		decodeMultiSubtree(&d, p, 0)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return p, nil
}

// decodeMultiSubtree consumes one subtree in preorder, appending its nodes
// to p. minBit enforces the strictly-increasing crit-bit invariant.
func decodeMultiSubtree(d *dec, p *merkle.MultiProof, minBit int16) {
	if d.err != nil {
		return
	}
	kind := d.u8()
	switch kind {
	case merkle.MultiLeafRef:
		p.Nodes = append(p.Nodes, merkle.MultiNode{Kind: kind})
	case merkle.MultiLeafOther:
		p.Nodes = append(p.Nodes, merkle.MultiNode{Kind: kind, KeyHash: d.digest(), ValHash: d.digest()})
	case merkle.MultiInner:
		bit := int16(d.u8())
		if d.err == nil && bit < minBit {
			d.err = fmt.Errorf("protocol: multi-proof crit bit %d out of order", bit)
			return
		}
		p.Nodes = append(p.Nodes, merkle.MultiNode{Kind: kind, Bit: bit})
		decodeMultiSubtree(d, p, bit+1)
		decodeMultiSubtree(d, p, bit+1)
	case merkle.MultiPrunedLeft, merkle.MultiPrunedRight:
		bit := int16(d.u8())
		if d.err == nil && bit < minBit {
			d.err = fmt.Errorf("protocol: multi-proof crit bit %d out of order", bit)
			return
		}
		p.Nodes = append(p.Nodes, merkle.MultiNode{Kind: kind, Bit: bit, Sibling: d.digest()})
		decodeMultiSubtree(d, p, bit+1)
	default:
		if d.err == nil {
			d.err = fmt.Errorf("protocol: unknown multi-proof node kind %d", kind)
		}
	}
}
