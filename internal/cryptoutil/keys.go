// Package cryptoutil provides the cryptographic substrate for TransEdge:
// per-node Ed25519 identities, signed messages, and quorum certificates.
//
// Every edge node owns a public/private key pair used in all inter-node
// communication (paper Sec. 2, "Interface"). Batch certificates are sets of
// f+1 replica signatures over the canonical encoding of a batch header,
// which is what lets a single untrusted node convince a client that a
// Merkle root (and the CD vector and LCE attached to it) was agreed upon
// by the cluster.
package cryptoutil

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// NodeID identifies a replica within the whole system.
type NodeID struct {
	Cluster int32 // partition / cluster index
	Replica int32 // replica index within the cluster
}

func (n NodeID) String() string {
	return fmt.Sprintf("c%d/r%d", n.Cluster, n.Replica)
}

// KeyPair is a node's Ed25519 identity.
type KeyPair struct {
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// NewKeyPairFromSeed derives a key pair deterministically from a 32-byte
// seed. The simulation derives seeds from node IDs so that a system can be
// reconstructed reproducibly; real deployments would use crypto/rand.
func NewKeyPairFromSeed(seed [32]byte) KeyPair {
	priv := ed25519.NewKeyFromSeed(seed[:])
	return KeyPair{Public: priv.Public().(ed25519.PublicKey), private: priv}
}

// DeriveKeyPair builds the deterministic simulation identity for a node.
func DeriveKeyPair(id NodeID, systemSeed uint64) KeyPair {
	var buf [48]byte
	copy(buf[:], "transedge-node-key")
	binary.BigEndian.PutUint64(buf[18:], systemSeed)
	binary.BigEndian.PutUint32(buf[26:], uint32(id.Cluster))
	binary.BigEndian.PutUint32(buf[30:], uint32(id.Replica))
	return NewKeyPairFromSeed(sha256.Sum256(buf[:]))
}

// signOps and verifyOps count Ed25519 signatures made and checked — an
// observability hook for the consensus signature ledger (signs and
// verifies per batch), as merkle.HashOps is for node hashes.
var signOps, verifyOps atomic.Uint64

// SignOps returns the total Ed25519 signatures made since process start.
func SignOps() uint64 { return signOps.Load() }

// VerifyOps returns the total Ed25519 verifications run since process
// start; malformed keys or signatures rejected before any curve work do
// not count.
func VerifyOps() uint64 { return verifyOps.Load() }

// Sign signs msg with the node's private key.
func (k KeyPair) Sign(msg []byte) []byte {
	signOps.Add(1)
	return ed25519.Sign(k.private, msg)
}

// Verify reports whether sig is a valid signature of msg under pub.
func Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	verifyOps.Add(1)
	return ed25519.Verify(pub, msg, sig)
}

// KeyRing holds the public keys of every replica in the system, indexed by
// cluster and replica. Clients and clusters use it to validate signatures
// and certificates coming from any partition.
type KeyRing struct {
	keys map[NodeID]ed25519.PublicKey
	// replicasPerCluster records cluster sizes so quorum thresholds can be
	// validated per cluster.
	replicasPerCluster map[int32]int32
}

// NewKeyRing creates an empty key ring.
func NewKeyRing() *KeyRing {
	return &KeyRing{
		keys:               make(map[NodeID]ed25519.PublicKey),
		replicasPerCluster: make(map[int32]int32),
	}
}

// Add registers a node's public key.
func (r *KeyRing) Add(id NodeID, pub ed25519.PublicKey) {
	r.keys[id] = pub
	if id.Replica+1 > r.replicasPerCluster[id.Cluster] {
		r.replicasPerCluster[id.Cluster] = id.Replica + 1
	}
}

// PublicKey returns the registered key for id, or nil if unknown.
func (r *KeyRing) PublicKey(id NodeID) ed25519.PublicKey {
	return r.keys[id]
}

// ClusterSize returns the number of registered replicas in a cluster.
func (r *KeyRing) ClusterSize(cluster int32) int {
	return int(r.replicasPerCluster[cluster])
}

// Errors returned by certificate verification.
var (
	ErrTooFewSignatures = errors.New("cryptoutil: certificate has too few signatures")
	ErrUnknownSigner    = errors.New("cryptoutil: certificate signed by unknown node")
	ErrWrongCluster     = errors.New("cryptoutil: signer from wrong cluster")
	ErrDuplicateSigner  = errors.New("cryptoutil: duplicate signer in certificate")
	ErrInvalidSignature = errors.New("cryptoutil: invalid signature in certificate")
	ErrEmptyMessage     = errors.New("cryptoutil: empty message")
)

// Signature is a single replica's signature over some canonical message.
type Signature struct {
	Signer NodeID
	Sig    []byte
}

// Certificate is a quorum certificate: a set of signatures by distinct
// replicas of one cluster over the same message. TransEdge attaches an
// f+1 certificate to every committed batch header; because at most f
// replicas are byzantine, f+1 matching signatures prove at least one
// honest replica vouches for the content.
type Certificate struct {
	Cluster    int32
	Signatures []Signature
}

// SignCertificate produces a single-signature certificate fragment.
func SignCertificate(kp KeyPair, id NodeID, msg []byte) Signature {
	return Signature{Signer: id, Sig: kp.Sign(msg)}
}

// maxVerifyWorkers bounds the signature-verification worker pool.
var maxVerifyWorkers = runtime.GOMAXPROCS(0)

// parallelVerifyMin is the smallest signature batch worth fanning out;
// below it the goroutine handoff costs more than a serial loop.
const parallelVerifyMin = 3

// SigCheck is one independent Ed25519 verification job.
type SigCheck struct {
	Pub ed25519.PublicKey
	Msg []byte
	Sig []byte
}

// VerifyEach verifies independent signatures, fanning out across a
// bounded worker pool when the batch is large enough, and reports each
// signature's validity. The input order is preserved in the result.
func VerifyEach(checks []SigCheck) []bool {
	ok := make([]bool, len(checks))
	workers := maxVerifyWorkers
	if workers > len(checks) {
		workers = len(checks)
	}
	if len(checks) < parallelVerifyMin || workers < 2 {
		for i, c := range checks {
			ok[i] = Verify(c.Pub, c.Msg, c.Sig)
		}
		return ok
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(checks) {
					return
				}
				c := checks[i]
				ok[i] = Verify(c.Pub, c.Msg, c.Sig)
			}
		}()
	}
	wg.Wait()
	return ok
}

// VerifyCertificate checks that cert carries at least threshold valid
// signatures over msg by distinct replicas of cert.Cluster, all registered
// in the key ring.
//
// Signatures are examined in order and verification stops as soon as
// threshold valid signatures are counted. This is a deliberate
// relaxation: signatures past the threshold prefix are neither verified
// nor structurally checked, so a certificate whose first
// threshold entries are valid is accepted even if trailing entries are
// malformed — the quorum proof the protocol needs is already in hand.
// When the threshold is large enough, the Ed25519 checks fan out across
// a bounded worker pool.
func VerifyCertificate(ring *KeyRing, cert Certificate, msg []byte, threshold int) error {
	if len(msg) == 0 {
		return ErrEmptyMessage
	}
	if len(cert.Signatures) < threshold {
		return fmt.Errorf("%w: got %d, need %d", ErrTooFewSignatures, len(cert.Signatures), threshold)
	}
	if threshold <= 0 {
		return nil
	}
	// Structural pass over the prefix needed to reach the threshold:
	// cluster membership, distinct signers, registered keys. Cheap map
	// work compared to Ed25519, so it runs serially.
	seen := make(map[NodeID]bool, threshold)
	checks := make([]SigCheck, 0, threshold)
	signers := make([]NodeID, 0, threshold)
	for _, s := range cert.Signatures {
		if len(checks) == threshold {
			break
		}
		if s.Signer.Cluster != cert.Cluster {
			return fmt.Errorf("%w: %v in certificate for cluster %d", ErrWrongCluster, s.Signer, cert.Cluster)
		}
		if seen[s.Signer] {
			return fmt.Errorf("%w: %v", ErrDuplicateSigner, s.Signer)
		}
		seen[s.Signer] = true
		pub := ring.PublicKey(s.Signer)
		if pub == nil {
			return fmt.Errorf("%w: %v", ErrUnknownSigner, s.Signer)
		}
		checks = append(checks, SigCheck{Pub: pub, Msg: msg, Sig: s.Sig})
		signers = append(signers, s.Signer)
	}
	if len(checks) < threshold {
		return fmt.Errorf("%w: %d valid, need %d", ErrTooFewSignatures, len(checks), threshold)
	}
	for i, ok := range VerifyEach(checks) {
		if !ok {
			return fmt.Errorf("%w: from %v", ErrInvalidSignature, signers[i])
		}
	}
	return nil
}

// AssembleCertificate picks a threshold certificate out of candidate
// signatures over msg: it keeps, in candidate order, the first threshold
// signatures that verify, skipping bad, duplicate, unknown and
// wrong-cluster signers. A signature by self is kept unverified: the
// caller made it. It reports whether threshold signatures were found; if
// not, the certificate holds those that were.
func AssembleCertificate(ring *KeyRing, cands Certificate, msg []byte, threshold int, self NodeID) (Certificate, bool) {
	cert := Certificate{Cluster: cands.Cluster, Signatures: make([]Signature, 0, threshold)}
	for _, s := range cands.Signatures {
		if len(cert.Signatures) == threshold {
			break
		}
		if s.Signer.Cluster != cands.Cluster || slices.ContainsFunc(cert.Signatures, func(k Signature) bool { return k.Signer == s.Signer }) {
			continue
		}
		if pub := ring.PublicKey(s.Signer); pub == nil || s.Signer != self && !Verify(pub, msg, s.Sig) {
			continue
		}
		cert.Signatures = append(cert.Signatures, s)
	}
	return cert, len(cert.Signatures) == threshold
}

// Digest is a SHA-256 content digest used throughout the protocol.
type Digest [32]byte

// Hash computes the digest of data.
func Hash(data []byte) Digest { return sha256.Sum256(data) }

// hasherPool recycles SHA-256 states so the hashing hot paths (batch
// section digests, Merkle node hashes) do not allocate one per call.
var hasherPool = sync.Pool{New: func() any { return sha256.New() }}

// HashConcat hashes the concatenation of parts with length framing, so the
// result is unambiguous with respect to part boundaries.
func HashConcat(parts ...[]byte) Digest {
	h := hasherPool.Get().(hash.Hash)
	h.Reset()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var d Digest
	h.Sum(d[:0])
	hasherPool.Put(h)
	return d
}

// ConcatHasher streams length-framed parts into one digest, producing the
// same result as HashConcat over the same parts without materializing the
// part list. Obtain with NewConcatHasher, finish with Sum (which recycles
// the underlying state — the hasher must not be reused afterwards).
type ConcatHasher struct {
	h hash.Hash
}

// NewConcatHasher returns a hasher backed by the shared pool.
func NewConcatHasher() ConcatHasher {
	h := hasherPool.Get().(hash.Hash)
	h.Reset()
	return ConcatHasher{h: h}
}

// Part frames and absorbs one part.
func (c ConcatHasher) Part(p []byte) {
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
	c.h.Write(lenBuf[:])
	c.h.Write(p)
}

// Sum finalizes the digest and returns the hash state to the pool.
func (c ConcatHasher) Sum() Digest {
	var d Digest
	c.h.Sum(d[:0])
	hasherPool.Put(c.h)
	return d
}
