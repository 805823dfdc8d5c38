package cryptoutil

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
)

func testRing(t *testing.T, clusters, replicas int, seed uint64) (*KeyRing, map[NodeID]KeyPair) {
	t.Helper()
	ring := NewKeyRing()
	pairs := make(map[NodeID]KeyPair)
	for c := 0; c < clusters; c++ {
		for r := 0; r < replicas; r++ {
			id := NodeID{Cluster: int32(c), Replica: int32(r)}
			kp := DeriveKeyPair(id, seed)
			ring.Add(id, kp.Public)
			pairs[id] = kp
		}
	}
	return ring, pairs
}

func TestDeriveKeyPairDeterministic(t *testing.T) {
	id := NodeID{Cluster: 3, Replica: 1}
	a := DeriveKeyPair(id, 42)
	b := DeriveKeyPair(id, 42)
	if !bytes.Equal(a.Public, b.Public) {
		t.Fatal("same id and seed must derive the same key")
	}
	c := DeriveKeyPair(id, 43)
	if bytes.Equal(a.Public, c.Public) {
		t.Fatal("different system seeds must derive different keys")
	}
	d := DeriveKeyPair(NodeID{Cluster: 3, Replica: 2}, 42)
	if bytes.Equal(a.Public, d.Public) {
		t.Fatal("different nodes must derive different keys")
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	kp := DeriveKeyPair(NodeID{}, 7)
	msg := []byte("batch header")
	sig := kp.Sign(msg)
	if !Verify(kp.Public, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if Verify(kp.Public, []byte("other"), sig) {
		t.Fatal("signature over different message accepted")
	}
	sig[0] ^= 0xff
	if Verify(kp.Public, msg, sig) {
		t.Fatal("tampered signature accepted")
	}
}

func TestVerifyRejectsMalformedInputs(t *testing.T) {
	kp := DeriveKeyPair(NodeID{}, 7)
	if Verify(kp.Public[:10], []byte("m"), make([]byte, 64)) {
		t.Fatal("short public key accepted")
	}
	if Verify(kp.Public, []byte("m"), make([]byte, 10)) {
		t.Fatal("short signature accepted")
	}
}

func TestCertificateQuorum(t *testing.T) {
	ring, pairs := testRing(t, 2, 4, 1)
	msg := []byte("root r2 | cd [2,0] | lce 0")

	cert := Certificate{Cluster: 0}
	for r := 0; r < 2; r++ {
		id := NodeID{Cluster: 0, Replica: int32(r)}
		cert.Signatures = append(cert.Signatures, SignCertificate(pairs[id], id, msg))
	}
	// f=1 for a 4-replica cluster: threshold f+1 = 2.
	if err := VerifyCertificate(ring, cert, msg, 2); err != nil {
		t.Fatalf("valid f+1 certificate rejected: %v", err)
	}
	if err := VerifyCertificate(ring, cert, msg, 3); err == nil {
		t.Fatal("certificate below threshold accepted")
	}
}

func TestCertificateRejectsDuplicateSigners(t *testing.T) {
	ring, pairs := testRing(t, 1, 4, 1)
	msg := []byte("m")
	id := NodeID{Cluster: 0, Replica: 0}
	sig := SignCertificate(pairs[id], id, msg)
	cert := Certificate{Cluster: 0, Signatures: []Signature{sig, sig}}
	if err := VerifyCertificate(ring, cert, msg, 2); err == nil {
		t.Fatal("duplicate signer accepted toward quorum")
	}
}

func TestCertificateRejectsWrongCluster(t *testing.T) {
	ring, pairs := testRing(t, 2, 4, 1)
	msg := []byte("m")
	id0 := NodeID{Cluster: 0, Replica: 0}
	id1 := NodeID{Cluster: 1, Replica: 0}
	cert := Certificate{Cluster: 0, Signatures: []Signature{
		SignCertificate(pairs[id0], id0, msg),
		SignCertificate(pairs[id1], id1, msg), // foreign cluster
	}}
	if err := VerifyCertificate(ring, cert, msg, 2); err == nil {
		t.Fatal("cross-cluster signature accepted")
	}
}

func TestCertificateRejectsUnknownSigner(t *testing.T) {
	ring, _ := testRing(t, 1, 4, 1)
	msg := []byte("m")
	ghost := NodeID{Cluster: 0, Replica: 99}
	kp := DeriveKeyPair(ghost, 1)
	cert := Certificate{Cluster: 0, Signatures: []Signature{SignCertificate(kp, ghost, msg)}}
	if err := VerifyCertificate(ring, cert, msg, 1); err == nil {
		t.Fatal("unregistered signer accepted")
	}
}

func TestCertificateRejectsForgedSignature(t *testing.T) {
	ring, pairs := testRing(t, 1, 4, 1)
	msg := []byte("m")
	id := NodeID{Cluster: 0, Replica: 0}
	sig := SignCertificate(pairs[id], id, msg)
	sig.Sig[3] ^= 1
	cert := Certificate{Cluster: 0, Signatures: []Signature{sig}}
	if err := VerifyCertificate(ring, cert, msg, 1); err == nil {
		t.Fatal("forged signature accepted")
	}
}

func TestCertificateRejectsEmptyMessage(t *testing.T) {
	ring, _ := testRing(t, 1, 4, 1)
	if err := VerifyCertificate(ring, Certificate{Cluster: 0}, nil, 0); err == nil {
		t.Fatal("empty message accepted")
	}
}

func TestKeyRingClusterSize(t *testing.T) {
	ring, _ := testRing(t, 3, 7, 9)
	if got := ring.ClusterSize(1); got != 7 {
		t.Fatalf("ClusterSize = %d, want 7", got)
	}
	if got := ring.ClusterSize(42); got != 0 {
		t.Fatalf("ClusterSize for absent cluster = %d, want 0", got)
	}
}

func TestHashConcatFraming(t *testing.T) {
	// The framing must distinguish part boundaries: ("ab","c") != ("a","bc").
	if HashConcat([]byte("ab"), []byte("c")) == HashConcat([]byte("a"), []byte("bc")) {
		t.Fatal("HashConcat is ambiguous across part boundaries")
	}
	if HashConcat([]byte("abc")) == HashConcat([]byte("ab"), []byte("c")) {
		t.Fatal("HashConcat ignores part count")
	}
}

func TestSignVerifyProperty(t *testing.T) {
	kp := DeriveKeyPair(NodeID{Cluster: 1}, 99)
	other := DeriveKeyPair(NodeID{Cluster: 2}, 99)
	f := func(msg []byte) bool {
		if len(msg) == 0 {
			msg = []byte{0}
		}
		sig := kp.Sign(msg)
		return Verify(kp.Public, msg, sig) && !Verify(other.Public, msg, sig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashConcatProperty(t *testing.T) {
	// Equal inputs hash equal; appending a part changes the digest.
	f := func(a, b []byte) bool {
		h1 := HashConcat(a, b)
		h2 := HashConcat(a, b)
		h3 := HashConcat(a, b, []byte{1})
		return h1 == h2 && h1 != h3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOpCounters: SignOps and VerifyOps count each Ed25519 signature made
// and each verification run, valid or not; a malformed input rejected
// before any curve work is not a verification.
func TestOpCounters(t *testing.T) {
	id := NodeID{Cluster: 0, Replica: 0}
	kp := DeriveKeyPair(id, 1)
	msg := []byte("ledger")
	signs, verifies := SignOps(), VerifyOps()
	sig := kp.Sign(msg)
	Verify(kp.Public, msg, sig)
	Verify(kp.Public, []byte("other"), sig)
	Verify(kp.Public, msg, sig[:10])
	if got := SignOps() - signs; got != 1 {
		t.Fatalf("SignOps advanced by %d, want 1", got)
	}
	if got := VerifyOps() - verifies; got != 2 {
		t.Fatalf("VerifyOps advanced by %d, want 2", got)
	}
}

// TestAssembleCertificate: assembly keeps the first f+1 candidates that
// verify, in candidate order, skips every signer a certificate check
// would refuse, and spends no verification on the caller's own
// signature (the VerifyOps delta counts exactly the peers it checked).
func TestAssembleCertificate(t *testing.T) {
	ring, pairs := testRing(t, 2, 4, 1)
	msg := []byte("batch header digest")
	self := NodeID{Cluster: 0, Replica: 0}
	sig := func(c, r int32) Signature {
		id := NodeID{Cluster: c, Replica: r}
		return SignCertificate(pairs[id], id, msg)
	}
	bad := func(c, r int32) Signature {
		s := sig(c, r)
		s.Sig[7] ^= 1
		return s
	}
	ghost := NodeID{Cluster: 0, Replica: 9}
	for _, tt := range []struct {
		name     string
		cands    []Signature
		want     []int32 // kept signers' replicas, in order
		ok       bool
		verifies uint64
	}{
		{"honest, own first", []Signature{sig(0, 0), sig(0, 1), sig(0, 2)}, []int32{0, 1}, true, 1},
		{"own signature not first", []Signature{sig(0, 1), sig(0, 0), sig(0, 2)}, []int32{1, 0}, true, 1},
		{"corrupt signature in the prefix skipped", []Signature{sig(0, 0), bad(0, 1), sig(0, 2)}, []int32{0, 2}, true, 2},
		{"too few valid", []Signature{bad(0, 1), bad(0, 2), sig(0, 3)}, []int32{3}, false, 3},
		{"duplicate signer skipped", []Signature{sig(0, 1), sig(0, 1), sig(0, 2)}, []int32{1, 2}, true, 2},
		{"unknown signer skipped", []Signature{SignCertificate(DeriveKeyPair(ghost, 1), ghost, msg), sig(0, 1), sig(0, 2)}, []int32{1, 2}, true, 2},
		{"wrong-cluster signer skipped", []Signature{sig(1, 0), sig(0, 1), sig(0, 2)}, []int32{1, 2}, true, 2},
	} {
		t.Run(tt.name, func(t *testing.T) {
			verifies := VerifyOps()
			cert, ok := AssembleCertificate(ring, Certificate{Cluster: 0, Signatures: tt.cands}, msg, 2, self)
			if got := VerifyOps() - verifies; got != tt.verifies {
				t.Errorf("%d verifications, want %d", got, tt.verifies)
			}
			var kept []int32
			for _, s := range cert.Signatures {
				kept = append(kept, s.Signer.Replica)
			}
			if ok != tt.ok || !slices.Equal(kept, tt.want) {
				t.Fatalf("kept %v ok=%v, want %v ok=%v", kept, ok, tt.want, tt.ok)
			}
			if ok {
				if err := VerifyCertificate(ring, cert, msg, 2); err != nil {
					t.Fatalf("assembled certificate does not verify: %v", err)
				}
			}
		})
	}
}
