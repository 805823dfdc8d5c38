package core

import (
	"errors"
	"testing"
	"time"

	"transedge/internal/cryptoutil"
	"transedge/internal/protocol"
	"transedge/internal/transport"
)

// evidenceKeys derives the keys of two four-replica clusters.
func evidenceKeys() (map[NodeID]cryptoutil.KeyPair, *cryptoutil.KeyRing) {
	keys := make(map[NodeID]cryptoutil.KeyPair)
	ring := cryptoutil.NewKeyRing()
	for c := int32(0); c < 2; c++ {
		for r := int32(0); r < 4; r++ {
			id := NodeID{Cluster: c, Replica: r}
			keys[id] = cryptoutil.DeriveKeyPair(id, 17)
			ring.Add(id, keys[id].Public)
		}
	}
	return keys, ring
}

// newEvidenceLeader builds the view-0 leader of cluster 1 in a two-cluster
// system, unstarted, so the test drives its handlers directly.
func newEvidenceLeader(t *testing.T, keys map[NodeID]cryptoutil.KeyPair, ring *cryptoutil.KeyRing) *Node {
	t.Helper()
	data := specKeys(8)
	header, cert := genesis(1, 2, newTreeFor(data).Root(), time.Now().UnixNano(), keys, 4)
	n := NewNode(NodeConfig{
		SystemConfig: SystemConfig{
			Clusters: 2, F: 1,
			BatchInterval: time.Hour,
			PipelineDepth: 1,
			InitialData:   data,
		},
		Cluster: 1, Replica: 0,
		Keys:          keys[NodeID{Cluster: 1, Replica: 0}],
		Ring:          ring,
		Net:           transport.NewNetwork(),
		GenesisHeader: header,
		GenesisCert:   cert,
	})
	if !n.IsLeader() {
		t.Fatal("replica 0 does not lead view 0")
	}
	n.lastFlush = time.Now()
	return n
}

// proveIn certifies a batch of cluster whose prepared segment is recs,
// signed by the first signers replicas, and returns its prepare proof.
func proveIn(keys map[NodeID]cryptoutil.KeyPair, cluster int32, signers int, recs ...protocol.PrepareRecord) *protocol.PrepareProof {
	b := &protocol.Batch{Cluster: cluster, ID: 5, CD: protocol.CDVector{5, 5}, Prepared: recs}
	h := b.Header()
	d := h.Digest()
	cert := cryptoutil.Certificate{Cluster: cluster}
	for r := 0; r < signers; r++ {
		id := NodeID{Cluster: cluster, Replica: int32(r)}
		cert.Signatures = append(cert.Signatures, cryptoutil.SignCertificate(keys[id], id, d[:]))
	}
	return &protocol.PrepareProof{Header: h, Cert: cert, Prepared: recs}
}

// TestPrepareEvidenceForgeries drives each way of forging a prepare proof
// through the three places that check one: a participant leader taking a
// coordinator's prepare request, a coordinator leader taking a
// participant's commit vote, and a replica validating a proposed batch
// whose prepared segment holds a foreign-coordinated record. The prover is
// always cluster 0 and the checker the leader of cluster 1; an honest
// proof passes everywhere, and each forgery is refused everywhere.
func TestPrepareEvidenceForgeries(t *testing.T) {
	keys, ring := evidenceKeys()
	txn := protocol.Transaction{
		ID:         protocol.MakeTxnID(7, 1),
		Writes:     []protocol.WriteOp{{Key: "k1", Value: []byte("v")}, {Key: "k2", Value: []byte("v")}},
		Partitions: []int32{0, 1},
	}
	other := txn
	other.ID = protocol.MakeTxnID(7, 2)
	altered := txn
	altered.Writes = []protocol.WriteOp{{Key: "k1", Value: []byte("forged")}}

	// forge returns the proof to present for the record the checker
	// expects (nil: none at all).
	forgeries := []struct {
		name  string
		forge func(want protocol.PrepareRecord) *protocol.PrepareProof
	}{
		{"honest", func(want protocol.PrepareRecord) *protocol.PrepareProof {
			return proveIn(keys, 0, 2, want)
		}},
		{"missing-evidence", func(protocol.PrepareRecord) *protocol.PrepareProof { return nil }},
		{"wrong-cluster", func(want protocol.PrepareRecord) *protocol.PrepareProof {
			return proveIn(keys, 1, 2, want)
		}},
		{"bad-certificate", func(want protocol.PrepareRecord) *protocol.PrepareProof {
			return proveIn(keys, 0, 1, want) // f signatures, one short of f+1
		}},
		{"tampered-segment", func(want protocol.PrepareRecord) *protocol.PrepareProof {
			// The expected record is still there; only the segment no
			// longer is the one the header commits to.
			p := proveIn(keys, 0, 2, want)
			p.Prepared = append(p.Prepared[:1:1], protocol.PrepareRecord{Txn: other, CoordCluster: want.CoordCluster})
			return p
		}},
		{"missing-transaction", func(want protocol.PrepareRecord) *protocol.PrepareProof {
			return proveIn(keys, 0, 2, protocol.PrepareRecord{Txn: other, CoordCluster: want.CoordCluster})
		}},
		{"content-mismatch", func(want protocol.PrepareRecord) *protocol.PrepareProof {
			// Certified, but not the record expected: different writes and
			// the other cluster as coordinator.
			return proveIn(keys, 0, 2, protocol.PrepareRecord{Txn: altered, CoordCluster: 1 - want.CoordCluster})
		}},
	}

	// Each entry point reports whether the checker accepted the proof.
	entries := []struct {
		name  string
		check func(t *testing.T, n *Node, p *protocol.PrepareProof) bool
		want  protocol.PrepareRecord
	}{
		{"coordinator-prepare", func(t *testing.T, n *Node, p *protocol.PrepareProof) bool {
			m := &protocol.CoordinatorPrepare{TxnID: txn.ID, CoordCluster: 0}
			if p != nil {
				m.Proof = *p
			}
			n.onCoordinatorPrepare(NodeID{Cluster: 0}, m)
			return len(n.pendingPrepared) > 0
		}, protocol.PrepareRecord{Txn: txn, CoordCluster: 0}},
		{"prepared-vote", func(t *testing.T, n *Node, p *protocol.PrepareProof) bool {
			dt := &distTxn{
				rec: protocol.PrepareRecord{Txn: txn, CoordCluster: 1}, prepareBatch: -1,
				isCoord: true, votesByPart: make(map[int32]*protocol.PreparedVote),
			}
			n.distTxns[txn.ID] = dt
			m := &protocol.PreparedVote{TxnID: txn.ID, FromCluster: 0, Vote: protocol.DecisionCommit}
			if p != nil {
				m.Proof = *p
			}
			n.onPreparedVote(NodeID{Cluster: 0}, m)
			return dt.votesByPart[0] != nil
		}, protocol.PrepareRecord{Txn: txn, CoordCluster: 1}},
		{"batch-evidence", func(t *testing.T, n *Node, p *protocol.PrepareProof) bool {
			prev := n.log.last()
			b := &protocol.Batch{
				Cluster: 1, ID: 1, PrevDigest: prev.digest, Timestamp: time.Now().UnixNano(),
				Prepared:   []protocol.PrepareRecord{{Txn: txn, CoordCluster: 0}},
				LCE:        prev.header.LCE,
				MerkleRoot: prev.header.MerkleRoot,
			}
			b.CD = n.deriveCD(prev.header.CD, b)
			if p != nil {
				b.PrepareEvidence = map[protocol.TxnID]*protocol.PrepareProof{txn.ID: p}
			}
			err := n.validateBatch(b.Seal())
			if err != nil && !errors.Is(err, ErrBadEvidence) {
				t.Fatalf("batch refused for another reason than its evidence: %v", err)
			}
			return err == nil
		}, protocol.PrepareRecord{Txn: txn, CoordCluster: 0}},
	}

	for _, e := range entries {
		for _, f := range forgeries {
			t.Run(e.name+"/"+f.name, func(t *testing.T) {
				n := newEvidenceLeader(t, keys, ring)
				defer n.readers.stop()
				if got, want := e.check(t, n, f.forge(e.want)), f.name == "honest"; got != want {
					t.Fatalf("accepted = %v, want %v", got, want)
				}
			})
		}
	}
}
