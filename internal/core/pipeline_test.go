package core

// White-box tests of the leader's one in-flight batch: the slot a build
// fills, the builds refused while it is busy, delivery retirement, and
// rollback of reserved OCC footprints when the slot never reaches the
// log. The node is never started, so every internal method runs
// synchronously on the test goroutine.

import (
	"fmt"
	"testing"
	"time"

	"transedge/internal/cryptoutil"
	"transedge/internal/protocol"
	"transedge/internal/transport"
)

// newSpecLeader builds an unstarted single-cluster leader whose pipeline
// can be driven synchronously. Consensus messages go to an empty network
// and vanish; delivery is simulated by calling onDeliver directly. Only
// forced builds propose: the flush interval never elapses, so an
// admission's unforced build cannot race the test's own.
func newSpecLeader(t *testing.T, data map[string][]byte, opts ...func(*NodeConfig)) *Node {
	t.Helper()
	const replicas = 4
	keys := make(map[NodeID]cryptoutil.KeyPair)
	ring := cryptoutil.NewKeyRing()
	for r := 0; r < replicas; r++ {
		id := NodeID{Cluster: 0, Replica: int32(r)}
		kp := cryptoutil.DeriveKeyPair(id, 99)
		keys[id] = kp
		ring.Add(id, kp.Public)
	}
	share := genesisShare(data, protocol.Partitioner{N: 1}, 0) // every key
	header, cert := genesis(0, 1, newTreeFor(share).Root(), time.Now().UnixNano(), keys, replicas)
	cfg := NodeConfig{
		SystemConfig: SystemConfig{
			Clusters: 1, F: 1,
			BatchInterval: time.Hour,
		},
		Cluster: 0, Replica: 0,
		Keys:          keys[NodeID{Cluster: 0, Replica: 0}],
		Ring:          ring,
		Net:           transport.NewNetwork(),
		GenesisHeader: header,
		GenesisCert:   cert,
		GenesisData:   share,
	}
	for _, o := range opts {
		o(&cfg)
	}
	n := NewNode(cfg)
	n.lastFlush = time.Now()
	return n
}

func specKeys(n int) map[string][]byte {
	data := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		data[fmt.Sprintf("k%d", i)] = []byte("0")
	}
	return data
}

// submitLocal admits one write-only local transaction and returns the
// client's reply channel.
func submitLocal(n *Node, seq uint32, key string) chan protocol.CommitReply {
	ch := make(chan protocol.CommitReply, 1)
	n.onCommitRequest(&protocol.CommitRequest{
		Txn: protocol.Transaction{
			ID:         protocol.MakeTxnID(1, seq),
			Writes:     []protocol.WriteOp{{Key: key, Value: []byte(fmt.Sprintf("v%d", seq))}},
			Partitions: []int32{0},
		},
		ReplyTo: ch,
	})
	return ch
}

// foreignBatch is a batch 1 the leader never proposed: empty, chained
// off genesis.
func foreignBatch(n *Node) *protocol.Batch {
	genesisHeader := n.log.get(0).header
	cd := genesisHeader.CD.Clone()
	cd[0] = 1
	return (&protocol.Batch{
		Cluster:    0,
		ID:         1,
		PrevDigest: genesisHeader.Digest(),
		Timestamp:  time.Now().UnixNano(),
		CD:         cd,
		LCE:        genesisHeader.LCE,
		MerkleRoot: genesisHeader.MerkleRoot,
	}).Seal()
}

// wantReply checks that ch holds a reply with the given status.
func wantReply(t *testing.T, ch chan protocol.CommitReply, status protocol.TxnStatus, what string) {
	t.Helper()
	select {
	case r := <-ch:
		if r.Status != status {
			t.Fatalf("%s: reply %+v, want status %v", what, r, status)
		}
	default:
		t.Fatalf("%s: no reply, want status %v", what, status)
	}
}

// wantNoReply checks that ch holds no reply yet.
func wantNoReply(t *testing.T, ch chan protocol.CommitReply, what string) {
	t.Helper()
	select {
	case r := <-ch:
		t.Fatalf("%s: unexpected reply %+v", what, r)
	default:
	}
}

func TestPipelineBusySlotStalls(t *testing.T) {
	n := newSpecLeader(t, specKeys(4))

	submitLocal(n, 0, "k0")
	n.maybeBuildBatch(true)
	if n.spec == nil || n.spec.batch.ID != 1 {
		t.Fatalf("first build did not fill the slot with batch 1: %+v", n.spec)
	}
	if got := n.spec.batch.PrevDigest; got != n.log.get(0).digest {
		t.Fatal("in-flight batch does not chain off the delivered tip")
	}
	slot := n.spec

	submitLocal(n, 1, "k1") // its own unforced build stalls too
	stalls := n.Metrics.PipelineStalls
	n.maybeBuildBatch(true)
	if n.spec != slot {
		t.Fatal("a build while the slot was busy replaced it")
	}
	if got := n.Metrics.PipelineStalls; stalls == 0 || got != stalls+1 {
		t.Fatalf("PipelineStalls = %d after the admission, %d after the forced build", stalls, got)
	}
	if len(n.pendingLocal) != 1 {
		t.Fatalf("second txn should wait for delivery; pending=%d", len(n.pendingLocal))
	}
	// Both footprints stay reserved: a conflicting admission aborts.
	wantReply(t, submitLocal(n, 99, "k0"), protocol.StatusAborted, "conflict with the in-flight batch")
	wantReply(t, submitLocal(n, 98, "k1"), protocol.StatusAborted, "conflict with the pending admission")
}

func TestPipelineDeliveryRetiresSlot(t *testing.T) {
	n := newSpecLeader(t, specKeys(4))

	ch := submitLocal(n, 0, "k0")
	n.maybeBuildBatch(true)
	if n.spec == nil {
		t.Fatal("build left the slot empty")
	}

	slotTree := n.spec.tree
	n.onDeliver(protocol.CertifiedBatch{Batch: n.spec.batch})

	if n.spec != nil {
		t.Fatal("delivered slot not retired")
	}
	select {
	case r := <-ch:
		if r.Status != protocol.StatusCommitted || r.CommitBatch != 1 {
			t.Fatalf("reply = %+v, want committed in batch 1", r)
		}
	default:
		t.Fatal("client not notified on delivery")
	}
	if n.pending.writes.has("k0") {
		t.Fatal("footprint not released on delivery")
	}
	if got := n.st.LastWriter("k0"); got != 1 {
		t.Fatalf("store writer = %d, want 1", got)
	}
	if n.log.get(1).tree != slotTree {
		t.Fatal("slot's tree not installed as the delivered version")
	}
	if n.Metrics.PipelineRollbacks != 0 {
		t.Fatalf("PipelineRollbacks = %d after a matching delivery", n.Metrics.PipelineRollbacks)
	}
}

func TestPipelineRollbackReleasesReservations(t *testing.T) {
	n := newSpecLeader(t, specKeys(8))

	ch := submitLocal(n, 0, "k0")
	n.maybeBuildBatch(true)
	if n.spec == nil {
		t.Fatal("build left the slot empty")
	}

	n.rollbackInFlight()

	if n.spec != nil {
		t.Fatal("rollback left the slot filled")
	}
	if len(n.pending.writes) != 0 || len(n.pending.reads) != 0 {
		t.Fatalf("rollback leaked reservations: %d writes, %d reads",
			len(n.pending.writes), len(n.pending.reads))
	}
	if n.Metrics.PipelineRollbacks != 1 {
		t.Fatalf("PipelineRollbacks = %d, want 1", n.Metrics.PipelineRollbacks)
	}
	wantReply(t, ch, protocol.StatusAborted, "rolled-back txn")

	// The key is free again: a new transaction admits cleanly.
	wantNoReply(t, submitLocal(n, 50, "k0"), "re-admission after rollback")
	if len(n.pendingLocal) != 1 {
		t.Fatal("re-admitted transaction not pending")
	}
}

// TestPipelineDivergentDeliveryRollsBack delivers a batch the leader
// never proposed for its occupied slot: the slot must roll back (the
// leadership-change / foreign-proposal defense).
func TestPipelineDivergentDeliveryRollsBack(t *testing.T) {
	n := newSpecLeader(t, specKeys(8))

	ch := submitLocal(n, 0, "k0")
	n.maybeBuildBatch(true)
	n.onDeliver(protocol.CertifiedBatch{Batch: foreignBatch(n)})

	if n.spec != nil {
		t.Fatal("divergent delivery left the slot filled")
	}
	if n.Metrics.PipelineRollbacks != 1 {
		t.Fatalf("PipelineRollbacks = %d, want 1", n.Metrics.PipelineRollbacks)
	}
	wantReply(t, ch, protocol.StatusAborted, "txn of the divergent slot")
	if len(n.pending.writes) != 0 {
		t.Fatal("divergence rollback leaked write reservations")
	}
	if got := n.st.LastWriter("k0"); got != 0 {
		t.Fatalf("store writer of k0 = %d, want genesis", got)
	}
}

// TestPipelineNewViewFrontier deposes the leader with its batch in
// flight. A frontier that drops the batch, or carries another in its
// place, rolls it back; one that carries it keeps the slot and the
// client's waiter, and delivery answers the client. Either way the
// deposed leader's unbatched admission is aborted.
func TestPipelineNewViewFrontier(t *testing.T) {
	for _, tt := range []struct {
		name  string
		carry bool
	}{{"dropped", false}, {"replaced", false}, {"carried", true}} {
		t.Run(tt.name, func(t *testing.T) {
			n := newSpecLeader(t, specKeys(8))
			inFlight := submitLocal(n, 0, "k0")
			n.maybeBuildBatch(true)
			slot := n.spec
			unbatched := submitLocal(n, 1, "k1")

			var frontier []*protocol.Batch
			switch tt.name {
			case "replaced":
				frontier = []*protocol.Batch{foreignBatch(n)}
			case "carried":
				frontier = []*protocol.Batch{slot.batch}
			}
			n.consensus.AdoptView(1) // replica 1 leads view 1
			n.rebaseOnView(1, frontier)

			if n.IsLeader() {
				t.Fatal("replica 0 still leads view 1")
			}
			wantReply(t, unbatched, protocol.StatusAborted, "unbatched admission")
			if !tt.carry {
				wantReply(t, inFlight, protocol.StatusAborted, "txn of the dropped batch")
				if n.Metrics.PipelineRollbacks != 1 {
					t.Fatalf("PipelineRollbacks = %d, want 1", n.Metrics.PipelineRollbacks)
				}
				if len(frontier) == 0 && n.spec != nil {
					t.Fatal("empty frontier left the slot filled")
				}
				if len(frontier) == 1 && (n.spec == nil || n.spec.batch != frontier[0] ||
					n.spec.tree.Root() != frontier[0].MerkleRoot) {
					t.Fatal("slot does not hold the frontier's batch and its tree")
				}
				return
			}
			if n.spec != slot || n.Metrics.PipelineRollbacks != 0 {
				t.Fatalf("carried batch's slot not kept (rollbacks %d)", n.Metrics.PipelineRollbacks)
			}
			wantNoReply(t, inFlight, "txn of the carried batch")
			n.onDeliver(protocol.CertifiedBatch{Batch: slot.batch})
			wantReply(t, inFlight, protocol.StatusCommitted, "txn of the carried batch after delivery")
		})
	}
}
