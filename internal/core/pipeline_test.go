package core

// White-box tests of the leader's speculative batch pipeline: chaining,
// the depth cap, delivery retirement, and rollback of reserved OCC
// footprints. The node is never started, so every internal method runs
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
// and vanish; delivery is simulated by calling onDeliver directly.
func newSpecLeader(t *testing.T, depth int, data map[string][]byte, opts ...func(*NodeConfig)) *Node {
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
	header, cert := genesis(0, 1, newTreeFor(data).Root(), time.Now().UnixNano(), keys, replicas)
	cfg := NodeConfig{
		Cluster: 0, Replica: 0, Clusters: 1, N: replicas, F: 1,
		Keys:          keys[NodeID{Cluster: 0, Replica: 0}],
		Ring:          ring,
		Net:           transport.NewNetwork(),
		Part:          protocol.Partitioner{N: 1},
		PipelineDepth: depth,
		InitialData:   data,
		GenesisHeader: header,
		GenesisCert:   cert,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return NewNode(cfg)
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

func TestPipelineChainsSpeculativeBatches(t *testing.T) {
	n := newSpecLeader(t, 3, specKeys(8))

	for i := 0; i < 5; i++ {
		submitLocal(n, uint32(i), fmt.Sprintf("k%d", i))
		n.maybeBuildBatch(true)
	}

	if len(n.spec) != 3 {
		t.Fatalf("spec chain has %d slots, want PipelineDepth=3", len(n.spec))
	}
	if n.Metrics.PipelineStalls == 0 {
		t.Fatal("no pipeline stall recorded with a full ring and pending work")
	}
	if len(n.pendingLocal) != 2 {
		t.Fatalf("%d transactions pending, want the 2 that missed the ring", len(n.pendingLocal))
	}

	// Slots carry consecutive IDs and chain PrevDigest off the
	// predecessor's speculative header (slot 0 off the delivered log).
	if got := n.spec[0].batch.PrevDigest; got != n.log.get(0).header.Digest() {
		t.Fatal("first slot does not chain off the delivered log")
	}
	for i, s := range n.spec {
		if s.batch.ID != int64(i+1) {
			t.Fatalf("slot %d has batch ID %d", i, s.batch.ID)
		}
		if i > 0 && s.batch.PrevDigest != n.spec[i-1].header.Digest() {
			t.Fatalf("slot %d does not chain off slot %d's speculative header", i, i-1)
		}
	}

	// Every admitted write is still reserved (in-flight and pending).
	for i := 0; i < 5; i++ {
		if !n.pendingWrites.has(fmt.Sprintf("k%d", i)) {
			t.Fatalf("k%d not reserved", i)
		}
	}

	// A conflicting admission must abort immediately.
	ch := submitLocal(n, 99, "k0")
	select {
	case r := <-ch:
		if r.Status != protocol.StatusAborted {
			t.Fatalf("conflicting txn got %v, want aborted", r.Status)
		}
	default:
		t.Fatal("conflicting txn got no immediate abort")
	}
}

func TestPipelineDepthOneIsStopAndWait(t *testing.T) {
	n := newSpecLeader(t, 1, specKeys(4))

	submitLocal(n, 0, "k0")
	n.maybeBuildBatch(true)
	submitLocal(n, 1, "k1")
	n.maybeBuildBatch(true)

	if len(n.spec) != 1 {
		t.Fatalf("depth 1 has %d slots in flight, want 1", len(n.spec))
	}
	if len(n.pendingLocal) != 1 {
		t.Fatalf("second txn should wait for delivery; pending=%d", len(n.pendingLocal))
	}
}

func TestPipelineDeliveryRetiresSlot(t *testing.T) {
	n := newSpecLeader(t, 4, specKeys(4))

	ch := submitLocal(n, 0, "k0")
	n.maybeBuildBatch(true)
	if len(n.spec) != 1 {
		t.Fatalf("spec chain has %d slots, want 1", len(n.spec))
	}

	n.onDeliver(protocol.CertifiedBatch{Batch: n.spec[0].batch})

	if len(n.spec) != 0 {
		t.Fatal("delivered slot not retired from the chain")
	}
	select {
	case r := <-ch:
		if r.Status != protocol.StatusCommitted || r.CommitBatch != 1 {
			t.Fatalf("reply = %+v, want committed in batch 1", r)
		}
	default:
		t.Fatal("client not notified on delivery")
	}
	if n.pendingWrites.has("k0") {
		t.Fatal("footprint not released on delivery")
	}
	if got := n.st.LastWriter("k0"); got != 1 {
		t.Fatalf("store writer = %d, want 1", got)
	}
	if n.curTree != n.trees[1] {
		t.Fatal("speculative tree not installed as the delivered version")
	}
}

func TestPipelineRollbackReleasesReservations(t *testing.T) {
	n := newSpecLeader(t, 4, specKeys(8))

	var chans []chan protocol.CommitReply
	for i := 0; i < 3; i++ {
		chans = append(chans, submitLocal(n, uint32(i), fmt.Sprintf("k%d", i)))
		n.maybeBuildBatch(true)
	}
	if len(n.spec) != 3 {
		t.Fatalf("spec chain has %d slots, want 3", len(n.spec))
	}

	n.rollbackSpec(0)

	if len(n.spec) != 0 {
		t.Fatal("rollback left slots in the chain")
	}
	if len(n.pendingWrites) != 0 || len(n.pendingReads) != 0 {
		t.Fatalf("rollback leaked reservations: %d writes, %d reads",
			len(n.pendingWrites), len(n.pendingReads))
	}
	if n.Metrics.PipelineRollbacks != 3 {
		t.Fatalf("PipelineRollbacks = %d, want 3", n.Metrics.PipelineRollbacks)
	}
	for i, ch := range chans {
		select {
		case r := <-ch:
			if r.Status != protocol.StatusAborted {
				t.Fatalf("txn %d got %v, want aborted", i, r.Status)
			}
		default:
			t.Fatalf("txn %d got no abort on rollback", i)
		}
	}

	// The keys are free again: a new transaction admits cleanly.
	ch := submitLocal(n, 50, "k0")
	select {
	case r := <-ch:
		t.Fatalf("re-admission after rollback aborted: %+v", r)
	default:
	}
	if len(n.pendingLocal) != 1 {
		t.Fatal("re-admitted transaction not pending")
	}
}

// TestPipelineDivergentDeliveryRollsBack delivers a batch the leader
// never proposed for an occupied slot: the whole speculative chain must
// roll back (the leadership-change / foreign-proposal defense).
func TestPipelineDivergentDeliveryRollsBack(t *testing.T) {
	n := newSpecLeader(t, 4, specKeys(8))

	var chans []chan protocol.CommitReply
	for i := 0; i < 2; i++ {
		chans = append(chans, submitLocal(n, uint32(i), fmt.Sprintf("k%d", i)))
		n.maybeBuildBatch(true)
	}

	genesisHeader := n.log.get(0).header
	cd := genesisHeader.CD.Clone()
	cd[0] = 1
	foreign := &protocol.Batch{
		Cluster:    0,
		ID:         1,
		PrevDigest: genesisHeader.Digest(),
		Timestamp:  time.Now().UnixNano(),
		CD:         cd,
		LCE:        genesisHeader.LCE,
	}
	n.onDeliver(protocol.CertifiedBatch{Batch: foreign})

	if len(n.spec) != 0 {
		t.Fatalf("divergent delivery left %d speculative slots", len(n.spec))
	}
	if n.Metrics.PipelineRollbacks != 2 {
		t.Fatalf("PipelineRollbacks = %d, want 2", n.Metrics.PipelineRollbacks)
	}
	for i, ch := range chans {
		select {
		case r := <-ch:
			if r.Status != protocol.StatusAborted {
				t.Fatalf("txn %d got %v, want aborted", i, r.Status)
			}
		default:
			t.Fatalf("txn %d not aborted on divergence", i)
		}
	}
	if len(n.pendingWrites) != 0 {
		t.Fatal("divergence rollback leaked write reservations")
	}
}
