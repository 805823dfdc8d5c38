package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"transedge/internal/client"
	"transedge/internal/protocol"
	"transedge/internal/transport"
)

// captureStateResponse runs a live 1-cluster system until replica 1 holds
// a stable checkpoint with an open prepare group and a suffix above it,
// and returns the StateResponse that replica serves to a requester at
// genesis, together with the configuration the system built replica 3
// from. The open group belongs to a transaction that names a second
// partition this deployment does not have: its prepare is certified, but
// no vote can ever come back, so it stays open at every checkpoint.
func captureStateResponse(t *testing.T) (*protocol.StateResponse, NodeConfig) {
	t.Helper()
	const interval = 4
	data := make(map[string][]byte, 32)
	for i := 0; i < 32; i++ {
		data[fmt.Sprintf("key-%02d", i)] = []byte(fmt.Sprintf("init-%d", i))
	}
	sys := NewSystem(SystemConfig{Clusters: 1, F: 1, Seed: 7, CheckpointInterval: interval, InitialData: data})
	sys.Start()
	defer sys.Stop()

	probe := NodeID{Cluster: 0, Replica: 9}
	inbox := sys.Net.Register(probe)
	sys.Net.Send(probe, NodeID{Cluster: 0, Replica: 0}, &protocol.CommitRequest{
		Txn: protocol.Transaction{
			ID:         protocol.MakeTxnID(99, 1),
			Writes:     []protocol.WriteOp{{Key: "key-00", Value: []byte("prepared")}},
			Partitions: []int32{0, 1},
		},
		ReplyTo: make(chan protocol.CommitReply, 1),
	})

	c := client.New(client.Config{ID: 1, Net: sys.Net, Ring: sys.Ring, Part: sys.Part,
		Clusters: 1, Timeout: 10 * time.Second})
	responder := sys.Node(NodeID{Cluster: 0, Replica: 1})
	commit := func(i int) {
		txn := c.Begin()
		// key-00 stays reserved by the open prepare: write the others, so
		// the entries carry many distinct writer batches.
		txn.Write(fmt.Sprintf("key-%02d", 1+i%31), []byte(fmt.Sprintf("v-%d", i)))
		if err := txn.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	i := 0
	for deadline := time.Now().Add(10 * time.Second); responder.StableCheckpoint() < 3*interval; i++ {
		if time.Now().After(deadline) {
			t.Fatal("no stable checkpoint formed")
		}
		commit(i)
	}
	// A suffix above the checkpoint, whose first header is the next
	// batch's: commit until the responder holds the leader's tip and that
	// tip is no checkpoint. A tip on a checkpoint becomes stable with it
	// once the cluster goes quiet, leaving no suffix.
	leader := sys.Node(NodeID{Cluster: 0, Replica: 0})
	for deadline := time.Now().Add(10 * time.Second); ; i++ {
		commit(i)
		for responder.Tip() < leader.Tip() {
			if time.Now().After(deadline) {
				t.Fatal("the responder never caught up with the leader")
			}
			time.Sleep(time.Millisecond)
		}
		if responder.Tip()%interval != 0 {
			break
		}
	}

	sys.Net.Send(probe, responder.self, &protocol.StateRequest{From: probe, HaveBatch: -1})
	var resp *protocol.StateResponse
	select {
	case env := <-inbox:
		resp = env.Payload.(*protocol.StateResponse)
	case <-time.After(10 * time.Second):
		t.Fatal("no state response")
	}
	if resp.CheckpointID < 3*interval || len(resp.Entries) != len(data) || len(resp.Groups) == 0 || len(resp.Suffix) == 0 {
		t.Fatalf("captured checkpoint %d with %d entries, %d groups and %d suffix batches: want one past %d with %d entries, a group and a suffix",
			resp.CheckpointID, len(resp.Entries), len(resp.Groups), len(resp.Suffix), 3*interval, len(data))
	}
	writers := map[int64]bool{}
	for _, e := range resp.Entries {
		writers[e.Writer] = true
	}
	if len(writers) < 3 {
		t.Fatalf("captured entries carry %d distinct writers, want several", len(writers))
	}

	cfg := sys.nodeCfgs[NodeID{Cluster: 0, Replica: 3}]
	cfg.GenesisData = genesisShare(sys.Cfg.InitialData, sys.Part, 0)
	return resp, cfg
}

// freshNode builds an unstarted replica at genesis from cfg on a network
// of its own, so its handlers run synchronously on the test goroutine.
func freshNode(t *testing.T, cfg NodeConfig, replica int32) *Node {
	cfg.Replica = replica
	cfg.Net = transport.NewNetwork()
	n := NewNode(cfg)
	t.Cleanup(n.readers.stop)
	return n
}

// reserve asks n for its state as a requester at genesis would and
// returns the response it sends.
func reserve(t *testing.T, n *Node) *protocol.StateResponse {
	t.Helper()
	probe := NodeID{Cluster: 0, Replica: 9}
	inbox := n.cfg.Net.Register(probe)
	n.onStateRequest(&protocol.StateRequest{From: probe, HaveBatch: -1})
	select {
	case env := <-inbox:
		return env.Payload.(*protocol.StateResponse)
	case <-time.After(10 * time.Second):
		t.Fatal("no state response")
		return nil
	}
}

// cloneResponse copies every slice a mutation may edit, so the rows of
// the forgery table never see each other's edits.
func cloneResponse(m *protocol.StateResponse) *protocol.StateResponse {
	c := *m
	c.Entries = slices.Clone(m.Entries)
	c.Groups = slices.Clone(m.Groups)
	for i := range c.Groups {
		c.Groups[i].Recs = slices.Clone(c.Groups[i].Recs)
	}
	c.HeaderCert.Signatures = slices.Clone(m.HeaderCert.Signatures)
	c.Cert.Signatures = slices.Clone(m.Cert.Signatures)
	return &c
}

// TestForgedCheckpointStateTransferIsRefused: a stable checkpoint captured
// from a live cluster round-trips — installed on a fresh replica,
// re-served by it and installed on a third, entries and root come back
// identical — and every single-point forgery of it is refused, leaving
// the installing replica exactly as it was.
func TestForgedCheckpointStateTransferIsRefused(t *testing.T) {
	honest, cfg := captureStateResponse(t)

	first := freshNode(t, cfg, 3)
	if err := first.installCheckpoint(cloneResponse(honest)); err != nil {
		t.Fatalf("honest response refused: %v", err)
	}
	again := reserve(t, first)
	third := freshNode(t, cfg, 2)
	if err := third.installCheckpoint(again); err != nil {
		t.Fatalf("re-served response refused: %v", err)
	}
	if again.CheckpointID != honest.CheckpointID || !reflect.DeepEqual(again.Entries, honest.Entries) ||
		!reflect.DeepEqual(again.Groups, honest.Groups) {
		t.Fatal("the re-served checkpoint differs from the one installed")
	}
	for _, n := range []*Node{first, third} {
		if got := n.log.last().tree.Root(); got != honest.Header.MerkleRoot {
			t.Fatalf("replica %d: installed root %x, certified %x", n.cfg.Replica, got, honest.Header.MerkleRoot)
		}
		if got := n.st.ExportAsOf(honest.CheckpointID); !reflect.DeepEqual(got, honest.Entries) {
			t.Fatalf("replica %d: store export differs from the installed entries", n.cfg.Replica)
		}
		if n.StableCheckpoint() != honest.CheckpointID || n.Tip() != honest.CheckpointID {
			t.Fatalf("replica %d: stable %d, tip %d, want both at %d", n.cfg.Replica, n.StableCheckpoint(), n.Tip(), honest.CheckpointID)
		}
	}

	mid := len(honest.Entries) / 2
	next := honest.Suffix[0]
	rows := []struct {
		name  string
		forge func(m *protocol.StateResponse)
	}{
		{"one writer changed", func(m *protocol.StateResponse) { m.Entries[mid].Writer++ }},
		{"one value flipped", func(m *protocol.StateResponse) {
			v := slices.Clone(m.Entries[mid].Value)
			v[0] ^= 1
			m.Entries[mid].Value = v
		}},
		{"an entry dropped", func(m *protocol.StateResponse) { m.Entries = slices.Delete(m.Entries, mid, mid+1) }},
		{"an entry added", func(m *protocol.StateResponse) {
			m.Entries = append(m.Entries, protocol.SnapshotEntry{Key: "zz-extra", Value: []byte("x"), Writer: m.CheckpointID})
		}},
		{"two entries swapped", func(m *protocol.StateResponse) {
			m.Entries[mid], m.Entries[mid+1] = m.Entries[mid+1], m.Entries[mid]
		}},
		{"two keys swap values and writers", func(m *protocol.StateResponse) {
			a, b := &m.Entries[mid], &m.Entries[mid+1]
			a.Value, b.Value, a.Writer, b.Writer = b.Value, a.Value, b.Writer, a.Writer
		}},
		{"a duplicate key", func(m *protocol.StateResponse) {
			m.Entries = slices.Insert(m.Entries, mid+1, m.Entries[mid])
		}},
		{"a group record altered", func(m *protocol.StateResponse) { m.Groups[0].Recs[0].CoordCluster++ }},
		{"a group dropped", func(m *protocol.StateResponse) { m.Groups = m.Groups[1:] }},
		{"the next batch header", func(m *protocol.StateResponse) {
			m.Header, m.HeaderCert = next.Batch.Header(), next.Cert
		}},
		{"the next batch header and position", func(m *protocol.StateResponse) {
			m.CheckpointID, m.Header, m.HeaderCert = next.Batch.ID, next.Batch.Header(), next.Cert
		}},
		{"header certificate one signature short", func(m *protocol.StateResponse) {
			m.HeaderCert.Signatures = m.HeaderCert.Signatures[:cfg.F]
		}},
		{"checkpoint certificate one signature short", func(m *protocol.StateResponse) {
			m.Cert.Signatures = m.Cert.Signatures[:2*cfg.F]
		}},
	}

	victim := freshNode(t, cfg, 1)
	const probeKey = "key-05"
	type state struct {
		tip, stable int64
		value       []byte
		writer      int64
	}
	look := func() state {
		v, w, _ := victim.st.Get(probeKey)
		return state{victim.Tip(), victim.StableCheckpoint(), v, w}
	}
	before := look()
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			m := cloneResponse(honest)
			row.forge(m)
			if err := victim.installCheckpoint(m); err == nil {
				t.Fatal("forged state response installed")
			}
			if got := look(); !reflect.DeepEqual(got, before) {
				t.Fatalf("refused install changed the replica: %+v, was %+v", got, before)
			}
		})
	}
	if err := victim.installCheckpoint(cloneResponse(honest)); err != nil {
		t.Fatalf("honest response refused after the forgeries: %v", err)
	}
	if victim.Tip() != honest.CheckpointID {
		t.Fatalf("victim tip %d after the honest install, want %d", victim.Tip(), honest.CheckpointID)
	}
}
