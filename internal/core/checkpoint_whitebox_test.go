package core

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"transedge/internal/protocol"
	"transedge/internal/store"
	"transedge/internal/transport"
)

// countingEngine counts whole-keyspace exports of the engine it wraps.
type countingEngine struct {
	store.Engine
	exports atomic.Int64
}

func (e *countingEngine) ExportAsOf(asOf int64) []store.KV {
	e.exports.Add(1)
	return e.Engine.ExportAsOf(asOf)
}

// TestStateRequestExportsOncePerCheckpoint: a stable checkpoint retains no
// snapshot until somebody asks, and however many requesters are behind it
// — state requests are unauthenticated and retried on a timer — they
// share one export. A requester already at the checkpoint costs none.
func TestStateRequestExportsOncePerCheckpoint(t *testing.T) {
	inner, err := store.NewEngine("", 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := &countingEngine{Engine: inner}
	data := specKeys(64)
	n := newSpecLeader(t, 1, data, func(cfg *NodeConfig) { cfg.Store = eng })

	// Genesis doubles as the stable checkpoint: the store holds its
	// content at batch 0 and the request path checks nothing else.
	genesis := n.log.get(0)
	n.stable = &checkpointState{id: 0, header: genesis.header, headerCert: genesis.cert, stable: true}

	behind := []NodeID{{Cluster: 0, Replica: 1}, {Cluster: 0, Replica: 2}}
	var inboxes []<-chan transport.Envelope
	for _, id := range behind {
		inboxes = append(inboxes, n.cfg.Net.Register(id))
	}
	for _, id := range behind {
		n.onStateRequest(&protocol.StateRequest{From: id, HaveBatch: -1})
	}
	var served [][]protocol.SnapshotEntry
	for i, inbox := range inboxes {
		select {
		case env := <-inbox:
			resp := env.Payload.(*protocol.StateResponse)
			if resp.CheckpointID != 0 || len(resp.Entries) != len(data) {
				t.Fatalf("requester %d: checkpoint %d with %d entries, want 0 with %d",
					i, resp.CheckpointID, len(resp.Entries), len(data))
			}
			served = append(served, resp.Entries)
		case <-time.After(5 * time.Second):
			t.Fatalf("requester %d: no state response", i)
		}
	}
	if got := eng.exports.Load(); got != 1 {
		t.Fatalf("two requests behind one checkpoint cost %d exports, want 1", got)
	}
	if &served[0][0] != &served[1][0] {
		t.Fatal("the two responses do not share one export")
	}
	if n.stable.entries == nil {
		t.Fatal("the responder did not cache the export on its stable checkpoint")
	}

	// At the checkpoint already: the suffix alone, no snapshot, no export.
	n.onStateRequest(&protocol.StateRequest{From: behind[0], HaveBatch: 0})
	select {
	case env := <-inboxes[0]:
		if resp := env.Payload.(*protocol.StateResponse); len(resp.Entries) != 0 {
			t.Fatalf("requester at the checkpoint was sent %d entries", len(resp.Entries))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no state response for the requester at the checkpoint")
	}
	if got := eng.exports.Load(); got != 1 {
		t.Fatalf("a requester at the checkpoint cost an export (%d total)", got)
	}
}

// TestVotingCheckpointClampsPruner: a derived checkpoint keeps no copy of
// the keyspace, so while it collects votes the store must keep every
// version visible at it: if it turns stable, the persister and any state
// transfer export it from there. The pruner stops at the stable
// checkpoint, which is always older.
func TestVotingCheckpointClampsPruner(t *testing.T) {
	const interval = 4
	n := newSpecLeader(t, 1, specKeys(8), func(cfg *NodeConfig) {
		cfg.CheckpointInterval = interval
	})
	// Deliveries are hand-built, as a follower would receive them: the
	// unstarted node's consensus instance never advances, so it cannot
	// propose a second batch of its own.
	deliver := func(seq uint32, key string) {
		tip := n.log.last().header
		cd := tip.CD.Clone()
		cd[0] = tip.ID + 1
		n.onDeliver(protocol.CertifiedBatch{Batch: &protocol.Batch{
			Cluster: 0, ID: tip.ID + 1, PrevDigest: tip.Digest(),
			Timestamp: time.Now().UnixNano(), CD: cd, LCE: tip.LCE,
			Local: []protocol.Transaction{{
				ID:         protocol.MakeTxnID(1, seq),
				Writes:     []protocol.WriteOp{{Key: key, Value: []byte(fmt.Sprintf("v%d", seq))}},
				Partitions: []int32{0},
			}},
		}})
	}
	for i := uint32(0); i < interval; i++ {
		deliver(i, "k0")
	}
	select {
	case cs := <-n.chkDerived:
		n.onCheckpointDerived(cs)
	case <-time.After(5 * time.Second):
		t.Fatal("no checkpoint derived at the interval")
	}
	if n.chk == nil || n.chk.id != interval || n.chk.stable {
		t.Fatalf("want a voting checkpoint at %d, have %+v", interval, n.chk)
	}
	want := n.st.ExportAsOf(interval)

	// Overwrite keys past the checkpoint and let the pruner finish passes.
	for i := uint32(0); i < 3; i++ {
		deliver(interval+i, fmt.Sprintf("k%d", i))
		for j := 0; j < 2*n.st.ShardCount(); j++ {
			n.pruneStoreStep()
		}
	}
	if got := n.st.ExportAsOf(interval); !reflect.DeepEqual(got, want) {
		t.Fatalf("export at the voting checkpoint changed under pruning: %d entries, want %d", len(got), len(want))
	}
}
