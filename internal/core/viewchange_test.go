package core_test

import (
	"testing"
	"time"

	"transedge/internal/client"
	"transedge/internal/core"
)

// TestViewTimeoutDisabledKeepsSeedBehavior: with ViewTimeout zero
// (the default), a crashed leader stalls the cluster — requests time out
// and no replica ever leaves view 0. Pins that failover is strictly
// opt-in and the seed semantics are unchanged.
func TestViewTimeoutDisabledKeepsSeedBehavior(t *testing.T) {
	sys := testSystem(t, 1, 1, 100)
	c := client.New(client.Config{
		ID: 1, Net: sys.Net, Ring: sys.Ring, Part: sys.Part,
		Clusters: 1, Timeout: 500 * time.Millisecond,
	})
	keys := keysOn(sys, 0, 4)
	commitN(t, c, keys, 0, 3)

	sys.StopReplica(core.NodeID{Cluster: 0, Replica: 0})
	txn := c.Begin()
	txn.Write(keys[0], []byte("stalled"))
	if err := txn.Commit(); err == nil {
		t.Fatal("commit succeeded with the leader dead and failover disabled")
	}
	for r := int32(1); r < 4; r++ {
		if v := sys.Node(core.NodeID{Cluster: 0, Replica: r}).CurrentView(); v != 0 {
			t.Fatalf("replica %d moved to view %d with failover disabled", r, v)
		}
	}
}
