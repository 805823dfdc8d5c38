package core_test

import (
	"fmt"
	"testing"
	"time"

	"transedge/internal/core"
	"transedge/internal/protocol"
	"transedge/internal/transport"
)

// TestCertsAssembledWhereCertificatesLeave pins where a replica pays for
// its batch certificates. Delivery verifies no commit signature, so an
// in-memory deployment with no reader assembles a certificate only at
// each checkpoint it derives. Read-only replies served by one replica
// cost that replica one assembly per distinct batch served (none for a
// checkpoint batch, whose certificate is already assembled), and a
// second read of the same batch costs nothing more.
func TestCertsAssembledWhereCertificatesLeave(t *testing.T) {
	const interval, batches = 4, 10
	for _, tt := range []struct {
		name  string
		reads int // read-only requests per committed batch
	}{
		{"no reader", 0},
		{"one read per batch", 1},
		{"two reads per batch", 2},
	} {
		t.Run(tt.name, func(t *testing.T) {
			sys := testSystem(t, 1, 1, 50, func(cfg *core.SystemConfig) { cfg.CheckpointInterval = interval })
			c := testClient(sys, 1)
			key := keysOn(sys, 0, 1)[0]
			server := core.NodeID{Cluster: 0, Replica: 2}
			reader := core.NodeID{Cluster: transport.ClientCluster, Replica: 2}
			served := make(map[int64]bool)
			for i := 0; i < batches; i++ {
				txn := c.Begin()
				txn.Write(key, []byte(fmt.Sprint(i)))
				if err := txn.Commit(); err != nil {
					t.Fatal(err)
				}
				for range tt.reads {
					ch := make(chan protocol.ROReply, 1)
					sys.Net.Send(reader, server, &protocol.RORequest{Keys: []string{key}, AsOfLCE: -1, ReplyTo: ch})
					select {
					case r := <-ch:
						if r.Err != "" {
							t.Fatalf("read-only reply: %s", r.Err)
						}
						served[r.Header.ID] = true
					case <-time.After(5 * time.Second):
						t.Fatal("no read-only reply")
					}
				}
			}
			sys.Stop()
			for r := range int32(sys.ReplicasPerCluster()) {
				id := core.NodeID{Cluster: 0, Replica: r}
				n := sys.Node(id)
				if n.Tip() < interval {
					t.Fatalf("replica %v stopped at batch %d, before the first checkpoint", id, n.Tip())
				}
				want := n.Tip() / interval // one per checkpoint derived
				if id == server {
					for b := range served {
						if b%interval != 0 {
							want++
						}
					}
				}
				if got := n.Metrics.CertsAssembled; got != want {
					t.Errorf("replica %v (tip %d): %d certificates assembled, want %d", id, n.Tip(), got, want)
				}
			}
		})
	}
}
