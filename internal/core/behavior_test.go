package core_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"transedge/internal/client"
	"transedge/internal/core"
	"transedge/internal/protocol"
	"transedge/internal/transport"
)

// TestCommitRequestViaFollowerIsForwarded: clients may contact any
// replica; followers forward commit requests to their leader (the paper's
// f+1-node submission strategy relies on this).
func TestCommitRequestViaFollowerIsForwarded(t *testing.T) {
	sys := testSystem(t, 2, 1, 100)
	key := keysOn(sys, 0, 1)[0]

	replyTo := make(chan protocol.CommitReply, 1)
	txn := protocol.Transaction{
		ID:         protocol.MakeTxnID(77, 1),
		Writes:     []protocol.WriteOp{{Key: key, Value: []byte("via-follower")}},
		Partitions: []int32{0},
	}
	from := core.NodeID{Cluster: transport.ClientCluster, Replica: 77}
	sys.Net.Register(from)
	// Send to replica 2, not the leader.
	sys.Net.Send(from, core.NodeID{Cluster: 0, Replica: 2},
		&protocol.CommitRequest{Txn: txn, ReplyTo: replyTo})
	select {
	case r := <-replyTo:
		if r.Status != protocol.StatusCommitted {
			t.Fatalf("status = %v", r.Status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("forwarded commit never acknowledged")
	}
}

// TestPreparedKeysBlockConflictingTransactions exercises rule 3 of
// Def. 3.1 directly: while a distributed transaction is prepared but
// undecided (its decision delayed by a slow link), a local transaction
// touching its keys must abort rather than read or overwrite them.
func TestPreparedKeysBlockConflictingTransactions(t *testing.T) {
	sys := testSystem(t, 2, 1, 200)
	c := testClient(sys, 1)
	k0 := keysOn(sys, 0, 1)[0]
	k1 := keysOn(sys, 1, 1)[0]

	// Slow every inter-cluster leader link so the 2PC vote/decision for
	// the distributed transaction crawls, keeping it prepared for a
	// while.
	var mu sync.Mutex
	slow := false
	sys.Net.SetLatency(func(from, to transport.NodeID) time.Duration {
		mu.Lock()
		defer mu.Unlock()
		if slow && from.Cluster != to.Cluster &&
			from.Cluster != transport.ClientCluster && to.Cluster != transport.ClientCluster {
			return 150 * time.Millisecond
		}
		return 0
	})

	// Launch the distributed transaction asynchronously (it will take
	// ~300ms+ to finish under the slowed links).
	mu.Lock()
	slow = true
	mu.Unlock()
	distDone := make(chan error, 1)
	go func() {
		d := testClient(sys, 2)
		txn := d.Begin()
		if _, err := txn.Read(k0); err != nil {
			distDone <- err
			return
		}
		if _, err := txn.Read(k1); err != nil {
			distDone <- err
			return
		}
		txn.Write(k0, []byte("dist"))
		txn.Write(k1, []byte("dist"))
		distDone <- txn.Commit()
	}()

	// Wait for the prepare to land at cluster 0 (prepare goes through the
	// local consensus quickly; only cross-cluster messages are slow).
	time.Sleep(60 * time.Millisecond)

	// A local transaction writing k0 must hit rule 3 and abort.
	local := c.Begin()
	if _, err := local.Read(k0); err != nil {
		t.Fatal(err)
	}
	local.Write(k0, []byte("local"))
	err := local.Commit()
	if !errors.Is(err, client.ErrAborted) {
		t.Fatalf("local conflicting txn err = %v, want ErrAborted (rule 3)", err)
	}

	mu.Lock()
	slow = false
	mu.Unlock()
	if err := <-distDone; err != nil {
		t.Fatalf("distributed txn failed: %v", err)
	}
}

// TestPrepareGroupsCommitInOrder drives several distributed transactions
// through one coordinator and checks, via the exported log, that
// committed segments appear in prepare-batch order with monotonically
// increasing LCE values (Def. 4.1).
func TestPrepareGroupsCommitInOrder(t *testing.T) {
	sys := testSystem(t, 3, 1, 300)
	c := testClient(sys, 1)
	k0s := keysOn(sys, 0, 6)
	k1s := keysOn(sys, 1, 6)
	k2s := keysOn(sys, 2, 6)

	for i := 0; i < 6; i++ {
		txn := c.Begin()
		for _, k := range []string{k0s[i], k1s[i], k2s[i]} {
			if _, err := txn.Read(k); err != nil {
				t.Fatal(err)
			}
			txn.Write(k, []byte(fmt.Sprintf("v%d", i)))
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	time.Sleep(30 * time.Millisecond)

	for cl := int32(0); cl < 3; cl++ {
		rec := stoppedLog(sys, core.NodeID{Cluster: cl, Replica: 0})
		lastLCE := int64(-1)
		for i := range rec {
			h := rec[i].Header
			if h.LCE < lastLCE {
				t.Fatalf("cluster %d: LCE regressed %d -> %d at batch %d", cl, lastLCE, h.LCE, h.ID)
			}
			lastLCE = h.LCE
		}
		if lastLCE < 1 {
			t.Fatalf("cluster %d: no groups ever committed (LCE=%d)", cl, lastLCE)
		}
		if err := core.VerifyLog(sys.Ring, 3, rec); err != nil {
			t.Fatalf("cluster %d: %v", cl, err)
		}
	}
}

// TestParkedRequestExpires: a second-round request whose dependency never
// arrives must be answered with an error after ROParkTimeout, not held
// forever.
func TestParkedRequestExpires(t *testing.T) {
	sys := testSystem(t, 2, 1, 100, func(cfg *core.SystemConfig) {
		cfg.ROParkTimeout = 100 * time.Millisecond
		cfg.BatchInterval = 20 * time.Millisecond // ticks drive expiry
	})
	from := core.NodeID{Cluster: transport.ClientCluster, Replica: 55}
	sys.Net.Register(from)
	replyTo := make(chan protocol.ROReply, 1)
	// Ask for an LCE far beyond anything that will commit.
	sys.Net.Send(from, core.NodeID{Cluster: 0, Replica: 0}, &protocol.RORequest{
		Keys: keysOn(sys, 0, 1), AsOfLCE: 999999, ReplyTo: replyTo,
	})
	select {
	case r := <-replyTo:
		if r.Err == "" {
			t.Fatalf("expected an error reply, got batch %d", r.Header.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked request never expired")
	}
}

// TestConcurrentDistributedCoordinators: transactions coordinated by
// different clusters at once (Sec. 3.3.5's multi-coordinator scenario)
// all commit and stay serializable.
func TestConcurrentDistributedCoordinators(t *testing.T) {
	sys := testSystem(t, 3, 1, 300)
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := testClient(sys, uint32(60+w)) // random coordinator choice per client
			a := keysOn(sys, int32(w%3), 8)[4+w]
			b := keysOn(sys, int32((w+1)%3), 8)[4+w]
			for i := 0; i < 3; i++ {
				txn := c.Begin()
				if _, err := txn.Read(a); err != nil {
					errs <- err
					return
				}
				if _, err := txn.Read(b); err != nil {
					errs <- err
					return
				}
				txn.Write(a, []byte(fmt.Sprintf("w%d-%d", w, i)))
				txn.Write(b, []byte(fmt.Sprintf("w%d-%d", w, i)))
				if err := txn.Commit(); err != nil && !errors.Is(err, client.ErrAborted) {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMetricsAccounting: node metrics reflect the traffic that ran.
func TestMetricsAccounting(t *testing.T) {
	sys := testSystem(t, 2, 1, 100)
	c := testClient(sys, 1)
	key := keysOn(sys, 0, 1)[0]
	other := keysOn(sys, 1, 1)[0]

	txn := c.Begin()
	txn.Write(key, []byte("v"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	txn2 := c.Begin()
	if _, err := txn2.Read(key); err != nil {
		t.Fatal(err)
	}
	if _, err := txn2.Read(other); err != nil {
		t.Fatal(err)
	}
	txn2.Write(key, []byte("v2"))
	txn2.Write(other, []byte("v2"))
	if err := txn2.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadOnly([]string{key, other}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	sys.Stop()

	if got := sys.NodeMetrics(func(m *core.Metrics) int64 { return m.LocalCommitted }); got == 0 {
		t.Fatal("no local commits recorded")
	}
	if got := sys.NodeMetrics(func(m *core.Metrics) int64 { return m.DistCommitted }); got == 0 {
		t.Fatal("no distributed commits recorded")
	}
	if got := sys.NodeMetrics(func(m *core.Metrics) int64 { return m.ROServed }); got == 0 {
		t.Fatal("no read-only serves recorded")
	}
	if got := sys.NodeMetrics(func(m *core.Metrics) int64 { return m.BatchesCommitted }); got == 0 {
		t.Fatal("no batches recorded")
	}
}
