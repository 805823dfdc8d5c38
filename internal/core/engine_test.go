package core_test

import (
	"fmt"
	"testing"
	"time"

	"transedge/internal/client"
	"transedge/internal/core"
)

// TestLSMEngineFullSystem runs the whole replica lifecycle on the LSM
// storage backend: commits through consensus, a follower crash with
// peer-assisted recovery, and finally a full-fleet kill with a cold
// restart from disk alone — the same acceptance scenario the sharded
// default passes, with Engine: "lsm" selecting the log-structured store
// on every replica. The durability layer sits above the engine
// interface, so nothing here should care which backend runs; this test
// is what makes that claim load-bearing.
func TestLSMEngineFullSystem(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, 100)
	cfg.Engine = "lsm"
	sys := core.NewSystem(cfg)
	sys.Start()

	c := testClient(sys, 1)
	keys := keysOn(sys, 0, 8)
	expected := make(map[string][]byte)
	commit := func(i int) {
		k, v := keys[i%len(keys)], []byte(fmt.Sprintf("v-%d", i))
		txn := c.Begin()
		txn.Write(k, v)
		if err := txn.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		expected[k] = v
	}
	for i := 0; i < 12; i++ {
		commit(i)
	}

	// Crash a follower mid-run; the remaining 2f+1 quorum keeps
	// committing, and the restarted replica must recover (disk + peer
	// state transfer) and catch back up to the moving tip.
	crashed := core.NodeID{Cluster: 0, Replica: 3}
	sys.StopReplica(crashed)
	for i := 12; i < 22; i++ {
		commit(i)
	}
	restarted := sys.RestartReplica(crashed)
	deadline := time.Now().Add(10 * time.Second)
	caught := false
	for i := 0; time.Now().Before(deadline) && !caught; i++ {
		commit(22 + i)
		time.Sleep(2 * time.Millisecond)
		caught = restarted.Tip() >= sys.Node(core.NodeID{Cluster: 0, Replica: 0}).Tip()
	}
	if !caught {
		t.Fatalf("restarted replica never caught up: tip %d vs leader %d",
			restarted.Tip(), sys.Node(core.NodeID{Cluster: 0, Replica: 0}).Tip())
	}
	settleTips(t, sys)
	// The catch-up loop commits a timing-dependent number of batches. A
	// tip on a checkpoint boundary would leave no WAL suffix to replay
	// below; step off it.
	for next := 1000; restarted.Tip()%int64(cfg.CheckpointInterval) == 0; next++ {
		commit(next)
		settleTips(t, sys)
	}

	// Kill the whole fleet. Nothing in memory survives; the fresh system
	// over the same DataDir rebuilds LSM-backed state from checkpoints
	// and WAL replay alone.
	sys.Stop()
	sys2 := core.NewSystem(cfg)
	sys2.Start()
	defer sys2.Stop()

	for r := int32(0); r < 4; r++ {
		target := core.NodeID{Cluster: 0, Replica: r}
		roc := client.New(client.Config{
			ID: uint32(20 + r), Net: sys2.Net, Ring: sys2.Ring, Part: sys2.Part,
			Clusters: 1, Timeout: 5 * time.Second,
			ROTarget: func(int32) core.NodeID { return target },
		})
		res, err := roc.ReadOnly(keys)
		if err != nil {
			t.Fatalf("verified read via recovered replica %d: %v", r, err)
		}
		for k, want := range expected {
			if string(res.Values[k]) != string(want) {
				t.Fatalf("replica %d: key %q = %q after cold restart, want %q",
					r, k, res.Values[k], want)
			}
		}
	}
	cold := sys2.NodeMetrics(func(m *core.Metrics) int64 { return m.ColdRestarts })
	if cold != 4 {
		t.Fatalf("ColdRestarts = %d, want 4 (every replica recovered from disk)", cold)
	}
	replayed := sys2.NodeMetrics(func(m *core.Metrics) int64 { return m.WALReplayed })
	if replayed == 0 {
		t.Fatal("WALReplayed = 0: no batch was replayed into the LSM engine")
	}
}

// TestNodeClosesOwnedEngineOnStop pins the engine lifecycle: stopping a
// system must stop every replica's self-built engine (the LSM compactor
// goroutine exits — the race detector and goroutine-leak checks in
// other tests would trip otherwise), and a second Stop stays safe.
func TestNodeClosesOwnedEngineOnStop(t *testing.T) {
	cfg := core.SystemConfig{
		Clusters:      1,
		F:             1,
		Seed:          7,
		BatchInterval: time.Millisecond,
		Engine:        "lsm",
		InitialData:   map[string][]byte{"k": []byte("v")},
	}
	sys := core.NewSystem(cfg)
	sys.Start()
	c := testClient(sys, 1)
	txn := c.Begin()
	txn.Write("k", []byte("v1"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	sys.Stop()
	sys.Stop()
}
