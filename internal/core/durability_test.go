package core_test

import (
	"fmt"
	"testing"
	"time"

	"transedge/internal/client"
	"transedge/internal/core"
)

// durableConfig is the shared shape of the durability tests: one cluster
// of 4 replicas, checkpoints every 4 batches, durability rooted at dir.
func durableConfig(dir string, keys int) core.SystemConfig {
	data := make(map[string][]byte, keys)
	for i := 0; i < keys; i++ {
		data[fmt.Sprintf("key-%03d", i)] = []byte(fmt.Sprintf("init-%d", i))
	}
	return core.SystemConfig{
		Clusters:             1,
		F:                    1,
		Seed:                 42,
		BatchInterval:        time.Millisecond,
		BatchMaxSize:         500,
		CheckpointInterval:   4,
		RetainBatches:        8,
		StateTransferTimeout: 25 * time.Millisecond,
		DataDir:              dir,
		InitialData:          data,
	}
}

// settleTips waits until every replica of every cluster has delivered
// through its leader's tip, so each disk image contains everything
// committed.
func settleTips(t *testing.T, sys *core.System) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for c := int32(0); c < int32(sys.Cfg.Clusters) && ok; c++ {
			lead := sys.Node(core.NodeID{Cluster: c, Replica: 0}).Tip()
			for r := int32(0); r < 4; r++ {
				if sys.Node(core.NodeID{Cluster: c, Replica: r}).Tip() < lead {
					ok = false
					break
				}
			}
		}
		if ok {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("replicas never converged on the leader's tip")
}

// TestColdRestartServesCommittedWritesFromDiskAlone is the acceptance
// scenario: a 4-replica cluster is killed mid-run — all replicas at once,
// after at least two stable checkpoints plus a WAL suffix — and a fresh
// System over the same DataDir must rebuild committed state from disk
// alone (no live peer holds it), replay the suffix through delivery, and
// serve verified reads that include the pre-crash committed writes.
func TestColdRestartServesCommittedWritesFromDiskAlone(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, 100)
	sys := core.NewSystem(cfg)
	sys.Start()

	c := testClient(sys, 1)
	keys := keysOn(sys, 0, 8)
	expected := make(map[string][]byte)
	// 22 commits: five checkpoint intervals of 4, plus a suffix above the
	// last stable checkpoint that only the WAL holds.
	for i := 0; i < 22; i++ {
		k, v := keys[i%len(keys)], []byte(fmt.Sprintf("v-%d", i))
		txn := c.Begin()
		txn.Write(k, v)
		if err := txn.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		expected[k] = v
	}
	settleTips(t, sys)

	tips := make(map[core.NodeID]int64)
	for r := int32(0); r < 4; r++ {
		id := core.NodeID{Cluster: 0, Replica: r}
		n := sys.Node(id)
		tips[id] = n.Tip()
		if stable := n.StableCheckpoint(); stable < 2*int64(cfg.CheckpointInterval) {
			t.Fatalf("replica %d: stable checkpoint %d, want >= 2 intervals", r, stable)
		}
		if n.Tip() <= n.StableCheckpoint() {
			t.Fatalf("replica %d: no WAL suffix above the stable checkpoint", r)
		}
	}

	// Kill everything. Nothing in memory survives this.
	sys.Stop()

	sys2 := core.NewSystem(cfg)
	sys2.Start()
	t.Cleanup(sys2.Stop)

	for id, tip := range tips {
		if got := sys2.Node(id).Tip(); got < tip {
			t.Fatalf("replica %d: recovered tip %d < pre-crash tip %d", id.Replica, got, tip)
		}
	}

	// Verified reads against the recovered state, pointed at each replica
	// in turn: Merkle proofs must check out against the certified roots
	// recovered from disk, and values must be the pre-crash committed ones.
	for r := int32(0); r < 4; r++ {
		target := core.NodeID{Cluster: 0, Replica: r}
		roc := client.New(client.Config{
			ID: uint32(10 + r), Net: sys2.Net, Ring: sys2.Ring, Part: sys2.Part,
			Clusters: 1, Timeout: 5 * time.Second,
			ROTarget: func(int32) core.NodeID { return target },
		})
		res, err := roc.ReadOnly(keys)
		if err != nil {
			t.Fatalf("verified read via recovered replica %d: %v", r, err)
		}
		for k, want := range expected {
			if string(res.Values[k]) != string(want) {
				t.Fatalf("replica %d: key %q = %q after restart, want %q",
					r, k, res.Values[k], want)
			}
		}
	}

	sys2.Stop()
	for r := int32(0); r < 4; r++ {
		n := sys2.Node(core.NodeID{Cluster: 0, Replica: r})
		if n.Metrics.ColdRestarts != 1 {
			t.Fatalf("replica %d: ColdRestarts = %d, want 1", r, n.Metrics.ColdRestarts)
		}
		if n.Metrics.WALReplayed == 0 {
			t.Fatalf("replica %d: WALReplayed = 0, the suffix was not replayed from disk", r)
		}
		// Disk-only recovery: every byte came from the local checkpoint
		// and WAL, never from a peer.
		if n.Metrics.StateTransfers != 0 {
			t.Fatalf("replica %d: StateTransfers = %d, want 0 (disk-only recovery)",
				r, n.Metrics.StateTransfers)
		}
	}
}

// TestColdRestartRecoversAllClustersConcurrently: System.Start recovers
// its replicas side by side. Three clusters are killed at once, each past
// two stable checkpoints with a WAL suffix on top; the restarted system's
// twelve replicas decode, verify and rebuild their checkpoints and replay
// their logs concurrently, and every one of them must come back at its
// pre-crash tip from its own disk alone, serve the committed writes under
// verification, and take part in new commits.
func TestColdRestartRecoversAllClustersConcurrently(t *testing.T) {
	const clusters = 3
	cfg := durableConfig(t.TempDir(), 300)
	cfg.Clusters = clusters
	sys := core.NewSystem(cfg)
	sys.Start()

	c := testClient(sys, 1)
	expected := make(map[string][]byte)
	var keys []string
	for cl := int32(0); cl < clusters; cl++ {
		own := keysOn(sys, cl, 4)
		keys = append(keys, own...)
		for i := 0; i < 11; i++ {
			k, v := own[i%len(own)], []byte(fmt.Sprintf("v-%d-%d", cl, i))
			txn := c.Begin()
			txn.Write(k, v)
			if err := txn.Commit(); err != nil {
				t.Fatalf("cluster %d commit %d: %v", cl, i, err)
			}
			expected[k] = v
		}
	}
	settleTips(t, sys)
	tips := make(map[core.NodeID]int64)
	for cl := int32(0); cl < clusters; cl++ {
		for r := int32(0); r < 4; r++ {
			id := core.NodeID{Cluster: cl, Replica: r}
			n := sys.Node(id)
			tips[id] = n.Tip()
			if stable := n.StableCheckpoint(); stable < 2*int64(cfg.CheckpointInterval) || n.Tip() <= stable {
				t.Fatalf("%v: tip %d over stable checkpoint %d, want two intervals and a suffix", id, n.Tip(), stable)
			}
		}
	}
	sys.Stop()

	sys2 := core.NewSystem(cfg)
	sys2.Start()
	t.Cleanup(sys2.Stop)
	for id, tip := range tips {
		if got := sys2.Node(id).Tip(); got != tip {
			t.Fatalf("%v: recovered tip %d, pre-crash tip %d", id, got, tip)
		}
	}
	for r := int32(0); r < 4; r++ {
		roc := client.New(client.Config{
			ID: uint32(10 + r), Net: sys2.Net, Ring: sys2.Ring, Part: sys2.Part,
			Clusters: clusters, Timeout: 5 * time.Second,
			ROTarget: func(cl int32) core.NodeID { return core.NodeID{Cluster: cl, Replica: r} },
		})
		res, err := roc.ReadOnly(keys)
		if err != nil {
			t.Fatalf("verified read via the recovered replicas %d: %v", r, err)
		}
		for k, want := range expected {
			if string(res.Values[k]) != string(want) {
				t.Fatalf("replicas %d: key %q = %q after restart, want %q", r, k, res.Values[k], want)
			}
		}
	}
	c2 := testClient(sys2, 2)
	for cl := int32(0); cl < clusters; cl++ {
		txn := c2.Begin()
		txn.Write(keysOn(sys2, cl, 1)[0], []byte("after"))
		if err := txn.Commit(); err != nil {
			t.Fatalf("cluster %d: commit after the restart: %v", cl, err)
		}
	}

	sys2.Stop()
	for id := range tips {
		m := sys2.Node(id).Metrics
		if m.ColdRestarts != 1 || m.WALReplayed == 0 || m.StateTransfers != 0 {
			t.Fatalf("%v: ColdRestarts=%d WALReplayed=%d StateTransfers=%d, want a disk-only recovery",
				id, m.ColdRestarts, m.WALReplayed, m.StateTransfers)
		}
	}
}

// TestRestartReplicaRecoversFromDiskBeforePeers: a single replica stopped
// gracefully and restarted rebuilds from its own WAL and checkpoints
// (ColdRestarts/WALReplayed fire) and rejoins the live cluster.
func TestRestartReplicaRecoversFromDiskBeforePeers(t *testing.T) {
	dir := t.TempDir()
	sys := core.NewSystem(durableConfig(dir, 100))
	sys.Start()
	t.Cleanup(sys.Stop)

	c := testClient(sys, 1)
	keys := keysOn(sys, 0, 8)
	commitN(t, c, keys, 0, 10)
	settleTips(t, sys)

	victim := core.NodeID{Cluster: 0, Replica: 3}
	sys.StopReplica(victim)
	commitN(t, c, keys, 10, 10)

	restarted := sys.RestartReplica(victim)
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		commitN(t, c, keys, 20+i, 1)
		lead := sys.Node(core.NodeID{Cluster: 0, Replica: 0}).Tip()
		if got := restarted.Tip(); got >= lead-1 && got > 20 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if lead := sys.Node(core.NodeID{Cluster: 0, Replica: 0}).Tip(); restarted.Tip() < lead-1 {
		t.Fatalf("restarted replica never caught up: tip %d vs leader %d", restarted.Tip(), lead)
	}

	sys.Stop()
	if restarted.Metrics.ColdRestarts != 1 {
		t.Fatalf("ColdRestarts = %d, want 1", restarted.Metrics.ColdRestarts)
	}
	if restarted.Metrics.WALReplayed == 0 {
		t.Fatal("WALReplayed = 0: the replica ignored its own disk")
	}
}

// TestWALCrashBeforeSyncLosesTailAndPeersCoverIt injects the
// power-cut-before-fsync crash on one replica's WAL mid-run: the unsynced
// tail is physically truncated, the WAL goes dead (consensus keeps
// committing — durability degrades, liveness does not), and after a
// restart the replica recovers its surviving prefix from disk and the
// lost tail from live peers.
func TestWALCrashBeforeSyncLosesTailAndPeersCoverIt(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, 100)
	cfg.CheckpointInterval = 8
	sys := core.NewSystem(cfg)
	sys.Start()
	t.Cleanup(sys.Stop)

	c := testClient(sys, 1)
	keys := keysOn(sys, 0, 8)
	commitN(t, c, keys, 0, 5)

	victim := core.NodeID{Cluster: 0, Replica: 2}
	old := sys.Node(victim)
	w := old.WAL()
	if w == nil {
		t.Fatal("victim has no WAL despite DataDir")
	}
	w.CrashBeforeSync()

	// Commits must keep flowing while the victim's WAL dies underneath it.
	commitN(t, c, keys, 5, 20)
	if !w.Crashed() {
		t.Fatal("injected crash never fired (no sync happened in 20 commits)")
	}

	sys.StopReplica(victim)
	// The pre-crash incarnation accounted the failure (its loop is
	// quiescent now; RestartReplica below replaces it in the system).
	if old.Metrics.WALErrors == 0 {
		t.Fatal("WALErrors = 0: the injected crash was not accounted")
	}
	restarted := sys.RestartReplica(victim)
	deadline := time.Now().Add(10 * time.Second)
	caught := false
	for i := 0; time.Now().Before(deadline); i++ {
		commitN(t, c, keys, 25+i, 1)
		lead := sys.Node(core.NodeID{Cluster: 0, Replica: 0}).Tip()
		if got := restarted.Tip(); got >= lead-1 && got > 25 {
			caught = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !caught {
		t.Fatalf("replica with crashed WAL never caught up: tip %d", restarted.Tip())
	}
}

// TestWALCrashAfterNBytesLeavesTornTail injects the fail-after-N-bytes
// crash: the victim's WAL dies mid-frame, leaving a torn record on disk.
// The restarted replica must truncate the torn tail on open (never
// replaying a damaged record) and still recover.
func TestWALCrashAfterNBytesLeavesTornTail(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, 100)
	sys := core.NewSystem(cfg)
	sys.Start()
	t.Cleanup(sys.Stop)

	c := testClient(sys, 1)
	keys := keysOn(sys, 0, 8)
	commitN(t, c, keys, 0, 6)

	victim := core.NodeID{Cluster: 0, Replica: 1}
	w := sys.Node(victim).WAL()
	if w == nil {
		t.Fatal("victim has no WAL despite DataDir")
	}
	w.CrashAfter(8) // dies 8 bytes into the next frame: a torn header

	commitN(t, c, keys, 6, 12)
	if !w.Crashed() {
		t.Fatal("injected crash never fired")
	}

	sys.StopReplica(victim)
	restarted := sys.RestartReplica(victim)
	deadline := time.Now().Add(10 * time.Second)
	caught := false
	for i := 0; time.Now().Before(deadline); i++ {
		commitN(t, c, keys, 18+i, 1)
		lead := sys.Node(core.NodeID{Cluster: 0, Replica: 0}).Tip()
		if got := restarted.Tip(); got >= lead-1 && got > 18 {
			caught = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !caught {
		t.Fatalf("replica with torn WAL never caught up: tip %d", restarted.Tip())
	}
}

// TestNoDataDirWritesNothing pins the default: without a DataDir the
// durability layer stays entirely off — no WAL, no persisted checkpoints,
// no metrics movement — preserving the seed's in-memory semantics.
func TestNoDataDirWritesNothing(t *testing.T) {
	sys := testSystem(t, 1, 1, 100, func(cfg *core.SystemConfig) {
		cfg.CheckpointInterval = 4
	})
	c := testClient(sys, 1)
	keys := keysOn(sys, 0, 4)
	commitN(t, c, keys, 0, 12)

	if w := sys.Node(core.NodeID{Cluster: 0, Replica: 0}).WAL(); w != nil {
		t.Fatal("a WAL exists without a DataDir")
	}
	sys.Stop()
	for _, metric := range []struct {
		name string
		get  func(*core.Metrics) int64
	}{
		{"WALAppended", func(m *core.Metrics) int64 { return m.WALAppended }},
		{"CheckpointsPersisted", func(m *core.Metrics) int64 { return m.CheckpointsPersisted }},
		{"ColdRestarts", func(m *core.Metrics) int64 { return m.ColdRestarts }},
	} {
		if v := sys.NodeMetrics(metric.get); v != 0 {
			t.Fatalf("%s = %d without a DataDir, want 0", metric.name, v)
		}
	}
}
