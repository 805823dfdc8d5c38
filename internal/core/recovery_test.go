package core_test

import (
	"fmt"
	"testing"
	"time"

	"transedge/internal/client"
	"transedge/internal/core"
	"transedge/internal/merkle"
)

// commitN commits n sequential write-only local transactions on keys of
// cluster 0, failing the test on any error. Each commit forces a batch,
// driving the log forward deterministically.
func commitN(t *testing.T, c *client.Client, keys []string, start, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		txn := c.Begin()
		txn.Write(keys[(start+i)%len(keys)], []byte(fmt.Sprintf("v-%d", start+i)))
		if err := txn.Commit(); err != nil {
			t.Fatalf("commit %d: %v", start+i, err)
		}
	}
}

// TestLogTruncationBoundsMemoryUnderLoad drives enough batches through a
// cluster that several checkpoint intervals pass, then asserts every
// replica actually truncated: the retained window stays below a small
// multiple of the checkpoint interval no matter how many batches
// committed, and the window base advanced past the early log.
func TestLogTruncationBoundsMemoryUnderLoad(t *testing.T) {
	const interval = 8
	sys := testSystem(t, 1, 1, 100, func(cfg *core.SystemConfig) {
		cfg.CheckpointInterval = interval
	})
	c := testClient(sys, 1)
	keys := keysOn(sys, 0, 8)

	const commits = 80
	commitN(t, c, keys, 0, commits)

	sys.Stop()
	for r := int32(0); r < 4; r++ {
		n := sys.Node(core.NodeID{Cluster: 0, Replica: r})
		base, length := n.LogWindow()
		tip := n.Tip()
		if tip < commits/2 {
			t.Fatalf("replica %d: tip %d, expected sustained batch flow", r, tip)
		}
		if stable := n.StableCheckpoint(); stable <= 0 {
			t.Fatalf("replica %d: no stable checkpoint formed (tip %d)", r, tip)
		}
		// The window is bounded by the checkpoint spacing (plus the
		// in-flight slack between the last stable quorum and the tip),
		// never by the total number of batches committed.
		if maxLen := 2*interval + 8; length > maxLen {
			t.Fatalf("replica %d: log window %d entries (base %d, tip %d), want <= %d",
				r, length, base, tip, maxLen)
		}
		if base == 0 {
			t.Fatalf("replica %d: window base never advanced (truncation never happened)", r)
		}
		if n.Metrics.LogTruncated == 0 {
			t.Fatalf("replica %d: LogTruncated metric is zero", r)
		}
	}
}

// TestCheckpointBoundsStoreVersions: the store's memory follows the
// stable checkpoint like the log's does. However often one key is
// overwritten, every replica keeps only its version visible at the stable
// checkpoint and the ones written since — at most an interval plus the
// one batch in flight — never one version per commit.
func TestCheckpointBoundsStoreVersions(t *testing.T) {
	const interval, commits = 4, 60
	sys := testSystem(t, 1, 1, 100, func(cfg *core.SystemConfig) {
		cfg.CheckpointInterval = interval
	})
	c := testClient(sys, 1)
	key := keysOn(sys, 0, 1)[0]
	commitN(t, c, []string{key}, 0, commits)

	// The pruner trails the newest stable checkpoint by a few ticks: give it
	// time to catch up before stopping, not a bound it has to meet mid-pass.
	const limit = interval + 2 // the checkpoint's version, an interval, one batch in flight
	var nodes []*core.Node
	for r := int32(0); r < 4; r++ {
		nodes = append(nodes, sys.Node(core.NodeID{Cluster: 0, Replica: r}))
	}
	bounded := func() bool {
		for _, n := range nodes {
			if n.VersionCount(key) > limit {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(5 * time.Second); !bounded() && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
	sys.Stop()
	for r, n := range nodes {
		if got := n.VersionCount(key); got > limit {
			t.Fatalf("replica %d holds %d versions of %q after %d commits (tip %d, stable checkpoint %d), want <= %d",
				r, got, key, commits, n.Tip(), n.StableCheckpoint(), limit)
		}
	}
}

// TestCheckpointCompactsMerkleArena: the Merkle arena's memory follows the
// stable checkpoint too. Every commit rewrites one key's root-to-leaf path
// into the append-only arena; without compaction at truncation the arena
// would hold every such copy ever made. With it, every replica's arena
// stays within 9/8 of the nodes its retained versions reach, plus the
// growth the trigger has not seen yet: the path copies appended since the
// last truncation (one interval, and the batches that commit while a
// checkpoint gathers its quorum).
func TestCheckpointCompactsMerkleArena(t *testing.T) {
	const interval, commits, keys = 4, 64, 200
	sys := testSystem(t, 1, 1, keys, func(cfg *core.SystemConfig) {
		cfg.CheckpointInterval = interval
	})
	c := testClient(sys, 1)
	key := keysOn(sys, 0, 1)[0]

	// A commit overwrites key: a new leaf plus a copy of each inner node on
	// its path, whose length the initial load fixes.
	ups := make([]merkle.Update, keys)
	for i := range ups {
		k := fmt.Sprintf("key-%03d", i)
		ups[i] = merkle.Update{KeyHash: merkle.HashKey([]byte(k)), ValHash: merkle.HashValue([]byte(k))}
	}
	proof, _, err := merkle.Build(ups).Prove([]byte(key))
	if err != nil {
		t.Fatal(err)
	}
	pathCopy := len(proof.Steps) + 1

	commitN(t, c, []string{key}, 0, commits)
	sys.Stop()
	for r := int32(0); r < 4; r++ {
		n := sys.Node(core.NodeID{Cluster: 0, Replica: r})
		if got := n.Metrics.CheckpointsStable; got < 10 {
			t.Fatalf("replica %d: %d stable checkpoints after %d commits, want >= 10", r, got, commits)
		}
		nodes, reachable := n.MerkleArena()
		if limit := reachable*9/8 + 2*interval*pathCopy; nodes > limit {
			t.Fatalf("replica %d: Merkle arena holds %d nodes, its versions reach %d: want <= %d (%d per commit)",
				r, nodes, reachable, limit, pathCopy)
		}
	}
}

// TestReplicaCrashRestartAndStateTransfer is the recovery scenario of
// the issue: a follower is killed mid-run (losing all state and every
// message sent while it is down), the cluster keeps committing without
// it, and after a restart the replica installs a stable checkpoint from
// a peer, replays the suffix, catches up to the live tip, and serves
// verified reads again.
func TestReplicaCrashRestartAndStateTransfer(t *testing.T) {
	const interval = 4
	sys := testSystem(t, 1, 1, 100, func(cfg *core.SystemConfig) {
		cfg.CheckpointInterval = interval
		cfg.StateTransferTimeout = 25 * time.Millisecond
	})
	c := testClient(sys, 1)
	keys := keysOn(sys, 0, 8)
	crashed := core.NodeID{Cluster: 0, Replica: 3}
	leaderID := core.NodeID{Cluster: 0, Replica: 0}

	commitN(t, c, keys, 0, 20)

	// Crash a follower. Commits must keep flowing: 2f+1 = 3 replicas
	// remain, which is exactly a quorum.
	sys.StopReplica(crashed)
	commitN(t, c, keys, 20, 20)

	// Restart it and keep committing; the replica must state-transfer
	// and catch up to the moving tip.
	restarted := sys.RestartReplica(crashed)
	deadline := time.Now().Add(10 * time.Second)
	caughtUp := false
	for i := 0; time.Now().Before(deadline); i++ {
		commitN(t, c, keys, 40+i, 1)
		lead := sys.Node(leaderID).Tip()
		if got := restarted.Tip(); got >= lead-1 && got > 40 {
			caughtUp = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !caughtUp {
		t.Fatalf("restarted replica never caught up: tip %d vs leader %d",
			restarted.Tip(), sys.Node(leaderID).Tip())
	}

	// The recovered replica serves verified snapshot reads: point a
	// read-only client straight at it and check the latest committed
	// values round-trip with proof verification intact.
	commitN(t, c, keys, 100, 3)
	roc := client.New(client.Config{
		ID: 9, Net: sys.Net, Ring: sys.Ring, Part: sys.Part,
		Clusters: sys.Cfg.Clusters, Timeout: 5 * time.Second,
		ROTarget: func(int32) core.NodeID { return crashed },
	})
	var res *client.ROResult
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		res, err = roc.ReadOnly(keys[:2])
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("read-only via recovered replica: %v", err)
	}
	for _, k := range keys[:2] {
		if _, ok := res.Values[k]; !ok {
			t.Fatalf("recovered replica answered without key %q", k)
		}
	}

	sys.Stop()
	if restarted.Metrics.StateTransfers == 0 {
		t.Fatal("recovered replica never installed a checkpoint (StateTransfers = 0)")
	}
	if restarted.StableCheckpoint() <= 0 {
		t.Fatal("recovered replica holds no stable checkpoint")
	}
	// It must have caught up via checkpoint + suffix, not by replaying
	// the whole history through consensus (those messages are gone).
	if base, _ := restarted.LogWindow(); base == 0 {
		t.Fatal("recovered replica's window still starts at genesis")
	}
}

// TestCrashedFollowerDoesNotStallCommits pins the liveness half of the
// acceptance criterion on its own: with a follower down, every commit
// still succeeds promptly (no quorum loss, no pipeline stall).
func TestCrashedFollowerDoesNotStallCommits(t *testing.T) {
	sys := testSystem(t, 1, 1, 100, func(cfg *core.SystemConfig) {
		cfg.CheckpointInterval = 8
	})
	c := testClient(sys, 1)
	keys := keysOn(sys, 0, 4)
	commitN(t, c, keys, 0, 5)

	sys.StopReplica(core.NodeID{Cluster: 0, Replica: 2})
	start := time.Now()
	commitN(t, c, keys, 5, 30)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("30 commits with a crashed follower took %v", elapsed)
	}
}

// TestRecoveryBeforeAnyStableCheckpoint: a replica crashed and restarted
// before the first checkpoint interval has no checkpoint to install. It
// rebuilds the certified genesis from the system's InitialData — no
// replica keeps its share — and replays the suffix on top of it, so it
// must reach the tip and serve verified reads on its own; and it must
// still recover once the cluster reaches a checkpoint (empty state
// responses re-arm the retry).
func TestRecoveryBeforeAnyStableCheckpoint(t *testing.T) {
	const interval = 8
	sys := testSystem(t, 1, 1, 100, func(cfg *core.SystemConfig) {
		cfg.CheckpointInterval = interval
		cfg.StateTransferTimeout = 25 * time.Millisecond
	})
	c := testClient(sys, 1)
	keys := keysOn(sys, 0, 4)

	commitN(t, c, keys, 0, 2) // well before the first checkpoint
	crashed := core.NodeID{Cluster: 0, Replica: 1}
	sys.StopReplica(crashed)
	restarted := sys.RestartReplica(crashed)

	// The suffix replayed on the rebuilt genesis is the only way to the tip.
	leader := sys.Node(core.NodeID{Cluster: 0, Replica: 0})
	for deadline := time.Now().Add(10 * time.Second); restarted.Tip() < leader.Tip(); {
		if time.Now().After(deadline) {
			t.Fatalf("replica restarted pre-checkpoint never replayed to the tip (tip %d, leader %d)",
				restarted.Tip(), leader.Tip())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if id := restarted.StableCheckpoint(); id >= 0 {
		t.Fatalf("restarted replica holds checkpoint %d; the test needs it to start from genesis", id)
	}
	// Every answer is proven against a root the replica certified: the
	// genesis values of the untouched keys as much as the two commits.
	roc := client.New(client.Config{
		ID: 9, Net: sys.Net, Ring: sys.Ring, Part: sys.Part,
		Clusters: sys.Cfg.Clusters, Timeout: 5 * time.Second,
		ROTarget: func(int32) core.NodeID { return crashed },
	})
	res, err := roc.ReadOnly(keys)
	if err != nil {
		t.Fatalf("read-only via the replica restarted from genesis: %v", err)
	}
	for i, k := range keys {
		want := sys.Cfg.InitialData[k]
		if i < 2 {
			want = []byte(fmt.Sprintf("v-%d", i))
		}
		if got := res.Values[k]; string(got) != string(want) {
			t.Fatalf("restarted replica read %q = %q, want %q", k, got, want)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		commitN(t, c, keys, 2+i, 1)
		if restarted.Tip() >= int64(interval) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("replica restarted pre-checkpoint never recovered (tip %d)", restarted.Tip())
}
