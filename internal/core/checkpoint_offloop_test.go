package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"transedge/internal/client"
	"transedge/internal/core"
	"transedge/internal/protocol"
	"transedge/internal/transport"
)

// Checkpoints off the consensus loop (DESIGN.md §6, §8): derivation runs
// on a read executor, persistence on the persister goroutine, and no
// checkpoint retains a copy of the keyspace unless it serves a transfer.

// waitFor polls cond until it holds or the deadline passes, running step
// (if any) between polls to keep the cluster moving.
func waitFor(t *testing.T, what string, step func(), cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		if step != nil {
			step()
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// closed reports whether a signal channel has been closed.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestCheckpointRetainsNoSnapshot: deriving, voting for and stabilizing
// checkpoints leaves no store export behind on any replica; serving one
// state transfer leaves exactly one, on the responder, and the next
// stable checkpoint frees it. The installing side keeps none either.
func TestCheckpointRetainsNoSnapshot(t *testing.T) {
	const interval = 4
	victim := core.NodeID{Cluster: 0, Replica: 3}
	// run drives the cluster through several checkpoints, optionally a
	// state transfer to the restarted victim, optionally further
	// checkpoints after it, and returns every replica's slots once the
	// system has stopped, plus the checkpoint the transfer was served from.
	run := func(t *testing.T, transfer, moreCheckpoints bool) (views []core.CheckpointView, served int64) {
		sys := testSystem(t, 1, 1, 100, func(cfg *core.SystemConfig) {
			cfg.CheckpointInterval = interval
			// Long enough that the recovering victim never re-asks: one
			// request, one responder.
			cfg.StateTransferTimeout = 5 * time.Second
		})
		c := testClient(sys, 1)
		keys := keysOn(sys, 0, 8)
		commitN(t, c, keys, 0, 22)
		settleTips(t, sys)
		if transfer {
			// No commit while the victim is down or recovering: exactly one
			// peer is asked, and exactly once.
			sys.StopReplica(victim)
			restarted := sys.RestartReplica(victim)
			lead := sys.Node(core.NodeID{Cluster: 0, Replica: 0}).Tip()
			waitFor(t, "the restarted replica to catch up", nil, func() bool { return restarted.Tip() >= lead })
			served = restarted.StableCheckpoint()
		}
		if moreCheckpoints {
			next := 22
			waitFor(t, "a newer stable checkpoint on every replica",
				func() { commitN(t, c, keys, next, 1); next++ },
				func() bool {
					for r := int32(0); r < 4; r++ {
						if sys.Node(core.NodeID{Cluster: 0, Replica: r}).StableCheckpoint() <= served+interval {
							return false
						}
					}
					return true
				})
		}
		sys.Stop()
		for r := int32(0); r < 4; r++ {
			n := sys.Node(core.NodeID{Cluster: 0, Replica: r})
			v := n.Checkpoints()
			if v.StableID < 2*interval {
				t.Fatalf("replica %d: stable checkpoint %d, want several intervals", r, v.StableID)
			}
			// (Once it turns stable, the derived checkpoint IS the stable one.)
			if v.ChkExport && v.ChkID != v.StableID {
				t.Fatalf("replica %d: derived checkpoint %d retains a store export", r, v.ChkID)
			}
			views = append(views, v)
		}
		if transfer && sys.Node(victim).Metrics.StateTransfers != 1 {
			t.Fatalf("restarted replica installed %d checkpoints, want 1", sys.Node(victim).Metrics.StateTransfers)
		}
		return views, served
	}
	holders := func(views []core.CheckpointView) (out []int) {
		for r, v := range views {
			if v.StableExport {
				out = append(out, r)
			}
		}
		return out
	}

	t.Run("no transfer", func(t *testing.T) {
		views, _ := run(t, false, false)
		if h := holders(views); len(h) != 0 {
			t.Fatalf("replicas %v retain a store export though nobody asked for one", h)
		}
	})
	t.Run("served transfer", func(t *testing.T) {
		views, served := run(t, true, false)
		h := holders(views)
		if len(h) != 1 || h[0] == int(victim.Replica) {
			t.Fatalf("replicas %v retain a store export, want the one responder only", h)
		}
		if views[h[0]].StableID != served {
			t.Fatalf("responder holds an export at %d but served checkpoint %d", views[h[0]].StableID, served)
		}
	})
	t.Run("freed by the next checkpoint", func(t *testing.T) {
		views, _ := run(t, true, true)
		if h := holders(views); len(h) != 0 {
			t.Fatalf("replicas %v still retain a store export after a newer stable checkpoint", h)
		}
	})
}

// TestEventLoopNeverBlocksOnCheckpoint: with every replica's persister
// held for 200 ms per checkpoint file, commits keep being acknowledged at
// their usual latency — persistence runs beside the event loop, not on
// it. (Persisting on the loop stalls a commit for the full 200 ms at
// every checkpoint, on all replicas at once.)
func TestEventLoopNeverBlocksOnCheckpoint(t *testing.T) {
	const hold = 200 * time.Millisecond
	sys := core.NewSystem(durableConfig(t.TempDir(), 100))
	var persisting atomic.Int32
	for r := int32(0); r < 4; r++ {
		sys.Node(core.NodeID{Cluster: 0, Replica: r}).SetCheckpointHooks(nil, func(int64) {
			persisting.Add(1)
			time.Sleep(hold)
			persisting.Add(-1)
		})
	}
	sys.Start()
	t.Cleanup(sys.Stop)

	c := testClient(sys, 1)
	keys := keysOn(sys, 0, 8)
	var worst time.Duration
	slow, overlapped := 0, 0
	for i := 0; i < 40; i++ {
		start := time.Now()
		commitN(t, c, keys, i, 1)
		d := time.Since(start)
		if d > worst {
			worst = d
		}
		if d > hold/2 {
			slow++
		}
		if persisting.Load() > 0 {
			overlapped++
		}
	}
	if overlapped == 0 {
		t.Fatal("no commit overlapped a checkpoint persist: the test exercised nothing")
	}
	// Ten checkpoints fall inside these 40 commits. A loop that waits for
	// the persister is slow at every one of them; two slow commits are
	// allowed for a busy machine's own hiccups.
	if slow > 2 {
		t.Fatalf("%d of 40 commits took over %v while checkpoints persisted (worst %v, %d overlapped a persist): "+
			"the event loop waits for the persister", slow, hold/2, worst, overlapped)
	}
	sys.Stop()
	for r := int32(0); r < 4; r++ {
		n := sys.Node(core.NodeID{Cluster: 0, Replica: r})
		if n.Metrics.CheckpointsPersisted == 0 {
			t.Fatalf("replica %d persisted no checkpoint", r)
		}
		if n.Metrics.WALErrors != 0 {
			t.Fatalf("replica %d: WALErrors = %d", r, n.Metrics.WALErrors)
		}
	}
}

// loadCheckpointFile reads a replica's checkpoint file the way recovery
// does.
func loadCheckpointFile(t *testing.T, dataDir string, id core.NodeID) *protocol.DurableCheckpoint {
	t.Helper()
	path := filepath.Join(dataDir, fmt.Sprintf("c%d-r%d", id.Cluster, id.Replica), "checkpoint", "checkpoint.bin")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
	c, err := protocol.DecodeDurableCheckpointFile(raw)
	if err != nil {
		t.Fatalf("checkpoint file %s: %v", path, err)
	}
	return c
}

// TestRestartDuringCheckpointPersist crashes a replica whose persister is
// in the middle of replacing the checkpoint file and restarts it at once
// on the same DataDir. StopReplica must not return while the old
// incarnation can still write there (two writers of checkpoint.bin.tmp
// would let a stale image land over a newer one after the WAL below it
// is gone); the previous checkpoint file stays loadable throughout; and
// the restarted replica converges on the state of a replica that never
// crashed.
func TestRestartDuringCheckpointPersist(t *testing.T) {
	dir := t.TempDir()
	sys := core.NewSystem(durableConfig(dir, 100))
	victim := core.NodeID{Cluster: 0, Replica: 3}
	twin := core.NodeID{Cluster: 0, Replica: 1}

	var (
		mu       sync.Mutex
		persists []int64
	)
	held, release := make(chan struct{}), make(chan struct{})
	sys.Node(victim).SetCheckpointHooks(nil, func(id int64) {
		mu.Lock()
		persists = append(persists, id)
		second := len(persists) == 2
		mu.Unlock()
		if second {
			close(held)
			<-release
		}
	})
	sys.Start()
	t.Cleanup(sys.Stop)

	c := testClient(sys, 1)
	keys := keysOn(sys, 0, 8)
	next := 0
	commit := func() { commitN(t, c, keys, next, 1); next++ }
	waitFor(t, "the victim's second checkpoint persist", commit, func() bool { return closed(held) })
	mu.Lock()
	first, second := persists[0], persists[1]
	mu.Unlock()

	stopped := make(chan struct{})
	go func() {
		sys.StopReplica(victim)
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("StopReplica returned while the replica's persister was still mid-write")
	case <-time.After(100 * time.Millisecond):
	}
	// Mid-persist, the file on disk is still the previous checkpoint, whole.
	if got := loadCheckpointFile(t, dir, victim).CheckpointID; got != first {
		t.Fatalf("checkpoint file holds %d during the persist of %d, want the previous one (%d)", got, second, first)
	}
	close(release)
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("StopReplica never returned after the persister finished")
	}
	if got := loadCheckpointFile(t, dir, victim).CheckpointID; got != second {
		t.Fatalf("checkpoint file holds %d after the drained persist, want %d", got, second)
	}

	// The cluster moved on while the victim was down.
	for i := 0; i < 10; i++ {
		commit()
	}
	restarted := sys.RestartReplica(victim)
	// Caught up with the leader, not with the twin: a follower may itself
	// be one delivery short when a commit returns, and a replica that
	// missed that batch while syncing only learns of it from later traffic.
	waitFor(t, "the restarted replica to catch up", commit, func() bool {
		return restarted.Tip() >= sys.Node(core.NodeID{Cluster: 0, Replica: 0}).Tip() && restarted.Tip() > second
	})
	settleTips(t, sys)

	read := func(target core.NodeID) map[string][]byte {
		roc := client.New(client.Config{
			ID: uint32(20 + target.Replica), Net: sys.Net, Ring: sys.Ring, Part: sys.Part,
			Clusters: 1, Timeout: 5 * time.Second,
			ROTarget: func(int32) core.NodeID { return target },
		})
		res, err := roc.ReadOnly(keys)
		if err != nil {
			t.Fatalf("verified read via replica %d: %v", target.Replica, err)
		}
		return res.Values
	}
	got, want := read(victim), read(twin)
	for _, k := range keys {
		if string(got[k]) != string(want[k]) {
			t.Fatalf("key %q: restarted replica serves %q, never-crashed twin %q", k, got[k], want[k])
		}
	}
	sys.Stop()
	if restarted.Metrics.ColdRestarts != 1 {
		t.Fatalf("ColdRestarts = %d, want 1: the replica did not recover from its own disk", restarted.Metrics.ColdRestarts)
	}
}

// TestInstalledCheckpointIsDurableBeforeItsSuffix: a replica that installs
// a checkpoint from a peer appends what follows it — the response's suffix,
// then live batches — to its WAL only once the checkpoint file is durable
// and the WAL truncated up to it. (Appended behind the old tip instead,
// those records sit past a gap until the persist lands, and a crash in
// that window makes recovery cut them off.) The install is the one place
// where the loop waits for the persister.
func TestInstalledCheckpointIsDurableBeforeItsSuffix(t *testing.T) {
	sys := core.NewSystem(durableConfig(t.TempDir(), 100))
	victim := core.NodeID{Cluster: 0, Replica: 3}

	// Armed once the victim is cut off, with the leader's tip at that
	// moment: the victim can deliver nothing above it on its own, so the
	// first checkpoint above it reaches the victim through a state
	// transfer. The hook holds that persist a while and then looks at how
	// far the loop has delivered meanwhile.
	var cutTip, installed, tipAtPersist atomic.Int64
	cutTip.Store(-1)
	installed.Store(-1)
	sys.Node(victim).SetCheckpointHooks(nil, func(id int64) {
		if at := cutTip.Load(); at < 0 || id <= at || !installed.CompareAndSwap(-1, id) {
			return
		}
		time.Sleep(50 * time.Millisecond)
		tipAtPersist.Store(sys.Node(victim).Tip())
	})
	var cut atomic.Bool
	sys.Net.SetFilter(func(e transport.Envelope) bool { return !(cut.Load() && e.To == victim) })
	sys.Start()
	t.Cleanup(sys.Stop)

	c := testClient(sys, 1)
	keys := keysOn(sys, 0, 8)
	next := 0
	commit := func() { commitN(t, c, keys, next, 1); next++ }
	for i := 0; i < 6; i++ {
		commit()
	}
	cut.Store(true)
	cutTip.Store(sys.Node(core.NodeID{Cluster: 0, Replica: 0}).Tip())
	for i := 0; i < 32; i++ {
		commit()
	}
	cut.Store(false)
	// Commits keep flowing while the victim installs: there is always a
	// suffix or a live batch for it to deliver right behind the checkpoint.
	waitFor(t, "the victim to persist an installed checkpoint and catch up", commit, func() bool {
		return tipAtPersist.Load() > 0 && sys.Node(victim).Tip() > installed.Load()
	})
	if id, tip := installed.Load(), tipAtPersist.Load(); tip != id {
		t.Fatalf("the victim delivered through batch %d while the checkpoint it installed at %d was still being persisted", tip, id)
	}
	sys.Stop()
	if v := sys.Node(victim); v.Metrics.StateTransfers == 0 || v.Metrics.WALErrors != 0 {
		t.Fatalf("victim: StateTransfers = %d, WALErrors = %d", v.Metrics.StateTransfers, v.Metrics.WALErrors)
	}
}

// TestStaleCheckpointDerivationIsDropped: a checkpoint derivation that
// comes back after a state transfer installed a newer checkpoint describes
// state the replica no longer has. The loop must drop it — no vote for
// the stale position, and the replica's derived-checkpoint slot is not
// set back.
func TestStaleCheckpointDerivationIsDropped(t *testing.T) {
	const interval = 4
	cfg := durableConfig("", 100)
	cfg.CheckpointInterval = interval
	sys := core.NewSystem(cfg)
	victim := core.NodeID{Cluster: 0, Replica: 3}
	leader := core.NodeID{Cluster: 0, Replica: 0}
	// One executor on the victim: results reach its loop in submission
	// order, so any vote it casts after its held derivation is released
	// proves the loop has already seen the stale result.
	sys.Node(victim).SetReadExecutors(1)

	held, release := make(chan struct{}), make(chan struct{})
	sys.Node(victim).SetCheckpointHooks(func(id int64) {
		if id == interval {
			close(held)
			<-release
		}
	}, nil)
	var cut, released atomic.Bool
	var staleVotes, votesAfterRelease atomic.Int64
	sys.Net.SetFilter(func(e transport.Envelope) bool {
		if m, ok := e.Payload.(*protocol.Checkpoint); ok && e.From == victim {
			if m.BatchID == interval {
				staleVotes.Add(1)
			}
			if released.Load() {
				votesAfterRelease.Add(1)
			}
		}
		return !(cut.Load() && e.To == victim)
	})
	sys.Start()
	t.Cleanup(sys.Stop)

	c := testClient(sys, 1)
	keys := keysOn(sys, 0, 8)
	next := 0
	commit := func() { commitN(t, c, keys, next, 1); next++ }
	waitFor(t, "the victim to start deriving its first checkpoint", commit, func() bool { return closed(held) })

	// Cut the victim off until the cluster is far past its buffering
	// window, then heal: only a state transfer brings it back.
	cut.Store(true)
	for i := 0; i < 8*interval; i++ {
		commit()
	}
	cut.Store(false)
	waitFor(t, "the victim to install a newer checkpoint", commit, func() bool {
		v := sys.Node(victim)
		return v.StableCheckpoint() > interval && v.Tip() >= sys.Node(leader).Tip()-1
	})

	released.Store(true)
	close(release)
	waitFor(t, "a fresh vote from the victim", commit, func() bool { return votesAfterRelease.Load() > 0 })

	sys.Stop()
	v := sys.Node(victim)
	if v.Metrics.StateTransfers == 0 {
		t.Fatal("the victim never state-transferred: the derivation was not stale")
	}
	if n := staleVotes.Load(); n != 0 {
		t.Fatalf("the victim sent %d votes for checkpoint %d after installing a newer one", n, interval)
	}
	if got := v.Checkpoints(); got.ChkID == interval || got.StableID <= interval {
		t.Fatalf("victim's checkpoint slots after the stale result: %+v", got)
	}
}
