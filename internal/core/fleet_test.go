package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"transedge/internal/adversary"
	"transedge/internal/bft"
	"transedge/internal/client"
	"transedge/internal/core"
	"transedge/internal/cryptoutil"
	"transedge/internal/protocol"
	"transedge/internal/transport"
)

// evil is the replica every fleet attack targets: cluster 0's view-0
// leader, which is also the replica clients send read-only requests to.
var evil = core.NodeID{Cluster: 0, Replica: 0}

// TestByzantineFleet stages every attack one faulty replica (or a crash,
// or a one-way partition) can mount against a cluster of 3f+1, and
// checks that the system detects or survives each one. The first four
// rows lie on the read-only path, where the client's verification is the
// only defence; the last five attack consensus, which the view change,
// checkpoint voting and quorum sizes have to absorb. Every row runs once
// in memory and once with the durability layer on, so fault handling is
// checked to compose with the WAL and disk checkpoints.
func TestByzantineFleet(t *testing.T) {
	attacks := []struct {
		name string
		run  func(t *testing.T, dataDir string)
	}{
		{"forged-values", readPathAttack(func(r protocol.ROReply) protocol.ROReply {
			v := bytes.Clone(r.Values[0].Value)
			v[0] ^= 1
			r.Values[0].Value = v
			return r
		})},
		{"truncated-proof", readPathAttack(func(r protocol.ROReply) protocol.ROReply {
			r.Multi.Nodes = r.Multi.Nodes[:len(r.Multi.Nodes)-1]
			return r
		})},
		// Each copy of the first key's answer is validly proven, and the
		// omitted key is the absent one, so the multi-proof verifies
		// without it: only the client's exactly-once key coverage rejects
		// the reply.
		{"duplicate-omit-key", readPathAttack(func(r protocol.ROReply) protocol.ROReply {
			r.Values[len(r.Values)-1] = r.Values[0]
			return r
		})},
		{"stale-replay", staleReplay},
		{"crashed-leader", crashedLeader},
		{"equivocating-leader", equivocatingLeader},
		{"mute-follower", muteFollower},
		{"forged-checkpoint-votes", forgedCheckpointVotes},
		{"asymmetric-partition", asymmetricPartition},
	}
	for _, a := range attacks {
		t.Run(a.name, func(t *testing.T) {
			for _, mode := range []string{"memory", "durable"} {
				t.Run(mode, func(t *testing.T) {
					t.Parallel()
					dir := ""
					if mode == "durable" {
						dir = t.TempDir()
					}
					a.run(t, dir)
				})
			}
		})
	}
}

// mute withholds every consensus message (the five types
// bft.Replica.Handle consumes) and nothing else.
func mute(_ core.NodeID, msg any) any {
	switch msg.(type) {
	case *bft.PrePrepare, *bft.Prepare, *bft.Commit, *protocol.ViewChange, *protocol.NewView:
		return nil
	}
	return msg
}

// readPathAttack is a row in which evil rewrites every read-only reply
// and the client must reject the result as unverifiable. The read asks
// for three present keys and, last, one absent key.
func readPathAttack(rewrite func(protocol.ROReply) protocol.ROReply) func(*testing.T, string) {
	return func(t *testing.T, dataDir string) {
		sys := testSystem(t, 2, 1, 100, inDir(dataDir))
		adversary.RewriteROReplies(t, sys.Net, evil, rewrite)
		keys := keysOn(sys, 0, 3)
		for i := 0; len(keys) == 3; i++ {
			if k := fmt.Sprintf("absent-%d", i); sys.Part.Of(k) == 0 {
				keys = append(keys, k)
			}
		}
		_, err := testClient(sys, 1).ReadOnly(keys)
		if !errors.Is(err, client.ErrVerification) {
			t.Fatalf("err = %v, want ErrVerification", err)
		}
	}
}

// staleReplay: evil answers every read-only request with the first reply
// it served, an old but internally consistent snapshot. A staleness bound
// catches it; without one it is undetectable, the freshness limitation
// the paper concedes in Sec. 4.4.2.
func staleReplay(t *testing.T, dataDir string) {
	const bound = 100 * time.Millisecond
	sys := testSystem(t, 2, 1, 100, inDir(dataDir))
	var once sync.Once
	var first protocol.ROReply
	adversary.RewriteROReplies(t, sys.Net, evil, func(r protocol.ROReply) protocol.ROReply {
		once.Do(func() { first = r })
		return first
	})
	keys := keysOn(sys, 0, 2)
	lax := testClient(sys, 1)
	captured, err := lax.ReadOnly(keys)
	if err != nil {
		t.Fatalf("first read, served honestly: %v", err)
	}
	commitN(t, lax, keys, 0, 1) // the cluster moves past the captured snapshot
	time.Sleep(time.Until(time.Unix(0, captured.Headers[0].Timestamp).Add(bound + time.Millisecond)))

	strict := client.New(client.Config{
		ID: 2, Net: sys.Net, Ring: sys.Ring, Part: sys.Part,
		Clusters: sys.Cfg.Clusters, Timeout: 5 * time.Second, MaxStaleness: bound,
	})
	if _, err := strict.ReadOnly(keys); !errors.Is(err, client.ErrStale) {
		t.Fatalf("bounded client: err = %v, want ErrStale", err)
	}
	replayed, err := lax.ReadOnly(keys)
	if err != nil {
		t.Fatalf("unbounded client rejected a consistent snapshot: %v", err)
	}
	if got, want := replayed.Values[keys[0]], captured.Values[keys[0]]; !bytes.Equal(got, want) {
		t.Fatalf("unbounded client read %q, want the replayed %q", got, want)
	}
}

// failoverSystem builds the consensus rows' deployment: one cluster with
// leader failover on and frequent checkpoints. Its client's short timeout
// rotates failed commits across replicas quickly, and that rotation is
// what arms the survivors' leader-progress timers.
//
// The view timeout is 100 ms. At 30 ms, with both durability variants
// side by side under the race detector on two cores, the partitioned
// cluster churned through five to seven views, and a view change during
// the post-failover commits rolled one back onto the client as an abort.
func failoverSystem(t *testing.T, dataDir string, opts ...func(*core.SystemConfig)) (*core.System, *client.Client, []string) {
	t.Helper()
	opts = append([]func(*core.SystemConfig){inDir(dataDir), func(cfg *core.SystemConfig) {
		cfg.CheckpointInterval = 8
		cfg.ViewTimeout = 100 * time.Millisecond
	}}, opts...)
	sys := testSystem(t, 1, 1, 100, opts...)
	c := client.New(client.Config{
		ID: 1, Net: sys.Net, Ring: sys.Ring, Part: sys.Part,
		Clusters: 1, Timeout: 2 * time.Second,
	})
	return sys, c, keysOn(sys, 0, 8)
}

// inDir turns the durability layer on in dataDir; "" leaves it off.
func inDir(dataDir string) func(*core.SystemConfig) {
	return func(cfg *core.SystemConfig) { cfg.DataDir = dataDir }
}

// pokeUntilCommit retries single-key commits until one succeeds. Each
// failed attempt still does protocol work: it lands on some replica,
// which forwards to the (dead or byzantine) leader and arms its
// leader-progress timer — exactly how real client traffic drives the
// cluster into a view change.
func pokeUntilCommit(t *testing.T, c *client.Client, keys []string, deadline time.Duration) {
	t.Helper()
	limit := time.Now().Add(deadline)
	var lastErr error
	for i := 0; time.Now().Before(limit); i++ {
		txn := c.Begin()
		txn.Write(keys[i%len(keys)], []byte(fmt.Sprintf("poke-%d", i)))
		if lastErr = txn.Commit(); lastErr == nil {
			return
		}
	}
	t.Fatalf("no commit succeeded before the deadline; last error: %v", lastErr)
}

// survivorsInNewView counts the replicas other than evil that left view 0.
func survivorsInNewView(sys *core.System) int {
	n := 0
	for r := int32(1); r < 4; r++ {
		if sys.Node(core.NodeID{Cluster: 0, Replica: r}).CurrentView() > 0 {
			n++
		}
	}
	return n
}

// deposed checks that the cluster left evil behind, with a commit quorum
// that had to include every survivor: the commit that just returned then
// proves each of them entered the new view, so nothing is waited for.
func deposed(t *testing.T, sys *core.System) {
	t.Helper()
	if lead := sys.Leader(0); lead == evil {
		t.Fatalf("cluster still routed to the view-0 leader %v", lead)
	}
	if n := survivorsInNewView(sys); n < 3 {
		t.Fatalf("only %d/3 survivors installed a new view", n)
	}
}

// crashedLeader: the view-0 leader is killed mid-run and commits resume.
// The survivors time out on leader progress, vote a view change, elect
// replica 1 and serve the client again, with no operator involved.
func crashedLeader(t *testing.T, dataDir string) {
	sys, c, keys := failoverSystem(t, dataDir)
	commitN(t, c, keys, 0, 10)
	sys.StopReplica(evil)
	pokeUntilCommit(t, c, keys, 20*time.Second)
	deposed(t, sys)
	// Failover is stable: ordinary commits flow through the new leader
	// without retry loops.
	commitN(t, c, keys, 100, 20)
}

// asymmetricPartition: the leader still hears its cluster, but nothing it
// sends reaches it. It keeps believing it leads while the followers
// starve, time out and vote it out without it.
func asymmetricPartition(t *testing.T, dataDir string) {
	sys, c, keys := failoverSystem(t, dataDir)
	commitN(t, c, keys, 0, 10)
	sys.Net.SetFilter(func(e transport.Envelope) bool {
		return e.From != evil || e.To.Cluster != 0 || e.To == evil
	})
	pokeUntilCommit(t, c, keys, 20*time.Second)
	deposed(t, sys)
	commitN(t, c, keys, 100, 20)
}

// equivocatingLeader: a leader that sends different proposal content to
// every follower can never gather a prepare quorum, so the cluster stalls
// until the progress timers depose it.
func equivocatingLeader(t *testing.T, dataDir string) {
	sys, c, keys := failoverSystem(t, dataDir)
	leaderKey := cryptoutil.DeriveKeyPair(evil, sys.Cfg.Seed) // as NewSystem derives it
	adversary.Stage(sys.Net, map[core.NodeID]adversary.Attack{evil: adversary.Rewrite(func(to core.NodeID, pp *bft.PrePrepare) {
		pp.Batch, pp.LeaderSig = adversary.Repropose(leaderKey, pp.View, pp.Batch, func(b *protocol.Batch) {
			b.Timestamp += int64(to.Replica)
		})
	})})
	pokeUntilCommit(t, c, keys, 20*time.Second)

	// With all four replicas live, the commit that just returned proves a
	// 2f+1 quorum works in a view above 0, not that every honest replica
	// has entered it: the last one installs the new view when the NewView
	// message reaches it. Give it a deadline.
	deadline := time.Now().Add(10 * time.Second)
	for n := survivorsInNewView(sys); n < 3; n = survivorsInNewView(sys) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/3 honest replicas deposed the equivocating leader", n)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// With the equivocator demoted to follower, the cluster commits
	// normally. A commit racing a still-settling view transition may abort
	// with "leader changed"; ErrAborted is the client's documented
	// retry-with-fresh-reads signal, so retry it. What must hold is that
	// commits make progress.
	for i := 0; i < 20; i++ {
		deadline := time.Now().Add(10 * time.Second)
		for {
			txn := c.Begin()
			txn.Write(keys[i%len(keys)], []byte(fmt.Sprintf("v-%d", 100+i)))
			err := txn.Commit()
			if err == nil {
				break
			}
			if !errors.Is(err, client.ErrAborted) || time.Now().After(deadline) {
				t.Fatalf("commit %d: %v", 100+i, err)
			}
		}
	}
}

// muteFollower: f followers withhold every vote. The leader still reaches
// its 2f+1 quorum from the others, nobody suspects anybody, and no
// spurious view change fires.
func muteFollower(t *testing.T, dataDir string) {
	sys, c, keys := failoverSystem(t, dataDir, func(cfg *core.SystemConfig) {
		// The row asserts that no failover happens, so the watchdog gets
		// headroom against race-detector scheduling stalls.
		cfg.ViewTimeout = 500 * time.Millisecond
	})
	adversary.Stage(sys.Net, map[core.NodeID]adversary.Attack{{Cluster: 0, Replica: 3}: mute})
	commitN(t, c, keys, 0, 20)
	for r := int32(0); r < 3; r++ {
		if v := sys.Node(core.NodeID{Cluster: 0, Replica: r}).CurrentView(); v != 0 {
			t.Fatalf("spurious view change to %d on replica %d", v, r)
		}
	}
}

// forgedCheckpointVotes: an attacker spoofing replica 3 floods the
// cluster with checkpoint votes carrying divergent state digests and
// garbage signatures at every upcoming checkpoint. Honest replicas ignore
// digests that do not match their own derived state and verify every
// signature, so a forgery can at worst displace replica 3's buffered
// vote: checkpoints stabilize from the honest quorum and a verified read
// still passes.
func forgedCheckpointVotes(t *testing.T, dataDir string) {
	sys, c, keys := failoverSystem(t, dataDir, func(cfg *core.SystemConfig) {
		// Checkpoint hygiene, not failover, is under test here.
		cfg.ViewTimeout = 500 * time.Millisecond
	})
	forger := core.NodeID{Cluster: 0, Replica: 3}
	for id := int64(8); id <= 64; id += 8 {
		for r := int32(0); r < 3; r++ {
			sys.Net.Send(forger, core.NodeID{Cluster: 0, Replica: r}, &protocol.Checkpoint{
				Cluster: 0, BatchID: id, StateDigest: protocol.Digest{0xde, 0xad, 0xbe, 0xef},
				Replica: 3, Sig: []byte("not-a-signature"),
			})
		}
	}
	commitN(t, c, keys, 0, 40) // crosses several checkpoint boundaries

	deadline := time.Now().Add(10 * time.Second)
	for {
		stable := 0
		for r := int32(0); r < 4; r++ {
			if sys.Node(core.NodeID{Cluster: 0, Replica: r}).StableCheckpoint() > 0 {
				stable++
			}
		}
		if stable == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/4 replicas stabilized a checkpoint", stable)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := testClient(sys, 2).ReadOnly(keys); err != nil {
		t.Fatalf("verified read after forged votes: %v", err)
	}
}
