package core_test

import (
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
	"transedge/internal/merkle"
	"transedge/internal/protocol"
	"transedge/internal/transport"
)

// TestSecondRoundRepairsInconsistency reproduces the paper's Fig. 1
// scenario deterministically: the coordinator commits a distributed
// transaction but the participant's commit is delayed by a slow
// inter-leader link, so a read-only transaction issued in that window sees
// a dependency gap and must run the second round.
func TestSecondRoundRepairsInconsistency(t *testing.T) {
	sys := testSystem(t, 2, 1, 200)
	c := testClient(sys, 1)
	k0 := keysOn(sys, 0, 1)[0] // cluster 0
	k1 := keysOn(sys, 1, 1)[0] // cluster 1

	// Pick the coordinator deterministically by routing the commit to
	// cluster 0's leader ourselves — the client chooses randomly, so
	// instead we delay decisions in BOTH directions between leaders.
	leader0 := core.NodeID{Cluster: 0, Replica: 0}
	leader1 := core.NodeID{Cluster: 1, Replica: 0}
	var gate sync.Mutex
	slow := false
	sys.Net.SetLatency(func(from, to transport.NodeID) time.Duration {
		gate.Lock()
		defer gate.Unlock()
		if slow && from.Cluster != to.Cluster &&
			from.Cluster != transport.ClientCluster && to.Cluster != transport.ClientCluster &&
			(from == leader0 || from == leader1) {
			return 80 * time.Millisecond
		}
		return 0
	})

	txn := c.Begin()
	if _, err := txn.Read(k0); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Read(k1); err != nil {
		t.Fatal(err)
	}
	txn.Write(k0, []byte("A"))
	txn.Write(k1, []byte("B"))

	// Slow the inter-leader links only after the transaction prepared
	// everywhere, so just the CommitDecision is delayed. We cannot hook
	// the exact moment, so enable the delay and commit: prepares and
	// votes cross the slow link too, which merely stretches the window.
	gate.Lock()
	slow = true
	gate.Unlock()
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	// The coordinator has committed; the other cluster's decision is
	// still in flight for up to 80ms. A read-only transaction now must
	// still return a consistent snapshot (possibly via round 2).
	sawSecondRound := false
	for i := 0; i < 20; i++ {
		res, err := c.ReadOnly([]string{k0, k1})
		if err != nil {
			t.Fatalf("read-only: %v", err)
		}
		a, b := string(res.Values[k0]), string(res.Values[k1])
		newA, newB := a == "A", b == "B"
		if newA != newB {
			t.Fatalf("inconsistent snapshot %q/%q (rounds=%d)", a, b, res.Rounds)
		}
		if res.Rounds == 2 {
			sawSecondRound = true
		}
		if newA && newB && sawSecondRound {
			break
		}
	}
	if !sawSecondRound {
		t.Fatal("delayed participant commit never forced a second round")
	}
}

// TestCDVectorsTrackDependencies checks the Fig. 3 bookkeeping: once a
// distributed transaction is visible on both partitions, each partition's
// CD entry for the other is covered by that partition's LCE, and both
// point at the prepare batches of the transaction.
func TestCDVectorsTrackDependencies(t *testing.T) {
	sys := testSystem(t, 2, 1, 200)
	c := testClient(sys, 1)
	k0 := keysOn(sys, 0, 1)[0]
	k1 := keysOn(sys, 1, 1)[0]

	txn := c.Begin()
	if _, err := txn.Read(k0); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Read(k1); err != nil {
		t.Fatal(err)
	}
	txn.Write(k0, []byte("A"))
	txn.Write(k1, []byte("B"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := c.ReadOnly([]string{k0, k1})
		if err != nil {
			t.Fatal(err)
		}
		h0, h1 := res.Headers[0], res.Headers[1]
		if string(res.Values[k0]) == "A" && string(res.Values[k1]) == "B" {
			// Both partitions committed the transaction: cross
			// dependencies must now be recorded and satisfied.
			if h0.CD[1] < 0 || h1.CD[0] < 0 {
				t.Fatalf("missing cross dependencies: CD0=%v CD1=%v", h0.CD, h1.CD)
			}
			if h0.CD[1] > h1.LCE || h1.CD[0] > h0.LCE {
				t.Fatalf("unsatisfied dependencies returned: CD0=%v LCE1=%d, CD1=%v LCE0=%d",
					h0.CD, h1.LCE, h1.CD, h0.LCE)
			}
			// The self entry always equals the batch ID.
			if h0.CD[0] != h0.ID || h1.CD[1] != h1.ID {
				t.Fatalf("self CD entries wrong: %v/%d, %v/%d", h0.CD, h0.ID, h1.CD, h1.ID)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("distributed commit never fully visible")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestClusterSurvivesByzantineFollowers(t *testing.T) {
	sys := testSystem(t, 2, 1, 100)
	adversary.Stage(sys.Net, map[core.NodeID]adversary.Attack{
		{Cluster: 0, Replica: 3}: mute,
		{Cluster: 1, Replica: 2}: adversary.Rewrite(func(_ core.NodeID, c *bft.Commit) {
			c.CertSig = make([]byte, len(c.CertSig))
		}),
	})
	c := testClient(sys, 1)
	k0 := keysOn(sys, 0, 1)[0]
	k1 := keysOn(sys, 1, 1)[0]

	txn := c.Begin()
	if _, err := txn.Read(k0); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Read(k1); err != nil {
		t.Fatal(err)
	}
	txn.Write(k0, []byte("X"))
	txn.Write(k1, []byte("Y"))
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit with byzantine followers: %v", err)
	}
	if _, err := c.ReadOnly([]string{k0, k1}); err != nil {
		t.Fatalf("read-only with byzantine followers: %v", err)
	}
}

// TestByzantineLeaderTimestampRejected shows the freshness window in
// action on the write path: a leader that backdates batch timestamps
// (trying to widen the stale-snapshot attack window) cannot get anything
// certified, because honest replicas reject out-of-window timestamps
// before voting (Sec. 4.4.2).
func TestByzantineLeaderTimestampRejected(t *testing.T) {
	sys := testSystem(t, 1, 1, 50, func(cfg *core.SystemConfig) {
		cfg.FreshnessWindow = time.Minute
	})
	leader := core.NodeID{Cluster: 0, Replica: 0}
	leaderKey := cryptoutil.DeriveKeyPair(leader, sys.Cfg.Seed) // as NewSystem derives it
	adversary.Stage(sys.Net, map[core.NodeID]adversary.Attack{leader: adversary.Rewrite(func(_ core.NodeID, pp *bft.PrePrepare) {
		pp.Batch, pp.LeaderSig = adversary.Repropose(leaderKey, pp.View, pp.Batch, func(b *protocol.Batch) {
			b.Timestamp -= (10 * time.Minute).Nanoseconds()
		})
	})})
	c := client.New(client.Config{
		ID: 1, Net: sys.Net, Ring: sys.Ring, Part: sys.Part,
		Clusters: sys.Cfg.Clusters, Timeout: 500 * time.Millisecond,
	})
	key := keysOn(sys, 0, 1)[0]
	txn := c.Begin()
	txn.Write(key, []byte("v"))
	if err := txn.Commit(); !errors.Is(err, client.ErrTimeout) {
		t.Fatalf("commit under backdating leader: err = %v, want timeout (no progress, no bad commit)", err)
	}
}

// TestReadOnlyAbsentKeysAreProven: "not found" answers carry verified
// non-membership proofs, so a byzantine server cannot hide keys by
// claiming absence.
func TestReadOnlyAbsentKeysAreProven(t *testing.T) {
	sys := testSystem(t, 2, 1, 50)
	c := testClient(sys, 1)
	present := keysOn(sys, 0, 1)[0]

	res, err := c.ReadOnly([]string{present, "never-loaded-key-1", "never-loaded-key-2"})
	if err != nil {
		t.Fatalf("read-only with absent keys: %v", err)
	}
	if res.Values[present] == nil {
		t.Fatal("present key missing")
	}
	if res.Values["never-loaded-key-1"] != nil {
		t.Fatal("absent key returned a value")
	}

	// The absence is proven, not claimed: a raw request shows the reply's
	// multi-proof proving it against the certified root. A tampered proof
	// is the truncated-proof row of TestByzantineFleet.
	absent := ""
	for i := 0; absent == ""; i++ {
		k := fmt.Sprintf("absent-%d", i)
		if sys.Part.Of(k) == 0 {
			absent = k
		}
	}
	from := core.NodeID{Cluster: transport.ClientCluster, Replica: 88}
	sys.Net.Register(from)
	replyTo := make(chan protocol.ROReply, 1)
	sys.Net.Send(from, core.NodeID{Cluster: 0, Replica: 0}, &protocol.RORequest{
		Keys: []string{absent}, AsOfLCE: -1, ReplyTo: replyTo,
	})
	select {
	case r := <-replyTo:
		if len(r.Values) != 1 || r.Values[0].Found {
			t.Fatalf("unexpected reply: %+v", r.Values)
		}
		// The request-wide multi-proof proves the absence.
		if r.Multi == nil {
			t.Fatal("server did not attach a multi-proof")
		}
		answers := []merkle.KeyAnswer{{Key: []byte(absent), Found: false}}
		if err := merkle.VerifyMulti(r.Header.MerkleRoot, answers, *r.Multi); err != nil {
			t.Fatalf("multi-proof does not prove absence: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
}
