package bft

import (
	"bytes"
	"crypto/ed25519"
	"sync/atomic"
	"testing"
	"time"

	"transedge/internal/cryptoutil"
	"transedge/internal/protocol"
	"transedge/internal/transport"
)

// TestNoReplicaVerifiesItsOwnVotes: the leader's PrePrepare and every
// replica's Prepare and Commit loop back to the sender through the
// broadcast. With a verifier that counts per signer, four honest replicas
// agreeing on a pipeline of batches spend signature verifications on
// their three peers only: at most 3 prepares and 3 commits per batch
// each, plus the leader's proposal on the followers, none signed by
// themselves.
func TestNoReplicaVerifiesItsOwnVotes(t *testing.T) {
	const batches = 4
	var own, total [4]atomic.Int64
	tc := newTestCluster(t, 1, func(i int32, cfg *Config) { cfg.MaxInFlight = batches })
	// The delay keeps the leader's event loop idle while the test proposes
	// on its behalf, as in TestPipelinedProposalsDeliverInOrder.
	tc.net.SetLatency(transport.ClusterLatency(2*time.Millisecond, 0))
	for i, r := range tc.replicas {
		self := tc.ring.PublicKey(r.self)
		r.verify = func(pub ed25519.PublicKey, msg, sig []byte) bool {
			total[i].Add(1)
			if bytes.Equal(pub, self) {
				own[i].Add(1)
			}
			return cryptoutil.Verify(pub, msg, sig)
		}
	}
	prev := protocol.Digest{}
	for id := int64(1); id <= batches; id++ {
		b := testBatch(id, prev)
		if err := tc.propose(b); err != nil {
			t.Fatalf("propose %d: %v", id, err)
		}
		prev = b.Digest()
	}
	if !tc.waitDelivered(batches, allReplicas(4), 10*time.Second) {
		t.Fatal("cluster did not deliver")
	}
	for i := range own {
		if n := own[i].Load(); n != 0 {
			t.Errorf("replica %d verified %d of its own signatures", i, n)
		}
		want := int64(6 * batches)
		if int32(i) != LeaderReplica {
			want += batches // the leader's proposals
		}
		if n := total[i].Load(); n > want {
			t.Errorf("replica %d verified %d signatures over %d batches, want at most %d", i, n, batches, want)
		}
	}
}

// TestPrepareAfterCommitIsNotVerified feeds a follower by hand: the
// leader's proposal and two peers' prepares cost one verification each
// and complete its prepare quorum; once its commit is out, the third
// peer's prepare for that view costs none, and neither does one from an
// older view, while a prepare from a later view is still verified and
// kept for the view change that would relay it.
func TestPrepareAfterCommitIsNotVerified(t *testing.T) {
	r, keys := soloReplica(t, 1)
	defer r.cfg.Net.Stop()
	verified := 0
	r.verify = func(pub ed25519.PublicKey, msg, sig []byte) bool {
		verified++
		return cryptoutil.Verify(pub, msg, sig)
	}
	r.Handle(NodeID{Cluster: 0, Replica: 0}, leaderPrePrepare(keys, testBatch(1, protocol.Digest{})))
	in := r.instances[1]
	if in == nil || !in.validated {
		t.Fatal("proposal not validated")
	}
	r.Handle(prepareFrom(keys, 0, in))
	r.Handle(prepareFrom(keys, 2, in))
	if !in.committed || verified != 3 {
		t.Fatalf("committed=%v after %d verifications, want a commit after 3", in.committed, verified)
	}
	r.Handle(prepareFrom(keys, 3, in))
	if _, counted := in.prepares[3]; counted || verified != 3 {
		t.Fatalf("prepare after the commit: counted=%v, %d verifications, want it dropped at 3", counted, verified)
	}
	in.view = 1 // as if the slot had been re-adopted and committed in view 1
	from, stale := prepareFrom(keys, 3, &instance{id: in.id, view: 0, digest: in.digest})
	r.Handle(from, stale)
	if verified != 3 {
		t.Fatalf("older-view prepare after the commit cost a verification (%d)", verified)
	}
	from, next := prepareFrom(keys, 3, &instance{id: in.id, view: 2, digest: in.digest})
	r.Handle(from, next)
	if pv, ok := in.prepares[3]; !ok || pv.view != 2 || verified != 4 {
		t.Fatalf("later-view prepare after the commit: kept=%v, %d verifications, want kept at 4", ok, verified)
	}
}

// prepareFrom builds replica rep's signed prepare for in's proposal.
func prepareFrom(keys []cryptoutil.KeyPair, rep int32, in *instance) (NodeID, *Prepare) {
	psd := protocol.PrepareSigDigest(0, in.view, in.id, in.digest)
	return NodeID{Cluster: 0, Replica: rep}, &Prepare{View: in.view, ID: in.id, Digest: in.digest, Sig: keys[rep].Sign(psd[:])}
}

// TestOwnVoteCountedBeforeDelivery feeds a follower by hand on a network
// that delivers nothing to it: its prepare counts from the moment it
// validates, with the signature a view-change vote would relay, and so
// does its commit once two peers' prepares complete the quorum. A silent
// replica counts nothing, since it sent nothing, and a replica that
// corrupts its certificate signatures keeps its own out of its quorum.
func TestOwnVoteCountedBeforeDelivery(t *testing.T) {
	for _, tt := range []struct {
		name                string
		behavior            Behavior
		wantPrepare, wantOK bool
	}{
		{"honest", Behavior{}, true, true},
		{"silent", Behavior{Silent: true}, false, false},
		{"corrupt cert sig", Behavior{CorruptCertSig: true}, true, false},
	} {
		t.Run(tt.name, func(t *testing.T) {
			r, keys := soloReplica(t, 1)
			defer r.cfg.Net.Stop()
			r.cfg.Behavior = tt.behavior
			r.Handle(NodeID{Cluster: 0, Replica: 0}, leaderPrePrepare(keys, testBatch(1, protocol.Digest{})))
			in := r.instances[1]
			if in == nil || !in.validated {
				t.Fatal("proposal not validated")
			}
			pv, ok := in.prepares[1]
			if ok != tt.wantPrepare {
				t.Fatalf("own prepare counted: %v, want %v", ok, tt.wantPrepare)
			}
			psd := protocol.PrepareSigDigest(0, in.view, in.id, in.digest)
			if ok && !cryptoutil.Verify(keys[1].Public, psd[:], pv.sig) {
				t.Fatal("own prepare recorded without a relayable signature")
			}
			r.Handle(prepareFrom(keys, 0, in))
			if in.committed {
				t.Fatal("committed on two prepares")
			}
			r.Handle(prepareFrom(keys, 2, in))
			if !tt.wantPrepare {
				r.Handle(prepareFrom(keys, 3, in)) // the silent replica needs three peers
			}
			if !in.committed {
				t.Fatal("not committed on a prepare quorum")
			}
			sig, ok := in.commits[1]
			if ok != tt.wantOK {
				t.Fatalf("own commit counted: %v, want %v", ok, tt.wantOK)
			}
			if ok && !cryptoutil.Verify(keys[1].Public, in.digest[:], sig) {
				t.Fatal("own commit recorded with an invalid certificate signature")
			}
		})
	}
}
