package bft

import (
	"bytes"
	"crypto/ed25519"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"transedge/internal/cryptoutil"
	"transedge/internal/protocol"
	"transedge/internal/transport"
)

// TestNoReplicaVerifiesItsOwnVotes: no replica addresses a message to
// itself or checks a signature it made. With a verifier that counts per
// signer, four honest replicas agreeing on a pipeline of batches spend
// exactly two verifications per batch each, none on their own
// signatures: the leader checks two followers' prepares; a follower
// checks the leader's proposal (which is also its prepare) and one
// peer's prepare. Commit votes count on their authenticated sender, and
// delivery verifies no certificate signature.
func TestNoReplicaVerifiesItsOwnVotes(t *testing.T) {
	const batches = 4
	var own, total [4]atomic.Int64
	tc := newTestCluster(t, 1, func(i int32, cfg *Config) { cfg.MaxInFlight = batches })
	// The delay lets the leader propose the whole pipeline before any
	// vote comes back, as in TestPipelinedProposalsDeliverInOrder.
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
		if n, want := total[i].Load(), int64(2*batches); n != want {
			t.Errorf("replica %d verified %d signatures over %d batches, want %d", i, n, batches, want)
		}
	}
}

// TestSignatureLedger pins the per-batch crypto and message cost of the
// normal case at N = 4 over sequential batches: 8 signs (the leader's
// pre-prepare, three follower prepares, four commits), 8 verifies (the
// three followers check the pre-prepare; prepares are checked only as
// they are counted, two at the leader and one at each follower) and 24
// envelopes (3 pre-prepares, 9 prepares, 12 commits). Delivery verifies
// no commit signature: a replica that hands the batch's certificate on
// assembles it once, which costs one verify (its own signature comes
// first and is not checked), however many consumers then read it. Every
// delivered candidate list verifies at f+1.
func TestSignatureLedger(t *testing.T) {
	const batches = 6
	for _, tt := range []struct {
		name      string
		consumers map[int32]int // replica -> certificate reads per batch
		verifies  int64         // per batch
	}{
		{"no consumer", nil, 8},
		{"one consumer at replicas 0 and 2", map[int32]int{0: 1, 2: 1}, 8 + 2},
		{"a second consumer adds none", map[int32]int{0: 2, 2: 2}, 8 + 2},
	} {
		t.Run(tt.name, func(t *testing.T) {
			// Each consumer reads the certificate through one per-batch
			// memo, as a core log entry hands it out.
			consume := func(i int32, cfg *Config) {
				deliver := cfg.Deliver
				cfg.Deliver = func(cb protocol.CertifiedBatch) {
					d := cb.Batch.Digest()
					cert := sync.OnceValues(func() (cryptoutil.Certificate, bool) {
						return cryptoutil.AssembleCertificate(cfg.Ring, cb.Cert, d[:], cfg.F+1, NodeID{Cluster: 0, Replica: i})
					})
					for range tt.consumers[i] {
						if _, ok := cert(); !ok {
							t.Errorf("replica %d: batch %d certificate does not assemble", i, cb.Batch.ID)
						}
					}
					deliver(cb)
				}
			}
			tc := newTestCluster(t, 1, consume)
			signs0, verifies0, sent0 := cryptoutil.SignOps(), cryptoutil.VerifyOps(), tc.net.Stats.Sent.Load()
			prev := protocol.Digest{}
			for id := int64(1); id <= batches; id++ {
				b := testBatch(id, prev)
				if err := tc.propose(b); err != nil {
					t.Fatalf("propose %d: %v", id, err)
				}
				if !tc.waitDelivered(int(id), allReplicas(4), 5*time.Second) {
					t.Fatalf("batch %d not delivered everywhere", id)
				}
				prev = b.Digest()
			}
			signs, sent := cryptoutil.SignOps()-signs0, tc.net.Stats.Sent.Load()-sent0
			// Votes sent after a replica delivered may still be in flight; let
			// them land before counting (they are dropped unverified).
			time.Sleep(20 * time.Millisecond)
			for _, c := range []struct {
				what      string
				got, want int64
			}{
				{"signs", int64(signs), 8},
				{"verifies", int64(cryptoutil.VerifyOps() - verifies0), tt.verifies},
				{"envelopes", int64(sent), 24},
			} {
				if c.got != c.want*batches {
					t.Errorf("%s: %d over %d batches (%.2f per batch), want %d per batch", c.what, c.got, batches, float64(c.got)/batches, c.want)
				}
			}
			tc.mu.Lock()
			defer tc.mu.Unlock()
			for r := int32(0); r < 4; r++ {
				for _, cb := range tc.delivered[r] {
					d := cb.Batch.Digest()
					if err := cryptoutil.VerifyCertificate(tc.ring, cb.Cert, d[:], tc.f+1); err != nil {
						t.Fatalf("replica %d: batch %d certificate invalid: %v", r, cb.Batch.ID, err)
					}
				}
			}
		})
	}
}

// TestPrepareAfterCommitIsNotVerified feeds a follower by hand: the
// leader's proposal costs one verification and counts as the leader's
// prepare, so one peer's prepare completes the quorum for a second. Once
// its commit is out, the next peer's prepare for that view costs none,
// and neither does one from an older view; a prepare from a later view
// is kept, still unverified, for the view change that would count it.
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
	r.Handle(prepareFrom(keys, 2, in))
	if !in.committed || verified != 2 {
		t.Fatalf("committed=%v after %d verifications, want a commit after 2", in.committed, verified)
	}
	r.Handle(prepareFrom(keys, 3, in))
	if _, counted := in.prepares[3]; counted || verified != 2 {
		t.Fatalf("prepare after the commit: counted=%v, %d verifications, want it dropped at 2", counted, verified)
	}
	in.view = 1 // as if the slot had been re-adopted and committed in view 1
	from, stale := prepareFrom(keys, 3, &instance{id: in.id, view: 0, digest: in.digest})
	r.Handle(from, stale)
	if _, kept := in.prepares[3]; kept || verified != 2 {
		t.Fatalf("older-view prepare after the commit: kept=%v, %d verifications", kept, verified)
	}
	from, next := prepareFrom(keys, 3, &instance{id: in.id, view: 2, digest: in.digest})
	r.Handle(from, next)
	if pv, ok := in.prepares[3]; !ok || pv.view != 2 || pv.verified || verified != 2 {
		t.Fatalf("later-view prepare after the commit: kept=%v verified=%v, %d verifications, want kept unverified at 2",
			ok, pv.verified, verified)
	}
}

// TestPrepareVerifiedOnlyWhenCounted: prepares that reach a follower
// before the proposal are held unverified. Once it validates, it checks
// them in ascending replica order and only until its quorum is complete;
// a bad signature is dropped, never counted, and the next one is taken.
// A view-change vote relays only the prepares that were checked.
func TestPrepareVerifiedOnlyWhenCounted(t *testing.T) {
	for _, tt := range []struct {
		name         string
		bad2         bool
		wantVerified int // proposal included
		wantRelayed  []int32
	}{
		{"honest", false, 2, []int32{0, 1, 2}},
		{"bad signature skipped", true, 3, []int32{0, 1, 3}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			r, keys := soloReplica(t, 1)
			defer r.cfg.Net.Stop()
			verified := 0
			r.verify = func(pub ed25519.PublicKey, msg, sig []byte) bool {
				verified++
				return cryptoutil.Verify(pub, msg, sig)
			}
			pp := leaderPrePrepare(keys, testBatch(1, protocol.Digest{}))
			want := &instance{id: 1, digest: pp.Batch.Digest()}
			for _, rep := range []int32{3, 2} {
				from, p := prepareFrom(keys, rep, want)
				if rep == 2 && tt.bad2 {
					p.Sig = make([]byte, len(p.Sig))
				}
				r.Handle(from, p)
			}
			if verified != 0 {
				t.Fatalf("%d verifications before the proposal, want 0", verified)
			}
			r.Handle(NodeID{Cluster: 0, Replica: 0}, pp)
			in := r.instances[1]
			if !in.committed || verified != tt.wantVerified {
				t.Fatalf("committed=%v after %d verifications, want a commit after %d", in.committed, verified, tt.wantVerified)
			}
			var relayed []int32
			for _, p := range r.buildViewChange(1).Entries[0].Prepares {
				relayed = append(relayed, p.Replica)
			}
			if !slices.Equal(relayed, tt.wantRelayed) {
				t.Fatalf("view-change vote relays prepares of %v, want %v", relayed, tt.wantRelayed)
			}
		})
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
// does its commit once the leader's proposal and one peer's prepare
// complete the quorum.
func TestOwnVoteCountedBeforeDelivery(t *testing.T) {
	t.Run("honest", func(t *testing.T) {
		r, keys := soloReplica(t, 1)
		defer r.cfg.Net.Stop()
		r.Handle(NodeID{Cluster: 0, Replica: 0}, leaderPrePrepare(keys, testBatch(1, protocol.Digest{})))
		in := r.instances[1]
		if in == nil || !in.validated {
			t.Fatal("proposal not validated")
		}
		pv, ok := in.prepares[1]
		if !ok {
			t.Fatal("own prepare not counted")
		}
		psd := protocol.PrepareSigDigest(0, in.view, in.id, in.digest)
		if !cryptoutil.Verify(keys[1].Public, psd[:], pv.sig) {
			t.Fatal("own prepare recorded without a relayable signature")
		}
		if in.committed {
			t.Fatal("committed on the proposal and its own prepare")
		}
		r.Handle(prepareFrom(keys, 2, in))
		if !in.committed {
			t.Fatal("not committed on a prepare quorum")
		}
		sig, ok := in.commits[1]
		if !ok {
			t.Fatal("own commit not counted")
		}
		if !cryptoutil.Verify(keys[1].Public, in.digest[:], sig) {
			t.Fatal("own commit recorded with an invalid certificate signature")
		}
	})
}
