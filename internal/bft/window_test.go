package bft

import (
	"testing"

	"transedge/internal/cryptoutil"
	"transedge/internal/protocol"
	"transedge/internal/transport"
)

// soloReplica builds a passive follower engine with a 4-node ring, fed
// directly via Handle (no goroutines), for white-box buffering tests.
func soloReplica(t *testing.T, maxInFlight int) (*Replica, []cryptoutil.KeyPair) {
	t.Helper()
	ring := cryptoutil.NewKeyRing()
	keys := make([]cryptoutil.KeyPair, 4)
	for i := range keys {
		id := NodeID{Cluster: 0, Replica: int32(i)}
		keys[i] = cryptoutil.DeriveKeyPair(id, 99)
		ring.Add(id, keys[i].Public)
	}
	// A certified genesis tip, so the replica can cast a view-change vote.
	genesis := protocol.BatchHeader{Cluster: 0, CD: protocol.NewCDVector(1), LCE: -1}
	gd := genesis.Digest()
	cert := cryptoutil.Certificate{Cluster: 0}
	for _, rep := range []int32{0, 1} {
		cert.Signatures = append(cert.Signatures, cryptoutil.SignCertificate(keys[rep], NodeID{Cluster: 0, Replica: rep}, gd[:]))
	}
	r := New(Config{
		Cluster: 0, Replica: 1, N: 4, F: 1,
		Keys: keys[1], Ring: ring, Net: transport.NewNetwork(),
		GenesisHeader: genesis, GenesisCert: cert,
		MaxInFlight: maxInFlight,
	})
	return r, keys
}

// leaderPrePrepare builds replica 0's view-0 proposal of b, signed over
// the prepare digest as the leader's prepare vote.
func leaderPrePrepare(keys []cryptoutil.KeyPair, b *protocol.Batch) *PrePrepare {
	b.Seal()
	psd := protocol.PrepareSigDigest(0, 0, b.ID, b.Digest())
	return &PrePrepare{Batch: b, LeaderSig: keys[0].Sign(psd[:])}
}

// TestOutOfWindowMessagesDropped: consensus messages for sequence
// numbers beyond the buffering window are dropped — no instance state,
// no buffered pre-prepare — instead of accumulating without bound, and
// the replica reports itself lagging.
func TestOutOfWindowMessagesDropped(t *testing.T) {
	const w = 4
	r, keys := soloReplica(t, w)
	limit := r.nextDeliver + r.maxAhead() // first out-of-window ID

	from := NodeID{Cluster: 0, Replica: 2}
	r.Handle(from, &Prepare{ID: limit})
	r.Handle(from, &Commit{ID: limit + 100, CertSig: []byte("x")})
	pp := leaderPrePrepare(keys, &protocol.Batch{Cluster: 0, ID: limit + 5, CD: protocol.NewCDVector(1)})
	r.Handle(NodeID{Cluster: 0, Replica: 0}, pp)

	if len(r.instances) != 0 {
		t.Fatalf("out-of-window messages created %d instances", len(r.instances))
	}
	if len(r.pendingPrePrepare) != 0 {
		t.Fatalf("out-of-window pre-prepare buffered (%d entries)", len(r.pendingPrePrepare))
	}
	if got := r.DroppedAhead(); got != 3 {
		t.Fatalf("DroppedAhead = %d, want 3", got)
	}
	// The high-water mark is clamped a couple of windows ahead: the IDs
	// are unauthenticated, so a forged huge one must not pin the signal.
	if got, capped := r.HighestSeen(), r.nextDeliver+2*r.maxAhead(); got != capped {
		t.Fatalf("HighestSeen = %d, want clamp %d", got, capped)
	}
	if !r.Lagging() {
		t.Fatal("replica should report itself lagging after out-of-window traffic")
	}
	// A futile sync round settles the mark back to the delivered tip,
	// healing the lagging signal until genuine traffic re-raises it.
	r.SettleHighestSeen(r.nextDeliver - 1)
	if r.Lagging() {
		t.Fatal("still lagging after SettleHighestSeen")
	}
}

// TestInWindowMessagesStillBuffered: the bound must not break normal
// pipelining — messages ahead of our validation point but inside the
// window are buffered as before.
func TestInWindowMessagesStillBuffered(t *testing.T) {
	const w = 4
	r, keys := soloReplica(t, w)
	from := NodeID{Cluster: 0, Replica: 2}

	inWindow := r.nextDeliver + r.maxAhead() - 1
	r.Handle(from, &Prepare{ID: inWindow})
	if len(r.instances) != 1 {
		t.Fatalf("in-window prepare not buffered (%d instances)", len(r.instances))
	}
	r.Handle(from, &Commit{ID: inWindow, Digest: protocol.Digest{1}, CertSig: []byte("x")})
	if got := len(r.instances[inWindow].pendingCommits); got != 1 {
		t.Fatalf("in-window commit not buffered (%d pending)", got)
	}
	// A pre-prepare for a future in-window slot is held for its turn.
	pp := leaderPrePrepare(keys, &protocol.Batch{Cluster: 0, ID: 3, CD: protocol.NewCDVector(1)})
	r.Handle(NodeID{Cluster: 0, Replica: 0}, pp)
	if _, ok := r.pendingPrePrepare[3]; !ok {
		t.Fatal("in-window future pre-prepare not buffered")
	}
	if r.DroppedAhead() != 0 {
		t.Fatalf("DroppedAhead = %d, want 0", r.DroppedAhead())
	}
	if r.Lagging() {
		t.Fatal("replica within the window must not report lagging")
	}
}

// TestResetRebasesEngine: Reset discards buffered per-slot state and
// resumes numbering after the installed base.
func TestResetRebasesEngine(t *testing.T) {
	r, _ := soloReplica(t, 4)
	from := NodeID{Cluster: 0, Replica: 2}
	r.Handle(from, &Prepare{ID: 2})
	r.Handle(from, &Prepare{ID: 3})
	if len(r.instances) != 2 {
		t.Fatalf("setup: %d instances", len(r.instances))
	}

	base := int64(128)
	d := protocol.Digest{42}
	r.Reset(base, d, protocol.BatchHeader{Cluster: 0, ID: base}, cryptoutil.Certificate{})
	if r.NextID() != base+1 {
		t.Fatalf("NextID = %d, want %d", r.NextID(), base+1)
	}
	if r.LastDigest() != d {
		t.Fatal("LastDigest not rebased")
	}
	if len(r.instances) != 0 || len(r.pendingPrePrepare) != 0 {
		t.Fatal("Reset kept stale buffered state")
	}
	if r.InFlight() != 0 {
		t.Fatalf("InFlight = %d after Reset", r.InFlight())
	}
	// Old-slot traffic is now below nextDeliver and ignored.
	r.Handle(from, &Prepare{ID: 2})
	if len(r.instances) != 0 {
		t.Fatal("pre-base message accepted after Reset")
	}
	// New-slot traffic inside the rebased window is accepted.
	r.Handle(from, &Prepare{ID: base + 2})
	if len(r.instances) != 1 {
		t.Fatal("post-base message rejected after Reset")
	}
}

// TestValidationWaitsForDelivery: at MaxInFlight 1 the validation window
// equals the proposal window. A follower handed PrePrepare(k+1) before it
// delivers k buffers it without calling Validate; delivering k starts it,
// and Validate then sees k as the delivered tip.
func TestValidationWaitsForDelivery(t *testing.T) {
	r, keys := soloReplica(t, 1)
	defer r.cfg.Net.Stop()
	var validated []int64
	r.cfg.Validate = func(b *protocol.Batch) error {
		if b.ID != r.nextDeliver || b.PrevDigest != r.lastDigest {
			t.Errorf("batch %d validated with %d delivered, or off another digest", b.ID, r.nextDeliver-1)
		}
		validated = append(validated, b.ID)
		return nil
	}
	leader := NodeID{Cluster: 0, Replica: 0}
	b1 := testBatch(1, protocol.Digest{})
	r.Handle(leader, leaderPrePrepare(keys, b1))
	r.Handle(leader, leaderPrePrepare(keys, testBatch(2, b1.Digest())))
	if len(validated) != 1 {
		t.Fatalf("validated %v before delivering batch 1, want [1]", validated)
	}
	if _, ok := r.pendingPrePrepare[2]; !ok {
		t.Fatal("PrePrepare(2) not buffered while batch 1 is undelivered")
	}

	// The leader's pre-prepare and one peer's prepare complete the prepare
	// quorum with ours, and two peers' commits the commit quorum: batch 1
	// delivers.
	in := r.instances[1]
	r.Handle(prepareFrom(keys, 2, in))
	for _, rep := range []int32{0, 2} {
		r.Handle(NodeID{Cluster: 0, Replica: rep}, &Commit{ID: 1, Digest: in.digest, CertSig: keys[rep].Sign(in.digest[:])})
	}
	if r.nextDeliver != 2 {
		t.Fatalf("batch 1 not delivered (nextDeliver %d)", r.nextDeliver)
	}
	if len(validated) != 2 || validated[1] != 2 {
		t.Fatalf("validated %v after delivering batch 1, want [1 2]", validated)
	}
	if in2 := r.instances[2]; in2 == nil || !in2.validated || len(r.pendingPrePrepare) != 0 {
		t.Fatal("buffered PrePrepare(2) not started by the delivery")
	}
}
