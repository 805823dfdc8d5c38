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
	r := New(Config{
		Cluster: 0, Replica: 1, N: 4, F: 1,
		Keys: keys[1], Ring: ring, Net: transport.NewNetwork(),
		MaxInFlight: maxInFlight,
	})
	return r, keys
}

func leaderPrePrepare(keys []cryptoutil.KeyPair, b *protocol.Batch) *PrePrepare {
	b.Seal()
	d := b.Digest()
	return &PrePrepare{Batch: b, LeaderSig: keys[0].Sign(d[:])}
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
