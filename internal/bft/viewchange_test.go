package bft

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"transedge/internal/cryptoutil"
	"transedge/internal/protocol"
	"transedge/internal/transport"
)

// vcFixture holds a 4-replica cluster's key material, a certified genesis
// tip, and a sealed batch chain for slots 1..3 — the raw ingredients for
// building view-change votes by hand.
type vcFixture struct {
	keys    []cryptoutil.KeyPair
	ring    *cryptoutil.KeyRing
	genesis *protocol.Batch
	header  protocol.BatchHeader
	cert    cryptoutil.Certificate
	batches []*protocol.Batch // batches[i] is slot i+1
}

func newVCFixture(t *testing.T) *vcFixture {
	t.Helper()
	f := &vcFixture{ring: cryptoutil.NewKeyRing()}
	for i := 0; i < 4; i++ {
		id := NodeID{Cluster: 0, Replica: int32(i)}
		kp := cryptoutil.DeriveKeyPair(id, 7)
		f.keys = append(f.keys, kp)
		f.ring.Add(id, kp.Public)
	}
	f.genesis = (&protocol.Batch{Cluster: 0, ID: 0, CD: protocol.NewCDVector(1), LCE: -1}).Seal()
	f.header = f.genesis.Header()
	d := f.header.Digest()
	f.cert = cryptoutil.Certificate{Cluster: 0}
	for i := 0; i < 4; i++ {
		id := NodeID{Cluster: 0, Replica: int32(i)}
		f.cert.Signatures = append(f.cert.Signatures, cryptoutil.SignCertificate(f.keys[i], id, d[:]))
	}
	prev := f.genesis.Digest()
	for id := int64(1); id <= 3; id++ {
		b := (&protocol.Batch{Cluster: 0, ID: id, PrevDigest: prev, Timestamp: id,
			CD: protocol.NewCDVector(1), LCE: -1}).Seal()
		f.batches = append(f.batches, b)
		prev = b.Digest()
	}
	return f
}

// preps builds valid prepare signatures from the listed replicas for
// (view, id, digest).
func (f *vcFixture) preps(view uint64, id int64, d protocol.Digest, replicas ...int32) []protocol.PrepareSig {
	psd := protocol.PrepareSigDigest(0, view, id, d)
	out := make([]protocol.PrepareSig, 0, len(replicas))
	for _, r := range replicas {
		out = append(out, protocol.PrepareSig{Replica: r, Sig: f.keys[r].Sign(psd[:])})
	}
	return out
}

func vcVote(rep int32, tip protocol.BatchHeader, entries ...protocol.PreparedEntry) *protocol.ViewChange {
	return &protocol.ViewChange{Cluster: 0, Replica: rep, View: 1, TipHeader: tip, Entries: entries}
}

func vcEntry(view uint64, b *protocol.Batch, sigs []protocol.PrepareSig) protocol.PreparedEntry {
	return protocol.PreparedEntry{ID: b.ID, View: view, Digest: b.Digest(), Batch: b, Prepares: sigs}
}

// TestNewViewFrontierFromAnyQuorum is the safety property behind the view
// change: for EVERY 2f+1-subset of the cluster's view-change votes, the
// recomputed frontier re-proposes each slot that may have committed
// anywhere (here: slot 1, delivered by replica 0; slot 2, prepared by a
// full quorum) and never resurrects a slot that no quorum prepared
// (slot 3, one signature). No committed slot lost, no unprepared slot
// revived — from any subset a new leader might assemble.
func TestNewViewFrontierFromAnyQuorum(t *testing.T) {
	f := newVCFixture(t)
	b1, b2, b3 := f.batches[0], f.batches[1], f.batches[2]
	d1, d2 := b1.Digest(), b2.Digest()
	d3 := b3.Digest()

	votes := []*protocol.ViewChange{
		// Replica 0 delivered slot 1: its tip certifies it, entries resume
		// at slot 2. It holds a full prepare set for 2 and only its own
		// signature for 3.
		vcVote(0, b1.Header(),
			vcEntry(0, b2, f.preps(0, 2, d2, 0, 1, 2)),
			vcEntry(0, b3, f.preps(0, 3, d3, 0))),
		vcVote(1, f.header,
			vcEntry(0, b1, f.preps(0, 1, d1, 0, 1, 2, 3)),
			vcEntry(0, b2, f.preps(0, 2, d2, 0, 1, 2))),
		vcVote(2, f.header,
			vcEntry(0, b1, f.preps(0, 1, d1, 1, 2, 3)),
			vcEntry(0, b2, f.preps(0, 2, d2, 0, 1, 2))),
		vcVote(3, f.header,
			vcEntry(0, b1, f.preps(0, 1, d1, 0, 1, 2, 3)),
			vcEntry(0, b2, f.preps(0, 2, d2, 1, 2, 3)),
			vcEntry(0, b3, f.preps(0, 3, d3, 3))),
	}

	subsets := [][]int{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}, {0, 1, 2, 3}}
	for _, idx := range subsets {
		sub := make([]*protocol.ViewChange, 0, len(idx))
		tip := int64(0)
		for _, i := range idx {
			sub = append(sub, votes[i])
			if votes[i].TipHeader.ID > tip {
				tip = votes[i].TipHeader.ID
			}
		}
		fr := computeFrontier(f.ring, 0, 1, sub)
		got := make(map[int64]protocol.Digest, len(fr))
		for i, e := range fr {
			if e.ID != tip+1+int64(i) {
				t.Fatalf("subset %v: frontier not contiguous from tip %d: %+v", idx, tip, fr)
			}
			got[e.ID] = e.Digest
		}
		if tip < 1 && got[1] != d1 {
			t.Fatalf("subset %v: committed slot 1 lost (frontier %v)", idx, got)
		}
		if got[2] != d2 {
			t.Fatalf("subset %v: prepared slot 2 lost or re-proposed with wrong digest", idx)
		}
		if _, ok := got[3]; ok {
			t.Fatalf("subset %v: unprepared slot 3 resurrected", idx)
		}
	}
}

// TestFrontierRejectsForgedPrepares: a byzantine voter padding an
// under-prepared slot with fabricated signatures from honest replicas
// cannot push it over the 2f+1 bar — every counted signature is verified
// against the claimed signer's key.
func TestFrontierRejectsForgedPrepares(t *testing.T) {
	f := newVCFixture(t)
	b1, b2, b3 := f.batches[0], f.batches[1], f.batches[2]
	d1, d2, d3 := b1.Digest(), b2.Digest(), b3.Digest()

	psd3 := protocol.PrepareSigDigest(0, 0, 3, d3)
	forged := []protocol.PrepareSig{
		// Valid bytes, wrong claimed signer: replica 3's signature
		// presented as replicas 1 and 2.
		{Replica: 1, Sig: f.keys[3].Sign(psd3[:])},
		{Replica: 2, Sig: f.keys[3].Sign(psd3[:])},
		{Replica: 3, Sig: f.keys[3].Sign(psd3[:])},
	}
	votes := []*protocol.ViewChange{
		vcVote(1, f.header,
			vcEntry(0, b1, f.preps(0, 1, d1, 0, 1, 2)),
			vcEntry(0, b2, f.preps(0, 2, d2, 0, 1, 2))),
		vcVote(2, f.header,
			vcEntry(0, b1, f.preps(0, 1, d1, 0, 1, 2)),
			vcEntry(0, b2, f.preps(0, 2, d2, 0, 1, 2))),
		vcVote(3, f.header,
			vcEntry(0, b1, f.preps(0, 1, d1, 0, 1, 2)),
			vcEntry(0, b2, f.preps(0, 2, d2, 0, 1, 2)),
			vcEntry(0, b3, forged)),
	}
	fr := computeFrontier(f.ring, 0, 1, votes)
	if len(fr) != 2 || fr[0].ID != 1 || fr[1].ID != 2 {
		t.Fatalf("frontier = %+v, want exactly slots 1,2", fr)
	}
}

// TestFrontierPrefersHigherViewCandidate: when a slot prepared under two
// views (a previous failover re-proposed it), the candidate from the
// higher view wins — it is the one a later quorum may have committed.
func TestFrontierPrefersHigherViewCandidate(t *testing.T) {
	f := newVCFixture(t)
	b1 := f.batches[0]
	d1 := b1.Digest()
	b1b := (&protocol.Batch{Cluster: 0, ID: 1, PrevDigest: f.genesis.Digest(), Timestamp: 100,
		CD: protocol.NewCDVector(1), LCE: -1}).Seal()
	d1b := b1b.Digest()

	votes := []*protocol.ViewChange{
		vcVote(1, f.header, vcEntry(0, b1, f.preps(0, 1, d1, 0, 1, 2))),
		vcVote(2, f.header, vcEntry(1, b1b, f.preps(1, 1, d1b, 1, 2, 3))),
		vcVote(3, f.header, vcEntry(1, b1b, f.preps(1, 1, d1b, 1, 2, 3))),
	}
	fr := computeFrontier(f.ring, 0, 1, votes)
	if len(fr) != 1 || fr[0].View != 1 || fr[0].Digest != d1b {
		t.Fatalf("frontier = %+v, want slot 1 from view 1 (digest %x)", fr, d1b[:4])
	}
}

// TestFrontierRequiresChaining: a fully-signed candidate whose body does
// not chain PrevDigest onto the tip is not re-proposed — the frontier is
// always a prefix extension of certified history.
func TestFrontierRequiresChaining(t *testing.T) {
	f := newVCFixture(t)
	stray := (&protocol.Batch{Cluster: 0, ID: 1, PrevDigest: f.batches[2].Digest(), Timestamp: 9,
		CD: protocol.NewCDVector(1), LCE: -1}).Seal()
	ds := stray.Digest()
	votes := []*protocol.ViewChange{
		vcVote(1, f.header, vcEntry(0, stray, f.preps(0, 1, ds, 0, 1, 2))),
		vcVote(2, f.header, vcEntry(0, stray, f.preps(0, 1, ds, 0, 1, 2))),
		vcVote(3, f.header, vcEntry(0, stray, f.preps(0, 1, ds, 0, 1, 2))),
	}
	if fr := computeFrontier(f.ring, 0, 1, votes); len(fr) != 0 {
		t.Fatalf("frontier = %+v, want empty (candidate does not chain)", fr)
	}
}

// TestTruncateBelowBoundsEvidence: the equivocation-evidence map is
// pruned below the stable checkpoint base instead of growing for the
// replica's lifetime.
func TestTruncateBelowBoundsEvidence(t *testing.T) {
	r, _ := soloReplica(t, 4)
	for id := int64(1); id <= 10; id++ {
		r.proposedDigest[id] = protocol.Digest{byte(id)}
	}
	r.TruncateBelow(8)
	if len(r.proposedDigest) != 3 {
		t.Fatalf("proposedDigest holds %d entries after TruncateBelow(8), want 3", len(r.proposedDigest))
	}
	for id := range r.proposedDigest {
		if id < 8 {
			t.Fatalf("slot %d below the checkpoint base survived truncation", id)
		}
	}
}

// vcCluster wires four live Replicas over a zero-latency network. The
// test goroutine pumps every mailbox itself — the bft layer is
// single-threaded by contract (each node's event loop serializes Handle),
// and pumping from one goroutine preserves that.
type vcCluster struct {
	t         *testing.T
	f         *vcFixture
	net       *transport.Network
	inbox     []<-chan transport.Envelope
	reps      []*Replica
	delivered [][]int64
}

func newVCCluster(t *testing.T) *vcCluster {
	t.Helper()
	f := newVCFixture(t)
	c := &vcCluster{t: t, f: f, net: transport.NewNetwork(), delivered: make([][]int64, 4)}
	gd := f.header.Digest()
	for i := 0; i < 4; i++ {
		i := i
		id := NodeID{Cluster: 0, Replica: int32(i)}
		c.inbox = append(c.inbox, c.net.Register(id))
		c.reps = append(c.reps, New(Config{
			Cluster: 0, Replica: int32(i), N: 4, F: 1,
			Keys: f.keys[i], Ring: f.ring, Net: c.net,
			GenesisDigest: gd, GenesisHeader: f.header, GenesisCert: f.cert,
			MaxInFlight: 8,
			Deliver: func(cb protocol.CertifiedBatch) {
				c.delivered[i] = append(c.delivered[i], cb.Batch.ID)
			},
		}))
	}
	t.Cleanup(c.net.Stop)
	return c
}

// pump handles queued messages for the live replicas until cond holds.
func (c *vcCluster) pump(live []int, cond func() bool) {
	c.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		moved := false
		for _, i := range live {
			select {
			case env := <-c.inbox[i]:
				c.reps[i].Handle(env.From, env.Payload)
				moved = true
			default:
			}
		}
		if !moved {
			time.Sleep(100 * time.Microsecond)
		}
	}
	c.t.Fatal("pump: condition not reached before deadline")
}

// settle drains until the cluster has been quiet for a while.
func (c *vcCluster) settle(live []int) {
	for quiet := 0; quiet < 50; {
		moved := false
		for _, i := range live {
			select {
			case env := <-c.inbox[i]:
				c.reps[i].Handle(env.From, env.Payload)
				moved = true
			default:
			}
		}
		if moved {
			quiet = 0
		} else {
			quiet++
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// TestViewChangeElectsNextLeader: with the view-0 leader dark, the three
// survivors vote, install view 1 led by replica 1, and commit a batch —
// the core liveness claim of the failover path.
func TestViewChangeElectsNextLeader(t *testing.T) {
	c := newVCCluster(t)
	live := []int{1, 2, 3}
	for _, i := range live {
		c.reps[i].SuspectLeader()
	}
	c.pump(live, func() bool {
		for _, i := range live {
			if c.reps[i].CurrentView() != 1 || !c.reps[i].ViewActive() {
				return false
			}
		}
		return true
	})
	if !c.reps[1].CanPropose() {
		t.Fatal("replica 1 should lead view 1")
	}
	if c.reps[2].CanPropose() || c.reps[3].CanPropose() {
		t.Fatal("only the view-1 leader may propose")
	}
	if got, want := c.reps[2].LeaderID(), (NodeID{Cluster: 0, Replica: 1}); got != want {
		t.Fatalf("LeaderID = %v, want %v", got, want)
	}

	b := &protocol.Batch{Cluster: 0, ID: c.reps[1].NextID(), PrevDigest: c.reps[1].LastDigest(),
		Timestamp: 1, CD: protocol.NewCDVector(1), LCE: -1}
	if err := c.reps[1].Propose(b); err != nil {
		t.Fatalf("new leader propose: %v", err)
	}
	c.pump(live, func() bool {
		for _, i := range live {
			if len(c.delivered[i]) == 0 {
				return false
			}
		}
		return true
	})
	for _, i := range live {
		if c.delivered[i][0] != b.ID {
			t.Fatalf("replica %d delivered %v, want [%d]", i, c.delivered[i], b.ID)
		}
	}
}

// TestSingleSuspectDoesNotMoveCluster: PBFT's f+1 join rule — one faulty
// timer (or one byzantine suspecter) cannot drag the cluster through a
// view change.
func TestSingleSuspectDoesNotMoveCluster(t *testing.T) {
	c := newVCCluster(t)
	live := []int{0, 1, 2, 3}
	c.reps[3].SuspectLeader()
	c.settle(live)
	for _, i := range []int{0, 1, 2} {
		if c.reps[i].CurrentView() != 0 || !c.reps[i].ViewActive() {
			t.Fatalf("replica %d left view 0 on a single suspect vote", i)
		}
	}
	if !c.reps[0].CanPropose() {
		t.Fatal("view-0 leader lost proposal rights to a single suspect vote")
	}
}

// TestJoinRuleConverges: once f+1 replicas suspect, everyone (including
// the deposed leader) joins and the cluster installs the next view.
func TestJoinRuleConverges(t *testing.T) {
	c := newVCCluster(t)
	live := []int{0, 1, 2, 3}
	c.reps[2].SuspectLeader()
	c.reps[3].SuspectLeader()
	c.pump(live, func() bool {
		for _, i := range live {
			if c.reps[i].CurrentView() != 1 || !c.reps[i].ViewActive() {
				return false
			}
		}
		return true
	})
	if !c.reps[1].IsLeader() || c.reps[0].IsLeader() {
		t.Fatal("view 1 must be led by replica 1")
	}
}

// TestViewChangeRelaysPrePrepareAsLeaderPrepare: the leader's pre-prepare
// signature is its prepare vote, so a slot whose followers prepared it
// survives a view change even though the leader sent no Prepare. The
// view-0 leader proposes slot 1, every follower prepares and commits it,
// and every commit vote is lost; the leader then goes dark. The
// survivors' view-change votes carry the old leader's pre-prepare
// signature among the slot's prepares, the frontier recomputed from the
// NewView keeps the slot, and view 1 delivers it with the same content.
func TestViewChangeRelaysPrePrepareAsLeaderPrepare(t *testing.T) {
	c := newVCCluster(t)
	// The filter runs on the sending goroutine, which is this one: the
	// test pumps every replica itself.
	var (
		pp          *PrePrepare
		nv          *protocol.NewView
		dropCommits = true
	)
	c.net.SetFilter(func(e transport.Envelope) bool {
		switch m := e.Payload.(type) {
		case *PrePrepare:
			if pp == nil {
				pp = m
			}
		case *Commit:
			return !dropCommits
		case *protocol.NewView:
			nv = m
		}
		return true
	})
	b := &protocol.Batch{Cluster: 0, ID: 1, PrevDigest: c.reps[0].LastDigest(),
		Timestamp: 1, CD: protocol.NewCDVector(1), LCE: -1}
	if err := c.reps[0].Propose(b); err != nil {
		t.Fatalf("propose: %v", err)
	}
	all, live := []int{0, 1, 2, 3}, []int{1, 2, 3}
	c.pump(all, func() bool {
		for _, i := range live {
			if in := c.reps[i].instances[1]; in == nil || !in.committed {
				return false
			}
		}
		return true
	})
	for _, i := range live {
		if in := c.reps[i].instances[1]; !bytes.Equal(in.prepares[0].sig, pp.LeaderSig) {
			t.Fatalf("replica %d counted no pre-prepare signature as the leader's prepare", i)
		}
	}

	// The leader goes dark; the survivors vote it out.
	dropCommits = false
	for _, i := range live {
		c.reps[i].SuspectLeader()
	}
	c.pump(live, func() bool {
		for _, i := range live {
			if c.reps[i].CurrentView() != 1 || len(c.delivered[i]) == 0 {
				return false
			}
		}
		return true
	})
	if nv == nil {
		t.Fatal("no NewView was broadcast")
	}
	for _, v := range nv.Votes {
		if len(v.Entries) != 1 || v.Entries[0].ID != 1 {
			t.Fatalf("replica %d's vote carries entries %+v, want slot 1 only", v.Replica, v.Entries)
		}
		leaderSig := false
		for _, p := range v.Entries[0].Prepares {
			leaderSig = leaderSig || (p.Replica == 0 && bytes.Equal(p.Sig, pp.LeaderSig))
		}
		if !leaderSig {
			t.Fatalf("replica %d's vote relays no pre-prepare signature of the old leader", v.Replica)
		}
	}
	fr := computeFrontier(c.f.ring, 0, 1, nv.Votes)
	if len(fr) != 1 || fr[0].ID != 1 || fr[0].Digest != b.Digest() {
		t.Fatalf("frontier %+v, want slot 1 with the proposed digest", fr)
	}
	for _, i := range live {
		if !slices.Equal(c.delivered[i], []int64{1}) || c.reps[i].LastDigest() != b.Digest() {
			t.Fatalf("replica %d delivered %v (last digest %x), want slot 1 as proposed", i, c.delivered[i], c.reps[i].LastDigest())
		}
	}
}

// TestBareDigestPrePrepareIsNoPrepare: a pre-prepare signed over the bare
// batch digest is not a prepare vote. A follower drops it as forged,
// validating nothing and counting nothing; and in a view-change vote the
// same signature, relayed as the leader's prepare, does not count toward
// the 2f+1 the frontier needs.
func TestBareDigestPrePrepareIsNoPrepare(t *testing.T) {
	r, keys := soloReplica(t, 1)
	defer r.cfg.Net.Stop()
	b := testBatch(1, protocol.Digest{}).Seal()
	d := b.Digest()
	bare := keys[0].Sign(d[:])
	r.Handle(NodeID{Cluster: 0, Replica: 0}, &PrePrepare{Batch: b, LeaderSig: bare})
	if len(r.instances) != 0 || len(r.pendingPrePrepare) != 0 {
		t.Fatal("a bare-digest pre-prepare was accepted as a proposal")
	}

	f := newVCFixture(t)
	b1 := f.batches[0]
	d1 := b1.Digest()
	d1sig := f.keys[0].Sign(d1[:])
	prepares := append([]protocol.PrepareSig{{Replica: 0, Sig: d1sig}}, f.preps(0, 1, d1, 1, 2)...)
	votes := []*protocol.ViewChange{
		vcVote(1, f.header, vcEntry(0, b1, prepares)),
		vcVote(2, f.header, vcEntry(0, b1, prepares)),
		vcVote(3, f.header),
	}
	if fr := computeFrontier(f.ring, 0, 1, votes); len(fr) != 0 {
		t.Fatalf("frontier %+v, want empty: a bare-digest signature is no prepare", fr)
	}
}

// TestViewChangeLedger pins the crypto and message cost of one view
// change at N = 4 with a silent leader, after a batch has delivered
// everywhere. The leader's commit reaches the followers last, so each
// survivor delivered on its own commit and its two fellow survivors', and
// lists them in that order (1: [1 2 3], 2: [2 1 3], 3: [3 1 2]). Each
// survivor assembles its tip certificate from those candidates (one
// verify: its own signature comes first and is not checked) and signs its
// vote: 3 signs, 3 verifies. Each survivor checks the two votes it
// receives, the vote signature and the f+1 tip certificate, its own
// signature in that certificate excepted (it holds the signature it made
// over the same tip): replica 1 checks 2 + 2, replica 2 checks 2 + 3,
// replica 3 checks 3 + 3, 15 verifies. The view-1 leader broadcasts the
// NewView; every survivor holds each of its three votes already, two
// checked on receipt and its own, so installing it verifies nothing. That
// is 18 verifies and 12 envelopes (9 votes, 3 NewViews), the silent
// leader counted as a destination.
func TestViewChangeLedger(t *testing.T) {
	c := newVCCluster(t)
	all, live := []int{0, 1, 2, 3}, []int{1, 2, 3}
	b := &protocol.Batch{Cluster: 0, ID: 1, PrevDigest: c.reps[0].LastDigest(),
		Timestamp: 1, CD: protocol.NewCDVector(1), LCE: -1}
	if err := c.reps[0].Propose(b); err != nil {
		t.Fatal(err)
	}
	c.pump(all, func() bool {
		for _, i := range all {
			if len(c.delivered[i]) == 0 {
				return false
			}
		}
		return true
	})
	c.settle(all)

	signs0, verifies0, sent0 := cryptoutil.SignOps(), cryptoutil.VerifyOps(), c.net.Stats.Sent.Load()
	for _, i := range live {
		c.reps[i].SuspectLeader()
	}
	c.pump(live, func() bool {
		for _, i := range live {
			if c.reps[i].CurrentView() != 1 || !c.reps[i].ViewActive() {
				return false
			}
		}
		return true
	})
	c.settle(live)
	for _, x := range []struct {
		what      string
		got, want uint64
	}{
		{"signs", cryptoutil.SignOps() - signs0, 3},
		{"verifies", cryptoutil.VerifyOps() - verifies0, 18},
		{"envelopes", uint64(c.net.Stats.Sent.Load() - sent0), 12},
	} {
		if x.got != x.want {
			t.Errorf("%s: %d for one view change, want %d", x.what, x.got, x.want)
		}
	}
}

// TestTipCertSkipsOnlyTheSignatureItHolds: a replica takes its own
// signature in a tip certificate unchecked only when it is the one it
// holds over its own tip; any other signature in its name, a forged one or
// one over another header, is verified like a peer's.
func TestTipCertSkipsOnlyTheSignatureItHolds(t *testing.T) {
	c := newVCCluster(t)
	r, f := c.reps[1], c.f // at genesis: lastCert holds all four signatures
	tip, other := f.header.Digest(), f.batches[0].Digest()
	self, peer := NodeID{Cluster: 0, Replica: 1}, NodeID{Cluster: 0, Replica: 2}
	own, peerSig := f.cert.Signatures[1], f.cert.Signatures[2]
	forged := cryptoutil.SignCertificate(f.keys[1], self, other[:])
	cert := func(sigs ...cryptoutil.Signature) cryptoutil.Certificate {
		return cryptoutil.Certificate{Cluster: 0, Signatures: sigs}
	}
	for _, x := range []struct {
		what     string
		tip      protocol.Digest
		cert     cryptoutil.Certificate
		ok       bool
		verifies uint64
	}{
		{"own first", tip, cert(own, peerSig), true, 1},
		{"own second", tip, cert(peerSig, own), true, 1},
		{"own twice", tip, cert(own, own), false, 0},
		{"own signature over another header", tip, cert(forged, peerSig), false, 2},
		{"another tip", other, cert(forged, cryptoutil.SignCertificate(f.keys[2], peer, other[:])), true, 2},
		{"another tip, own signature over this one", other, cert(own, cryptoutil.SignCertificate(f.keys[2], peer, other[:])), false, 2},
	} {
		v0 := cryptoutil.VerifyOps()
		if got := r.verifyTipCert(x.tip, x.cert); got != x.ok {
			t.Errorf("%s: accepted %v, want %v", x.what, got, x.ok)
		}
		if got := cryptoutil.VerifyOps() - v0; x.ok && got != x.verifies {
			t.Errorf("%s: %d verifies, want %d", x.what, got, x.verifies)
		}
	}
}

// TestNewViewTakesHeldVotes: a NewView vote equal in digest and signature
// to the vote a replica holds for its voter is taken as held — the copy
// checked on receipt, whatever the relayed copy's unsigned tip
// certificate says — with no verify; the replica's own vote counts only
// as the one it cast for that view, never checked, also once a vote for a
// later view has replaced it among the held votes.
func TestNewViewTakesHeldVotes(t *testing.T) {
	c := newVCCluster(t)
	r, f := c.reps[2], c.f
	signed := func(rep int32, tip protocol.BatchHeader, entries ...protocol.PreparedEntry) *protocol.ViewChange {
		vc := vcVote(rep, tip, entries...)
		vc.TipCert = cryptoutil.Certificate{Cluster: 0, Signatures: []cryptoutil.Signature{f.cert.Signatures[rep], f.cert.Signatures[0]}}
		d := protocol.ViewChangeDigest(vc)
		vc.Sig = f.keys[rep].Sign(d[:])
		return vc
	}
	r.SuspectLeader()
	v1, v3 := signed(1, f.header), signed(3, f.header)
	r.Handle(NodeID{Cluster: 0, Replica: 1}, v1)
	r.Handle(NodeID{Cluster: 0, Replica: 3}, v3)
	own := r.vcVotes[1][2]
	if own == nil || r.vcVotes[1][1] != v1 || r.vcVotes[1][3] != v3 {
		t.Fatal("votes not held")
	}

	stripped, ownCopy := *v1, *own
	stripped.TipCert = cryptoutil.Certificate{}
	v0 := cryptoutil.VerifyOps()
	votes := r.vetNewViewVotes(&protocol.NewView{Cluster: 0, View: 1, Votes: []*protocol.ViewChange{&stripped, &ownCopy, v3}})
	if got := cryptoutil.VerifyOps() - v0; got != 0 {
		t.Errorf("%d verifies on held votes, want 0", got)
	}
	if len(votes) != 3 || votes[0] != v1 || votes[1] != own || votes[2] != v3 {
		t.Fatalf("vetted %v, want the three held votes", votes)
	}

	// Its view-1 vote still counts after a view-2 vote replaced it among
	// the held votes, matched, not checked.
	r.SuspectLeader()
	if r.vcVotes[2][2] == nil || r.vcVotes[1][2] != nil {
		t.Fatal("the view-2 vote did not replace the view-1 vote")
	}
	v0 = cryptoutil.VerifyOps()
	if votes := r.vetNewViewVotes(&protocol.NewView{Cluster: 0, View: 1, Votes: []*protocol.ViewChange{v1, &ownCopy, v3}}); len(votes) != 3 || votes[1] != own {
		t.Fatalf("vetted %v after a later vote, want the three held votes", votes)
	}
	if got := cryptoutil.VerifyOps() - v0; got != 0 {
		t.Errorf("%d verifies on held votes after a later vote, want 0", got)
	}

	// A vote in this replica's name that it did not cast is not counted,
	// however well signed.
	other := signed(2, f.header, vcEntry(0, f.batches[0], f.preps(0, 1, f.batches[0].Digest(), 0, 1, 2)))
	if votes := r.vetNewViewVotes(&protocol.NewView{Cluster: 0, View: 1, Votes: []*protocol.ViewChange{v1, other, v3}}); votes != nil {
		t.Fatalf("vetted %d votes with a vote this replica never cast, want none", len(votes))
	}
}
