package bft

// PBFT-style view change (Castro & Liskov Sec. 4.4, adapted to the
// TransEdge batch log; safety argument in DESIGN.md §7).
//
// The enclosing node suspects a stalled leader and calls SuspectLeader.
// The replica stops accepting proposals, signs a ViewChange vote carrying
// its certified tip (newest delivered header + the f+1 certificate it
// assembles from that batch's commit signatures) and its
// prepared frontier (every validated-but-undelivered slot with the
// prepare signatures it verified), and broadcasts it. The leader of the
// target view assembles any 2f+1 verified votes into a NewView
// certificate and broadcasts it; every receiver checks each vote it
// does not already hold as checked on receipt (or cast itself) and
// independently recomputes the re-proposal frontier from them, so a
// byzantine new leader cannot add or drop slots. Frontier slots install
// directly as validated instances (their 2f+1 prepare certificates prove
// a quorum already validated the content) and go through a fresh
// prepare/commit round in the new view; because batches chain PrevDigest,
// the frontier is always a gap-free prefix extension and PBFT's nil-fill
// for holes never arises.

import (
	"bytes"
	"slices"
	"sort"

	"transedge/internal/cryptoutil"
	"transedge/internal/protocol"
)

// SuspectLeader votes to replace the current leader: it targets the view
// after the highest one this replica has already voted for, so repeated
// timeouts (e.g. a run of crashed successors) keep advancing.
func (r *Replica) SuspectLeader() {
	next := r.view + 1
	if r.votedFor >= next {
		next = r.votedFor + 1
	}
	r.voteViewChange(next)
}

// voteViewChange casts this replica's vote to enter view v. Voting
// deactivates the current view — no further proposals are accepted until
// a NewView installs — but prepares and commits for already-validated
// slots still flow, so slots that reached their quorums mid-suspicion
// deliver normally. A replica whose tip certificate cannot be assembled
// (more than f faulty commit signers) casts no vote: every receiver would
// refuse it.
func (r *Replica) voteViewChange(v uint64) {
	if v <= r.view || v <= r.votedFor {
		return
	}
	vc := r.buildViewChange(v)
	if vc == nil {
		return
	}
	r.votedFor = v
	r.viewActive = false
	r.ownVotes[v] = vc
	r.recordViewChange(vc)
	r.broadcast(vc)
	r.maybeAssembleNewView(v)
}

// buildViewChange assembles and signs this replica's vote for view v:
// the certified tip plus every validated undelivered slot with the
// prepare signatures verified for (slot view, digest) — the leader's
// pre-prepare signature among them. A prepare held but never counted is
// unverified and stays out. The tip's f+1 certificate is assembled here,
// from the candidates delivery listed; nil if fewer than f+1 verify.
func (r *Replica) buildViewChange(v uint64) *protocol.ViewChange {
	tip := r.lastHeader.Digest()
	cert, ok := cryptoutil.AssembleCertificate(r.cfg.Ring, r.lastCert, tip[:], r.cfg.F+1, r.self)
	if !ok {
		return nil
	}
	vc := &protocol.ViewChange{
		Cluster:   r.cfg.Cluster,
		Replica:   r.cfg.Replica,
		View:      v,
		TipHeader: r.lastHeader,
		TipCert:   cert,
	}
	ids := make([]int64, 0, len(r.instances))
	for id, in := range r.instances {
		if id >= r.nextDeliver && in.validated {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		in := r.instances[id]
		e := protocol.PreparedEntry{ID: id, View: in.view, Digest: in.digest, Batch: in.batch}
		for rep, pv := range in.prepares {
			if pv.verified && pv.digest == in.digest && pv.view == in.view {
				e.Prepares = append(e.Prepares, protocol.PrepareSig{Replica: rep, Sig: pv.sig})
			}
		}
		sort.Slice(e.Prepares, func(i, j int) bool { return e.Prepares[i].Replica < e.Prepares[j].Replica })
		vc.Entries = append(vc.Entries, e)
	}
	vcd := protocol.ViewChangeDigest(vc)
	vc.Sig = r.cfg.Keys.Sign(vcd[:])
	return vc
}

// onViewChange verifies and records a peer's vote, joins the view change
// once f+1 distinct peers vote past our view (so one faulty timer cannot
// drag the cluster through view changes), and assembles a NewView if we
// lead the target view.
func (r *Replica) onViewChange(from NodeID, m *protocol.ViewChange) {
	if m == nil || from.Cluster != r.cfg.Cluster || from.Replica != m.Replica {
		return
	}
	if m.View <= r.view {
		return
	}
	if !r.verifyViewChange(m) {
		return
	}
	if !r.recordViewChange(m) {
		return
	}
	r.maybeJoinViewChange()
	r.maybeAssembleNewView(m.View)
}

// verifyViewChange checks a vote's structure, its signature, and its tip
// certificate. Prepare signatures inside entries are NOT verified here —
// computeFrontier verifies exactly the ones it counts.
func (r *Replica) verifyViewChange(m *protocol.ViewChange) bool {
	if m.Cluster != r.cfg.Cluster || m.TipHeader.Cluster != r.cfg.Cluster {
		return false
	}
	pub := r.cfg.Ring.PublicKey(NodeID{Cluster: r.cfg.Cluster, Replica: m.Replica})
	if pub == nil {
		return false
	}
	vcd := protocol.ViewChangeDigest(m)
	if !cryptoutil.Verify(pub, vcd[:], m.Sig) {
		return false
	}
	if !r.verifyTipCert(m.TipHeader.Digest(), m.TipCert) {
		return false
	}
	lastID := m.TipHeader.ID
	for i := range m.Entries {
		e := &m.Entries[i]
		if e.ID <= lastID {
			return false // entries must strictly ascend above the tip
		}
		lastID = e.ID
		if e.Batch != nil && (e.Batch.ID != e.ID || e.Batch.Digest() != e.Digest) {
			return false // body does not match the claimed entry
		}
	}
	return true
}

// verifyTipCert checks a vote's f+1 certificate over tip. This replica's
// own signature is not checked when the replica holds it: over its own
// certified tip, lastCert carries the signature it made, and Ed25519
// signatures are deterministic, so an equal one is that signature (as
// AssembleCertificate keeps it). Every other signature, this replica's
// over any other header included, is verified.
func (r *Replica) verifyTipCert(tip protocol.Digest, cert cryptoutil.Certificate) bool {
	threshold := r.cfg.F + 1
	isSelf := func(s cryptoutil.Signature) bool { return s.Signer == r.self }
	if i := slices.IndexFunc(cert.Signatures, isSelf); i >= 0 && i < threshold &&
		cert.Cluster == r.cfg.Cluster && tip == r.lastHeader.Digest() {
		if j := slices.IndexFunc(r.lastCert.Signatures, isSelf); j >= 0 && bytes.Equal(r.lastCert.Signatures[j].Sig, cert.Signatures[i].Sig) {
			rest := slices.Delete(slices.Clone(cert.Signatures), i, i+1)
			if slices.ContainsFunc(rest, isSelf) {
				return false // a duplicate signer
			}
			cert = cryptoutil.Certificate{Cluster: cert.Cluster, Signatures: rest}
			threshold--
		}
	}
	return cryptoutil.VerifyCertificate(r.cfg.Ring, cert, tip[:], threshold) == nil
}

// recordViewChange stores a verified vote, keeping at most one vote per
// replica — its newest target view — so the vote store is O(n) no matter
// how long a faulty peer spams view changes. Returns false if the vote
// did not advance that replica's recorded position.
func (r *Replica) recordViewChange(m *protocol.ViewChange) bool {
	for v, byRep := range r.vcVotes {
		if _, ok := byRep[m.Replica]; ok {
			if v >= m.View {
				return false
			}
			delete(byRep, m.Replica)
			if len(byRep) == 0 {
				delete(r.vcVotes, v)
			}
		}
	}
	byRep := r.vcVotes[m.View]
	if byRep == nil {
		byRep = make(map[int32]*protocol.ViewChange)
		r.vcVotes[m.View] = byRep
	}
	byRep[m.Replica] = m
	return true
}

// maybeJoinViewChange applies PBFT's join rule: once f+1 distinct other
// replicas have voted for views above ours, at least one honest replica
// suspects the leader, so we join with the smallest such view — keeping
// a lone faulty suspecter from moving anyone while letting an honest
// majority converge quickly.
func (r *Replica) maybeJoinViewChange() {
	voters := make(map[int32]uint64)
	for v, byRep := range r.vcVotes {
		if v <= r.view {
			continue
		}
		for rep := range byRep {
			if rep == r.cfg.Replica {
				continue
			}
			if v > voters[rep] {
				voters[rep] = v
			}
		}
	}
	if len(voters) <= r.cfg.F {
		return
	}
	var lowest uint64
	for _, v := range voters {
		if lowest == 0 || v < lowest {
			lowest = v
		}
	}
	if lowest > r.votedFor {
		r.voteViewChange(lowest)
	}
}

// maybeAssembleNewView builds and broadcasts the NewView certificate if
// this replica leads view v and holds 2f+1 votes for it, then installs
// the new view locally.
func (r *Replica) maybeAssembleNewView(v uint64) {
	if v <= r.view || r.leaderAt(v) != r.cfg.Replica {
		return
	}
	byRep := r.vcVotes[v]
	quorum := 2*r.cfg.F + 1
	if len(byRep) < quorum {
		return
	}
	reps := make([]int32, 0, len(byRep))
	for rep := range byRep {
		reps = append(reps, rep)
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i] < reps[j] })
	nv := &protocol.NewView{Cluster: r.cfg.Cluster, View: v}
	for _, rep := range reps[:quorum] {
		nv.Votes = append(nv.Votes, byRep[rep])
	}
	r.broadcast(nv)
	r.adoptNewView(nv)
}

// onNewView handles the new leader's certificate for a higher view.
func (r *Replica) onNewView(from NodeID, m *protocol.NewView) {
	if m == nil || from.Cluster != r.cfg.Cluster || m.Cluster != r.cfg.Cluster {
		return
	}
	if m.View <= r.view || from.Replica != r.leaderAt(m.View) {
		return
	}
	r.adoptNewView(m)
}

// adoptNewView vets a NewView certificate's votes, recomputes the
// re-proposal frontier from its votes, and installs the new view: the
// frontier slots become validated instances (their embedded 2f+1 prepare
// certificates substitute for re-running Validate) and a fresh prepare
// round starts for each in the new view. Per-slot state from the old
// view is carried over where it is still sound — without this, replicas
// that already delivered or committed a frontier slot before the view
// change would never re-vote it and the slot could stall short of its
// quorums. If this replica's delivery point trails the certificate's
// global tip, installation parks on pendingNewView until delivery or
// state transfer catches up.
func (r *Replica) adoptNewView(nv *protocol.NewView) {
	if nv.View <= r.view {
		if r.pendingNewView == nv {
			r.pendingNewView = nil
		}
		return
	}
	votes := r.vetNewViewVotes(nv)
	if votes == nil {
		if r.pendingNewView == nv {
			r.pendingNewView = nil
		}
		return
	}
	globalTip := votes[0].TipHeader.ID
	for _, v := range votes[1:] {
		if v.TipHeader.ID > globalTip {
			globalTip = v.TipHeader.ID
		}
	}
	if r.nextDeliver-1 < globalTip {
		// Some quorum member certified deliveries we have not made; we
		// cannot chain the frontier yet. Park the NewView and push the
		// high-water mark so the enclosing node's Lagging check starts a
		// state transfer.
		r.pendingNewView = nv
		r.viewActive = false
		if nv.View > r.votedFor {
			r.votedFor = nv.View
		}
		if hs := r.nextDeliver + r.maxAhead(); hs > r.highestSeen {
			r.highestSeen = hs
		}
		return
	}

	frontier := computeFrontier(r.cfg.Ring, r.cfg.Cluster, r.cfg.F, votes)
	var entries []protocol.PreparedEntry
	prev := r.lastDigest
	for i := range frontier {
		e := frontier[i]
		if e.ID < r.nextDeliver {
			continue // already delivered here
		}
		if e.ID != r.nextDeliver+int64(len(entries)) || e.Batch.PrevDigest != prev {
			break // defensive: frontier must extend our delivered chain
		}
		entries = append(entries, e)
		prev = e.Digest
	}

	old := r.instances
	r.view = nv.View
	r.currentView.Store(nv.View)
	r.viewActive = true
	if nv.View > r.votedFor {
		r.votedFor = nv.View
	}
	r.pendingNewView = nil
	r.viewChanges.Add(1)
	r.instances = make(map[int64]*instance)
	r.pendingPrePrepare = make(map[int64]*PrePrepare)
	r.proposedDigest = make(map[int64]protocol.Digest)
	r.nextValidate = r.nextDeliver
	r.lastValidated = r.lastDigest
	r.dropVotesThrough(nv.View)

	if r.cfg.Rebase != nil {
		batches := make([]*protocol.Batch, len(entries))
		for i := range entries {
			batches[i] = entries[i].Batch
		}
		r.cfg.Rebase(nv.View, batches)
	}

	for i := range entries {
		e := &entries[i]
		in := r.inst(e.ID)
		if prevIn, ok := old[e.ID]; ok {
			// Carry prepares (per-replica newest view, verified or not),
			// commit votes — valid only if cast for the same digest — and
			// commits buffered before validation.
			for rep, pv := range prevIn.prepares {
				in.prepares[rep] = pv
			}
			if prevIn.validated && prevIn.digest == e.Digest {
				for rep, sig := range prevIn.commits {
					in.commits[rep] = sig
				}
			}
			for rep, c := range prevIn.pendingCommits {
				in.pendingCommits[rep] = c
			}
		}
		in.batch = e.Batch
		in.digest = e.Digest
		in.view = nv.View
		in.validated = true
		r.proposedDigest[e.ID] = e.Digest
		r.lastValidated = e.Digest
		r.nextValidate = e.ID + 1
		r.broadcastPrepare(in)
		r.replayPendingCommits(in)
		r.maybeCommit(in)
	}
	r.nextPropose = r.nextValidate

	if in, ok := r.instances[r.nextDeliver]; ok {
		r.maybeDeliver(in)
	}
}

// vetNewViewVotes checks a NewView's votes (each receiver trusts only
// what it checks itself) and returns them when they form a valid 2f+1
// quorum of distinct replicas for exactly nv.View. A vote that is the one
// this replica holds for its voter, its digest and signature equal, was
// checked on receipt or cast here: the held copy is taken without a
// second check. The replica's own vote is taken only that way, never
// checked; any other vote is verified.
func (r *Replica) vetNewViewVotes(nv *protocol.NewView) []*protocol.ViewChange {
	if nv.Cluster != r.cfg.Cluster {
		return nil
	}
	held := r.vcVotes[nv.View]
	seen := make(map[int32]bool)
	var votes []*protocol.ViewChange
	for _, v := range nv.Votes {
		if v == nil || v.View != nv.View || v.Replica < 0 || seen[v.Replica] {
			continue
		}
		h := held[v.Replica]
		if v.Replica == r.cfg.Replica {
			h = r.ownVotes[nv.View]
		}
		switch {
		case h != nil && bytes.Equal(h.Sig, v.Sig) && protocol.ViewChangeDigest(h) == protocol.ViewChangeDigest(v):
			v = h
		case v.Replica == r.cfg.Replica || !r.verifyViewChange(v):
			continue
		}
		seen[v.Replica] = true
		votes = append(votes, v)
	}
	if len(votes) < 2*r.cfg.F+1 {
		return nil
	}
	return votes
}

// AdoptView fast-forwards the replica's view without a NewView
// certificate. The enclosing node calls it after a state transfer, using
// the responder's reported view: the transferred tip is certified, so
// the only risk of a lying responder is a liveness hiccup (we sit in a
// view nobody leads until the progress timer votes us onward).
func (r *Replica) AdoptView(v uint64) {
	if v <= r.view {
		return
	}
	r.view = v
	r.currentView.Store(v)
	r.viewActive = true
	if v > r.votedFor {
		r.votedFor = v
	}
	if nv := r.pendingNewView; nv != nil && nv.View <= v {
		r.pendingNewView = nil
	}
	r.dropVotesThrough(v)
}

// dropVotesThrough forgets the votes held for views up to v, once view v
// is installed: no NewView at or below it is adopted any more.
func (r *Replica) dropVotesThrough(v uint64) {
	for vv := range r.vcVotes {
		if vv <= v {
			delete(r.vcVotes, vv)
		}
	}
	for vv := range r.ownVotes {
		if vv <= v {
			delete(r.ownVotes, vv)
		}
	}
}

// computeFrontier derives the re-proposal frontier from a verified 2f+1
// set of view-change votes: starting above the highest certified tip any
// vote carries, walk slot by slot; a slot survives if some (digest, view)
// candidate gathers 2f+1 valid prepare signatures from distinct replicas
// across all votes, carries its batch body, and chains PrevDigest onto
// the previous surviving slot. The highest-view candidate wins a slot;
// the walk stops at the first slot with no surviving candidate.
//
// Why this is exactly the safe frontier: a slot delivered anywhere had
// 2f+1 commit votes, each cast only after holding 2f+1 verified prepare
// signatures for one (view, digest); any 2f+1 vote subset intersects
// those committers in at least f+1 replicas, so at least one honest
// committer's vote carries the full prepare certificate and the body —
// the slot qualifies (no committed slot lost). Conversely a candidate
// needs f+1 honest prepare signatures for its (view, digest), and honest
// replicas sign at most one digest per slot per view — so a digest
// conflicting with a prepared one can never also reach 2f+1 in that view
// (no unprepared slot resurrected over a prepared one).
func computeFrontier(ring *cryptoutil.KeyRing, cluster int32, f int, votes []*protocol.ViewChange) []protocol.PreparedEntry {
	var tip *protocol.BatchHeader
	for _, v := range votes {
		if tip == nil || v.TipHeader.ID > tip.ID {
			tip = &v.TipHeader
		}
	}
	if tip == nil {
		return nil
	}
	prev := tip.Digest()
	quorum := 2*f + 1
	var out []protocol.PreparedEntry
	for id := tip.ID + 1; ; id++ {
		type candKey struct {
			digest protocol.Digest
			view   uint64
		}
		type candidate struct {
			batch *protocol.Batch
			sigs  []protocol.PrepareSig
		}
		cands := make(map[candKey]*candidate)
		found := false
		for _, v := range votes {
			for i := range v.Entries {
				e := &v.Entries[i]
				if e.ID != id {
					continue
				}
				found = true
				k := candKey{e.Digest, e.View}
				c := cands[k]
				if c == nil {
					c = &candidate{}
					cands[k] = c
				}
				if c.batch == nil && e.Batch != nil && e.Batch.ID == id && e.Batch.Digest() == e.Digest {
					c.batch = e.Batch
				}
				c.sigs = append(c.sigs, e.Prepares...)
			}
		}
		if !found {
			break
		}
		var best *candidate
		var bestKey candKey
		haveBest := false
		for k, c := range cands {
			if c.batch == nil || c.batch.PrevDigest != prev {
				continue
			}
			psd := protocol.PrepareSigDigest(cluster, k.view, id, k.digest)
			valid := make(map[int32]bool)
			for _, s := range c.sigs {
				pub := ring.PublicKey(NodeID{Cluster: cluster, Replica: s.Replica})
				if pub != nil && cryptoutil.Verify(pub, psd[:], s.Sig) {
					valid[s.Replica] = true
				}
			}
			if len(valid) < quorum {
				continue
			}
			if !haveBest || k.view > bestKey.view {
				best, bestKey, haveBest = c, k, true
			}
		}
		if !haveBest {
			break
		}
		out = append(out, protocol.PreparedEntry{ID: id, View: bestKey.view, Digest: bestKey.digest, Batch: best.batch})
		prev = bestKey.digest
	}
	return out
}
