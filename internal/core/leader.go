package core

import (
	"errors"
	"time"

	"transedge/internal/merkle"
	"transedge/internal/protocol"
)

// Leader-side transaction processing: admission (Sec. 3.2), batch
// construction (Sec. 3.4), and the 2PC message handlers (Sec. 3.3).

// leaderEnv builds the conflict environment for admission decisions.
func (n *Node) leaderEnv() *conflictEnv {
	return &conflictEnv{
		lastWriter:     n.st.LastWriter,
		pendingReads:   n.pendingReads,
		pendingWrites:  n.pendingWrites,
		preparedReads:  n.preparedReads,
		preparedWrites: n.preparedWrites,
	}
}

// onCommitRequest admits a client transaction: local transactions join the
// local segment of the in-progress batch; distributed transactions are
// 2PC-prepared with this cluster as coordinator (Sec. 3.3.1).
func (n *Node) onCommitRequest(m *protocol.CommitRequest) {
	if !n.IsLeader() {
		// Followers forward commit requests to their current leader so a
		// client may contact any replica without tracking leadership —
		// and arm the progress watchdog: having handed the leader work,
		// this follower now expects to see it delivered.
		n.cfg.Net.Send(n.self, n.consensus.LeaderID(), m)
		n.armProgressTimer()
		return
	}
	t := m.Txn
	// A client that timed out and retried (possibly via another replica
	// after a view change) may resubmit a transaction this leader already
	// admitted or inherited. Re-admitting it would double-commit: just
	// repoint the reply channel at the newest attempt.
	if _, known := n.waiters[t.ID]; known {
		n.waiters[t.ID] = m.ReplyTo
		return
	}
	if dt := n.distTxns[t.ID]; dt != nil {
		n.waiters[t.ID] = m.ReplyTo
		if dt.isCoord {
			dt.replyTo = m.ReplyTo
		}
		return
	}
	reads, writes := n.localReads(&t), n.localWrites(&t)
	if err := n.leaderEnv().check(reads, writes); err != nil {
		n.Metrics.AdmissionAborts++
		n.reply(m.ReplyTo, protocol.CommitReply{
			TxnID: t.ID, Status: protocol.StatusAborted, Reason: err.Error(),
		})
		return
	}
	n.leaderEnv().reserve(reads, writes)

	if t.IsLocal() {
		n.pendingLocal = append(n.pendingLocal, t)
		n.waiters[t.ID] = m.ReplyTo
	} else {
		rec := protocol.PrepareRecord{Txn: t, CoordCluster: n.cfg.Cluster}
		n.pendingPrepared = append(n.pendingPrepared, rec)
		n.distTxns[t.ID] = &distTxn{
			rec:          rec,
			prepareBatch: -1,
			isCoord:      true,
			votesByPart:  make(map[int32]*protocol.PreparedVote),
			replyTo:      m.ReplyTo,
		}
		n.waiters[t.ID] = m.ReplyTo
	}
	n.maybeBuildBatch(false)
}

// leadOrRelay reports whether this replica leads and handles a 2PC message
// itself. A follower got the message because its sender addressed a stale
// leader (the view-0 one): it relays it once to the leader it follows —
// relayed returns the copy to send, marked Forwarded, and a message that
// already is a relay is dropped to bound hops — and arms its progress
// watchdog, since it has now handed the leader work.
func (n *Node) leadOrRelay(forwarded bool, relayed func() any) bool {
	if n.IsLeader() {
		return true
	}
	if !forwarded {
		n.cfg.Net.Send(n.self, n.consensus.LeaderID(), relayed())
		n.armProgressTimer()
	}
	return false
}

// onCoordinatorPrepare handles step 3→4 of Fig. 3: another cluster asks us
// to 2PC-prepare a distributed transaction. We verify the coordinator's
// SMR-log inclusion proof, run conflict detection on our shard's
// footprint, and either queue a prepare record or vote abort immediately.
func (n *Node) onCoordinatorPrepare(from NodeID, m *protocol.CoordinatorPrepare) {
	if !n.leadOrRelay(m.Forwarded, func() any { fwd := *m; fwd.Forwarded = true; return &fwd }) {
		return
	}
	if dt, dup := n.distTxns[m.TxnID]; dup {
		// Retransmission — often a new coordinator leader rebuilding its
		// vote set after a view change. If our prepare record is already
		// durable and undecided, re-send the vote it is waiting for.
		if dt.rec.CoordCluster == m.CoordCluster && dt.prepareBatch >= 0 &&
			dt.decision == protocol.DecisionPending && !dt.isCoord {
			if e := n.log.get(dt.prepareBatch); e != nil && e.batch != nil {
				n.drivePrepared(dt, e)
			}
		}
		return
	}
	// The proven record must be one the sending cluster coordinates: a
	// participant's prepare record relayed as a coordinator's would park
	// our vote with a cluster that never decides.
	rec, err := n.provenPrepare(&m.Proof, m.CoordCluster, m.TxnID)
	if err != nil || rec.CoordCluster != m.CoordCluster {
		return // unauthentic prepare: drop silently
	}
	t := rec.Txn
	reads, writes := n.localReads(&t), n.localWrites(&t)
	if err := n.leaderEnv().check(reads, writes); err != nil {
		n.Metrics.AdmissionAborts++
		n.cfg.Net.Send(n.self, leaderOf(m.CoordCluster), &protocol.PreparedVote{
			TxnID: t.ID, FromCluster: n.cfg.Cluster, Vote: protocol.DecisionAbort,
		})
		return
	}
	n.leaderEnv().reserve(reads, writes)
	prec := protocol.PrepareRecord{Txn: t, CoordCluster: m.CoordCluster}
	n.pendingPrepared = append(n.pendingPrepared, prec)
	proof := m.Proof
	n.pendingEvidence[t.ID] = &proof
	n.distTxns[t.ID] = &distTxn{rec: prec, prepareBatch: -1}
}

// onPreparedVote handles step 5 of Fig. 3 at the coordinator: collect one
// vote per participant; once all partitions voted, decide and distribute.
func (n *Node) onPreparedVote(from NodeID, m *protocol.PreparedVote) {
	if !n.leadOrRelay(m.Forwarded, func() any { fwd := *m; fwd.Forwarded = true; return &fwd }) {
		return
	}
	dt := n.distTxns[m.TxnID]
	if dt == nil || !dt.isCoord {
		return
	}
	if dt.decision != protocol.DecisionPending {
		// A vote re-sent after the decision usually means the sender's
		// cluster lost the decision to a leader crash and its new leader
		// is rebuilding 2PC state: repeat the outcome instead of
		// dropping the conversation.
		if dt.decisionSent && m.FromCluster != n.cfg.Cluster {
			n.cfg.Net.Send(n.self, leaderOf(m.FromCluster), &protocol.CommitDecision{
				TxnID: dt.rec.Txn.ID, CoordCluster: n.cfg.Cluster,
				Decision: dt.decision, Votes: dt.votes,
			})
		}
		return
	}
	if _, dup := dt.votesByPart[m.FromCluster]; dup {
		return
	}
	if m.Vote == protocol.DecisionCommit {
		if !n.validVote(m, &dt.rec.Txn) {
			return // forged or mismatched vote; ignore
		}
	}
	vote := *m
	dt.votesByPart[m.FromCluster] = &vote
	n.maybeDecide(dt)
}

// validVote checks a commit vote's proof (see provenPrepare) and that the
// prepared transaction matches ours bit for bit.
func (n *Node) validVote(v *protocol.PreparedVote, want *protocol.Transaction) bool {
	rec, err := n.provenPrepare(&v.Proof, v.FromCluster, v.TxnID)
	return err == nil && protocol.TransactionDigest(&rec.Txn) == protocol.TransactionDigest(want)
}

// Prepare-proof failures, worded for the batch evidence check that
// reports them (validateBatch); the 2PC handlers drop the message.
var (
	errProofInvalid  = errors.New("coordinator proof invalid")
	errProofTampered = errors.New("evidence segment tampered")
	errProofMissing  = errors.New("not in coordinator evidence")
)

// provenPrepare checks a prepare proof — the SMR-log inclusion proof of
// Sec. 3.3.2/3.3.3 that a CoordinatorPrepare, a PreparedVote and a
// foreign-coordinated prepare record's batch evidence carry — and returns
// the record it proves for id: the header must be cluster's and carry its
// f+1 certificate, the shipped prepared segment must be the one the header
// commits to, and the segment must hold id. Whether the record is the one
// expected is the caller's check.
func (n *Node) provenPrepare(p *protocol.PrepareProof, cluster int32, id protocol.TxnID) (*protocol.PrepareRecord, error) {
	if p.Header.Cluster != cluster || !n.verifyHeaderCert(&p.Header, p.Cert) {
		return nil, errProofInvalid
	}
	if protocol.PreparedSectionDigest(p.Prepared) != p.Header.PreparedDigest {
		return nil, errProofTampered
	}
	for i := range p.Prepared {
		if p.Prepared[i].Txn.ID == id {
			return &p.Prepared[i], nil
		}
	}
	return nil, errProofMissing
}

// drivePrepared sends the 2PC messages a durable, undecided prepare record
// owes; e is the log entry of its prepare batch, whose header, certificate
// and prepared segment prove the record. As coordinator (step 3 of
// Fig. 3) it records our own implicit commit vote and asks every other
// participant to prepare; as participant (step 5) it sends our certified
// vote to the coordinator and applies any decision that raced ahead.
// Delivery drives each record once; a new leader drives every undecided
// one again, since a crashed leader's sends are not in the log, and a
// participant re-sends its vote to a coordinator that asks again.
// Receivers deduplicate.
func (n *Node) drivePrepared(dt *distTxn, e *logEntry) {
	id := dt.rec.Txn.ID
	proof := protocol.PrepareProof{Header: e.header, Cert: e.cert, Prepared: e.batch.Prepared}
	if dt.rec.CoordCluster != n.cfg.Cluster {
		n.cfg.Net.Send(n.self, leaderOf(dt.rec.CoordCluster), &protocol.PreparedVote{
			TxnID: id, FromCluster: n.cfg.Cluster,
			Vote: protocol.DecisionCommit, Proof: proof,
		})
		if d := n.pendingDecisions[id]; d != nil {
			delete(n.pendingDecisions, id)
			n.applyDecision(dt, d)
		}
		return
	}
	// The coordinator fields are lazily initialized: a leader that took
	// over through a view change inherits records created on the bare
	// follower path.
	dt.isCoord = true
	if dt.votesByPart == nil {
		dt.votesByPart = make(map[int32]*protocol.PreparedVote)
	}
	dt.votesByPart[n.cfg.Cluster] = &protocol.PreparedVote{
		TxnID: id, FromCluster: n.cfg.Cluster,
		Vote: protocol.DecisionCommit, Proof: proof,
	}
	cp := &protocol.CoordinatorPrepare{TxnID: id, CoordCluster: n.cfg.Cluster, Proof: proof}
	for _, part := range dt.rec.Txn.Partitions {
		if part != n.cfg.Cluster {
			n.cfg.Net.Send(n.self, leaderOf(part), cp)
		}
	}
	n.maybeDecide(dt)
}

// maybeDecide finalizes 2PC once every accessed partition has voted: the
// transaction commit point (TCP) of Sec. 3.6. The decision and its vote
// evidence are sent to every other participant leader (the paper sends
// them with f+1 signatures; the votes' f+1-certified prepare proofs carry
// equivalent authority, see DESIGN.md).
func (n *Node) maybeDecide(dt *distTxn) {
	if dt.decision != protocol.DecisionPending || dt.decisionSent {
		return
	}
	decision := protocol.DecisionCommit
	var votes []protocol.PreparedVote
	for _, part := range dt.rec.Txn.Partitions {
		v := dt.votesByPart[part]
		if v == nil {
			return // still waiting
		}
		if v.Vote != protocol.DecisionCommit {
			decision = protocol.DecisionAbort
		}
		votes = append(votes, *v)
	}
	dt.decision = decision
	dt.votes = votes
	dt.decisionSent = true
	msg := &protocol.CommitDecision{
		TxnID:        dt.rec.Txn.ID,
		CoordCluster: n.cfg.Cluster,
		Decision:     decision,
		Votes:        votes,
	}
	for _, part := range dt.rec.Txn.Partitions {
		if part != n.cfg.Cluster {
			n.cfg.Net.Send(n.self, leaderOf(part), msg)
		}
	}
	n.maybeBuildBatch(false)
}

// onCommitDecision handles step 7→8 of Fig. 3 at a participant: validate
// the coordinator's decision against the vote evidence and mark the
// transaction decided inside its prepare group.
func (n *Node) onCommitDecision(from NodeID, m *protocol.CommitDecision) {
	if !n.leadOrRelay(m.Forwarded, func() any { fwd := *m; fwd.Forwarded = true; return &fwd }) {
		return
	}
	dt := n.distTxns[m.TxnID]
	if dt == nil {
		// Either we voted abort (no state was kept) or this is a stale
		// retransmission; both are safe to ignore.
		return
	}
	if dt.decision != protocol.DecisionPending {
		return
	}
	// A commit needs a verified positive vote from every accessed
	// partition; an abort needs at least one abort vote (an unjustified
	// abort is a liveness, not a safety, failure — see DESIGN.md).
	if !n.justified(m.Decision, m.Votes, &dt.rec.Txn) {
		return
	}
	if dt.prepareBatch < 0 {
		// Our prepare batch is still in flight; apply on delivery.
		n.pendingDecisions[m.TxnID] = m
		return
	}
	n.applyDecision(dt, m)
}

func (n *Node) applyDecision(dt *distTxn, m *protocol.CommitDecision) {
	dt.decision = m.Decision
	dt.votes = m.Votes
	n.maybeBuildBatch(false)
}

// frontGroupReady reports whether the oldest prepare group not already
// committed by an in-flight batch has a decision for every member
// (Def. 4.1: groups commit or abort strictly in order). skip is the
// number of front groups consumed by in-flight committed segments.
func (n *Node) frontGroupReady(skip int) *group {
	if skip >= len(n.groups) {
		return nil
	}
	g := n.groups[skip]
	for _, id := range g.ids {
		dt := n.distTxns[id]
		if dt == nil || dt.decision == protocol.DecisionPending {
			return nil
		}
	}
	return g
}

// specTail returns the state the next speculative batch chains off: the
// newest spec slot's header, header digest, and tree, or the last
// delivered batch when the chain is empty. The digest rides along so
// chaining PrevDigest never re-hashes a header.
func (n *Node) specTail() (protocol.BatchHeader, protocol.Digest, *merkle.Tree) {
	if k := len(n.spec); k > 0 {
		s := n.spec[k-1]
		return s.header, s.digest, s.tree
	}
	e := n.log.last()
	return e.header, e.digest, e.tree
}

// specGroupsConsumed counts the open prepare groups already committed by
// batches of the speculative chain.
func (n *Node) specGroupsConsumed() int {
	consumed := 0
	for _, s := range n.spec {
		consumed += s.groups
	}
	return consumed
}

// maybeBuildBatch assembles and proposes the next batch when the pipeline
// has a free slot and either the size threshold fired, the flush interval
// passed, or force is set. Mirrors the paper's event 6 (timer/size
// trigger), except that up to PipelineDepth batches may be in flight at
// once: each new batch chains PrevDigest, CD vector, LCE, and Merkle tree
// off the newest speculative slot, so proposal never waits for delivery.
func (n *Node) maybeBuildBatch(force bool) {
	// CanPropose also refuses mid-view-change windows: proposing into a
	// dying view would only feed rollbacks.
	if !n.consensus.CanPropose() {
		return
	}
	if len(n.spec) >= n.cfg.PipelineDepth {
		if len(n.pendingLocal)+len(n.pendingPrepared) > 0 {
			n.Metrics.PipelineStalls++
		}
		return
	}
	prevHeader, prevDigest, prevTree := n.specTail()
	ready := n.frontGroupReady(n.specGroupsConsumed())
	pending := len(n.pendingLocal) + len(n.pendingPrepared)
	if pending == 0 && ready == nil {
		return
	}
	if !force && pending < batchMaxSize && time.Since(n.lastFlush) < n.cfg.BatchInterval && ready == nil {
		return
	}

	b := &protocol.Batch{
		Cluster:    n.cfg.Cluster,
		ID:         prevHeader.ID + 1,
		PrevDigest: prevDigest,
		Timestamp:  time.Now().UnixNano(),
		Local:      n.pendingLocal,
		Prepared:   n.pendingPrepared,
		LCE:        prevHeader.LCE,
	}

	// Committed segment: the oldest fully-decided prepare group, whole
	// and in order.
	if ready != nil {
		b.CommitEvidence = make(map[protocol.TxnID][]protocol.PreparedVote, len(ready.ids))
		for _, id := range ready.ids {
			dt := n.distTxns[id]
			rec := protocol.CommitRecord{Txn: dt.rec.Txn, Decision: dt.decision}
			if dt.decision == protocol.DecisionCommit {
				for i := range dt.votes {
					rec.ReportedCDs = append(rec.ReportedCDs, dt.votes[i].Proof.Header.CD.Clone())
				}
			}
			b.Committed = append(b.Committed, rec)
			b.CommitEvidence[id] = dt.votes
		}
		b.LCE = ready.prepareBatch
	}

	// Evidence for prepare records coordinated elsewhere.
	if len(n.pendingPrepared) > 0 {
		b.PrepareEvidence = make(map[protocol.TxnID]*protocol.PrepareProof)
		for i := range n.pendingPrepared {
			id := n.pendingPrepared[i].Txn.ID
			if ev := n.pendingEvidence[id]; ev != nil {
				b.PrepareEvidence[id] = ev
			}
		}
	}

	// Read-only segment: CD vector via Algorithm 1, then the Merkle root
	// over the post-batch database state — both derived from the
	// speculative predecessor, never the (possibly older) delivered one.
	b.CD = n.deriveCD(prevHeader.CD, b)
	tree := n.applyBatchToTree(prevTree, b)
	b.MerkleRoot = tree.Root()

	// The batch is complete: seal it so the header and digest computed
	// for this slot are the ones reused at leader sign, follower
	// validation, and delivery.
	b.Seal()
	slot := &specSlot{batch: b, header: b.Header(), digest: b.Digest(), tree: tree}
	if ready != nil {
		slot.groups = 1
	}

	// Reset accumulation; reserved footprints stay until delivery.
	n.pendingLocal = nil
	n.pendingPrepared = nil
	n.lastFlush = time.Now()

	if err := n.consensus.Propose(b); err != nil {
		// Cannot happen in a healthy pipeline; abort the batch's
		// transactions cleanly rather than leak their reservations.
		n.rollbackBatch(b)
		return
	}
	n.spec = append(n.spec, slot)
}

// rollbackBatch undoes the admission effects of a speculative batch that
// will never reach the log: reserved OCC footprints are released, waiting
// clients receive aborts, and coordinator state for prepares that never
// became durable is dropped. Committed-segment decisions are left intact
// in distTxns — the group is still decided and a later batch re-proposes
// it.
func (n *Node) rollbackBatch(b *protocol.Batch) {
	for i := range b.Local {
		t := &b.Local[i]
		n.releasePending(t.Reads, t.Writes)
		n.failWaiter(t.ID, "pipeline rollback")
	}
	for i := range b.Prepared {
		t := &b.Prepared[i].Txn
		n.releasePending(n.localReads(t), n.localWrites(t))
		delete(n.pendingEvidence, t.ID)
		if dt := n.distTxns[t.ID]; dt != nil && dt.prepareBatch < 0 {
			delete(n.distTxns, t.ID)
			delete(n.pendingDecisions, t.ID)
		}
		n.failWaiter(t.ID, "pipeline rollback")
	}
	n.Metrics.PipelineRollbacks++
}

// rollbackSpec rolls back every speculative slot from index from onward
// (newest first): once a predecessor fails to reach the log, every
// successor chained off it is invalid too.
func (n *Node) rollbackSpec(from int) {
	for i := len(n.spec) - 1; i >= from; i-- {
		n.rollbackBatch(n.spec[i].batch)
		n.spec[i] = nil
	}
	n.spec = n.spec[:from]
}

// failWaiter aborts a waiting client, if any.
func (n *Node) failWaiter(id protocol.TxnID, reason string) {
	if ch, ok := n.waiters[id]; ok {
		delete(n.waiters, id)
		n.reply(ch, protocol.CommitReply{TxnID: id, Status: protocol.StatusAborted, Reason: reason})
	}
}

// deriveCD implements Algorithm 1: fold the predecessor batch's CD vector
// (speculative for in-flight predecessors, delivered otherwise) with
// every reported CD vector of the committed segment, then pin the self
// entry to the new batch ID.
func (n *Node) deriveCD(base protocol.CDVector, b *protocol.Batch) protocol.CDVector {
	cd := base.Clone()
	for i := range b.Committed {
		rec := &b.Committed[i]
		if rec.Decision != protocol.DecisionCommit {
			continue
		}
		for _, reported := range rec.ReportedCDs {
			cd.MaxInto(reported)
		}
	}
	cd[n.cfg.Cluster] = b.ID
	return cd
}

func (n *Node) reply(ch chan protocol.CommitReply, r protocol.CommitReply) {
	if ch == nil {
		return
	}
	select {
	case ch <- r:
	default:
		// Client went away; do not block the event loop.
	}
}
