package core

import (
	"time"

	"transedge/internal/protocol"
)

// Leader failover (DESIGN.md §7): the progress watchdog that turns a
// stalled leader into a view-change vote, and the node-level rebase that
// runs when consensus installs a new view — re-pointing the speculative
// chain at the re-proposed frontier, rebuilding the new leader's
// admission state, and re-driving 2PC conversations the old leader left
// dangling.

// maxSuspectBackoff caps the exponential view-timeout backoff (2^6 = 64x
// the base timeout) so repeated failed view changes never push the retry
// horizon to minutes.
const maxSuspectBackoff = 6

// progressTimeout is the current watchdog window: the configured timeout
// backed off exponentially by consecutive unanswered suspicions, so a
// partitioned minority does not spin through views faster than the
// majority can complete one.
func (n *Node) progressTimeout() time.Duration {
	shift := n.suspects
	if shift > maxSuspectBackoff {
		shift = maxSuspectBackoff
	}
	return n.cfg.ViewTimeout << shift
}

// noteProgress resets the watchdog: a batch was delivered (or a new view
// installed), so whoever leads now is doing its job.
func (n *Node) noteProgress() {
	n.suspects = 0
	n.progressDeadline = time.Time{}
	n.forwarded = false
}

// armProgressTimer starts the watchdog after this follower relayed work
// to its leader: even with no local pending state, a delivery is now
// owed, and silence past the timeout means the leader is gone.
func (n *Node) armProgressTimer() {
	if n.cfg.ViewTimeout <= 0 {
		return
	}
	n.forwarded = true
	if n.progressDeadline.IsZero() {
		n.progressDeadline = time.Now().Add(n.progressTimeout())
	}
}

// maybeSuspectLeader (tick) fires the leader-progress timer: when work
// is pending and no delivery has landed within the timeout, vote to
// change views. Disabled while state transfer owns the replica's notion
// of progress — a syncing node cannot tell a dead leader from its own
// lag.
func (n *Node) maybeSuspectLeader() {
	if n.cfg.ViewTimeout <= 0 || n.syncing || n.replaying {
		return
	}
	if n.consensus.CanPropose() {
		// We lead a live view; stalls here are our own batch timer's
		// business, not grounds for deposing ourselves.
		n.noteProgress()
		return
	}
	pending := n.forwarded || n.consensus.PendingWork() ||
		len(n.waiters) > 0 || len(n.pendingLocal)+len(n.pendingPrepared) > 0
	if !pending {
		n.progressDeadline = time.Time{}
		return
	}
	if n.progressDeadline.IsZero() {
		n.progressDeadline = time.Now().Add(n.progressTimeout())
		return
	}
	if time.Now().Before(n.progressDeadline) {
		return
	}
	n.suspects++
	n.Metrics.LeaderSuspects++
	n.consensus.SuspectLeader()
	n.progressDeadline = time.Now().Add(n.progressTimeout())
}

// rebaseOnView is the consensus Rebase callback: a new view was
// installed and frontier is the exact chain of re-proposed batches above
// the delivered tip. The speculative chain must become exactly that
// frontier — any longer prefix this node validated or proposed in the
// old view is unprepared history the new view discarded.
func (n *Node) rebaseOnView(view uint64, frontier []*protocol.Batch) {
	// Keep the prefix that survived unchanged (same digest at the same
	// position): its reservations, trees, and waiters are still exact.
	j := 0
	for j < len(n.spec) && j < len(frontier) && n.spec[j].digest == frontier[j].Digest() {
		j++
	}
	n.rollbackSpec(j)
	for _, b := range frontier[j:] {
		_, _, prevTree := n.specTail()
		slot := &specSlot{batch: b, header: b.Header(), digest: b.Digest(),
			tree: n.applyBatchToTree(prevTree, b)}
		if len(b.Committed) > 0 {
			slot.groups = 1
		}
		n.spec = append(n.spec, slot)
	}

	if n.IsLeader() {
		n.rebuildReservations()
		n.rekindleDistTxns()
	} else {
		n.dropPendingAdmissions()
	}
	n.Metrics.ViewChanges++
	n.noteProgress()
}

// rebuildReservations reconstructs the leader's pending OCC footprints
// from scratch: everything the (possibly inherited) speculative chain
// has in flight plus the unbatched admissions. A new leader starts with
// empty pending sets; a retained leader's old sets may count slots the
// frontier dropped.
func (n *Node) rebuildReservations() {
	n.pendingReads = make(keyRefs)
	n.pendingWrites = make(keyRefs)
	reserve := func(reads []protocol.ReadEntry, writes []protocol.WriteOp) {
		for _, r := range reads {
			n.pendingReads.add(r.Key)
		}
		for _, w := range writes {
			n.pendingWrites.add(w.Key)
		}
	}
	for _, s := range n.spec {
		for i := range s.batch.Local {
			t := &s.batch.Local[i]
			reserve(t.Reads, t.Writes)
		}
		for i := range s.batch.Prepared {
			t := &s.batch.Prepared[i].Txn
			reserve(n.localReads(t), n.localWrites(t))
		}
	}
	for i := range n.pendingLocal {
		t := &n.pendingLocal[i]
		reserve(t.Reads, t.Writes)
	}
	for i := range n.pendingPrepared {
		t := &n.pendingPrepared[i].Txn
		reserve(n.localReads(t), n.localWrites(t))
	}
}

// dropPendingAdmissions aborts the unbatched admissions of a deposed
// leader: their footprints were never proposed to the new view, so the
// clients must retry (against the new leader). Waiters for transactions
// already inside the surviving speculative chain are kept — delivery
// answers them presence-based.
func (n *Node) dropPendingAdmissions() {
	for i := range n.pendingLocal {
		n.failWaiter(n.pendingLocal[i].ID, "leader changed")
	}
	for i := range n.pendingPrepared {
		id := n.pendingPrepared[i].Txn.ID
		delete(n.pendingEvidence, id)
		if dt := n.distTxns[id]; dt != nil && dt.prepareBatch < 0 {
			delete(n.distTxns, id)
			delete(n.pendingDecisions, id)
		}
		n.failWaiter(id, "leader changed")
	}
	n.pendingLocal = nil
	n.pendingPrepared = nil
	n.pendingReads = make(keyRefs)
	n.pendingWrites = make(keyRefs)
}

// rekindleDistTxns re-drives every undecided distributed transaction
// whose prepare record is already durable: the crashed leader may have
// died between writing the prepare and sending the 2PC messages it owed,
// and those sends are not in the log — only the new leader can repeat
// them. Idempotent on the receiving side (participants dedup prepares,
// coordinators dedup votes per cluster).
func (n *Node) rekindleDistTxns() {
	for _, g := range n.groups {
		for _, id := range g.ids {
			dt := n.distTxns[id]
			if dt == nil || dt.decision != protocol.DecisionPending {
				continue
			}
			e := n.log.get(dt.prepareBatch)
			if e == nil || e.batch == nil {
				continue // body pruned; peers must have moved past this group
			}
			n.drivePrepared(dt, e)
		}
	}
}
