package core

import (
	"transedge/internal/merkle"
	"transedge/internal/protocol"
)

// onDeliver applies a consensus-committed batch to the replica's state:
// the storage and Merkle tree versions, the prepared-key reservations, the
// prepare-group queue, and — on the leader — the 2PC driving steps that
// become due once a batch is durably in the SMR log (steps 3, 5, and 7 of
// Fig. 3 all fire "after the batch is written").
func (n *Node) onDeliver(cb protocol.CertifiedBatch) {
	b := cb.Batch
	// Write-ahead: the certified batch reaches the log before any state
	// change below, so a crash at any point replays it on restart
	// (durability follows the group-commit fsync policy; DESIGN.md §8).
	n.walAppend(&cb)
	// Header and digest are memoized on the sealed batch: this re-reads
	// what consensus already computed instead of re-hashing the segments.
	entry := &logEntry{batch: b, header: b.Header(), digest: b.Digest(), cert: cb.Cert}

	// Retire the delivered batch from the speculative chain (the leader's
	// proposal ring / a follower's validated-ahead slots). If the log
	// diverged from the leader's chain (a slot delivered content it did
	// not propose — impossible with a healthy single leader, possible
	// across leadership changes), every speculative successor chained off
	// the divergent slot is invalid: roll the whole chain back so
	// reserved footprints are freed and clients abort instead of hanging.
	var specTree *merkle.Tree
	if len(n.spec) > 0 {
		head := n.spec[0]
		if head.batch.ID == b.ID && head.digest == entry.digest {
			specTree = head.tree
			n.spec[0] = nil
			n.spec = n.spec[1:]
		} else if n.IsLeader() {
			n.rollbackSpec(0)
		}
	}

	// Apply the batch's write sets to versioned storage.
	writes := make(map[string][]byte)
	for i := range b.Local {
		for _, w := range b.Local[i].Writes {
			writes[w.Key] = w.Value
		}
	}
	for i := range b.Committed {
		rec := &b.Committed[i]
		if rec.Decision != protocol.DecisionCommit {
			continue
		}
		for _, w := range n.localWrites(&rec.Txn) {
			writes[w.Key] = w.Value
		}
	}
	// One sharded pass per batch (each shard lock taken once); also for
	// empty write sets, so the store's StableBatch watermark tracks
	// delivery and off-loop snapshot reads at any committed batch are
	// guaranteed torn-free.
	n.st.ApplyAll(b.ID, writes)

	// Install the Merkle version computed speculatively at proposal
	// (leader) or validation (followers) time.
	entry.tree = specTree
	if specTree == nil {
		entry.tree = n.applyBatchToTree(n.log.last().tree, b)
	}
	n.log.append(entry)
	n.tip.Store(b.ID)
	n.Metrics.BatchesCommitted++

	// Local transactions are committed now (Sec. 3.2). Releases and
	// replies are NOT leader-gated: a leader deposed mid-pipeline still
	// holds the reply channels for batches it proposed (release is a
	// no-op on followers, whose pending sets are empty), and a new leader
	// that inherited the batch through a view change rebuilt the
	// reservations this delivery must drop.
	for i := range b.Local {
		t := &b.Local[i]
		n.Metrics.LocalCommitted++
		n.releasePending(t.Reads, t.Writes)
		if ch, ok := n.waiters[t.ID]; ok {
			delete(n.waiters, t.ID)
			n.reply(ch, protocol.CommitReply{
				TxnID: t.ID, Status: protocol.StatusCommitted, CommitBatch: b.ID,
			})
		}
	}

	// Prepared segment: open a new prepare group, reserve footprints, and
	// (leader) emit the 2PC messages that were gated on durability.
	if len(b.Prepared) > 0 {
		g := &group{prepareBatch: b.ID}
		for i := range b.Prepared {
			rec := b.Prepared[i]
			id := rec.Txn.ID
			reads, wr := n.localReads(&rec.Txn), n.localWrites(&rec.Txn)
			for _, r := range reads {
				n.preparedReads.add(r.Key)
			}
			for _, w := range wr {
				n.preparedWrites.add(w.Key)
			}
			dt := n.distTxns[id]
			if dt == nil {
				dt = &distTxn{rec: rec}
				n.distTxns[id] = dt
			}
			dt.prepareBatch = b.ID
			g.ids = append(g.ids, id)
			delete(n.pendingEvidence, id)
			n.releasePending(reads, wr) // moved into the prepared sets

			if n.IsLeader() {
				n.drivePrepared(dt, entry)
			}
		}
		n.groups = append(n.groups, g)
	}

	// Committed segment: the oldest prepare group is decided; release its
	// reservations and finish the transactions (step 8 of Fig. 3).
	if len(b.Committed) > 0 {
		n.groups = n.groups[1:]
		for i := range b.Committed {
			rec := &b.Committed[i]
			id := rec.Txn.ID
			if dt := n.distTxns[id]; dt != nil {
				for _, r := range n.localReads(&dt.rec.Txn) {
					n.preparedReads.release(r.Key)
				}
				for _, w := range n.localWrites(&dt.rec.Txn) {
					n.preparedWrites.release(w.Key)
				}
				// Presence-based, not leader-gated: a deposed leader
				// still holds the client's channel and must answer.
				if ch, ok := n.waiters[id]; ok {
					delete(n.waiters, id)
					status := protocol.StatusCommitted
					if rec.Decision != protocol.DecisionCommit {
						status = protocol.StatusAborted
					}
					n.reply(ch, protocol.CommitReply{
						TxnID: id, Status: status, CommitBatch: b.ID,
						Reason: reasonFor(rec.Decision),
					})
				}
				delete(n.distTxns, id)
			}
			delete(n.pendingDecisions, id)
			if rec.Decision == protocol.DecisionCommit {
				n.Metrics.DistCommitted++
			} else {
				n.Metrics.DistAborted++
			}
		}
	}

	n.noteProgress() // a delivery is exactly what the watchdog waits for
	n.maybeCheckpoint(b.ID)
	n.serveParked()
	if n.IsLeader() {
		n.maybeBuildBatch(false)
	}
}

// pruneShardsPerStep bounds how many store shards one tick prunes, so
// each tick's write-lock holds stay short and bounded.
const pruneShardsPerStep = 4

// pruneStoreStep incrementally prunes the versioned store from the
// periodic tick: a few shards per call, each holding only its own lock,
// so no tick pays a whole-keyspace stall. The pass boundary is the log
// window's base — the stable checkpoint, whose visible versions are what
// the persister and state transfers export; a checkpoint still collecting
// votes is always newer — clamped by the oldest snapshot an in-flight
// read executor is still serving, so off-loop reads never lose the
// versions under their feet (the linearizability argument is in
// DESIGN.md §5).
func (n *Node) pruneStoreStep() {
	if n.pruneCursor == 0 {
		keep := n.log.baseID()
		if m := n.readers.minActive(); m >= 0 && m < keep {
			keep = m
		}
		if keep <= n.prunedThrough {
			return
		}
		n.pruneBoundary = keep
	}
	shards := n.st.ShardCount()
	for i := 0; i < pruneShardsPerStep && n.pruneCursor < shards; i++ {
		n.st.PruneShard(n.pruneCursor, n.pruneBoundary)
		n.pruneCursor++
	}
	if n.pruneCursor >= shards {
		n.pruneCursor = 0
		n.prunedThrough = n.pruneBoundary
	}
}

func reasonFor(d protocol.Decision) string {
	if d == protocol.DecisionCommit {
		return ""
	}
	return "2PC participant voted abort"
}

// releasePending drops a footprint from the leader's pending sets once the
// batch carrying it is durable.
func (n *Node) releasePending(reads []protocol.ReadEntry, writes []protocol.WriteOp) {
	for _, r := range reads {
		n.pendingReads.release(r.Key)
	}
	for _, w := range writes {
		n.pendingWrites.release(w.Key)
	}
}
