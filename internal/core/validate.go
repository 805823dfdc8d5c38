package core

import (
	"errors"
	"fmt"
	"time"

	"transedge/internal/merkle"
	"transedge/internal/protocol"
)

// Validation errors (wrapped with context).
var (
	ErrBadBatch    = errors.New("core: invalid batch")
	ErrBadEvidence = errors.New("core: invalid commit evidence")
	ErrBadSegment  = errors.New("core: read-only segment mismatch")
)

// validateBatch is the consensus content check: every replica re-derives
// the batch's effects from its own state before voting, so a byzantine
// leader cannot certify a batch that violates conflict detection, the
// ordering constraint, Algorithm 1, or the Merkle root (paper Sec. 3.2:
// "other replicas ... ensure that the local transactions are in fact
// allowed to commit using the rules above").
func (n *Node) validateBatch(b *protocol.Batch) error {
	// Leader fast path: this is our own proposal, already derived from
	// the very state we would re-check against. Matching the full header
	// digest — not just the Merkle root — guarantees the proposal is
	// bit-for-bit the batch we built. Both digests are memoized (the slot
	// stored its own, and b is the sealed batch we proposed), so the
	// comparison costs nothing.
	if s := n.spec; s != nil && n.IsLeader() && s.batch.ID == b.ID && s.digest == b.Digest() {
		return nil
	}

	// Consensus validates a slot only once its predecessor is delivered
	// here (bft's validation window of one), so the batch is checked
	// against the delivered state.
	tip := n.log.last()
	prev := &tip.header

	if b.Cluster != n.cfg.Cluster {
		return fmt.Errorf("%w: foreign cluster %d", ErrBadBatch, b.Cluster)
	}
	if want := prev.ID + 1; b.ID != want {
		return fmt.Errorf("%w: batch ID %d, want %d", ErrBadBatch, b.ID, want)
	}
	if len(b.CD) != n.cfg.Clusters {
		return fmt.Errorf("%w: CD vector has %d entries, want %d", ErrBadSegment, len(b.CD), n.cfg.Clusters)
	}
	if w := n.cfg.FreshnessWindow; w > 0 {
		// Freshness (Sec. 4.4.2): a leader cannot timestamp batches
		// outside the configured window of the replicas' clocks.
		skew := time.Duration(time.Now().UnixNano() - b.Timestamp)
		if skew < 0 {
			skew = -skew
		}
		if skew > w {
			return fmt.Errorf("%w: timestamp outside freshness window (%v)", ErrBadBatch, skew)
		}
	}

	// --- Committed segment: ordering constraint + decision evidence ---
	if len(b.Committed) > 0 {
		if len(n.groups) == 0 {
			return fmt.Errorf("%w: committed segment without an open prepare group", ErrBadBatch)
		}
		g := n.groups[0]
		if len(b.Committed) != len(g.ids) {
			return fmt.Errorf("%w: committed segment has %d records, oldest group has %d",
				ErrBadBatch, len(b.Committed), len(g.ids))
		}
		if b.LCE != g.prepareBatch {
			return fmt.Errorf("%w: LCE %d, want prepare batch %d", ErrBadSegment, b.LCE, g.prepareBatch)
		}
		for i := range b.Committed {
			rec := &b.Committed[i]
			if rec.Txn.ID != g.ids[i] {
				return fmt.Errorf("%w: committed record %d is %v, group expects %v (Def. 4.1 order)",
					ErrBadBatch, i, rec.Txn.ID, g.ids[i])
			}
			dt := n.distTxns[rec.Txn.ID]
			if dt == nil {
				return fmt.Errorf("%w: committed record for unknown %v", ErrBadBatch, rec.Txn.ID)
			}
			if protocol.TransactionDigest(&rec.Txn) != protocol.TransactionDigest(&dt.rec.Txn) {
				return fmt.Errorf("%w: committed record content differs from prepared %v", ErrBadBatch, rec.Txn.ID)
			}
			if err := n.validateCommitRecord(rec, b.CommitEvidence[rec.Txn.ID]); err != nil {
				return err
			}
		}
	} else if b.LCE != prev.LCE {
		return fmt.Errorf("%w: LCE changed to %d without a committed segment", ErrBadSegment, b.LCE)
	}

	// --- Local and prepared segments: conflict detection (Def. 3.1) ---
	env := &conflictEnv{lastWriter: n.prefetchWriters(b), pending: newFootprint(), prepared: n.prepared}
	part := n.cfg.partitioner()
	for i := range b.Local {
		t := &b.Local[i]
		if !t.IsLocal() {
			return fmt.Errorf("%w: distributed txn %v in local segment", ErrBadBatch, t.ID)
		}
		for _, r := range t.Reads {
			if part.Of(r.Key) != n.cfg.Cluster {
				return fmt.Errorf("%w: local txn %v reads foreign key %q", ErrBadBatch, t.ID, r.Key)
			}
		}
		for _, w := range t.Writes {
			if part.Of(w.Key) != n.cfg.Cluster {
				return fmt.Errorf("%w: local txn %v writes foreign key %q", ErrBadBatch, t.ID, w.Key)
			}
		}
		if err := env.check(t.Reads, t.Writes); err != nil {
			return err
		}
		env.pending.add(t.Reads, t.Writes)
	}
	for i := range b.Prepared {
		rec := &b.Prepared[i]
		if rec.Txn.IsLocal() {
			return fmt.Errorf("%w: local txn %v in prepared segment", ErrBadBatch, rec.Txn.ID)
		}
		reads, writes := n.localReads(&rec.Txn), n.localWrites(&rec.Txn)
		if err := env.check(reads, writes); err != nil {
			return err
		}
		env.pending.add(reads, writes)
		if rec.CoordCluster != n.cfg.Cluster {
			// Authenticity of foreign-coordinated prepares (Sec. 3.3.3:
			// "each replica ... verifies the authenticity of the prepare
			// record").
			ev := b.PrepareEvidence[rec.Txn.ID]
			if ev == nil {
				return fmt.Errorf("%w: prepare %v lacks coordinator evidence", ErrBadEvidence, rec.Txn.ID)
			}
			coord, err := n.provenPrepare(ev, rec.CoordCluster, rec.Txn.ID)
			if err != nil {
				return fmt.Errorf("%w: prepare %v %v", ErrBadEvidence, rec.Txn.ID, err)
			}
			if coord.CoordCluster != rec.CoordCluster ||
				protocol.TransactionDigest(&coord.Txn) != protocol.TransactionDigest(&rec.Txn) {
				return fmt.Errorf("%w: prepare %v content differs from coordinator's", ErrBadEvidence, rec.Txn.ID)
			}
		}
	}

	// --- Read-only segment: Algorithm 1 and the Merkle root ---
	wantCD := n.deriveCD(prev.CD, b)
	for i, x := range wantCD {
		if b.CD[i] != x {
			return fmt.Errorf("%w: CD vector %v, want %v", ErrBadSegment, b.CD, wantCD)
		}
	}
	tree := n.applyBatchToTree(tip.tree, b)
	if tree.Root() != b.MerkleRoot {
		return fmt.Errorf("%w: merkle root mismatch", ErrBadSegment)
	}

	// A follower holds the validated batch until delivery installs its
	// tree. The leader's slot is its own proposal (its fast path returned
	// above; reaching here as leader means the log diverged from it,
	// which delivery reconciles).
	if !n.IsLeader() {
		n.spec = &specSlot{batch: b, digest: b.Digest(), tree: tree}
	}
	return nil
}

// prefetchWriters resolves the last-writer batch of every read key the
// batch validates against in one sharded pass (each store shard locked
// once), so the per-key checks below never take a lock. Keys outside the
// prefetch fall back to single-key lookups.
func (n *Node) prefetchWriters(b *protocol.Batch) func(string) int64 {
	var keys []string
	for i := range b.Local {
		for _, r := range b.Local[i].Reads {
			keys = append(keys, r.Key)
		}
	}
	for i := range b.Prepared {
		for _, r := range n.localReads(&b.Prepared[i].Txn) {
			keys = append(keys, r.Key)
		}
	}
	if len(keys) == 0 {
		return n.st.LastWriter
	}
	writers := n.st.LastWriters(keys)
	m := make(map[string]int64, len(keys))
	for i, k := range keys {
		m[k] = writers[i]
	}
	return func(key string) int64 {
		if w, ok := m[key]; ok {
			return w
		}
		return n.st.LastWriter(key)
	}
}

// validateCommitRecord checks one committed-segment record against its
// vote evidence: a commit needs a verified positive vote from every
// accessed partition, and the declared ReportedCDs must be exactly the CD
// vectors of those votes' prepare-batch headers (which Algorithm 1 then
// folds into the batch CD vector).
func (n *Node) validateCommitRecord(rec *protocol.CommitRecord, votes []protocol.PreparedVote) error {
	if rec.Decision == protocol.DecisionAbort {
		if len(rec.ReportedCDs) != 0 {
			return fmt.Errorf("%w: aborted %v declares dependencies", ErrBadEvidence, rec.Txn.ID)
		}
		for i := range votes {
			if votes[i].Vote == protocol.DecisionAbort {
				return nil
			}
		}
		return fmt.Errorf("%w: abort of %v without an abort vote", ErrBadEvidence, rec.Txn.ID)
	}
	if !n.justified(rec.Decision, votes, &rec.Txn) {
		return fmt.Errorf("%w: commit of %v not justified by votes", ErrBadEvidence, rec.Txn.ID)
	}
	if len(rec.ReportedCDs) != len(votes) {
		return fmt.Errorf("%w: %v reports %d CDs for %d votes", ErrBadEvidence, rec.Txn.ID, len(rec.ReportedCDs), len(votes))
	}
	for i := range votes {
		want := votes[i].Proof.Header.CD
		got := rec.ReportedCDs[i]
		if len(want) != len(got) {
			return fmt.Errorf("%w: %v reported CD %d length mismatch", ErrBadEvidence, rec.Txn.ID, i)
		}
		for j := range want {
			if want[j] != got[j] {
				return fmt.Errorf("%w: %v reported CD %d differs from vote header", ErrBadEvidence, rec.Txn.ID, i)
			}
		}
	}
	return nil
}

// justified reports whether a decision is supported by the votes; shared
// by participant leaders (onCommitDecision) and batch validation.
func (n *Node) justified(decision protocol.Decision, votes []protocol.PreparedVote, txn *protocol.Transaction) bool {
	if decision == protocol.DecisionAbort {
		for i := range votes {
			if votes[i].Vote == protocol.DecisionAbort {
				return true
			}
		}
		return false
	}
	byPart := make(map[int32]*protocol.PreparedVote, len(votes))
	for i := range votes {
		byPart[votes[i].FromCluster] = &votes[i]
	}
	for _, part := range txn.Partitions {
		v := byPart[part]
		if v == nil || v.Vote != protocol.DecisionCommit || v.TxnID != txn.ID {
			return false
		}
		if part == n.cfg.Cluster {
			continue // our own prepare group is local ground truth
		}
		if !n.validVote(v, txn) {
			return false
		}
	}
	return true
}

// applyBatchToTree returns the Merkle tree version after this batch: the
// previous version plus the write sets of local transactions and of
// committed (positively decided) distributed transactions on this shard,
// merged in one bulk pass so each touched trie node hashes exactly once.
// The updates are listed in write order, and ApplyBulk keeps the last
// occurrence of a key: later writes of the same key within the batch win.
// Every leaf names b as its writer, as the store's ApplyAll records it.
func (n *Node) applyBatchToTree(tree *merkle.Tree, b *protocol.Batch) *merkle.Tree {
	var ups []merkle.Update
	var leaf []byte
	add := func(writes []protocol.WriteOp) {
		for _, w := range writes {
			leaf = protocol.LeafValue(leaf[:0], b.ID, w.Value)
			ups = append(ups, merkle.Update{KeyHash: merkle.HashKey([]byte(w.Key)), ValHash: merkle.HashValue(leaf)})
		}
	}
	for i := range b.Local {
		add(b.Local[i].Writes)
	}
	for i := range b.Committed {
		rec := &b.Committed[i]
		if rec.Decision == protocol.DecisionCommit {
			add(n.localWrites(&rec.Txn))
		}
	}
	return tree.ApplyBulk(ups)
}
