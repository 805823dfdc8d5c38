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
	// Leader fast path: this is our own speculative proposal, already
	// derived from the very state we would re-check against. Matching the
	// full header digest — not just the Merkle root — guarantees the
	// proposal is bit-for-bit the batch we built. Both digests are
	// memoized (the slot stored its own, and b is the sealed batch we
	// proposed), so the comparison costs nothing.
	if n.IsLeader() {
		for _, slot := range n.spec {
			if slot.batch.ID != b.ID {
				continue
			}
			if slot.digest == b.Digest() {
				return nil
			}
			break
		}
	}

	// Validation runs ahead of delivery: the batch is checked against the
	// state at the end of the speculative chain, not the delivered state,
	// so pipelined slots validate (and vote) without waiting for their
	// predecessors to commit.
	prev, _, prevTree := n.specTail()

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
		groups := n.specGroupView()
		if len(groups) == 0 {
			return fmt.Errorf("%w: committed segment without an open prepare group", ErrBadBatch)
		}
		g := &groups[0]
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
			var prepared *protocol.Transaction
			if g.recs != nil {
				prepared = &g.recs[i].Txn
			} else if dt := n.distTxns[rec.Txn.ID]; dt != nil {
				prepared = &dt.rec.Txn
			} else {
				return fmt.Errorf("%w: committed record for unknown %v", ErrBadBatch, rec.Txn.ID)
			}
			if protocol.TransactionDigest(&rec.Txn) != protocol.TransactionDigest(prepared) {
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
	env := n.specConflictEnv(n.prefetchWriters(b))
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
		env.reserve(t.Reads, t.Writes)
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
		env.reserve(reads, writes)
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
	tree := n.applyBatchToTree(prevTree, b)
	if tree.Root() != b.MerkleRoot {
		return fmt.Errorf("%w: merkle root mismatch", ErrBadSegment)
	}

	// Extend the speculative chain so the next pipelined slot validates
	// against this batch's post-state. The leader's chain is extended at
	// proposal time instead (its fast path returned above; reaching here
	// as leader means the log diverged from our ring, handled at
	// delivery).
	if !n.IsLeader() {
		slot := &specSlot{batch: b, header: b.Header(), digest: b.Digest(), tree: tree}
		if len(b.Committed) > 0 {
			slot.groups = 1
		}
		n.spec = append(n.spec, slot)
	}
	return nil
}

// specGroup is one entry of the prepare-group queue as of the end of the
// speculative chain: either a delivered group (recs nil; prepared
// content lives in distTxns) or a group opened by a speculative prepared
// segment (recs holds the prepare records themselves).
type specGroup struct {
	prepareBatch int64
	ids          []protocol.TxnID
	recs         []protocol.PrepareRecord
}

// specGroupView builds the effective prepare-group queue at the end of
// the speculative chain: delivered groups minus those consumed by
// speculative committed segments, plus groups opened by speculative
// prepared segments (Def. 4.1 order is preserved — groups still commit
// strictly in prepare-batch order).
func (n *Node) specGroupView() []specGroup {
	all := make([]specGroup, 0, len(n.groups)+len(n.spec))
	for _, g := range n.groups {
		all = append(all, specGroup{prepareBatch: g.prepareBatch, ids: g.ids})
	}
	for _, s := range n.spec {
		if len(s.batch.Prepared) == 0 {
			continue
		}
		sg := specGroup{prepareBatch: s.batch.ID, recs: s.batch.Prepared}
		for i := range s.batch.Prepared {
			sg.ids = append(sg.ids, s.batch.Prepared[i].Txn.ID)
		}
		all = append(all, sg)
	}
	return all[min(n.specGroupsConsumed(), len(all)):]
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

// specConflictEnv builds the conflict environment as of the end of the
// speculative chain: the delivered store (read through storeWriter,
// typically a prefetched batch of last-writer lookups) overlaid with
// speculative writes, and the prepared footprints adjusted by speculative
// prepared and committed segments. With an empty chain this is exactly
// the delivered state.
func (n *Node) specConflictEnv(storeWriter func(string) int64) *conflictEnv {
	if storeWriter == nil {
		storeWriter = n.st.LastWriter
	}
	env := &conflictEnv{
		lastWriter:     storeWriter,
		pendingReads:   make(keyRefs),
		pendingWrites:  make(keyRefs),
		preparedReads:  n.preparedReads,
		preparedWrites: n.preparedWrites,
	}
	if len(n.spec) == 0 {
		return env
	}
	writer := make(map[string]int64)
	prepReads, prepWrites := n.preparedReads.clone(), n.preparedWrites.clone()
	for _, s := range n.spec {
		sb := s.batch
		for i := range sb.Local {
			for _, w := range sb.Local[i].Writes {
				writer[w.Key] = sb.ID
			}
		}
		for i := range sb.Committed {
			rec := &sb.Committed[i]
			for _, r := range n.localReads(&rec.Txn) {
				prepReads.release(r.Key)
			}
			for _, w := range n.localWrites(&rec.Txn) {
				prepWrites.release(w.Key)
				if rec.Decision == protocol.DecisionCommit {
					writer[w.Key] = sb.ID
				}
			}
		}
		for i := range sb.Prepared {
			t := &sb.Prepared[i].Txn
			for _, r := range n.localReads(t) {
				prepReads.add(r.Key)
			}
			for _, w := range n.localWrites(t) {
				prepWrites.add(w.Key)
			}
		}
	}
	env.lastWriter = func(key string) int64 {
		if v, ok := writer[key]; ok {
			return v
		}
		return storeWriter(key)
	}
	env.preparedReads, env.preparedWrites = prepReads, prepWrites
	return env
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
func (n *Node) applyBatchToTree(tree *merkle.Tree, b *protocol.Batch) *merkle.Tree {
	var ups []merkle.Update
	add := func(writes []protocol.WriteOp) {
		for _, w := range writes {
			ups = append(ups, merkle.Update{KeyHash: merkle.HashKey([]byte(w.Key)), ValHash: merkle.HashValue(w.Value)})
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
