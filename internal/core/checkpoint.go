package core

import (
	"fmt"
	"sync"
	"time"

	"transedge/internal/cryptoutil"
	"transedge/internal/merkle"
	"transedge/internal/protocol"
)

// Checkpointing and state transfer (DESIGN.md §6).
//
// Every CheckpointInterval batches each replica derives a checkpoint
// digest from its post-delivery state, signs it, and broadcasts a vote.
// 2f+1 matching votes establish a *stable checkpoint*: the log window,
// Merkle versions, and store versions below it are truncated, and a
// lagging or restarted replica installs the checkpoint wholesale from
// any single (untrusted) peer, verifying every component against the
// checkpoint and consensus certificates.

// checkpointState is one checkpoint this replica has derived: the
// position, the signed state digest, the material a joiner needs
// (header, consensus certificate, open prepare groups), and the vote
// set. Once 2f+1 votes match, cert holds the relayable quorum.
type checkpointState struct {
	id         int64
	digest     protocol.Digest
	header     protocol.BatchHeader
	headerCert cryptoutil.Certificate
	groups     []protocol.CheckpointGroup
	// entries is the store export at id, and stays nil unless this replica
	// serves a state transfer from the checkpoint: derivation drops its
	// export once the digest is computed and an install does not keep the
	// slice it verified. Whichever read executor first serves a request
	// behind this (stable) checkpoint exports under exportOnce; later ones
	// share the slice, and it is freed with the checkpoint when the next
	// one turns stable. The loop never reads it. Versions visible at a
	// stable checkpoint are immutable and prune-clamped, so the late
	// export equals the one the digest was derived from.
	exportOnce sync.Once
	entries    []protocol.SnapshotEntry
	votes      map[int32][]byte // replica -> verified signature over digest
	cert       cryptoutil.Certificate
	stable     bool
}

// chkQuorum is the checkpoint quorum size: 2f+1 matching votes guarantee
// at least f+1 honest replicas hold this exact state, so at least one
// honest replica can always serve it (and the certificate can never be
// assembled for a state no honest replica has).
func (n *Node) chkQuorum() int { return 2*n.cfg.F + 1 }

// openGroups snapshots the open prepare groups (and their records, from
// distTxns) in queue order — the protocol metadata a checkpoint must
// carry beyond the store content.
func (n *Node) openGroups() []protocol.CheckpointGroup {
	out := make([]protocol.CheckpointGroup, 0, len(n.groups))
	for _, g := range n.groups {
		cg := protocol.CheckpointGroup{PrepareBatch: g.prepareBatch}
		for _, id := range g.ids {
			if dt := n.distTxns[id]; dt != nil {
				cg.Recs = append(cg.Recs, dt.rec)
			}
		}
		out = append(out, cg)
	}
	return out
}

// maybeCheckpoint runs after delivering batch id: at every checkpoint
// interval it starts deriving this replica's checkpoint. The loop
// captures what only it may read — the log entry and the open prepare
// groups, as of this delivery — and a read executor pays the O(keys)
// export and digest, pinned at id so the pruner keeps every version the
// export must see. The derived state is still a function of the certified
// prefix alone: versions at or below a delivered batch never change, so
// the export reads the same content whenever it runs.
func (n *Node) maybeCheckpoint(id int64) {
	if id%int64(n.cfg.CheckpointInterval) != 0 || id == 0 {
		return
	}
	// Not during state-transfer replay: every interval the suffix
	// crosses would otherwise pay a full store scan and broadcast votes
	// for checkpoints the live peers are already past (they discard them
	// as stale, and no quorum can ever form). The gate is the replay
	// flag, NOT the broader syncing flag: live deliveries must keep
	// checkpointing even while a sync is pending, or a byzantine peer
	// whose forged sequence numbers keep the lagging signal lit could
	// suppress checkpoint formation cluster-wide.
	if n.replaying {
		return
	}
	entry := n.log.get(id)
	if entry == nil {
		return
	}
	cs := &checkpointState{
		id:         id,
		header:     entry.header,
		headerCert: entry.cert,
		groups:     n.openGroups(),
		votes:      map[int32][]byte{},
	}
	headerDigest := entry.digest
	derive := func() {
		cs.digest = protocol.CheckpointDigest(n.cfg.Cluster, id, headerDigest,
			protocol.SnapshotDigest(n.st.ExportAsOf(id)), protocol.GroupsDigest(cs.groups))
		if n.hookDerived != nil {
			n.hookDerived(id)
		}
	}
	if n.readers.trySubmit(id, func() {
		derive()
		select {
		case n.chkDerived <- cs:
		case <-n.stop: // the loop is gone; nobody votes for this one
		}
	}) {
		return
	}
	derive()
	n.onCheckpointDerived(cs)
}

// onCheckpointDerived (loop) adopts a derived checkpoint: sign it, vote,
// and replay the votes peers sent while it was being derived. A result
// the log has moved past — an install or a truncation replaced the state
// it describes, or a newer derivation finished first — is dropped: no
// quorum this replica could still use can form for it.
func (n *Node) onCheckpointDerived(cs *checkpointState) {
	if n.log.get(cs.id) == nil ||
		(n.stable != nil && cs.id <= n.stable.id) || (n.chk != nil && cs.id <= n.chk.id) {
		return
	}
	n.chk = cs

	sig := n.cfg.Keys.Sign(cs.digest[:])
	cs.votes[n.cfg.Replica] = sig
	n.cfg.Net.Broadcast(n.self, n.peers, &protocol.Checkpoint{
		Cluster: n.cfg.Cluster, BatchID: cs.id,
		StateDigest: cs.digest, Replica: n.cfg.Replica, Sig: sig,
	})

	// Replay buffered votes for this checkpoint; drop buffers at or
	// below it (they can never become relevant again).
	for bid, votes := range n.chkVotes {
		if bid > cs.id {
			continue
		}
		if bid == cs.id {
			for _, v := range votes {
				n.recordChkVote(cs, v)
			}
		}
		delete(n.chkVotes, bid)
	}
	n.maybeStabilize(cs)
}

// onCheckpoint handles a peer's checkpoint vote. Votes for checkpoints
// we have not reached yet are buffered (bounded); votes for older
// checkpoints are stale and dropped.
func (n *Node) onCheckpoint(from NodeID, m *protocol.Checkpoint) {
	if from.Cluster != n.cfg.Cluster || m.Cluster != n.cfg.Cluster || from.Replica != m.Replica {
		return
	}
	if n.chk != nil && m.BatchID == n.chk.id {
		n.recordChkVote(n.chk, m)
		n.maybeStabilize(n.chk)
		return
	}
	// The stale floor is the newest checkpoint position we know of —
	// derived or installed. Without the stable clamp, a byzantine peer
	// could buffer one unverified vote map per interval of the whole
	// history whenever chk is nil (e.g. right after an install).
	cur := int64(0)
	if n.chk != nil {
		cur = n.chk.id
	}
	if n.stable != nil && n.stable.id > cur {
		cur = n.stable.id
	}
	interval := int64(n.cfg.CheckpointInterval)
	if m.BatchID <= cur || m.BatchID%interval != 0 {
		return
	}
	// Ahead of us: buffer until we deliver that batch ourselves, bounded
	// to the plausible near future so a byzantine peer cannot grow the
	// buffer without limit.
	if m.BatchID > n.lastBatchID()+4*interval {
		return
	}
	votes := n.chkVotes[m.BatchID]
	if votes == nil {
		votes = make(map[int32]*protocol.Checkpoint)
		n.chkVotes[m.BatchID] = votes
	}
	if _, dup := votes[m.Replica]; !dup {
		votes[m.Replica] = m
	}
}

// recordChkVote verifies and records one vote for the checkpoint this
// replica derived. Only signatures over OUR digest count — a vote for a
// different digest at the same position is simply ignored (with up to f
// faulty replicas it cannot form a quorum for a divergent state).
func (n *Node) recordChkVote(cs *checkpointState, m *protocol.Checkpoint) {
	if cs.stable || m.StateDigest != cs.digest {
		return
	}
	if _, dup := cs.votes[m.Replica]; dup {
		return
	}
	pub := n.cfg.Ring.PublicKey(NodeID{Cluster: n.cfg.Cluster, Replica: m.Replica})
	if pub == nil || !cryptoutil.Verify(pub, cs.digest[:], m.Sig) {
		return
	}
	cs.votes[m.Replica] = m.Sig
}

// maybeStabilize promotes a checkpoint to stable once it holds a 2f+1
// vote quorum, assembles the relayable certificate, and truncates
// everything below it.
func (n *Node) maybeStabilize(cs *checkpointState) {
	if cs.stable || len(cs.votes) < n.chkQuorum() {
		return
	}
	cs.stable = true
	cs.cert = cryptoutil.Certificate{Cluster: n.cfg.Cluster}
	for r := int32(0); int(r) < n.cfg.replicas(); r++ {
		if sig, ok := cs.votes[r]; ok {
			cs.cert.Signatures = append(cs.cert.Signatures, cryptoutil.Signature{
				Signer: NodeID{Cluster: n.cfg.Cluster, Replica: r}, Sig: sig,
			})
		}
	}
	n.stable = cs
	n.stableID.Store(cs.id)
	n.Metrics.CheckpointsStable++
	n.truncateBelow(cs.id)
	// Hand the quorum-backed checkpoint to the persister: once the file is
	// durable the WAL is truncated below it, and a cold restart rebuilds
	// from this state instead of replaying history from genesis.
	n.persistCheckpoint(cs)
}

// truncateBelow drops log entries, Merkle versions, and (through the
// incremental pruner, whose boundary is the window base) store versions
// below the stable checkpoint. The window base is the serving floor:
// requests for truncated snapshots are answered with the base, which is
// at least as new and still dependency-satisfying.
func (n *Node) truncateBelow(id int64) {
	dropped := n.log.truncate(id)
	n.Metrics.LogTruncated += int64(dropped)
	n.maybeCompactTrees()
	// Consensus bookkeeping below the stable base — equivocation evidence,
	// stale pre-prepares, dead instances — can never matter again either.
	n.consensus.TruncateBelow(id)
}

// arenaGrowthLimit bounds the Merkle arena's garbage (DESIGN.md §11, "Arena
// and compaction"): once the nodes appended since the arena was built or
// last compacted reach 1/arenaGrowthLimit of the nodes it then held, the
// versions still retained are copied into a fresh arena. Compaction copies
// at most arenaGrowthLimit nodes per node appended.
const arenaGrowthLimit = 8

// maybeCompactTrees compacts every Merkle version the loop holds — the
// retained window, the delivered tip and the speculative chain — once the
// arena has grown by 1/arenaGrowthLimit. Read executors still proving
// against an older version keep the old arena alive until they finish.
func (n *Node) maybeCompactTrees() {
	_, _, newest := n.specTail()
	nodes, base := newest.Arena()
	if grown := nodes - base; grown <= 0 || grown < base/arenaGrowthLimit {
		return
	}
	out := merkle.Compact(n.heldTrees())
	for i, s := range n.spec {
		s.tree = out[1+i]
	}
	i := 1 + len(n.spec)
	n.log.each(func(e *logEntry) {
		e.tree = out[i]
		i++
	})
}

// heldTrees lists every Merkle version the loop holds: the delivered tip,
// the speculative chain, then the retained window in batch order (which
// ends at the tip again; Compact maps both to one result).
func (n *Node) heldTrees() []*merkle.Tree {
	versions := make([]*merkle.Tree, 0, 1+len(n.spec)+n.log.len())
	versions = append(versions, n.log.last().tree)
	for _, s := range n.spec {
		versions = append(versions, s.tree)
	}
	n.log.each(func(e *logEntry) { versions = append(versions, e.tree) })
	return versions
}

// ---- State transfer ----

// startStateSync begins (or rotates) a state-transfer request to the
// next cluster peer.
func (n *Node) startStateSync() {
	n.syncing = true
	n.syncDeadline = time.Now().Add(n.cfg.StateTransferTimeout)
	// Rotate through peers, skipping ourselves.
	for {
		n.syncPeer = (n.syncPeer + 1) % int32(n.cfg.replicas())
		if n.syncPeer != n.cfg.Replica {
			break
		}
	}
	n.cfg.Net.Send(n.self, NodeID{Cluster: n.cfg.Cluster, Replica: n.syncPeer},
		&protocol.StateRequest{From: n.self, HaveBatch: n.lastBatchID()})
}

// maybeStateSync (tick) starts a sync when consensus traffic shows we
// are beyond live catch-up — messages are being dropped past the
// buffering window, so only a state transfer can restore liveness — and
// retries a stuck sync past its deadline.
func (n *Node) maybeStateSync() {
	if n.syncing {
		if time.Now().After(n.syncDeadline) {
			// Stop retrying once nothing newer than our tip has been
			// observed — but a recovering replica must first hear
			// "nothing newer" from f+1 distinct peers: at least one of
			// them is honest, and silence alone (the polled peer may be
			// down, or byzantine and replying empty) does not mean the
			// quiet cluster is at genesis with us.
			caughtUp := n.consensus.HighestSeen() <= n.lastBatchID()
			if caughtUp && (!n.cfg.Recovering || len(n.syncHeard) > n.cfg.F) {
				n.syncing = false
			} else {
				n.startStateSync()
			}
		}
		return
	}
	if n.consensus.Lagging() {
		n.startStateSync()
	}
}

// onStateRequest serves a peer's catch-up material. A requester behind
// the stable checkpoint gets the checkpoint (with its full snapshot)
// plus the suffix above it; a requester at or past it (the repeated-gap
// sync after an install) gets only the suffix above HaveBatch — no
// O(keys) export. Before any stable checkpoint exists, the suffix above
// HaveBatch is served on its own (CheckpointID stays < 0). Either way the
// suffix starts above the window base, and every body there is retained.
//
// The snapshot is exported by a read executor, once per stable
// checkpoint however many (unauthenticated, retry-happy) requests ask
// for it: the loop assembles everything else, and the executor attaches
// the shared export and sends.
func (n *Node) onStateRequest(m *protocol.StateRequest) {
	if m.From.Cluster != n.cfg.Cluster {
		return // state transfer is intra-cluster
	}
	resp := &protocol.StateResponse{Cluster: n.cfg.Cluster, CheckpointID: -1,
		Tip: n.lastBatchID(), View: n.consensus.CurrentView()}
	start := m.HaveBatch + 1
	var behind *checkpointState // the checkpoint whose snapshot m needs
	if cs := n.stable; cs != nil {
		resp.CheckpointID = cs.id
		resp.Header = cs.header
		resp.HeaderCert = cs.headerCert
		resp.Cert = cs.cert
		if m.HaveBatch < cs.id {
			behind = cs
			resp.Groups = cs.groups
			start = cs.id + 1
		}
	}
	for id := start; id <= n.lastBatchID(); id++ {
		e := n.log.get(id)
		if e == nil || e.batch == nil {
			resp.Suffix = nil // cannot happen above the base; stay safe
			break
		}
		resp.Suffix = append(resp.Suffix, protocol.CertifiedBatch{Batch: e.batch, Cert: e.cert})
	}
	if behind == nil {
		n.cfg.Net.Send(n.self, m.From, resp)
		return
	}
	// Pinned at the checkpoint: a newer stable checkpoint may lift the
	// pruner's clamp while the export is still queued.
	to := m.From
	serve := func() {
		behind.exportOnce.Do(func() { behind.entries = n.st.ExportAsOf(behind.id) })
		resp.Entries = behind.entries
		n.cfg.Net.Send(n.self, to, resp)
	}
	if !n.readers.trySubmit(behind.id, serve) {
		serve()
	}
}

// errSync annotates a rejected state response.
func errSync(format string, args ...any) error {
	return fmt.Errorf("core: state transfer rejected: "+format, args...)
}

// onStateResponse verifies and applies a state transfer: install the
// stable checkpoint if it is ahead of us, then replay the certified
// suffix. A response that fails any check is discarded; the retry
// deadline rotates us to another peer.
func (n *Node) onStateResponse(from NodeID, m *protocol.StateResponse) {
	if !n.syncing || m.Cluster != n.cfg.Cluster || from.Cluster != n.cfg.Cluster {
		return
	}
	// Only the peer this round actually polled may answer it. Anyone in
	// the cluster can see a sync is likely under way; accepting
	// unsolicited responses would let one byzantine replica flood empty
	// answers that close every round before the honest responder's data
	// arrives.
	if from.Replica != n.syncPeer {
		return
	}
	advanced := false
	if m.CheckpointID > n.lastBatchID() {
		if err := n.installCheckpoint(m); err != nil {
			// The snapshot failed certificate or Merkle verification: this
			// responder is useless (or lying). Rotate to another peer right
			// away instead of burning the whole deadline on it.
			n.startStateSync()
			return
		}
		advanced = true
	}
	n.replaying = true
	for i := range m.Suffix {
		cb := m.Suffix[i]
		if cb.Batch == nil || cb.Batch.ID <= n.lastBatchID() {
			continue
		}
		if err := n.replayCertified(cb); err != nil {
			break
		}
		advanced = true
	}
	n.replaying = false
	if !advanced && m.Tip > n.lastBatchID() {
		// The responder claims newer history it did not serve, or its
		// suffix failed to verify. Not evidence of being caught up: rotate
		// to another peer immediately rather than burning the rest of the
		// deadline on this one. A byzantine responder lying about its tip
		// merely keeps us politely retrying until an honest peer answers.
		n.startStateSync()
		return
	}
	if !advanced {
		// The round fetched nothing newer than our tip: whatever raised
		// the lagging signal beyond it (a forged sequence number, or
		// traffic the transfer already superseded) is not fetchable.
		// Settle the high-water mark so the signal heals instead of
		// re-triggering sync forever (genuine traffic re-raises it), and
		// close the round right away — staying in `syncing` until the
		// deadline would hand a forger a standing window in which this
		// replica skips work. A recovering replica still waits for f+1
		// distinct "nothing newer" answers (this response is exactly
		// that — a verification failure returned above, so only honest
		// emptiness or an un-actionable lie counts, and among any f+1
		// distinct answerers one is honest) before concluding the quiet
		// cluster really is at its tip.
		n.syncHeard[from.Replica] = true
		n.consensus.SettleHighestSeen(n.lastBatchID())
		if !n.cfg.Recovering || len(n.syncHeard) > n.cfg.F {
			n.syncing = false
		}
		return
	}
	// The tip moved: earlier "nothing newer" answers are stale evidence
	// for any later round, so the quorum restarts from scratch.
	clear(n.syncHeard)
	// Re-base consensus at the new tip and resume live operation. Any
	// speculative slot left over (validated ahead of the old delivery
	// point but superseded by the replay) is rolled back — revalidation
	// after the reset rebuilds the chain from the new tip. Any remaining
	// gap (batches delivered after the responder built the response
	// whose messages we missed) re-triggers a sync via the lagging
	// signal.
	n.rollbackSpec(0)
	tipEntry := n.log.last()
	n.consensus.Reset(n.log.lastID(), tipEntry.digest, tipEntry.header, tipEntry.cert)
	// Rejoin at the view the responder runs in, not view 0: without this a
	// recovered replica would reject the current leader's proposals until
	// the next view change swept it along. The field is unauthenticated —
	// a lying responder costs at most one timeout (DESIGN §7).
	n.consensus.AdoptView(m.View)
	n.syncing = false
	n.serveParked()
}

// installCheckpoint verifies and installs a stable checkpoint received
// from a peer, then persists it locally (it is the newest durable state
// this replica can prove). The loop waits for the file here: the caller
// replays the response's suffix next, and those batches may only be
// appended to a WAL already truncated up to the checkpoint — behind the
// old tip they would leave a gap that recovery cuts them off at. Installs
// are rare and already O(keys) on the loop.
func (n *Node) installCheckpoint(m *protocol.StateResponse) error {
	if err := n.installCheckpointParts(m.CheckpointID, m.Header, m.HeaderCert,
		m.Cert, m.Entries, m.Groups); err != nil {
		return err
	}
	n.Metrics.StateTransfers++
	n.persistCheckpoint(n.stable)
	n.drainPersister()
	return nil
}

// installCheckpointParts verifies a stable checkpoint against its two
// certificates and replaces this replica's state with it:
//
//  1. the f+1 consensus certificate authenticates the batch header
//     (Merkle root, CD vector, LCE) at the checkpoint position;
//  2. the 2f+1 checkpoint certificate authenticates the state digest,
//     which binds the header digest, every key's writer batch, and the
//     open prepare groups;
//  3. rebuilding the Merkle tree from the shipped entries must
//     reproduce the certified root, authenticating the values.
//
// Only after every check passes is any local state touched. Both sources
// of checkpoints — a peer's StateResponse and the local checkpoint file
// of a cold restart — go through this exact chain: disk is verified like
// an untrusted peer.
func (n *Node) installCheckpointParts(id int64, header protocol.BatchHeader,
	headerCert, cert cryptoutil.Certificate,
	entries []protocol.SnapshotEntry, groups []protocol.CheckpointGroup) error {

	h := &header
	if h.Cluster != n.cfg.Cluster || h.ID != id {
		return errSync("header position mismatch")
	}
	headerDigest := h.Digest()
	if err := cryptoutil.VerifyCertificate(n.cfg.Ring, headerCert, headerDigest[:], n.cfg.F+1); err != nil {
		return errSync("header certificate: %v", err)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Key >= entries[i].Key {
			return errSync("snapshot entries not strictly key-sorted")
		}
	}
	for i := 1; i < len(groups); i++ {
		if groups[i-1].PrepareBatch >= groups[i].PrepareBatch {
			return errSync("groups out of order")
		}
	}
	digest := protocol.CheckpointDigest(n.cfg.Cluster, id, headerDigest,
		protocol.SnapshotDigest(entries), protocol.GroupsDigest(groups))
	if err := cryptoutil.VerifyCertificate(n.cfg.Ring, cert, digest[:], n.chkQuorum()); err != nil {
		return errSync("checkpoint certificate: %v", err)
	}
	ups := make([]merkle.Update, len(entries))
	for i := range entries {
		ups[i] = merkle.Update{
			KeyHash: merkle.HashKey([]byte(entries[i].Key)),
			ValHash: merkle.HashValue(entries[i].Value),
		}
	}
	tree := merkle.Build(ups)
	if tree.Root() != h.MerkleRoot {
		return errSync("snapshot does not reproduce the certified merkle root")
	}

	// Everything verified: install. Speculative and 2PC state derived
	// from the abandoned prefix is discarded wholesale (a recovering
	// replica has none; a lagging one rebuilds from the checkpoint). A
	// persist still exporting the old state must finish first — the import
	// below would feed it a mix of both.
	n.drainPersister()
	n.rollbackSpec(0)
	n.st.ImportAsOf(id, entries)
	n.log.init(id, &logEntry{header: header, digest: headerDigest, cert: headerCert, tree: tree})
	n.tip.Store(id)
	n.pruneCursor, n.pruneBoundary, n.prunedThrough = 0, 0, 0

	n.groups = n.groups[:0]
	n.preparedReads = make(keyRefs)
	n.preparedWrites = make(keyRefs)
	n.distTxns = make(map[protocol.TxnID]*distTxn)
	n.pendingDecisions = make(map[protocol.TxnID]*protocol.CommitDecision)
	for _, cg := range groups {
		g := &group{prepareBatch: cg.PrepareBatch}
		for i := range cg.Recs {
			rec := cg.Recs[i]
			tid := rec.Txn.ID
			g.ids = append(g.ids, tid)
			n.distTxns[tid] = &distTxn{rec: rec, prepareBatch: cg.PrepareBatch}
			for _, r := range n.localReads(&rec.Txn) {
				n.preparedReads.add(r.Key)
			}
			for _, w := range n.localWrites(&rec.Txn) {
				n.preparedWrites.add(w.Key)
			}
		}
		n.groups = append(n.groups, g)
	}

	// The installed checkpoint is our stable checkpoint now: we hold its
	// certificate, so we can serve state transfers ourselves (exporting
	// from the store just imported, should anyone ask).
	n.chk = nil
	n.stable = &checkpointState{
		id: id, digest: digest, header: header,
		headerCert: headerCert, groups: groups,
		cert: cert, stable: true,
	}
	n.stableID.Store(id)
	return nil
}

// replayCertified applies one certified batch from a state-transfer
// suffix: it must extend our log position exactly (ID and PrevDigest
// chain) and carry a valid f+1 certificate over its digest; application
// then follows the exact delivery path consensus would have taken.
func (n *Node) replayCertified(cb protocol.CertifiedBatch) error {
	b := cb.Batch
	tip := n.log.last()
	if b.ID != tip.header.ID+1 {
		return errSync("suffix gap: got %d after %d", b.ID, tip.header.ID)
	}
	if b.PrevDigest != tip.digest {
		return errSync("suffix batch %d does not chain", b.ID)
	}
	d := b.Digest()
	if err := cryptoutil.VerifyCertificate(n.cfg.Ring, cb.Cert, d[:], n.cfg.F+1); err != nil {
		return errSync("suffix batch %d certificate: %v", b.ID, err)
	}
	n.Metrics.SuffixReplayed++
	n.onDeliver(cb)
	return nil
}
