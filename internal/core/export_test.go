package core

import "transedge/internal/merkle"

// Test-only access to loop-owned checkpoint state for the external
// core_test package.

// MerkleArena reports how many nodes a stopped node's Merkle arena holds
// and how many distinct nodes the versions it retains reach.
func (n *Node) MerkleArena() (nodes, reachable int) {
	nodes, _ = n.log.last().tree.Arena()
	return nodes, merkle.Reachable(n.heldTrees())
}

// SetPersistHook installs a hook the persister runs once a checkpoint
// file image is encoded, before it is written. Call before Start.
func (n *Node) SetPersistHook(persist func(id int64)) { n.hookPersist = persist }

// LogRecords exports the node's retained log window in batch order.
// After checkpoint truncation it starts at the window base, not at
// genesis; VerifyLog anchors at whichever record comes first. Call after
// Stop.
func (n *Node) LogRecords() []LogRecord {
	var rec []LogRecord
	n.log.each(func(e *logEntry) {
		cert, _ := n.certificate(e)
		rec = append(rec, LogRecord{Header: e.header, Cert: cert})
	})
	return rec
}

// VersionCount reports how many versions of key the node's store retains.
func (n *Node) VersionCount(key string) int { return n.st.VersionCount(key) }

// CheckpointView is what a stopped node's checkpoint slots hold: the
// position of each (-1 = empty) and whether it retains a store export.
type CheckpointView struct {
	ChkID, StableID         int64
	ChkExport, StableExport bool
}

// Checkpoints reads the node's checkpoint slots. Call after Stop.
func (n *Node) Checkpoints() CheckpointView {
	v := CheckpointView{ChkID: -1, StableID: -1}
	if n.chk != nil {
		v.ChkID, v.ChkExport = n.chk.id, n.chk.entries != nil
	}
	if n.stable != nil {
		v.StableID, v.StableExport = n.stable.id, n.stable.entries != nil
	}
	return v
}
