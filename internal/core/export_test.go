package core

import "transedge/internal/merkle"

// Test-only access to loop-owned checkpoint state for the external
// core_test package.

// MerkleArena reports how many nodes a stopped node's Merkle arena holds
// and how many distinct nodes the versions it retains reach.
func (n *Node) MerkleArena() (nodes, reachable int) {
	_, _, newest := n.specTail()
	nodes, _ = newest.Arena()
	return nodes, merkle.Reachable(n.heldTrees())
}

// SetCheckpointHooks installs the derivation and persister hooks (either
// may be nil). Call before Start.
func (n *Node) SetCheckpointHooks(derived, persist func(id int64)) {
	n.hookDerived, n.hookPersist = derived, persist
}

// SetReadExecutors replaces the node's read-executor pool with one of
// the given size. Call before Start.
func (n *Node) SetReadExecutors(workers int) {
	n.readers.stop()
	n.readers = newReadExecutor(workers, 0)
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
