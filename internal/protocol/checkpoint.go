package protocol

import (
	"encoding/binary"

	"transedge/internal/cryptoutil"
	"transedge/internal/store"
)

// Checkpointing and state transfer (PBFT-style stable checkpoints over
// the SMR log; DESIGN.md §6).
//
// Every CheckpointInterval batches each replica derives a checkpoint
// digest from its post-delivery state — the certified batch header (whose
// Merkle root commits to every key's value and writer batch) and the open
// prepare groups — signs it, and broadcasts a Checkpoint vote to its
// cluster. 2f+1 matching votes form a *stable checkpoint*: proof that a
// quorum holds this exact state, which lets every replica truncate log
// entries below it and lets a lagging or restarted replica install the
// state wholesale from a single untrusted peer (verifying everything
// against the checkpoint certificate).

// Checkpoint is one replica's signed checkpoint vote, broadcast within
// the cluster after delivering a checkpoint-interval batch. Sig is the
// replica's Ed25519 signature over StateDigest, so 2f+1 collected votes
// double as a relayable certificate.
type Checkpoint struct {
	Cluster     int32
	BatchID     int64
	StateDigest Digest
	Replica     int32
	Sig         []byte
}

// StateRequest asks a cluster peer for its latest stable checkpoint and
// the delivered log suffix above it. HaveBatch is the newest batch the
// requester already holds, so the responder can trim the suffix.
type StateRequest struct {
	From      cryptoutil.NodeID
	HaveBatch int64
}

// SnapshotEntry is one key's state in an exported store snapshot: the
// value visible at the checkpoint batch and the batch that wrote it (the
// writer feeds OCC validation after install). The checkpoint header's
// Merkle root authenticates both: each leaf binds LeafValue(Writer,
// Value). It is the store's export record
// itself, so a snapshot travels from ExportAsOf to the state-transfer
// reply, the checkpoint file and ImportAsOf without being copied entry
// by entry.
type SnapshotEntry = store.KV

// CheckpointGroup is one open prepare group at the checkpoint: the batch
// that opened it and its prepare records, in batch order. A joining
// replica rebuilds the prepared-footprint reservations and the group
// queue from these.
type CheckpointGroup struct {
	PrepareBatch int64
	Recs         []PrepareRecord
}

// StateResponse carries everything a replica needs to install a stable
// checkpoint and replay the delivered suffix:
//
//   - the checkpoint batch header with its f+1 consensus certificate
//     (authenticates the Merkle root, CD vector and LCE),
//   - the 2f+1 checkpoint certificate over the state digest
//     (authenticates the open groups the header cannot),
//   - the full store snapshot at the checkpoint, whose values and writers
//     must rebuild the header's Merkle root, and
//   - the certified batches delivered after it.
//
// An empty response (CheckpointID < 0) means the responder has no stable
// checkpoint yet; the requester retries after StateTransferTimeout.
type StateResponse struct {
	Cluster      int32
	CheckpointID int64
	// Tip is the responder's newest delivered batch. It distinguishes
	// "nothing newer than what you have" (Tip <= requester's tip) from
	// "newer history exists but is unservable right now" (bodies pruned
	// before the first stable checkpoint formed) — the requester keeps
	// retrying in the latter case instead of concluding it caught up.
	Tip        int64
	Header     BatchHeader
	HeaderCert cryptoutil.Certificate
	Cert       cryptoutil.Certificate // 2f+1 over the checkpoint state digest
	Entries    []SnapshotEntry        // sorted by key
	Groups     []CheckpointGroup      // ascending PrepareBatch
	Suffix     []CertifiedBatch       // delivered batches in (CheckpointID, tip]
	// View is the responder's current consensus view, so a replica that
	// recovers through state transfer rejoins at the view the cluster
	// actually runs in instead of view 0. Unauthenticated: a lying
	// responder can at worst cause a bounded liveness hiccup (DESIGN §7).
	View uint64
}

// LeafValue appends to dst the bytes a key's Merkle leaf commits to as its
// value: the writer batch (big-endian) followed by the value. The leaf's
// value-hash slot is merkle.HashValue of these bytes, so a certified root
// authenticates which batch wrote each key as well as what it holds — the
// one structure that both a verified read and a checkpoint install check.
func LeafValue(dst []byte, writer int64, value []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(writer))
	return append(dst, value...)
}

// GroupsDigest hashes the open prepare groups of a checkpoint, covering
// the full prepare-record content so a state-transfer source cannot feed
// a joiner forged reservations.
func GroupsDigest(groups []CheckpointGroup) Digest {
	h := cryptoutil.NewConcatHasher()
	h.Part([]byte("groups"))
	e := getEnc()
	for i := range groups {
		e.b = e.b[:0]
		e.i64(groups[i].PrepareBatch)
		e.u32(uint32(len(groups[i].Recs)))
		for j := range groups[i].Recs {
			e.prepareRecord(&groups[i].Recs[j])
		}
		h.Part(e.b)
	}
	putEnc(e)
	return h.Sum()
}

// CheckpointDigest derives the signed checkpoint state digest: the batch
// position, the header digest (committing to the Merkle root, and through
// it to every key's value and writer, and to the metadata), and the
// digest of the open groups. It costs O(groups), never O(keys).
func CheckpointDigest(cluster int32, batchID int64, headerDigest, groupsDigest Digest) Digest {
	e := enc{b: make([]byte, 0, 24+12+2*32)}
	e.b = append(e.b, []byte("transedge-checkpoint-v2")...)
	e.i32(cluster)
	e.i64(batchID)
	e.digest(headerDigest)
	e.digest(groupsDigest)
	return cryptoutil.Hash(e.b)
}
