package protocol

import (
	"errors"
	"fmt"

	"transedge/internal/cryptoutil"
	"transedge/internal/store"
)

// Checkpointing and state transfer (PBFT-style stable checkpoints over
// the SMR log; DESIGN.md §6).
//
// Every CheckpointInterval batches each replica derives a checkpoint
// digest from its post-delivery state — the certified batch header (which
// commits to the Merkle root over all values), the writer batch of every
// live key, and the open prepare groups — signs it, and broadcasts a
// Checkpoint vote to its cluster. 2f+1 matching votes form a *stable
// checkpoint*: proof that a quorum holds this exact state, which lets
// every replica truncate log entries below it and lets a lagging or
// restarted replica install the state wholesale from a single untrusted
// peer (verifying everything against the checkpoint certificate).

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
// writer feeds OCC validation after install, so it is covered by the
// snapshot digest; the value is authenticated separately through the
// checkpoint header's Merkle root). It is the store's export record
// itself, so a snapshot travels from ExportAsOf to the wire, the
// checkpoint file and ImportAsOf without being copied entry by entry.
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
//     (authenticates the writers and open groups the header cannot),
//   - the full store snapshot at the checkpoint, and
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

// SnapshotDigest hashes the (key, writer) pairs of a store snapshot.
// Entries must be sorted by key (the canonical export order); values are
// deliberately excluded — they are already committed to by the checkpoint
// header's Merkle root, so hashing them again at every checkpoint would
// re-hash the whole database for nothing.
func SnapshotDigest(entries []SnapshotEntry) Digest {
	h := cryptoutil.NewConcatHasher()
	h.Part([]byte("snapshot"))
	e := getEnc()
	for i := range entries {
		e.b = e.b[:0]
		e.str(entries[i].Key)
		e.i64(entries[i].Writer)
		h.Part(e.b)
	}
	putEnc(e)
	return h.Sum()
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
// position, the header digest (committing to the Merkle root and
// metadata), and the digests of the snapshot writers and open groups.
func CheckpointDigest(cluster int32, batchID int64, headerDigest, snapshotDigest, groupsDigest Digest) Digest {
	e := enc{b: make([]byte, 0, 24+12+3*32)}
	e.b = append(e.b, []byte("transedge-checkpoint-v1")...)
	e.i32(cluster)
	e.i64(batchID)
	e.digest(headerDigest)
	e.digest(snapshotDigest)
	e.digest(groupsDigest)
	return cryptoutil.Hash(e.b)
}

// ---- Canonical encoding round-trips ----
//
// The in-process transport ships Go values, but checkpoint votes and
// state requests are exactly the messages a wire transport would need
// first (they cross the trust boundary during recovery), so they get
// canonical encoders AND decoders, property-tested to round-trip.

// dec is the reading counterpart of enc: big-endian integers,
// length-prefixed bytes, with sticky error state.
type dec struct {
	b   []byte
	err error
}

var errDecShort = errors.New("protocol: encoding truncated")

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.err = errDecShort
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *dec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}

func (d *dec) i32() int32 { return int32(d.u32()) }
func (d *dec) i64() int64 { return int64(d.u64()) }

// field returns the next length-prefixed field as a sub-slice of the
// input, without copying.
func (d *dec) field() []byte {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if uint64(n) > uint64(len(d.b)) {
		d.err = errDecShort
		return nil
	}
	return d.take(int(n))
}

func (d *dec) bytes() []byte {
	b := d.field()
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// str converts straight from the input: the conversion is the one copy.
func (d *dec) str() string { return string(d.field()) }

func (d *dec) digest() Digest {
	var out Digest
	b := d.take(len(out))
	if b != nil {
		copy(out[:], b)
	}
	return out
}

func (d *dec) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("protocol: %d trailing bytes after decode", len(d.b))
	}
	return nil
}

// EncodeCheckpoint returns the canonical encoding of c.
func EncodeCheckpoint(c *Checkpoint) []byte {
	e := enc{b: make([]byte, 0, 4+8+32+4+4+len(c.Sig))}
	e.i32(c.Cluster)
	e.i64(c.BatchID)
	e.digest(c.StateDigest)
	e.i32(c.Replica)
	e.bytes(c.Sig)
	return e.b
}

// DecodeCheckpoint parses a canonical Checkpoint encoding.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	d := dec{b: b}
	c := &Checkpoint{
		Cluster:     d.i32(),
		BatchID:     d.i64(),
		StateDigest: d.digest(),
		Replica:     d.i32(),
		Sig:         d.bytes(),
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return c, nil
}

// EncodeStateRequest returns the canonical encoding of r.
func EncodeStateRequest(r *StateRequest) []byte {
	e := enc{b: make([]byte, 0, 16)}
	e.i32(r.From.Cluster)
	e.i32(r.From.Replica)
	e.i64(r.HaveBatch)
	return e.b
}

// DecodeStateRequest parses a canonical StateRequest encoding.
func DecodeStateRequest(b []byte) (*StateRequest, error) {
	d := dec{b: b}
	r := &StateRequest{}
	r.From.Cluster = d.i32()
	r.From.Replica = d.i32()
	r.HaveBatch = d.i64()
	if err := d.finish(); err != nil {
		return nil, err
	}
	return r, nil
}

// EncodeSnapshotEntry returns the canonical encoding of one snapshot
// entry (key, value, writer).
func EncodeSnapshotEntry(s *SnapshotEntry) []byte {
	e := enc{b: make([]byte, 0, 16+len(s.Key)+len(s.Value))}
	e.str(s.Key)
	e.bytes(s.Value)
	e.i64(s.Writer)
	return e.b
}

// DecodeSnapshotEntry parses a canonical SnapshotEntry encoding.
func DecodeSnapshotEntry(b []byte) (*SnapshotEntry, error) {
	d := dec{b: b}
	s := &SnapshotEntry{Key: d.str(), Value: d.bytes(), Writer: d.i64()}
	if err := d.finish(); err != nil {
		return nil, err
	}
	if len(s.Value) == 0 {
		s.Value = nil
	}
	return s, nil
}

// EncodeCheckpointGroup returns the canonical encoding of one open
// prepare group.
func EncodeCheckpointGroup(g *CheckpointGroup) []byte {
	var e enc
	e.i64(g.PrepareBatch)
	e.u32(uint32(len(g.Recs)))
	for i := range g.Recs {
		e.prepareRecord(&g.Recs[i])
	}
	return e.b
}

// DecodeCheckpointGroup parses a canonical CheckpointGroup encoding.
func DecodeCheckpointGroup(b []byte) (*CheckpointGroup, error) {
	d := dec{b: b}
	g := &CheckpointGroup{PrepareBatch: d.i64()}
	n := d.u32()
	for i := uint32(0); i < n && d.err == nil; i++ {
		g.Recs = append(g.Recs, d.prepareRecord())
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return g, nil
}

// txn parses a canonical Transaction encoding (the decoder mirror of
// enc.txn).
func (d *dec) txn() Transaction {
	t := Transaction{ID: TxnID(d.u64())}
	nr := d.u32()
	for i := uint32(0); i < nr && d.err == nil; i++ {
		t.Reads = append(t.Reads, ReadEntry{Key: d.str(), Version: d.i64()})
	}
	nw := d.u32()
	for i := uint32(0); i < nw && d.err == nil; i++ {
		t.Writes = append(t.Writes, WriteOp{Key: d.str(), Value: d.bytes()})
	}
	np := d.u32()
	for i := uint32(0); i < np && d.err == nil; i++ {
		t.Partitions = append(t.Partitions, d.i32())
	}
	return t
}

// prepareRecord parses a canonical PrepareRecord encoding.
func (d *dec) prepareRecord() PrepareRecord {
	return PrepareRecord{Txn: d.txn(), CoordCluster: d.i32()}
}

// DecodeTransaction parses a canonical Transaction encoding (the inverse
// of EncodeTransaction).
func DecodeTransaction(b []byte) (*Transaction, error) {
	d := dec{b: b}
	t := d.txn()
	if err := d.finish(); err != nil {
		return nil, err
	}
	return &t, nil
}
