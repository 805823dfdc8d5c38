package protocol

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"transedge/internal/cryptoutil"
)

// On-disk record codecs for the durability layer (DESIGN.md §8). The WAL
// stores certified batches; the checkpoint file stores a DurableCheckpoint.
// Both reuse the canonical big-endian length-prefixed encoding every
// signed artifact already uses, so the bytes a replica persists are the
// bytes its peers would sign.
//
// The batch codec deliberately excludes the evidence maps
// (PrepareEvidence/CommitEvidence): they are not covered by the header
// digest — the f+1 certificate attests that a quorum verified them before
// voting — and recovery replays batches through the same certificate
// check as peer state transfer, which needs only the segments the header
// commits to. Re-persisting evidence would bloat every WAL record with
// proofs that can never be re-checked more strongly than the certificate
// already proves.

// batchCodecVersion tags the on-disk batch encoding.
const batchCodecVersion = 1

// durableCheckpointTag is the domain tag of the checkpoint file payload.
const durableCheckpointTag = "transedge-durable-checkpoint-v1"

// cd parses a canonical CDVector encoding (the decoder mirror of enc.cd).
func (d *dec) cd() CDVector {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if uint64(n)*8 > uint64(len(d.b)) {
		d.err = errDecShort
		return nil
	}
	v := make(CDVector, 0, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		v = append(v, d.i64())
	}
	return v
}

// commitRecord parses a canonical CommitRecord encoding.
func (d *dec) commitRecord() CommitRecord {
	r := CommitRecord{Txn: d.txn(), Decision: Decision(d.u8())}
	n := d.u32()
	for i := uint32(0); i < n && d.err == nil; i++ {
		r.ReportedCDs = append(r.ReportedCDs, d.cd())
	}
	return r
}

// EncodeCertificate returns the canonical encoding of c (the enc.cert
// helper from the view-change codecs, exposed for on-disk use).
func EncodeCertificate(c *cryptoutil.Certificate) []byte {
	var e enc
	e.cert(c)
	return e.b
}

// DecodeCertificate parses a canonical Certificate encoding.
func DecodeCertificate(b []byte) (*cryptoutil.Certificate, error) {
	d := dec{b: b}
	c := d.cert()
	if err := d.finish(); err != nil {
		return nil, err
	}
	return &c, nil
}

// batch appends the canonical on-disk encoding of b (segments and
// read-only section; no evidence, no memo).
func (e *enc) batch(b *Batch) {
	e.u8(batchCodecVersion)
	e.i32(b.Cluster)
	e.i64(b.ID)
	e.digest(b.PrevDigest)
	e.i64(b.Timestamp)
	e.u32(uint32(len(b.Local)))
	for i := range b.Local {
		e.txn(&b.Local[i])
	}
	e.u32(uint32(len(b.Prepared)))
	for i := range b.Prepared {
		e.prepareRecord(&b.Prepared[i])
	}
	e.u32(uint32(len(b.Committed)))
	for i := range b.Committed {
		e.commitRecord(&b.Committed[i])
	}
	e.cd(b.CD)
	e.i64(b.LCE)
	e.digest(b.MerkleRoot)
}

// batch parses the canonical on-disk Batch encoding. The result is
// sealed: its memoized digest is what recovery verifies the certificate
// against.
func (d *dec) batch() *Batch {
	if v := d.u8(); d.err == nil && v != batchCodecVersion {
		d.err = fmt.Errorf("protocol: batch codec version %d unsupported", v)
		return nil
	}
	b := &Batch{
		Cluster:    d.i32(),
		ID:         d.i64(),
		PrevDigest: d.digest(),
		Timestamp:  d.i64(),
	}
	nl := d.u32()
	for i := uint32(0); i < nl && d.err == nil; i++ {
		b.Local = append(b.Local, d.txn())
	}
	np := d.u32()
	for i := uint32(0); i < np && d.err == nil; i++ {
		b.Prepared = append(b.Prepared, d.prepareRecord())
	}
	nc := d.u32()
	for i := uint32(0); i < nc && d.err == nil; i++ {
		b.Committed = append(b.Committed, d.commitRecord())
	}
	b.CD = d.cd()
	b.LCE = d.i64()
	b.MerkleRoot = d.digest()
	return b
}

// EncodeBatch returns the canonical on-disk encoding of b.
func EncodeBatch(b *Batch) []byte {
	var e enc
	e.batch(b)
	return e.b
}

// DecodeBatch parses a canonical on-disk Batch encoding and seals the
// result.
func DecodeBatch(buf []byte) (*Batch, error) {
	d := dec{b: buf}
	b := d.batch()
	if err := d.finish(); err != nil {
		return nil, err
	}
	return b.Seal(), nil
}

// EncodeCertifiedBatch returns the canonical WAL record payload for cb:
// the batch followed by its f+1 consensus certificate.
func EncodeCertifiedBatch(cb *CertifiedBatch) []byte {
	var e enc
	e.batch(cb.Batch)
	e.cert(&cb.Cert)
	return e.b
}

// DecodeCertifiedBatch parses a canonical CertifiedBatch encoding. The
// certificate is NOT verified here — recovery verifies it against the
// recomputed batch digest exactly like a state-transfer suffix.
func DecodeCertifiedBatch(buf []byte) (*CertifiedBatch, error) {
	d := dec{b: buf}
	b := d.batch()
	cert := d.cert()
	if err := d.finish(); err != nil {
		return nil, err
	}
	return &CertifiedBatch{Batch: b.Seal(), Cert: cert}, nil
}

// DurableCheckpoint is the checkpoint-file payload: everything a replica
// needs to rebuild its state from disk and prove to itself (and, after
// install, to peers) that the rebuilt state is the certified one. It is
// deliberately the same material a StateResponse carries minus the
// suffix — the WAL is the suffix.
type DurableCheckpoint struct {
	Cluster      int32
	CheckpointID int64
	// View is the consensus view this replica was in when it persisted
	// the checkpoint; recovery rejoins at least there. Local-trust only
	// (a replica cannot forge its own disk against itself).
	View       uint64
	Header     BatchHeader
	HeaderCert cryptoutil.Certificate // f+1 over the header digest
	Cert       cryptoutil.Certificate // 2f+1 over the checkpoint state digest
	Entries    []SnapshotEntry        // sorted by key
	Groups     []CheckpointGroup      // ascending PrepareBatch
}

// certSize returns the exact canonical encoding length of c.
func certSize(c *cryptoutil.Certificate) int {
	n := 4 + 4
	for _, s := range c.Signatures {
		n += 4 + 4 + 4 + len(s.Sig)
	}
	return n
}

// EncodeDurableCheckpoint returns the canonical checkpoint-file payload.
func EncodeDurableCheckpoint(c *DurableCheckpoint) []byte {
	return encodeDurableCheckpoint(c, 0)
}

// durableCheckpointFrame is the checkpoint file's frame header: the
// big-endian IEEE CRC-32 of the payload that follows it.
const durableCheckpointFrame = 4

// EncodeDurableCheckpointFile returns the checkpoint file image: the
// payload behind its CRC frame.
func EncodeDurableCheckpointFile(c *DurableCheckpoint) []byte {
	buf := encodeDurableCheckpoint(c, durableCheckpointFrame)
	binary.BigEndian.PutUint32(buf, crc32.ChecksumIEEE(buf[durableCheckpointFrame:]))
	return buf
}

// DecodeDurableCheckpointFile checks a checkpoint file image's frame and
// parses the payload behind it.
func DecodeDurableCheckpointFile(raw []byte) (*DurableCheckpoint, error) {
	if len(raw) < durableCheckpointFrame {
		return nil, errDecShort
	}
	payload := raw[durableCheckpointFrame:]
	if binary.BigEndian.Uint32(raw) != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("protocol: durable checkpoint CRC mismatch")
	}
	return DecodeDurableCheckpoint(payload)
}

// encodeDurableCheckpoint encodes the payload behind reserve zero bytes
// for the file frame. A payload is the whole keyspace, so the buffer is
// sized exactly up front: one allocation, no append growth, and no copy
// to prepend the frame.
func encodeDurableCheckpoint(c *DurableCheckpoint, reserve int) []byte {
	header := c.Header.Encode()
	size := reserve + len(durableCheckpointTag) + 4 + 8 + 8 +
		4 + len(header) + certSize(&c.HeaderCert) + certSize(&c.Cert) + 4 + 4
	for i := range c.Entries {
		size += 4 + len(c.Entries[i].Key) + 4 + len(c.Entries[i].Value) + 8
	}
	for i := range c.Groups {
		size += 8 + 4
		for j := range c.Groups[i].Recs {
			size += transactionSize(&c.Groups[i].Recs[j].Txn) + 4
		}
	}
	e := enc{b: make([]byte, reserve, size)}
	e.b = append(e.b, durableCheckpointTag...)
	e.i32(c.Cluster)
	e.i64(c.CheckpointID)
	e.u64(c.View)
	e.bytes(header)
	e.cert(&c.HeaderCert)
	e.cert(&c.Cert)
	e.u32(uint32(len(c.Entries)))
	for i := range c.Entries {
		s := &c.Entries[i]
		e.str(s.Key)
		e.bytes(s.Value)
		e.i64(s.Writer)
	}
	e.u32(uint32(len(c.Groups)))
	for i := range c.Groups {
		g := &c.Groups[i]
		e.i64(g.PrepareBatch)
		e.u32(uint32(len(g.Recs)))
		for j := range g.Recs {
			e.prepareRecord(&g.Recs[j])
		}
	}
	return e.b
}

// DecodeDurableCheckpoint parses a canonical checkpoint-file payload.
// Certificates and the Merkle rebuild are verified by the caller, exactly
// like a peer state transfer.
func DecodeDurableCheckpoint(buf []byte) (*DurableCheckpoint, error) {
	d := dec{b: buf}
	if tag := d.take(len(durableCheckpointTag)); d.err == nil && string(tag) != durableCheckpointTag {
		return nil, fmt.Errorf("protocol: bad durable checkpoint tag")
	}
	c := &DurableCheckpoint{
		Cluster:      d.i32(),
		CheckpointID: d.i64(),
		View:         d.u64(),
	}
	hb := d.bytes()
	if d.err == nil {
		h, err := DecodeBatchHeader(hb)
		if err != nil {
			return nil, err
		}
		c.Header = *h
	}
	c.HeaderCert = d.cert()
	c.Cert = d.cert()
	ne := d.u32()
	for i := uint32(0); i < ne && d.err == nil; i++ {
		c.Entries = append(c.Entries, SnapshotEntry{Key: d.str(), Value: d.bytes(), Writer: d.i64()})
	}
	ng := d.u32()
	for i := uint32(0); i < ng && d.err == nil; i++ {
		g := CheckpointGroup{PrepareBatch: d.i64()}
		nr := d.u32()
		for j := uint32(0); j < nr && d.err == nil; j++ {
			g.Recs = append(g.Recs, d.prepareRecord())
		}
		c.Groups = append(c.Groups, g)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return c, nil
}
