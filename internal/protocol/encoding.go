package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"transedge/internal/cryptoutil"
)

// The canonical binary encoding. Every byte string a replica signs, stores
// or measures goes through enc; the stored ones (the WAL record and the
// checkpoint file) are read back through dec. The in-process transport
// ships Go values, so no other message has a codec.

// enc is an append-only canonical binary encoder. All integers are
// big-endian and all variable-length fields are length-prefixed, so two
// logically equal values always serialize to identical bytes.
type enc struct{ b []byte }

// encPool recycles encoder buffers across the section-digest hot path, so
// hashing a batch does not allocate one intermediate slice per record.
var encPool = sync.Pool{New: func() any { return &enc{b: make([]byte, 0, 1024)} }}

func getEnc() *enc {
	e := encPool.Get().(*enc)
	e.b = e.b[:0]
	return e
}

func putEnc(e *enc) { encPool.Put(e) }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *enc) i32(v int32)  { e.u32(uint32(v)) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) bytes(v []byte) {
	e.u32(uint32(len(v)))
	e.b = append(e.b, v...)
}
func (e *enc) str(v string) {
	e.u32(uint32(len(v)))
	e.b = append(e.b, v...)
}
func (e *enc) digest(d Digest) { e.b = append(e.b, d[:]...) }

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
	return binary.BigEndian.Uint32(b)
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
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

// transactionSize returns the exact canonical encoding length of t, used
// to pre-size encoder buffers.
func transactionSize(t *Transaction) int {
	n := 8 + 4 + 4 + 4
	for _, r := range t.Reads {
		n += 4 + len(r.Key) + 8
	}
	for _, w := range t.Writes {
		n += 4 + len(w.Key) + 4 + len(w.Value)
	}
	n += 4 * len(t.Partitions)
	return n
}

// txn appends the canonical encoding of t.
func (e *enc) txn(t *Transaction) {
	e.u64(uint64(t.ID))
	e.u32(uint32(len(t.Reads)))
	for _, r := range t.Reads {
		e.str(r.Key)
		e.i64(r.Version)
	}
	e.u32(uint32(len(t.Writes)))
	for _, w := range t.Writes {
		e.str(w.Key)
		e.bytes(w.Value)
	}
	e.u32(uint32(len(t.Partitions)))
	for _, p := range t.Partitions {
		e.i32(p)
	}
}

// txn parses a canonical Transaction encoding.
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

// EncodeTransaction returns the canonical encoding of t.
func EncodeTransaction(t *Transaction) []byte {
	e := enc{b: make([]byte, 0, transactionSize(t))}
	e.txn(t)
	return e.b
}

// TransactionDigest hashes the canonical encoding of t.
func TransactionDigest(t *Transaction) Digest {
	return cryptoutil.Hash(EncodeTransaction(t))
}

// cd appends the canonical encoding of v.
func (e *enc) cd(v CDVector) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.i64(x)
	}
}

// cd parses a canonical CDVector encoding.
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

// prepareRecord appends the canonical encoding of r.
func (e *enc) prepareRecord(r *PrepareRecord) {
	e.txn(&r.Txn)
	e.i32(r.CoordCluster)
}

// prepareRecord parses a canonical PrepareRecord encoding.
func (d *dec) prepareRecord() PrepareRecord {
	return PrepareRecord{Txn: d.txn(), CoordCluster: d.i32()}
}

// commitRecord appends the canonical encoding of r.
func (e *enc) commitRecord(r *CommitRecord) {
	e.txn(&r.Txn)
	e.u8(uint8(r.Decision))
	e.u32(uint32(len(r.ReportedCDs)))
	for _, cd := range r.ReportedCDs {
		e.cd(cd)
	}
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

// cert appends the canonical encoding of a certificate.
func (e *enc) cert(c *cryptoutil.Certificate) {
	e.i32(c.Cluster)
	e.u32(uint32(len(c.Signatures)))
	for _, s := range c.Signatures {
		e.i32(s.Signer.Cluster)
		e.i32(s.Signer.Replica)
		e.bytes(s.Sig)
	}
}

// cert parses a canonical certificate encoding.
func (d *dec) cert() cryptoutil.Certificate {
	c := cryptoutil.Certificate{Cluster: d.i32()}
	n := d.u32()
	for i := uint32(0); i < n && d.err == nil; i++ {
		var s cryptoutil.Signature
		s.Signer.Cluster = d.i32()
		s.Signer.Replica = d.i32()
		s.Sig = d.bytes()
		c.Signatures = append(c.Signatures, s)
	}
	return c
}

// Section digests: each batch segment hashes to one digest so that 2PC
// proofs can ship a single segment plus the header rather than the whole
// batch. Each record streams through one pooled encoder buffer into the
// hash with the same length framing as cryptoutil.HashConcat, so the
// digests are unchanged but hashing a segment allocates nothing per
// record.

// LocalSectionDigest hashes the local segment.
func LocalSectionDigest(txns []Transaction) Digest {
	h := cryptoutil.NewConcatHasher()
	h.Part([]byte("local"))
	e := getEnc()
	for i := range txns {
		e.b = e.b[:0]
		e.txn(&txns[i])
		h.Part(e.b)
	}
	putEnc(e)
	return h.Sum()
}

// PreparedSectionDigest hashes the prepared segment.
func PreparedSectionDigest(recs []PrepareRecord) Digest {
	h := cryptoutil.NewConcatHasher()
	h.Part([]byte("prepared"))
	e := getEnc()
	for i := range recs {
		e.b = e.b[:0]
		e.prepareRecord(&recs[i])
		h.Part(e.b)
	}
	putEnc(e)
	return h.Sum()
}

// CommittedSectionDigest hashes the committed segment.
func CommittedSectionDigest(recs []CommitRecord) Digest {
	h := cryptoutil.NewConcatHasher()
	h.Part([]byte("committed"))
	e := getEnc()
	for i := range recs {
		e.b = e.b[:0]
		e.commitRecord(&recs[i])
		h.Part(e.b)
	}
	putEnc(e)
	return h.Sum()
}

// BatchHeader is the fixed-size summary of a batch. The batch digest —
// the message replicas sign — is the hash of the header, and the header
// commits to every segment through the section digests, so a certificate
// over the header authenticates the entire batch content.
type BatchHeader struct {
	Cluster    int32
	ID         int64
	PrevDigest Digest
	Timestamp  int64

	LocalDigest     Digest
	PreparedDigest  Digest
	CommittedDigest Digest

	CD         CDVector
	LCE        int64
	MerkleRoot Digest
}

// headerTag is the domain tag leading every canonical BatchHeader
// encoding.
const headerTag = "transedge-batch-v1"

// Encode returns the canonical encoding of h.
func (h *BatchHeader) Encode() []byte {
	// Fixed-size fields plus the CD vector: domain tag (18) + cluster +
	// ID + timestamp + LCE (28) + five digests (160) + CD length prefix.
	e := enc{b: make([]byte, 0, 18+28+5*32+4+8*len(h.CD))}
	e.b = append(e.b, headerTag...)
	e.i32(h.Cluster)
	e.i64(h.ID)
	e.digest(h.PrevDigest)
	e.i64(h.Timestamp)
	e.digest(h.LocalDigest)
	e.digest(h.PreparedDigest)
	e.digest(h.CommittedDigest)
	e.cd(h.CD)
	e.i64(h.LCE)
	e.digest(h.MerkleRoot)
	return e.b
}

// Digest hashes the header encoding; this is the signed batch digest.
func (h *BatchHeader) Digest() Digest {
	return cryptoutil.Hash(h.Encode())
}

// computeHeader derives the header of b, hashing all three segments.
func (b *Batch) computeHeader() BatchHeader {
	return BatchHeader{
		Cluster:         b.Cluster,
		ID:              b.ID,
		PrevDigest:      b.PrevDigest,
		Timestamp:       b.Timestamp,
		LocalDigest:     LocalSectionDigest(b.Local),
		PreparedDigest:  PreparedSectionDigest(b.Prepared),
		CommittedDigest: CommittedSectionDigest(b.Committed),
		CD:              b.CD.Clone(),
		LCE:             b.LCE,
		MerkleRoot:      b.MerkleRoot,
	}
}

// Header computes the header of b, including all section digests. Sealed
// batches compute it once and serve the cached copy thereafter — every
// consensus step (leader sign, follower pre-prepare check, validation,
// delivery) re-reads the header of the same immutable batch, and each
// fresh computation re-encodes all three segments. The cached header's
// CD vector is shared; callers treat headers as immutable snapshots.
func (b *Batch) Header() BatchHeader {
	if m := b.memo; m != nil {
		m.once.Do(func() {
			m.header = b.computeHeader()
			m.digest = m.header.Digest()
		})
		return m.header
	}
	return b.computeHeader()
}

// Digest is the signed digest of the batch, memoized for sealed batches.
func (b *Batch) Digest() Digest {
	if m := b.memo; m != nil {
		m.once.Do(func() {
			m.header = b.computeHeader()
			m.digest = m.header.Digest()
		})
		return m.digest
	}
	h := b.computeHeader()
	return h.Digest()
}

// CertifiedBatch pairs a batch with its f+1-signature certificate.
type CertifiedBatch struct {
	Batch *Batch
	Cert  cryptoutil.Certificate
}

// PrepareProof proves that a transaction's prepare record is part of a
// certified batch of the sending cluster's SMR log: the batch header, the
// cluster's f+1 certificate over the header digest, and the full prepared
// segment (which the header commits to). This is the "proof that it is
// part of the SMR log" of Sec. 3.3.2/3.3.3; the header's CD vector doubles
// as the piggybacked dependency report of Sec. 4.3.3(c).
type PrepareProof struct {
	Header   BatchHeader
	Cert     cryptoutil.Certificate
	Prepared []PrepareRecord
}
