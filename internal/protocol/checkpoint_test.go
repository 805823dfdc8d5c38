package protocol

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// normTxn maps empty slices to nil: the decoder returns nil for
// zero-length fields, so round-trip comparisons normalize first.
func normTxn(t Transaction) Transaction {
	out := cloneTxn(t)
	for i := range out.Writes {
		if len(out.Writes[i].Value) == 0 {
			out.Writes[i].Value = nil
		}
	}
	if len(out.Reads) == 0 {
		out.Reads = nil
	}
	if len(out.Writes) == 0 {
		out.Writes = nil
	}
	if len(out.Partitions) == 0 {
		out.Partitions = nil
	}
	return out
}

// throughCheckpointFile round-trips entries and groups through the
// checkpoint file payload, the one place they are stored.
func throughCheckpointFile(t *testing.T, entries []SnapshotEntry, groups []CheckpointGroup) *DurableCheckpoint {
	t.Helper()
	c := goldenCheckpoint()
	c.Entries, c.Groups = entries, groups
	out, err := decodeDurableCheckpoint(encodeDurableCheckpoint(c, 0))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

func TestSnapshotEntryEncodingRoundTrip(t *testing.T) {
	f := func(key string, value []byte, writer int64) bool {
		if len(value) == 0 {
			value = nil
		}
		in := []SnapshotEntry{{Key: key, Value: value, Writer: writer}}
		return reflect.DeepEqual(in, throughCheckpointFile(t, in, nil).Entries)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointGroupEncodingRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		in := CheckpointGroup{PrepareBatch: r.Int63n(1000)}
		for j := r.Intn(4); j > 0; j-- {
			in.Recs = append(in.Recs, PrepareRecord{Txn: normTxn(randTxn(r)), CoordCluster: int32(r.Intn(5))})
		}
		out := throughCheckpointFile(t, nil, []CheckpointGroup{in}).Groups
		if !reflect.DeepEqual([]CheckpointGroup{in}, out) {
			t.Fatalf("round %d: decoded %+v, want %+v", i, out, in)
		}
	}
}

// TestTransactionEncodingRoundTrip round-trips random transactions through
// the WAL payload, where a stored transaction is read back.
func TestTransactionEncodingRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		in := normTxn(randTxn(r))
		cb, err := DecodeCertifiedBatch(EncodeCertifiedBatch(&CertifiedBatch{Batch: &Batch{Local: []Transaction{in}}}))
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if !reflect.DeepEqual(in, cb.Batch.Local[0]) {
			t.Fatalf("round %d: decoded %+v, want %+v", i, cb.Batch.Local[0], in)
		}
	}
}

// TestDecodeRejectsTruncatedAndTrailing: every strict prefix of a header
// encoding, and the encoding with a byte appended, fail to decode.
func TestDecodeRejectsTruncatedAndTrailing(t *testing.T) {
	h := testTipHeader()
	b := h.Encode()
	for cut := 0; cut < len(b); cut++ {
		if _, err := DecodeBatchHeader(b[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeBatchHeader(append(append([]byte(nil), b...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestSnapshotDigestDependsOnWritersAndOrder checks the digest covers
// exactly what it must: keys and writers (order-sensitive — entries are
// canonically sorted by key), not values (those are authenticated by the
// checkpoint header's Merkle root instead).
func TestSnapshotDigestDependsOnWritersAndOrder(t *testing.T) {
	a := []SnapshotEntry{{Key: "a", Value: []byte("1"), Writer: 3}, {Key: "b", Value: []byte("2"), Writer: 5}}
	base := SnapshotDigest(a)

	writerChanged := []SnapshotEntry{{Key: "a", Value: []byte("1"), Writer: 4}, {Key: "b", Value: []byte("2"), Writer: 5}}
	if SnapshotDigest(writerChanged) == base {
		t.Fatal("digest ignored a writer change")
	}
	reordered := []SnapshotEntry{a[1], a[0]}
	if SnapshotDigest(reordered) == base {
		t.Fatal("digest ignored entry order")
	}
	valueChanged := []SnapshotEntry{{Key: "a", Value: []byte("x"), Writer: 3}, {Key: "b", Value: []byte("2"), Writer: 5}}
	if SnapshotDigest(valueChanged) != base {
		t.Fatal("digest should not cover values (the Merkle root does)")
	}
}

func TestGroupsDigestCoversRecordContent(t *testing.T) {
	txn := Transaction{ID: 7, Writes: []WriteOp{{Key: "k", Value: []byte("v")}}, Partitions: []int32{0, 1}}
	g := []CheckpointGroup{{PrepareBatch: 9, Recs: []PrepareRecord{{Txn: txn, CoordCluster: 1}}}}
	base := GroupsDigest(g)

	tampered := []CheckpointGroup{{PrepareBatch: 9, Recs: []PrepareRecord{{Txn: txn, CoordCluster: 0}}}}
	if GroupsDigest(tampered) == base {
		t.Fatal("digest ignored coordinator change")
	}
	txn2 := txn
	txn2.Writes = []WriteOp{{Key: "k", Value: []byte("forged")}}
	tampered2 := []CheckpointGroup{{PrepareBatch: 9, Recs: []PrepareRecord{{Txn: txn2, CoordCluster: 1}}}}
	if GroupsDigest(tampered2) == base {
		t.Fatal("digest ignored write-set change")
	}
	if GroupsDigest([]CheckpointGroup{{PrepareBatch: 8, Recs: g[0].Recs}}) == base {
		t.Fatal("digest ignored prepare batch")
	}
}

func TestCheckpointDigestBindsAllParts(t *testing.T) {
	var h1, h2 Digest
	h2[0] = 1
	base := CheckpointDigest(0, 64, h1, h1, h1)
	if CheckpointDigest(1, 64, h1, h1, h1) == base ||
		CheckpointDigest(0, 65, h1, h1, h1) == base ||
		CheckpointDigest(0, 64, h2, h1, h1) == base ||
		CheckpointDigest(0, 64, h1, h2, h1) == base ||
		CheckpointDigest(0, 64, h1, h1, h2) == base {
		t.Fatal("checkpoint digest failed to bind a component")
	}
}
