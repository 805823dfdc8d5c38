package protocol

import (
	"bytes"
	"testing"
	"testing/quick"

	"transedge/internal/cryptoutil"
)

func sampleTxn(id TxnID) Transaction {
	return Transaction{
		ID:         id,
		Reads:      []ReadEntry{{Key: "x", Version: 3}, {Key: "y", Version: 0}},
		Writes:     []WriteOp{{Key: "x", Value: []byte("new-x")}},
		Partitions: []int32{0, 2},
	}
}

func TestMakeTxnID(t *testing.T) {
	id := MakeTxnID(7, 42)
	if uint64(id)>>32 != 7 || uint64(id)&0xffffffff != 42 {
		t.Fatalf("MakeTxnID packed wrong: %x", uint64(id))
	}
	if id.String() != "t7.42" {
		t.Fatalf("String = %q", id.String())
	}
}

func TestPartitionerStableAndInRange(t *testing.T) {
	p := Partitioner{N: 5}
	for _, k := range []string{"a", "b", "key-123", ""} {
		c := p.Of(k)
		if c < 0 || c >= 5 {
			t.Fatalf("Of(%q) = %d out of range", k, c)
		}
		if c != p.Of(k) {
			t.Fatalf("Of(%q) not deterministic", k)
		}
	}
}

func TestPartitionsOfSortedDeduped(t *testing.T) {
	p := Partitioner{N: 5}
	reads := []ReadEntry{{Key: "a"}, {Key: "b"}, {Key: "c"}, {Key: "d"}, {Key: "e"}, {Key: "f"}}
	parts := p.PartitionsOf(reads, []WriteOp{{Key: "a"}})
	for i := 1; i < len(parts); i++ {
		if parts[i] <= parts[i-1] {
			t.Fatalf("partitions not sorted/deduped: %v", parts)
		}
	}
}

func TestReadsWritesFor(t *testing.T) {
	p := Partitioner{N: 3}
	txn := Transaction{
		Reads:  []ReadEntry{{Key: "a"}, {Key: "b"}, {Key: "c"}},
		Writes: []WriteOp{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte("2")}},
	}
	totalReads, totalWrites := 0, 0
	for c := int32(0); c < 3; c++ {
		totalReads += len(txn.ReadsFor(p, c))
		totalWrites += len(txn.WritesFor(p, c))
	}
	if totalReads != 3 || totalWrites != 2 {
		t.Fatalf("partition split lost ops: reads %d writes %d", totalReads, totalWrites)
	}
}

func TestCDVectorNewAndClone(t *testing.T) {
	v := NewCDVector(3)
	for _, x := range v {
		if x != NoDependency {
			t.Fatalf("NewCDVector entry = %d, want %d", x, NoDependency)
		}
	}
	c := v.Clone()
	c[0] = 7
	if v[0] != NoDependency {
		t.Fatal("Clone shares storage")
	}
}

func TestCDVectorMaxInto(t *testing.T) {
	v := CDVector{2, -1, 5}
	v.MaxInto(CDVector{1, 3, 5})
	want := CDVector{2, 3, 5}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("MaxInto = %v, want %v", v, want)
		}
	}
}

func TestCDVectorMaxIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MaxInto with mismatched lengths did not panic")
		}
	}()
	v := CDVector{1}
	v.MaxInto(CDVector{1, 2})
}

func TestCDVectorMaxIntoProperty(t *testing.T) {
	// Result is an upper bound of both inputs and idempotent.
	f := func(a, b []int64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		x := CDVector(a[:n]).Clone()
		y := CDVector(b[:n])
		x.MaxInto(y)
		for i := 0; i < n; i++ {
			if x[i] < a[i] || x[i] < y[i] {
				return false
			}
		}
		again := x.Clone()
		again.MaxInto(y)
		for i := 0; i < n; i++ {
			if again[i] != x[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeTransactionDeterministic(t *testing.T) {
	a := sampleTxn(MakeTxnID(1, 1))
	b := sampleTxn(MakeTxnID(1, 1))
	if !bytes.Equal(EncodeTransaction(&a), EncodeTransaction(&b)) {
		t.Fatal("equal transactions encode differently")
	}
	b.Reads[0].Version = 4
	if bytes.Equal(EncodeTransaction(&a), EncodeTransaction(&b)) {
		t.Fatal("different transactions encode identically")
	}
}

func TestTransactionDigestSensitivity(t *testing.T) {
	base := sampleTxn(MakeTxnID(1, 1))
	d := TransactionDigest(&base)

	mutations := []func(*Transaction){
		func(x *Transaction) { x.ID = MakeTxnID(1, 2) },
		func(x *Transaction) { x.Reads[0].Key = "z" },
		func(x *Transaction) { x.Writes[0].Value = []byte("other") },
		func(x *Transaction) { x.Partitions = []int32{0} },
		func(x *Transaction) { x.Reads = x.Reads[:1] },
	}
	for i, m := range mutations {
		x := sampleTxn(MakeTxnID(1, 1))
		x.Reads = append([]ReadEntry(nil), x.Reads...)
		x.Writes = append([]WriteOp(nil), x.Writes...)
		m(&x)
		if TransactionDigest(&x) == d {
			t.Fatalf("mutation %d did not change the digest", i)
		}
	}
}

func sampleBatch() *Batch {
	txn := sampleTxn(MakeTxnID(1, 1))
	return &Batch{
		Cluster:   0,
		ID:        2,
		Timestamp: 12345,
		Local:     []Transaction{sampleTxn(MakeTxnID(2, 1))},
		Prepared:  []PrepareRecord{{Txn: txn, CoordCluster: 0}},
		Committed: []CommitRecord{{
			Txn:         sampleTxn(MakeTxnID(3, 1)),
			Decision:    DecisionCommit,
			ReportedCDs: []CDVector{{2, 5}},
		}},
		CD:         CDVector{2, 5},
		LCE:        0,
		MerkleRoot: cryptoutil.Hash([]byte("root")),
	}
}

func TestBatchHeaderCommitsToSegments(t *testing.T) {
	b := sampleBatch()
	d := b.Digest()

	// Mutating any segment must change the batch digest.
	b2 := sampleBatch()
	b2.Local[0].ID = MakeTxnID(9, 9)
	if b2.Digest() == d {
		t.Fatal("local segment mutation invisible in digest")
	}
	b3 := sampleBatch()
	b3.Prepared[0].CoordCluster = 3
	if b3.Digest() == d {
		t.Fatal("prepared segment mutation invisible in digest")
	}
	b4 := sampleBatch()
	b4.Committed[0].Decision = DecisionAbort
	if b4.Digest() == d {
		t.Fatal("committed segment mutation invisible in digest")
	}
	b5 := sampleBatch()
	b5.CD[0] = 99
	if b5.Digest() == d {
		t.Fatal("CD vector mutation invisible in digest")
	}
	b6 := sampleBatch()
	b6.LCE = 1
	if b6.Digest() == d {
		t.Fatal("LCE mutation invisible in digest")
	}
	b7 := sampleBatch()
	b7.MerkleRoot = cryptoutil.Hash([]byte("other"))
	if b7.Digest() == d {
		t.Fatal("merkle root mutation invisible in digest")
	}
}

func TestBatchDigestDeterministic(t *testing.T) {
	if sampleBatch().Digest() != sampleBatch().Digest() {
		t.Fatal("batch digest not deterministic")
	}
}

func TestDecisionAndStatusStrings(t *testing.T) {
	if DecisionCommit.String() != "commit" || DecisionAbort.String() != "abort" || DecisionPending.String() != "pending" {
		t.Fatal("Decision strings wrong")
	}
	if StatusCommitted.String() != "committed" || StatusAborted.String() != "aborted" {
		t.Fatal("TxnStatus strings wrong")
	}
	if Decision(99).String() == "" || TxnStatus(99).String() == "" {
		t.Fatal("unknown values must still format")
	}
}
