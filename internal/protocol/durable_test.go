package protocol

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"testing"

	"transedge/internal/cryptoutil"
)

// testBatch builds a batch with every segment populated, so the codec
// tests cover all of the on-disk encoding's paths.
func testBatch() *Batch {
	b := &Batch{
		Cluster:    2,
		ID:         41,
		PrevDigest: Digest{1, 2, 3},
		Timestamp:  1234567890,
		CD:         CDVector{7, -1, 41},
		LCE:        5,
		MerkleRoot: Digest{9, 8, 7},
	}
	b.Local = append(b.Local, Transaction{
		ID:         MakeTxnID(3, 17),
		Reads:      []ReadEntry{{Key: "r1", Version: 4}, {Key: "r2", Version: 0}},
		Writes:     []WriteOp{{Key: "w1", Value: []byte("v1")}, {Key: "w2", Value: nil}},
		Partitions: []int32{2},
	})
	b.Prepared = append(b.Prepared, PrepareRecord{
		Txn: Transaction{
			ID:         MakeTxnID(4, 18),
			Reads:      []ReadEntry{{Key: "pr", Version: 9}},
			Writes:     []WriteOp{{Key: "pw", Value: []byte("pv")}},
			Partitions: []int32{0, 2},
		},
		CoordCluster: 0,
	})
	b.Committed = append(b.Committed, CommitRecord{
		Txn: Transaction{
			ID:         MakeTxnID(5, 19),
			Writes:     []WriteOp{{Key: "cw", Value: []byte("cv")}},
			Partitions: []int32{1, 2},
		},
		Decision:    DecisionCommit,
		ReportedCDs: []CDVector{{1, 2, 3}, {4, 5, 6}},
	})
	return b
}

// testCert builds a real f+1 certificate over msg, so codec round-trips
// can be checked with actual signature verification.
func testCert(t *testing.T, cluster int32, msg []byte) (cryptoutil.Certificate, *cryptoutil.KeyRing) {
	t.Helper()
	ring := cryptoutil.NewKeyRing()
	cert := cryptoutil.Certificate{Cluster: cluster}
	for r := int32(0); r < 3; r++ {
		id := cryptoutil.NodeID{Cluster: cluster, Replica: r}
		kp := cryptoutil.DeriveKeyPair(id, 7)
		ring.Add(id, kp.Public)
		cert.Signatures = append(cert.Signatures, cryptoutil.SignCertificate(kp, id, msg))
	}
	return cert, ring
}

func TestBatchCodecRoundTrip(t *testing.T) {
	orig := testBatch().Seal()
	cb, err := DecodeCertifiedBatch(EncodeCertifiedBatch(&CertifiedBatch{Batch: orig}))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got := cb.Batch
	// Digest equality is the property recovery depends on: the decoded
	// batch must reproduce the digest the certificate signs.
	if got.Digest() != orig.Digest() {
		t.Fatal("digest changed across the on-disk round trip")
	}
	if got.ID != orig.ID || got.Cluster != orig.Cluster || got.LCE != orig.LCE {
		t.Fatal("scalar fields changed across the round trip")
	}
	if len(got.Local) != 1 || len(got.Prepared) != 1 || len(got.Committed) != 1 {
		t.Fatal("segments changed across the round trip")
	}
	if got.Local[0].Writes[0].Key != "w1" || string(got.Local[0].Writes[0].Value) != "v1" {
		t.Fatal("local writes changed across the round trip")
	}
	if len(got.Committed[0].ReportedCDs) != 2 || got.Committed[0].ReportedCDs[1][2] != 6 {
		t.Fatal("reported CDs changed across the round trip")
	}
}

func TestCertifiedBatchRoundTripVerifies(t *testing.T) {
	b := testBatch().Seal()
	d := b.Digest()
	cert, ring := testCert(t, b.Cluster, d[:])
	buf := EncodeCertifiedBatch(&CertifiedBatch{Batch: b, Cert: cert})

	got, err := DecodeCertifiedBatch(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	gd := got.Batch.Digest()
	if gd != d {
		t.Fatal("digest changed across the round trip")
	}
	// The decoded certificate still verifies against the recomputed
	// digest — the exact check recovery performs on every WAL record.
	if err := cryptoutil.VerifyCertificate(ring, got.Cert, gd[:], 2); err != nil {
		t.Fatalf("certificate no longer verifies: %v", err)
	}
}

func TestDurableCheckpointRoundTrip(t *testing.T) {
	b := testBatch().Seal()
	header := b.Header()
	hd := header.Digest()
	headerCert, _ := testCert(t, b.Cluster, hd[:])
	cert, _ := testCert(t, b.Cluster, []byte("state-digest"))
	orig := &DurableCheckpoint{
		Cluster:      b.Cluster,
		CheckpointID: b.ID,
		View:         3,
		Header:       b.Header(),
		HeaderCert:   headerCert,
		Cert:         cert,
		Entries: []SnapshotEntry{
			{Key: "a", Value: []byte("1"), Writer: 10},
			{Key: "b", Value: nil, Writer: 12},
		},
		Groups: []CheckpointGroup{{
			PrepareBatch: 39,
			Recs: []PrepareRecord{{
				Txn:          Transaction{ID: MakeTxnID(9, 9), Partitions: []int32{0, 2}},
				CoordCluster: 0,
			}},
		}},
	}
	got, err := decodeDurableCheckpoint(encodeDurableCheckpoint(orig, 0))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Cluster != orig.Cluster || got.CheckpointID != orig.CheckpointID || got.View != orig.View {
		t.Fatal("scalar fields changed across the round trip")
	}
	if got.Header.Digest() != orig.Header.Digest() {
		t.Fatal("header digest changed across the round trip")
	}
	if len(got.Entries) != 2 || got.Entries[0].Key != "a" || got.Entries[1].Writer != 12 {
		t.Fatal("entries changed across the round trip")
	}
	if len(got.Groups) != 1 || got.Groups[0].PrepareBatch != 39 || len(got.Groups[0].Recs) != 1 {
		t.Fatal("groups changed across the round trip")
	}
	if len(got.Cert.Signatures) != 3 || !bytes.Equal(
		got.Cert.Signatures[0].Sig, orig.Cert.Signatures[0].Sig) {
		t.Fatal("certificate changed across the round trip")
	}
}

// goldenCheckpoint is a fixed checkpoint exercising every field of the
// file payload: both certificates, an empty value, a key longer than any
// small-string buffer, a group with a record and one without.
func goldenCheckpoint() *DurableCheckpoint {
	sig := func(r int32, tag string) cryptoutil.Signature {
		return cryptoutil.Signature{Signer: cryptoutil.NodeID{Cluster: 2, Replica: r},
			Sig: []byte(fmt.Sprintf("%s-%d", tag, r))}
	}
	return &DurableCheckpoint{
		Cluster:      2,
		CheckpointID: 64,
		View:         3,
		Header: BatchHeader{
			Cluster: 2, ID: 64, PrevDigest: Digest{1, 2, 3}, Timestamp: 1234567890,
			LocalDigest: Digest{4}, PreparedDigest: Digest{5}, CommittedDigest: Digest{6},
			CD: CDVector{7, -1, 64}, LCE: 60, MerkleRoot: Digest{9, 8, 7},
		},
		HeaderCert: cryptoutil.Certificate{Cluster: 2,
			Signatures: []cryptoutil.Signature{sig(0, "hdr"), sig(1, "hdr")}},
		Cert: cryptoutil.Certificate{Cluster: 2,
			Signatures: []cryptoutil.Signature{sig(0, "chk"), sig(1, "chk"), sig(3, "chk")}},
		Entries: []SnapshotEntry{
			{Key: "alpha", Value: []byte("one"), Writer: 10},
			{Key: "beta", Value: nil, Writer: 12},
			{Key: "gamma-with-a-key-longer-than-thirty-two-bytes", Value: []byte("three"), Writer: 64},
		},
		Groups: []CheckpointGroup{
			{PrepareBatch: 61, Recs: []PrepareRecord{{
				Txn: Transaction{ID: MakeTxnID(9, 9),
					Reads:      []ReadEntry{{Key: "alpha", Version: 10}},
					Writes:     []WriteOp{{Key: "beta", Value: []byte("b2")}},
					Partitions: []int32{0, 2}},
				CoordCluster: 0,
			}}},
			{PrepareBatch: 63},
		},
	}
}

// TestDurableCheckpointGoldenBytes pins the checkpoint file: the hex below
// is the payload the append-grown encoder produced for goldenCheckpoint
// before the buffer was pre-sized (generated at commit 4689360), and the
// file is that payload behind its CRC, so a file written today loads on a
// replica built then and vice versa. Either buffer must come back exactly
// full — a size formula that drifts from the encoder shows up here as
// spare capacity or a regrown buffer.
func TestDurableCheckpointGoldenBytes(t *testing.T) {
	const golden = "" +
		"7472616e73656467652d64757261626c652d636865636b706f696e742d763100" +
		"00000200000000000000400000000000000003000000ea7472616e7365646765" +
		"2d62617463682d76310000000200000000000000400102030000000000000000" +
		"00000000000000000000000000000000000000000000000000499602d2040000" +
		"0000000000000000000000000000000000000000000000000000000000050000" +
		"0000000000000000000000000000000000000000000000000000000000060000" +
		"0000000000000000000000000000000000000000000000000000000000000000" +
		"030000000000000007ffffffffffffffff000000000000004000000000000000" +
		"3c09080700000000000000000000000000000000000000000000000000000000" +
		"0000000002000000020000000200000000000000056864722d30000000020000" +
		"0001000000056864722d31000000020000000300000002000000000000000563" +
		"686b2d3000000002000000010000000563686b2d310000000200000003000000" +
		"0563686b2d330000000300000005616c706861000000036f6e65000000000000" +
		"000a000000046265746100000000000000000000000c0000002d67616d6d612d" +
		"776974682d612d6b65792d6c6f6e6765722d7468616e2d7468697274792d7477" +
		"6f2d627974657300000005746872656500000000000000400000000200000000" +
		"0000003d0000000100000009000000090000000100000005616c706861000000" +
		"000000000a000000010000000462657461000000026232000000020000000000" +
		"00000200000000000000000000003f00000000"
	want, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	file := append([]byte{0xc1, 0xeb, 0xad, 0x36}, want...) // CRC-32 (IEEE) of the payload, big-endian
	if crc := crc32.ChecksumIEEE(want); crc != 0xc1ebad36 {
		t.Fatalf("golden payload CRC %08x, want c1ebad36", crc)
	}
	for _, tc := range []struct {
		name      string
		got, want []byte
	}{
		{"payload", encodeDurableCheckpoint(goldenCheckpoint(), 0), want},
		{"file", EncodeDurableCheckpointFile(goldenCheckpoint()), file},
	} {
		if !bytes.Equal(tc.got, tc.want) {
			t.Fatalf("%s differs from the golden bytes:\n%x", tc.name, tc.got)
		}
		if len(tc.got) != cap(tc.got) {
			t.Fatalf("%s: buffer holds %d bytes of capacity %d, want exact", tc.name, len(tc.got), cap(tc.got))
		}
	}
	got, err := DecodeDurableCheckpointFile(file)
	if err != nil {
		t.Fatalf("decode file: %v", err)
	}
	if !bytes.Equal(encodeDurableCheckpoint(got, 0), want) {
		t.Fatal("file does not decode to the checkpoint it was written from")
	}
	for _, damaged := range [][]byte{nil, file[:3], append([]byte{0xc1, 0xeb, 0xad, 0x37}, want...), file[:len(file)-1]} {
		if _, err := DecodeDurableCheckpointFile(damaged); err == nil {
			t.Fatalf("a damaged file of %d bytes decoded", len(damaged))
		}
	}
}

// TestEncodeDurableCheckpointAllocations bounds what one persist costs:
// the file buffer and the header's own encoding, however many keys the
// checkpoint holds (appending into a growing buffer allocated about ten
// times the payload).
func TestEncodeDurableCheckpointAllocations(t *testing.T) {
	c := goldenCheckpoint()
	c.Entries = make([]SnapshotEntry, 10000)
	for i := range c.Entries {
		c.Entries[i] = SnapshotEntry{
			Key:    fmt.Sprintf("account-with-a-long-identifier-%032d", i),
			Value:  []byte("1000"),
			Writer: int64(i % 64),
		}
	}
	// Enough runs that the collector's own bookkeeping, which 800 KB
	// buffers keep waking, averages out of the integer result.
	var buf []byte
	if allocs := testing.AllocsPerRun(100, func() { buf = EncodeDurableCheckpointFile(c) }); allocs > 2 {
		t.Fatalf("EncodeDurableCheckpointFile made %.0f allocations for 10 000 entries, want <= 2", allocs)
	}
	if len(buf) != cap(buf) {
		t.Fatalf("buffer holds %d bytes of capacity %d, want exact", len(buf), cap(buf))
	}
	if _, err := DecodeDurableCheckpointFile(buf); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

// TestDecodeDurableCheckpointAllocations bounds what one cold restart or
// state-transfer install decodes: one key string and one value slice per
// entry, plus a constant for the certificates, the header, the groups and
// the growth of the entry slice. A key is converted straight from the
// input, not copied twice.
func TestDecodeDurableCheckpointAllocations(t *testing.T) {
	const n, slack = 2000, 64
	c := goldenCheckpoint()
	c.Entries = make([]SnapshotEntry, n)
	for i := range c.Entries {
		c.Entries[i] = SnapshotEntry{
			Key:    fmt.Sprintf("account-with-a-long-identifier-%032d", i),
			Value:  []byte("1000"),
			Writer: int64(i % 64),
		}
	}
	buf := encodeDurableCheckpoint(c, 0)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodeDurableCheckpoint(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2*n+slack {
		t.Fatalf("decodeDurableCheckpoint made %.0f allocations for %d entries, want <= %d", allocs, n, 2*n+slack)
	}
}

// TestDecodersRejectEveryTruncation: for each on-disk codec, every strict
// prefix of a valid encoding must fail with an error — never panic, never
// succeed with partial data.
func TestDecodersRejectEveryTruncation(t *testing.T) {
	b := testBatch().Seal()
	d := b.Digest()
	cert, _ := testCert(t, b.Cluster, d[:])
	chk := &DurableCheckpoint{Cluster: b.Cluster, CheckpointID: b.ID, Header: b.Header(),
		HeaderCert: cert, Cert: cert, Entries: []SnapshotEntry{{Key: "k", Value: []byte("v")}}}

	cases := []struct {
		name   string
		buf    []byte
		decode func([]byte) error
	}{
		{"certified", EncodeCertifiedBatch(&CertifiedBatch{Batch: b, Cert: cert}),
			func(x []byte) error { _, err := DecodeCertifiedBatch(x); return err }},
		{"checkpoint", encodeDurableCheckpoint(chk, 0),
			func(x []byte) error { _, err := decodeDurableCheckpoint(x); return err }},
	}
	for _, tc := range cases {
		for cut := 0; cut < len(tc.buf); cut++ {
			if err := tc.decode(tc.buf[:cut]); err == nil {
				t.Fatalf("%s: decoding a %d/%d-byte prefix succeeded", tc.name, cut, len(tc.buf))
			}
		}
		// Trailing garbage must be rejected too.
		if err := tc.decode(append(append([]byte(nil), tc.buf...), 0xff)); err == nil {
			t.Fatalf("%s: decoding with a trailing byte succeeded", tc.name)
		}
	}
}

func TestDecodeBatchRejectsUnknownVersion(t *testing.T) {
	buf := EncodeCertifiedBatch(&CertifiedBatch{Batch: testBatch().Seal()})
	buf[0] = 99 // future codec version
	if _, err := DecodeCertifiedBatch(buf); err == nil {
		t.Fatal("unknown codec version accepted")
	}
}
