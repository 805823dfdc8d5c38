package protocol

import (
	"reflect"
	"testing"

	"transedge/internal/cryptoutil"
)

func testTipHeader() BatchHeader {
	b := &Batch{
		Cluster:    2,
		ID:         17,
		PrevDigest: cryptoutil.Hash([]byte("prev")),
		Timestamp:  424242,
		CD:         CDVector{5, NoDependency, 9},
		LCE:        7,
		MerkleRoot: cryptoutil.Hash([]byte("root")),
	}
	return b.Header()
}

func TestBatchHeaderRoundTrip(t *testing.T) {
	h := testTipHeader()
	enc := h.Encode()
	got, err := DecodeBatchHeader(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(*got, h) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, h)
	}
	if got.Digest() != h.Digest() {
		t.Fatal("digest changed across round trip")
	}

	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff
	if _, err := DecodeBatchHeader(bad); err == nil {
		t.Fatal("corrupted domain tag decoded without error")
	}
	if _, err := DecodeBatchHeader(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated header decoded without error")
	}
	if _, err := DecodeBatchHeader(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
}

// TestPrepareSigDigestSeparation: the prepare-signature message is
// deterministic in its inputs and distinct across every coordinate —
// cluster, view, slot, digest — so a signature can never be replayed for
// a different slot or view.
func TestPrepareSigDigestSeparation(t *testing.T) {
	d := cryptoutil.Hash([]byte("batch"))
	base := PrepareSigDigest(1, 2, 3, d)
	if PrepareSigDigest(1, 2, 3, d) != base {
		t.Fatal("PrepareSigDigest not deterministic")
	}
	variants := []Digest{
		PrepareSigDigest(2, 2, 3, d),
		PrepareSigDigest(1, 3, 3, d),
		PrepareSigDigest(1, 2, 4, d),
		PrepareSigDigest(1, 2, 3, cryptoutil.Hash([]byte("other"))),
	}
	for i, v := range variants {
		if v == base {
			t.Fatalf("variant %d collides with base digest", i)
		}
	}
}
