package protocol

import (
	"testing"

	"transedge/internal/cryptoutil"
)

// fuzzSeeds returns valid encodings of every on-disk artifact, plus a few
// damaged variants, as the in-code seed corpus (static seeds live in
// testdata/fuzz/). The fuzzers assert the crash-safety property the WAL
// and checkpoint loaders rely on: arbitrary bytes — truncated, bit-flipped,
// or garbage — must produce an error, never a panic or a runaway
// allocation.
func fuzzSeeds() [][]byte {
	b := testBatch().Seal()
	d := b.Digest()
	ring := cryptoutil.NewKeyRing()
	cert := cryptoutil.Certificate{Cluster: b.Cluster}
	for r := int32(0); r < 3; r++ {
		id := cryptoutil.NodeID{Cluster: b.Cluster, Replica: r}
		kp := cryptoutil.DeriveKeyPair(id, 7)
		ring.Add(id, kp.Public)
		cert.Signatures = append(cert.Signatures, cryptoutil.SignCertificate(kp, id, d[:]))
	}
	chk := &DurableCheckpoint{
		Cluster: b.Cluster, CheckpointID: b.ID, View: 2, Header: b.Header(),
		HeaderCert: cert, Cert: cert,
		Entries: []SnapshotEntry{{Key: "k", Value: []byte("v"), Writer: 3}},
		Groups:  []CheckpointGroup{{PrepareBatch: 40}},
	}
	header := b.Header()
	payload := EncodeCertifiedBatch(&CertifiedBatch{Batch: b, Cert: cert})
	batch := payload[:len(payload)-certSize(&cert)]
	seeds := [][]byte{
		batch,
		payload,
		encodeDurableCheckpoint(chk, 0),
		payload[len(batch):],
		header.Encode(),
	}
	// Damaged variants: truncations and a bit flip of each.
	for _, s := range seeds[:5] {
		seeds = append(seeds, s[:len(s)/2])
		flipped := append([]byte(nil), s...)
		flipped[len(flipped)/3] ^= 0x20
		seeds = append(seeds, flipped)
	}
	return seeds
}

// FuzzDecodeBatch fuzzes the batch half of the WAL payload parser: the
// input is completed with an empty certificate (cluster 0, no signatures:
// eight zero bytes).
func FuzzDecodeBatch(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload := append(append([]byte(nil), data...), make([]byte, 8)...)
		if cb, err := DecodeCertifiedBatch(payload); err == nil {
			// A successful decode must re-encode to the identical bytes
			// (the encoding is canonical) and carry a stable digest.
			if got := EncodeCertifiedBatch(cb); string(got) != string(payload) {
				t.Fatal("accepted encoding is not canonical")
			}
			_ = cb.Batch.Digest()
		}
	})
}

func FuzzDecodeCertifiedBatch(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cb, err := DecodeCertifiedBatch(data)
		if err == nil {
			if got := EncodeCertifiedBatch(cb); string(got) != string(data) {
				t.Fatal("accepted encoding is not canonical")
			}
		}
	})
}

func FuzzDecodeDurableCheckpoint(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeDurableCheckpoint(data)
		if err == nil {
			if got := encodeDurableCheckpoint(c, 0); string(got) != string(data) {
				t.Fatal("accepted encoding is not canonical")
			}
		}
	})
}

// FuzzDecodeCertificate fuzzes the certificate half of the WAL payload
// parser: the input follows a valid batch encoding.
func FuzzDecodeCertificate(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	var none cryptoutil.Certificate
	empty := EncodeCertifiedBatch(&CertifiedBatch{Batch: testBatch(), Cert: none})
	batch := empty[:len(empty)-certSize(&none)]
	f.Fuzz(func(t *testing.T, data []byte) {
		payload := append(append([]byte(nil), batch...), data...)
		if cb, err := DecodeCertifiedBatch(payload); err == nil {
			if got := EncodeCertifiedBatch(cb); string(got) != string(payload) {
				t.Fatal("accepted encoding is not canonical")
			}
		}
	})
}

func FuzzDecodeBatchHeader(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeBatchHeader(data)
		if err == nil {
			_ = h.Digest()
		}
	})
}
