package protocol

import (
	"encoding/hex"
	"testing"

	"transedge/internal/cryptoutil"
)

// Golden vectors for every byte string a replica signs or persists, in the
// style of the Merkle package's golden roots: the fixtures are fixed, the
// expected bytes are literal hex recorded at commit 0f64909 (before the
// codecs nothing called were deleted), and a change to the canonical
// encoding that moves one signed or stored byte fails here instead of in
// a replica that can no longer verify its peers' certificates or its own
// WAL.

// goldenCert is a certificate with fixed stand-in signatures: the codec
// frames signature bytes without interpreting them.
func goldenCert() cryptoutil.Certificate {
	c := cryptoutil.Certificate{Cluster: 2}
	for _, r := range []int32{0, 1, 3} {
		c.Signatures = append(c.Signatures, cryptoutil.Signature{
			Signer: cryptoutil.NodeID{Cluster: 2, Replica: r},
			Sig:    []byte{'s', byte('0' + r)},
		})
	}
	return c
}

// goldenViewChange is a vote with a two-entry frontier, one entry with a
// body (which the digest must not cover) and one without.
func goldenViewChange() *ViewChange {
	body := testBatch().Seal()
	tip := goldenCheckpoint().Header
	return &ViewChange{
		Cluster:   2,
		Replica:   3,
		View:      9,
		TipHeader: tip,
		TipCert:   goldenCert(),
		Entries: []PreparedEntry{
			{ID: 41, View: 8, Digest: body.Digest(), Batch: body, Prepares: []PrepareSig{
				{Replica: 0, Sig: []byte("p0")},
				{Replica: 2, Sig: []byte("p2")},
			}},
			{ID: 42, View: 9, Digest: Digest{4, 2}, Prepares: []PrepareSig{
				{Replica: 3, Sig: []byte("q3")},
			}},
		},
		Sig: []byte("vote-sig"),
	}
}

func TestGoldenSignedAndStoredBytes(t *testing.T) {
	b := testBatch().Seal()
	h := b.Header()
	hd := h.Digest()
	chk := goldenCheckpoint()
	snap, groups := SnapshotDigest(chk.Entries), GroupsDigest(chk.Groups)

	for _, g := range []struct {
		name string
		got  []byte
		want string
	}{
		{"header encoding", h.Encode(), goldenHeader},
		{"header digest", hd[:], goldenHeaderDigest},
		{"local section digest", digestBytes(LocalSectionDigest(b.Local)), goldenLocalDigest},
		{"prepared section digest", digestBytes(PreparedSectionDigest(b.Prepared)), goldenPreparedDigest},
		{"committed section digest", digestBytes(CommittedSectionDigest(b.Committed)), goldenCommittedDigest},
		{"transaction digest", digestBytes(TransactionDigest(&b.Local[0])), goldenTxnDigest},
		{"certified batch", EncodeCertifiedBatch(&CertifiedBatch{Batch: b, Cert: goldenCert()}), goldenCertifiedBatch},
		{"snapshot digest", snap[:], goldenSnapshotDigest},
		{"groups digest", groups[:], goldenGroupsDigest},
		{"checkpoint digest", digestBytes(CheckpointDigest(chk.Cluster, chk.CheckpointID, chk.Header.Digest(), snap, groups)), goldenCheckpointDigest},
		{"prepare-sig digest", digestBytes(PrepareSigDigest(2, 9, 41, hd)), goldenPrepareSigDigest},
		{"view-change digest", digestBytes(ViewChangeDigest(goldenViewChange())), goldenViewChangeDigest},
	} {
		if got := hex.EncodeToString(g.got); got != g.want {
			t.Errorf("%s\n got  %s\n want %s", g.name, got, g.want)
		}
	}
}

func digestBytes(d Digest) []byte { return d[:] }

const (
	goldenHeader = "" +
		"7472616e73656467652d62617463682d7631000000020000000000000029010203000000000000000000000000000000" +
		"000000000000000000000000000000000000499602d2528f14616fd86c48cb2fe08e20434e7e879267a349236b69a817" +
		"485588184762a9c76220078f01268fe195c752841bebd375e044698e91d7f5864c26f28e0aaff658555d0f9cac8b6428" +
		"c97fc87d10ee838693b1060c8dae193c1161eb375c35000000030000000000000007ffffffffffffffff000000000000" +
		"002900000000000000050908070000000000000000000000000000000000000000000000000000000000"
	goldenHeaderDigest    = "be0959d5b87e3cb29490c6a9c88fa164fecc90b479745fe1aa6942b190ff3879"
	goldenLocalDigest     = "528f14616fd86c48cb2fe08e20434e7e879267a349236b69a817485588184762"
	goldenPreparedDigest  = "a9c76220078f01268fe195c752841bebd375e044698e91d7f5864c26f28e0aaf"
	goldenCommittedDigest = "f658555d0f9cac8b6428c97fc87d10ee838693b1060c8dae193c1161eb375c35"
	goldenTxnDigest       = "613eee3c401af36de1011d226f59f90464da28203bdc50a9d8aa69c79efbc220"
	goldenCertifiedBatch  = "" +
		"010000000200000000000000290102030000000000000000000000000000000000000000000000000000000000000000" +
		"00499602d200000001000000030000001100000002000000027231000000000000000400000002723200000000000000" +
		"000000000200000002773100000002763100000002773200000000000000010000000200000001000000040000001200" +
		"000001000000027072000000000000000900000001000000027077000000027076000000020000000000000002000000" +
		"000000000100000005000000130000000000000001000000026377000000026376000000020000000100000002010000" +
		"000200000003000000000000000100000000000000020000000000000003000000030000000000000004000000000000" +
		"00050000000000000006000000030000000000000007ffffffffffffffff000000000000002900000000000000050908" +
		"070000000000000000000000000000000000000000000000000000000000000000020000000300000002000000000000" +
		"0002733000000002000000010000000273310000000200000003000000027333"
	goldenSnapshotDigest   = "a0491af00d14efe5846c4512b6f92218532a6d2b98924f6588e7a6492c9bcb91"
	goldenGroupsDigest     = "b39cab7eb8b419600a086a3bc9d7fb3ef4f57edfba7c910ffe275a85f74601a3"
	goldenCheckpointDigest = "3b595f8a71b8b1b9e26addb870cc743085bca716663abdd6654d5d63621ab9ad"
	goldenPrepareSigDigest = "762d30306c6fd6c033f451bbe0e92959f818a05acde7b61730f48ae460e7b134"
	goldenViewChangeDigest = "84a9a181b0a4f271e10b41411f2ced790d6447801dc888239778447d136bfcbb"
)
