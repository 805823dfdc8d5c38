package core

import (
	"testing"

	"transedge/internal/cryptoutil"
	"transedge/internal/protocol"
)

// TestHeaderCertMemoIsBounded: the replica's memo of verified header
// certificates is peer-fed — every CoordinatorPrepare, prepared vote and
// proposed prepare record brings a header — so it must stay bounded
// however many forged certificates over fresh headers arrive, and a
// forged certificate must not decide the fate of the genuine one sent
// after it for the same header.
func TestHeaderCertMemoIsBounded(t *testing.T) {
	n := newSpecLeader(t, specKeys(4))
	forged := cryptoutil.Certificate{Cluster: 0}

	for i := 0; i < 2*certCacheLimit; i++ {
		h := protocol.BatchHeader{Cluster: 0, ID: int64(i + 1), LCE: -1}
		if n.verifyHeaderCert(&h, forged) {
			t.Fatalf("forged header %d verified", i)
		}
	}
	if got := len(n.certCache); got > certCacheLimit {
		t.Fatalf("memo holds %d header digests after %d forged headers, want <= %d",
			got, 2*certCacheLimit, certCacheLimit)
	}

	genuine := n.cfg.GenesisHeader
	if n.verifyHeaderCert(&genuine, forged) {
		t.Fatal("a certificate without signatures verified")
	}
	if !n.verifyHeaderCert(&genuine, n.cfg.GenesisCert) {
		t.Fatal("the genuine certificate was turned away after a forged one for the same header")
	}
}
