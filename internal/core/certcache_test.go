package core

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

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
	if !n.verifyHeaderCert(&genuine, forged) {
		t.Fatal("a header verified once was not remembered")
	}
	if hits, misses := n.Metrics.HeaderCertHits, n.Metrics.HeaderCertMisses; hits != 1 || misses != 2*certCacheLimit+2 {
		t.Fatalf("memo hits/misses %d/%d, want 1/%d", hits, misses, 2*certCacheLimit+2)
	}
}

// TestCertificateAssembledOnce: the first use of a delivered entry's
// certificate races the loop (here, a state response's suffix) against
// eight read executors serving it. Exactly one of them assembles it, and
// every reply and the state response carry the same f+1 certificate.
func TestCertificateAssembledOnce(t *testing.T) {
	const executors = 8
	n := newSpecLeader(t, specKeys(8))
	n.readers.stop()
	n.readers = newReadExecutor(executors, executors)
	defer n.readers.stop()
	deliverWrite(n, 0, "k0")
	e := n.log.get(1)

	start := make(chan struct{})
	replies := make(chan protocol.ROReply, executors)
	for i := 0; i < executors; i++ {
		req := protocol.RORequest{Keys: []string{"k0"}, AsOfLCE: -1, ReplyTo: replies}
		snap := roSnapshot{entry: e, tree: e.tree}
		if !n.readers.trySubmit(1, func() { <-start; n.serveROSnapshot(&req, snap) }) {
			t.Fatal("read executor queue full")
		}
	}
	peer := NodeID{Cluster: 0, Replica: 1}
	inbox := n.cfg.Net.Register(peer)
	close(start)
	n.onStateRequest(&protocol.StateRequest{From: peer, HaveBatch: 0})

	var resp *protocol.StateResponse
	select {
	case env := <-inbox:
		resp = env.Payload.(*protocol.StateResponse)
	case <-time.After(5 * time.Second):
		t.Fatal("no state response")
	}
	if len(resp.Suffix) != 1 {
		t.Fatalf("state response carries %d batches, want 1", len(resp.Suffix))
	}
	cert := resp.Suffix[0].Cert
	if err := cryptoutil.VerifyCertificate(n.cfg.Ring, cert, e.digest[:], n.cfg.F+1); err != nil || len(cert.Signatures) != n.cfg.F+1 {
		t.Fatalf("state response certificate: %d signatures, %v", len(cert.Signatures), err)
	}
	for i := 0; i < executors; i++ {
		r := <-replies
		if r.Err != "" || !reflect.DeepEqual(r.Cert, cert) {
			t.Fatalf("executor reply: err %q, certificate %+v, want %+v", r.Err, r.Cert, cert)
		}
	}
	if got := atomic.LoadInt64(&n.Metrics.CertsAssembled); got != 1 {
		t.Fatalf("%d assemblies for one entry, want 1", got)
	}
}
