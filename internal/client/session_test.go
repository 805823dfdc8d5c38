package client_test

import (
	"fmt"
	"testing"
	"time"

	"transedge/internal/client"
	"transedge/internal/core"
)

func newClientCfg(sys *core.System, id uint32, mut func(*client.Config)) *client.Client {
	cfg := client.Config{
		ID: id, Net: sys.Net, Ring: sys.Ring, Part: sys.Part,
		Clusters: sys.Cfg.Clusters, Timeout: 10 * time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	return client.New(cfg)
}

// keyOn finds a fresh (not preloaded) key owned by the given cluster.
func keyOn(sys *core.System, cluster int32, tag string) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("session-%s-%d", tag, i)
		if sys.Part.Of(k) == cluster {
			return k
		}
	}
}

// TestSessionReadYourWrites: a session read immediately after the
// session's own single-partition commit sees the write, first try — the
// commit batch is the session floor, so no luck with snapshot timing is
// involved.
func TestSessionReadYourWrites(t *testing.T) {
	sys := startSystem(t, 2)
	c := newClientCfg(sys, 1, nil)
	s := c.NewSession()
	key := keyOn(sys, 0, "ryw")

	txn := s.Begin()
	txn.Write(key, []byte("mine"))
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if s.Floor(0) <= 0 {
		t.Fatalf("commit did not raise the session floor: %d", s.Floor(0))
	}
	res, err := s.ReadOnly([]string{key})
	if err != nil {
		t.Fatalf("session read: %v", err)
	}
	if string(res.Values[key]) != "mine" {
		t.Fatalf("session read missed own write: %q", res.Values[key])
	}
	if res.Batches[0] < s.Floor(0) {
		t.Fatalf("served batch %d below floor %d", res.Batches[0], s.Floor(0))
	}
}

// TestSessionReadYourWritesDistributed: after a multi-partition commit, a
// session read of only ONE participant's key still sees the write — even
// when that participant is not the coordinator, via the header-only
// closure contact that drags the participant's LCE over the transaction's
// prepare batch. Several rounds so the random coordinator choice covers
// both sides.
func TestSessionReadYourWritesDistributed(t *testing.T) {
	sys := startSystem(t, 2)
	c := newClientCfg(sys, 2, nil)
	s := c.NewSession()
	for round := 0; round < 6; round++ {
		k0 := keyOn(sys, 0, fmt.Sprintf("d0-%d", round))
		k1 := keyOn(sys, 1, fmt.Sprintf("d1-%d", round))
		want := fmt.Sprintf("v-%d", round)
		txn := s.Begin()
		txn.Write(k0, []byte(want))
		txn.Write(k1, []byte(want))
		if err := txn.Commit(); err != nil {
			t.Fatalf("round %d commit: %v", round, err)
		}
		for _, k := range []string{k0, k1} {
			res, err := s.ReadOnly([]string{k})
			if err != nil {
				t.Fatalf("round %d read %q: %v", round, k, err)
			}
			if string(res.Values[k]) != want {
				t.Fatalf("round %d: session read of %q = %q, want %q", round, k, res.Values[k], want)
			}
		}
	}
}

// TestSessionClosureRetiredOnceCovered: the closure contact registered by
// a distributed commit is dropped once a session read verifies every
// dependency of the commit batch covered by the owning cluster's LCE —
// so one distributed commit does not tax every later session read with a
// coordinator round-trip forever. Read-your-writes still holds after the
// drop: the verifying read floored each participant at a batch whose LCE
// covers the prepare, and LCE is monotone over the log.
func TestSessionClosureRetiredOnceCovered(t *testing.T) {
	sys := startSystem(t, 2)
	c := newClientCfg(sys, 9, nil)
	s := c.NewSession()
	k0 := keyOn(sys, 0, "ret0")
	k1 := keyOn(sys, 1, "ret1")

	txn := s.Begin()
	txn.Write(k0, []byte("r0"))
	txn.Write(k1, []byte("r1"))
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if got := s.ClosureClusters(); got != 1 {
		t.Fatalf("distributed commit registered %d closure clusters, want 1", got)
	}

	// A read covering both participants observes, post repair, every
	// contacted cluster's LCE at or past the coordinator CD vector — full
	// coverage evidence in one read.
	if _, err := s.ReadOnly([]string{k0, k1}); err != nil {
		t.Fatalf("covering read: %v", err)
	}
	if got := s.ClosureClusters(); got != 0 {
		t.Fatalf("closure not retired after covering read: %d clusters still contacted", got)
	}

	// Single-key session reads of each participant still see the write.
	for _, kv := range []struct{ k, want string }{{k0, "r0"}, {k1, "r1"}} {
		res, err := s.ReadOnly([]string{kv.k})
		if err != nil {
			t.Fatalf("post-retirement read %q: %v", kv.k, err)
		}
		if string(res.Values[kv.k]) != kv.want {
			t.Fatalf("post-retirement read %q = %q, want %q", kv.k, res.Values[kv.k], kv.want)
		}
	}

	// A fresh distributed commit re-registers the closure contact.
	txn = s.Begin()
	txn.Write(keyOn(sys, 0, "ret2"), []byte("x"))
	txn.Write(keyOn(sys, 1, "ret3"), []byte("y"))
	if err := txn.Commit(); err != nil {
		t.Fatalf("second commit: %v", err)
	}
	if got := s.ClosureClusters(); got != 1 {
		t.Fatalf("second distributed commit registered %d closure clusters, want 1", got)
	}
}

// TestSessionMonotonicReads: batches served to a session never regress.
func TestSessionMonotonicReads(t *testing.T) {
	sys := startSystem(t, 2)
	c := newClientCfg(sys, 3, nil)
	s := c.NewSession()
	keys := []string{"key-001", "key-002", "key-003"}
	last := make(map[int32]int64)
	w := newClientCfg(sys, 4, nil)
	for i := 0; i < 5; i++ {
		res, err := s.ReadOnly(keys)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		for cl, b := range res.Batches {
			if b < last[cl] {
				t.Fatalf("read %d: cluster %d batch regressed %d -> %d", i, cl, last[cl], b)
			}
			last[cl] = b
			if b < s.Floor(cl) {
				t.Fatalf("read %d: batch %d below floor %d", i, b, s.Floor(cl))
			}
		}
		// Advance the system between session reads with another client.
		txn := w.Begin()
		txn.Write(fmt.Sprintf("key-%03d", i+10), []byte(fmt.Sprintf("w%d", i)))
		if err := txn.Commit(); err != nil {
			t.Fatalf("advance %d: %v", i, err)
		}
	}
}

// TestSessionReadsZeroCertVerificationsAtUnchangedRoot: with the system
// quiescent, the first read verifies each cluster's certificate once;
// repeat session reads at the unchanged root verify none.
func TestSessionReadsZeroCertVerificationsAtUnchangedRoot(t *testing.T) {
	sys := startSystem(t, 2)
	c := newClientCfg(sys, 5, nil)
	s := c.NewSession()
	keys := []string{"key-010", "key-011", "key-012"}
	if _, err := s.ReadOnly(keys); err != nil {
		t.Fatal(err)
	}
	before := c.CertVerifications()
	if before == 0 {
		t.Fatal("first read performed no certificate verification")
	}
	for i := 0; i < 5; i++ {
		if _, err := s.ReadOnly(keys); err != nil {
			t.Fatalf("repeat read %d: %v", i, err)
		}
	}
	if got := c.CertVerifications(); got != before {
		t.Fatalf("repeat reads at unchanged root performed %d extra certificate verifications", got-before)
	}
	for _, k := range keys {
		if cp, ok := c.VerifiedCheckpoint(sys.Part.Of(k)); !ok || cp.BatchID < 0 {
			t.Fatalf("no verified checkpoint for cluster %d", sys.Part.Of(k))
		}
	}
}
