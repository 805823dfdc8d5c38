package bft

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"transedge/internal/adversary"
	"transedge/internal/cryptoutil"
	"transedge/internal/protocol"
	"transedge/internal/transport"
)

// testCluster runs n replica engines, each on its own event-loop
// goroutine, and records deliveries per replica. A Replica is
// single-threaded, so the test reaches one only through its loop (on).
type testCluster struct {
	t        *testing.T
	net      *transport.Network
	ring     *cryptoutil.KeyRing
	keys     []cryptoutil.KeyPair
	replicas []*Replica
	n, f     int

	mu        sync.Mutex
	delivered map[int32][]protocol.CertifiedBatch
	notify    chan struct{}
	calls     []chan func()
	stop      []chan struct{}
	wg        sync.WaitGroup
}

type clusterOpt func(i int32, cfg *Config)

func withValidate(f func(*protocol.Batch) error) clusterOpt {
	return func(i int32, cfg *Config) { cfg.Validate = f }
}

func newTestCluster(t *testing.T, f int, opts ...clusterOpt) *testCluster {
	t.Helper()
	n := 3*f + 1
	tc := &testCluster{
		t:         t,
		net:       transport.NewNetwork(),
		ring:      cryptoutil.NewKeyRing(),
		n:         n,
		f:         f,
		delivered: make(map[int32][]protocol.CertifiedBatch),
		notify:    make(chan struct{}, 1024),
	}
	tc.keys = make([]cryptoutil.KeyPair, n)
	for i := 0; i < n; i++ {
		id := NodeID{Cluster: 0, Replica: int32(i)}
		tc.keys[i] = cryptoutil.DeriveKeyPair(id, 77)
		tc.ring.Add(id, tc.keys[i].Public)
	}
	for i := 0; i < n; i++ {
		i := int32(i)
		cfg := Config{
			Cluster: 0, Replica: i, N: n, F: f,
			Keys: tc.keys[i], Ring: tc.ring, Net: tc.net,
			Deliver: func(cb protocol.CertifiedBatch) {
				tc.mu.Lock()
				tc.delivered[i] = append(tc.delivered[i], cb)
				tc.mu.Unlock()
				select {
				case tc.notify <- struct{}{}:
				default:
				}
			},
		}
		for _, o := range opts {
			o(i, &cfg)
		}
		r := New(cfg)
		tc.replicas = append(tc.replicas, r)

		inbox := tc.net.Register(NodeID{Cluster: 0, Replica: i})
		calls, stop := make(chan func()), make(chan struct{})
		tc.calls = append(tc.calls, calls)
		tc.stop = append(tc.stop, stop)
		tc.wg.Add(1)
		go func(r *Replica, inbox <-chan transport.Envelope) {
			defer tc.wg.Done()
			for {
				select {
				case env, ok := <-inbox:
					if !ok {
						return
					}
					r.Handle(env.From, env.Payload)
				case f := <-calls:
					f()
				case <-stop:
					return
				}
			}
		}(r, inbox)
	}
	t.Cleanup(func() {
		for _, s := range tc.stop {
			close(s)
		}
		tc.net.Stop()
		tc.wg.Wait()
	})
	return tc
}

func (tc *testCluster) deliveredCount(replica int32) int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return len(tc.delivered[replica])
}

// waitDelivered waits until every replica in want has delivered at least
// count batches, or fails after the timeout.
func (tc *testCluster) waitDelivered(count int, replicas []int32, timeout time.Duration) bool {
	deadline := time.After(timeout)
	for {
		done := true
		for _, r := range replicas {
			if tc.deliveredCount(r) < count {
				done = false
				break
			}
		}
		if done {
			return true
		}
		select {
		case <-tc.notify:
		case <-deadline:
			return false
		}
	}
}

func testBatch(id int64, prev protocol.Digest) *protocol.Batch {
	return &protocol.Batch{
		Cluster:    0,
		ID:         id,
		PrevDigest: prev,
		Timestamp:  time.Now().UnixNano(),
		Local: []protocol.Transaction{{
			ID:     protocol.MakeTxnID(1, uint32(id)),
			Writes: []protocol.WriteOp{{Key: "k", Value: []byte(fmt.Sprintf("v%d", id))}},
		}},
		CD:  protocol.NewCDVector(1),
		LCE: -1,
	}
}

func allReplicas(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// on runs f on replica i's event loop and waits for it to return.
func (tc *testCluster) on(i int32, f func(r *Replica)) {
	done := make(chan struct{})
	tc.calls[i] <- func() {
		f(tc.replicas[i])
		close(done)
	}
	<-done
}

// handOut is the certificate replica r hands out for a batch it
// delivered: the f+1 assembled from the candidates delivery listed.
func (tc *testCluster) handOut(r int32, cb protocol.CertifiedBatch) cryptoutil.Certificate {
	d := cb.Batch.Digest()
	cert, _ := cryptoutil.AssembleCertificate(tc.ring, cb.Cert, d[:], tc.f+1, NodeID{Cluster: 0, Replica: r})
	return cert
}

// propose runs the leader's Propose on the leader's event loop, as a
// node does: Propose validates and votes for the leader's own copy in
// line, touching the state its loop owns.
func (tc *testCluster) propose(b *protocol.Batch) error {
	var err error
	tc.on(LeaderReplica, func(r *Replica) { err = r.Propose(b) })
	return err
}

// eventually polls cond every millisecond until it holds, or reports
// false once timeout has passed.
func eventually(timeout time.Duration, cond func() bool) bool {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	deadline := time.After(timeout)
	for !cond() {
		select {
		case <-tick.C:
		case <-deadline:
			return false
		}
	}
	return true
}

func TestConsensusCommitsOneBatch(t *testing.T) {
	tc := newTestCluster(t, 1)
	if err := tc.propose(testBatch(1, protocol.Digest{})); err != nil {
		t.Fatal(err)
	}
	if !tc.waitDelivered(1, allReplicas(4), 5*time.Second) {
		t.Fatal("batch not delivered at all replicas")
	}
	// Certificates must verify with f+1 threshold at every replica.
	tc.mu.Lock()
	defer tc.mu.Unlock()
	var wantDigest protocol.Digest
	for r := int32(0); r < 4; r++ {
		cb := tc.delivered[r][0]
		d := cb.Batch.Digest()
		if r == 0 {
			wantDigest = d
		} else if d != wantDigest {
			t.Fatalf("replica %d delivered a different batch", r)
		}
		if err := cryptoutil.VerifyCertificate(tc.ring, cb.Cert, d[:], tc.f+1); err != nil {
			t.Fatalf("replica %d certificate invalid: %v", r, err)
		}
	}
}

func TestConsensusSequentialBatchesChain(t *testing.T) {
	tc := newTestCluster(t, 1)
	prev := protocol.Digest{}
	for i := int64(1); i <= 5; i++ {
		b := testBatch(i, prev)
		if err := tc.propose(b); err != nil {
			t.Fatal(err)
		}
		if !tc.waitDelivered(int(i), []int32{0}, 5*time.Second) {
			t.Fatalf("batch %d not delivered at leader", i)
		}
		prev = b.Digest()
	}
	if !tc.waitDelivered(5, allReplicas(4), 5*time.Second) {
		t.Fatal("followers did not deliver all batches")
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for r := int32(0); r < 4; r++ {
		for i := 1; i < 5; i++ {
			prevDigest := tc.delivered[r][i-1].Batch.Digest()
			if tc.delivered[r][i].Batch.PrevDigest != prevDigest {
				t.Fatalf("replica %d: batch %d does not chain", r, i+1)
			}
		}
	}
}

func TestProposeWrongIDRejected(t *testing.T) {
	tc := newTestCluster(t, 1)
	if err := tc.propose(testBatch(7, protocol.Digest{})); !errors.Is(err, ErrBadBatchID) {
		t.Fatalf("err = %v, want ErrBadBatchID", err)
	}
}

func TestNonLeaderCannotPropose(t *testing.T) {
	tc := newTestCluster(t, 1)
	if err := tc.replicas[1].Propose(testBatch(1, protocol.Digest{})); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("err = %v, want ErrNotLeader", err)
	}
}

func TestToleratesSilentFollower(t *testing.T) {
	tc := newTestCluster(t, 1)
	adversary.Stage(tc.net, map[NodeID]adversary.Attack{{Replica: 3}: adversary.Drop})
	if err := tc.propose(testBatch(1, protocol.Digest{})); err != nil {
		t.Fatal(err)
	}
	// The three honest replicas (incl. leader) form a 2f+1 quorum.
	if !tc.waitDelivered(1, []int32{0, 1, 2}, 5*time.Second) {
		t.Fatal("cluster did not survive one silent replica")
	}
}

func TestToleratesFSilentFollowersAtF2(t *testing.T) {
	tc := newTestCluster(t, 2)
	adversary.Stage(tc.net, map[NodeID]adversary.Attack{{Replica: 5}: adversary.Drop, {Replica: 6}: adversary.Drop})
	if err := tc.propose(testBatch(1, protocol.Digest{})); err != nil {
		t.Fatal(err)
	}
	if !tc.waitDelivered(1, []int32{0, 1, 2, 3, 4}, 5*time.Second) {
		t.Fatal("cluster did not survive f=2 silent replicas")
	}
}

func TestEquivocatingLeaderCannotCommit(t *testing.T) {
	tc := newTestCluster(t, 1)
	adversary.Stage(tc.net, map[NodeID]adversary.Attack{{Replica: 0}: adversary.Rewrite(func(to NodeID, pp *PrePrepare) {
		pp.Batch, pp.LeaderSig = adversary.Repropose(tc.keys[0], pp.View, pp.Batch, func(b *protocol.Batch) {
			b.Timestamp += int64(to.Replica)
		})
	})})
	if err := tc.propose(testBatch(1, protocol.Digest{})); err != nil {
		t.Fatal(err)
	}
	// Once every follower has validated slot 1 under a digest of its own,
	// no replica can gather 2f+1 matching prepares for any digest, so no
	// batch is ever delivered: safety holds, liveness stalls (view change
	// would recover in a full deployment).
	split := eventually(5*time.Second, func() bool {
		digests := make(map[protocol.Digest]bool)
		for i := int32(1); i < 4; i++ {
			tc.on(i, func(r *Replica) {
				if in := r.instances[1]; in != nil && in.validated {
					digests[in.digest] = true
				}
			})
		}
		return len(digests) == 3
	})
	if !split {
		t.Fatal("followers did not each validate their own proposal")
	}
	for r := int32(0); r < 4; r++ {
		if tc.deliveredCount(r) != 0 {
			t.Fatalf("replica %d delivered under equivocation", r)
		}
	}
}

func TestCorruptCertSigExcludedFromCertificate(t *testing.T) {
	tc := newTestCluster(t, 1)
	adversary.Stage(tc.net, map[NodeID]adversary.Attack{{Replica: 2}: adversary.Rewrite(func(_ NodeID, c *Commit) {
		c.CertSig = make([]byte, len(c.CertSig))
	})})
	if err := tc.propose(testBatch(1, protocol.Digest{})); err != nil {
		t.Fatal(err)
	}
	if !tc.waitDelivered(1, []int32{0, 1, 3}, 5*time.Second) {
		t.Fatal("cluster stalled with one corrupt-signature replica")
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for _, r := range []int32{0, 1, 3} {
		cb := tc.delivered[r][0]
		d := cb.Batch.Digest()
		cert := tc.handOut(r, cb)
		if err := cryptoutil.VerifyCertificate(tc.ring, cert, d[:], tc.f+1); err != nil {
			t.Fatalf("replica %d assembled an invalid certificate: %v", r, err)
		}
		for _, s := range cert.Signatures {
			if s.Signer.Replica == 2 {
				t.Fatal("corrupt signature included in certificate")
			}
		}
	}
}

func TestContentValidationBlocksMaliciousLeader(t *testing.T) {
	reject := func(b *protocol.Batch) error {
		for _, txn := range b.Local {
			for _, w := range txn.Writes {
				if string(w.Value) == "evil" {
					return errors.New("invalid write")
				}
			}
		}
		return nil
	}
	tc := newTestCluster(t, 1, withValidate(reject))
	adversary.Stage(tc.net, map[NodeID]adversary.Attack{{Replica: 0}: adversary.Rewrite(func(_ NodeID, pp *PrePrepare) {
		pp.Batch, pp.LeaderSig = adversary.Repropose(tc.keys[0], pp.View, pp.Batch, func(b *protocol.Batch) {
			local := append([]protocol.Transaction(nil), b.Local...)
			writes := append([]protocol.WriteOp(nil), local[0].Writes...)
			writes[0].Value = []byte("evil")
			local[0].Writes = writes
			b.Local = local
		})
	})})
	if err := tc.propose(testBatch(1, protocol.Digest{})); err != nil {
		t.Fatal(err)
	}
	// Once every follower has rejected the tampered proposal, only the
	// leader's prepare backs it, and nothing can be delivered.
	rejected := eventually(5*time.Second, func() bool {
		for _, r := range tc.replicas[1:] {
			if r.Rejected() < 1 {
				return false
			}
		}
		return true
	})
	if !rejected {
		t.Fatal("not every follower recorded a validation rejection")
	}
	for r := int32(0); r < 4; r++ {
		if tc.deliveredCount(r) != 0 {
			t.Fatalf("replica %d committed a batch that fails validation", r)
		}
	}
}

func TestForgedPrePrepareIgnored(t *testing.T) {
	tc := newTestCluster(t, 1)
	// A non-leader replica forges a proposal; followers must ignore it
	// because proposals are only accepted from the leader identity.
	b := testBatch(1, protocol.Digest{})
	d := b.Digest()
	forged := &PrePrepare{Batch: b, LeaderSig: make([]byte, 64)}
	tc.net.Send(NodeID{Cluster: 0, Replica: 2}, NodeID{Cluster: 0, Replica: 1}, forged)
	// Also from the leader's identity but with a bad signature: the
	// envelope From can't be forged in-process, so emulate a corrupted
	// leader signature instead.
	tc.net.Send(NodeID{Cluster: 0, Replica: 0}, NodeID{Cluster: 0, Replica: 1}, &PrePrepare{Batch: b, LeaderSig: make([]byte, 64)})
	_ = d
	time.Sleep(200 * time.Millisecond)
	if tc.deliveredCount(1) != 0 {
		t.Fatal("forged proposal progressed")
	}
}

func TestWithLatencyStillCommits(t *testing.T) {
	tc := newTestCluster(t, 1)
	tc.net.SetLatency(transport.ClusterLatency(2*time.Millisecond, 10*time.Millisecond))
	prev := protocol.Digest{}
	for i := int64(1); i <= 3; i++ {
		b := testBatch(i, prev)
		if err := tc.propose(b); err != nil {
			t.Fatal(err)
		}
		if !tc.waitDelivered(int(i), allReplicas(4), 10*time.Second) {
			t.Fatalf("batch %d not delivered under latency", i)
		}
		prev = b.Digest()
	}
}

// TestProposeWindow exercises the slot-window logic on a standalone
// replica engine (no event loops): up to MaxInFlight proposals are
// accepted back-to-back, the next one is refused, and sequence numbers
// must be consecutive.
func TestProposeWindow(t *testing.T) {
	ring := cryptoutil.NewKeyRing()
	id := NodeID{Cluster: 0, Replica: 0}
	kp := cryptoutil.DeriveKeyPair(id, 5)
	ring.Add(id, kp.Public)
	r := New(Config{
		Cluster: 0, Replica: 0, N: 4, F: 1,
		Keys: kp, Ring: ring, Net: transport.NewNetwork(),
		MaxInFlight: 3,
	})

	prev := protocol.Digest{}
	for i := int64(1); i <= 3; i++ {
		b := testBatch(i, prev)
		if err := r.Propose(b); err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
		prev = b.Digest()
	}
	if got := r.InFlight(); got != 3 {
		t.Fatalf("InFlight = %d, want 3", got)
	}
	if err := r.Propose(testBatch(4, prev)); !errors.Is(err, ErrPipelineFull) {
		t.Fatalf("err = %v, want ErrPipelineFull", err)
	}
	if err := r.Propose(testBatch(7, prev)); !errors.Is(err, ErrBadBatchID) {
		t.Fatalf("err = %v, want ErrBadBatchID", err)
	}
}

// TestPipelinedProposalsDeliverInOrder proposes MaxInFlight batches
// back-to-back — without waiting for any delivery — and checks every
// replica delivers all of them, in order, properly chained and
// certified.
func TestPipelinedProposalsDeliverInOrder(t *testing.T) {
	tc := newTestCluster(t, 1, func(i int32, cfg *Config) { cfg.MaxInFlight = 3 })
	tc.net.SetLatency(transport.ClusterLatency(2*time.Millisecond, 0))

	prev := protocol.Digest{}
	batches := make([]*protocol.Batch, 0, 3)
	for i := int64(1); i <= 3; i++ {
		b := testBatch(i, prev)
		if err := tc.propose(b); err != nil {
			t.Fatalf("pipelined propose %d: %v", i, err)
		}
		prev = b.Digest()
		batches = append(batches, b)
	}

	if !tc.waitDelivered(3, allReplicas(4), 10*time.Second) {
		t.Fatal("pipelined batches not delivered at all replicas")
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for r := int32(0); r < 4; r++ {
		for i := 0; i < 3; i++ {
			cb := tc.delivered[r][i]
			if cb.Batch.ID != int64(i+1) {
				t.Fatalf("replica %d delivered ID %d at position %d", r, cb.Batch.ID, i)
			}
			if cb.Batch.Digest() != batches[i].Digest() {
				t.Fatalf("replica %d: batch %d content differs from proposal", r, i+1)
			}
			if i > 0 && cb.Batch.PrevDigest != tc.delivered[r][i-1].Batch.Digest() {
				t.Fatalf("replica %d: batch %d does not chain", r, i+1)
			}
			d := cb.Batch.Digest()
			if err := cryptoutil.VerifyCertificate(tc.ring, cb.Cert, d[:], tc.f+1); err != nil {
				t.Fatalf("replica %d: batch %d certificate invalid: %v", r, i+1, err)
			}
		}
	}
}

// TestStopAndWaitValidatesDeliveredState runs the default MaxInFlight of
// 1 with replica 3's links from replicas 1 and 2 slowed, so it receives
// the leader's next proposal before it can deliver the previous batch.
// Every replica must validate each batch against its own delivered tip,
// and every replica delivers all batches in order, chained and
// certified.
func TestStopAndWaitValidatesDeliveredState(t *testing.T) {
	const batches = 6
	var tc *testCluster
	var early atomic.Int64
	tc = newTestCluster(t, 1, func(i int32, cfg *Config) {
		cfg.Validate = func(b *protocol.Batch) error {
			tc.mu.Lock()
			defer tc.mu.Unlock()
			got := tc.delivered[i]
			if int64(len(got)) != b.ID-1 || (len(got) > 0 && got[len(got)-1].Batch.Digest() != b.PrevDigest) {
				early.Add(1)
			}
			return nil
		}
	})
	tc.net.SetLatency(func(from, to NodeID) time.Duration {
		if to.Replica == 3 && (from.Replica == 1 || from.Replica == 2) {
			return 20 * time.Millisecond
		}
		return time.Millisecond
	})

	prev := protocol.Digest{}
	for i := int64(1); i <= batches; i++ {
		b := testBatch(i, prev)
		if err := tc.propose(b); err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
		// The leader proposes the next batch once it delivered this one;
		// waiting for the slowed follower one batch behind keeps it
		// inside the buffering window.
		if !tc.waitDelivered(int(i), []int32{0}, 10*time.Second) ||
			!tc.waitDelivered(int(i-1), allReplicas(4), 10*time.Second) {
			t.Fatalf("batch %d not delivered", i)
		}
		prev = b.Digest()
	}
	if !tc.waitDelivered(batches, allReplicas(4), 10*time.Second) {
		t.Fatal("batches not delivered at all replicas")
	}
	if n := early.Load(); n != 0 {
		t.Fatalf("%d validations ran ahead of the replica's delivered tip", n)
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for r := int32(0); r < 4; r++ {
		for i, cb := range tc.delivered[r] {
			if cb.Batch.ID != int64(i+1) {
				t.Fatalf("replica %d delivered ID %d at position %d", r, cb.Batch.ID, i)
			}
			if i > 0 && cb.Batch.PrevDigest != tc.delivered[r][i-1].Batch.Digest() {
				t.Fatalf("replica %d: batch %d does not chain", r, i+1)
			}
			d := cb.Batch.Digest()
			if err := cryptoutil.VerifyCertificate(tc.ring, cb.Cert, d[:], tc.f+1); err != nil {
				t.Fatalf("replica %d: batch %d certificate invalid: %v", r, i+1, err)
			}
		}
	}
}

func TestNextIDAdvances(t *testing.T) {
	tc := newTestCluster(t, 1)
	if got := tc.replicas[0].NextID(); got != 1 {
		t.Fatalf("NextID = %d, want 1", got)
	}
	if err := tc.propose(testBatch(1, protocol.Digest{})); err != nil {
		t.Fatal(err)
	}
	if !tc.waitDelivered(1, []int32{0}, 5*time.Second) {
		t.Fatal("not delivered")
	}
	// NextID is read by the leader loop after delivery; synchronize via
	// the delivered record rather than racing on internals.
	tc.mu.Lock()
	got := tc.delivered[0][0].Batch.ID
	tc.mu.Unlock()
	if got != 1 {
		t.Fatalf("delivered ID = %d", got)
	}
}
