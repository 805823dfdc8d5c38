package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"transedge/internal/bft"
	"transedge/internal/cryptoutil"
	"transedge/internal/merkle"
	"transedge/internal/protocol"
	"transedge/internal/store"
	_ "transedge/internal/store/lsm" // registers the "lsm" engine
	"transedge/internal/transport"
	"transedge/internal/wal"
)

// The stand-alone probes time each layer's exported functions on fixed,
// seeded inputs, outside any deployment: a tree of probeLeaves leaves, a
// batch of 64 transactions x 3 writes of 256 B (plus 5 reads each), a
// 5-key read set, n=4/f=1 keys, and a WAL in a scratch directory. They run
// single-threaded, so the counts they yield repeat bit-for-bit.
const (
	probeSeed      = 11
	probeBatchTxns = 64
	probeWrites    = 3
	probeReads     = 5
	probeROKeys    = 5
)

// probeOut maps metric name to value; units come from the catalogue.
type probeOut map[string]float64

// timeEach runs f iters times and returns the median duration of one
// call in microseconds.
func timeEach(iters int, f func(i int)) float64 {
	ds := make([]float64, iters)
	for i := range ds {
		t0 := time.Now()
		f(i)
		ds[i] = float64(time.Since(t0)) / 1e3
	}
	return median(ds)
}

func iterations(n int, sc Scale) int {
	return max(n/sc.ProbeDiv, 5)
}

// probeFixture is the shared seeded input set.
type probeFixture struct {
	leaves int
	keys   []string
	values map[string][]byte
	tree   *merkle.Tree
	ring   *cryptoutil.KeyRing
	pairs  []cryptoutil.KeyPair
}

func newProbeFixture(sc Scale) *probeFixture {
	fx := &probeFixture{leaves: sc.Keys / 2, values: make(map[string][]byte)}
	updates := make(map[string]merkle.Digest, fx.leaves)
	for i := 0; i < fx.leaves; i++ {
		k := keyName(i)
		v := encodeBalance(int64(i))
		fx.keys = append(fx.keys, k)
		fx.values[k] = v
		updates[k] = merkle.HashValue(v)
	}
	fx.tree = merkle.New().Apply(updates)
	fx.ring = cryptoutil.NewKeyRing()
	for r := 0; r < 3*faultsF+1; r++ {
		id := cryptoutil.NodeID{Cluster: 0, Replica: int32(r)}
		kp := cryptoutil.DeriveKeyPair(id, probeSeed)
		fx.pairs = append(fx.pairs, kp)
		fx.ring.Add(id, kp.Public)
	}
	return fx
}

// keySet draws n distinct fixture keys.
func (fx *probeFixture) keySet(rng *rand.Rand, n int) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		if k := fx.keys[rng.Intn(len(fx.keys))]; !slices.Contains(out, k) {
			out = append(out, k)
		}
	}
	return out
}

// batch builds the probe batch: probeBatchTxns transactions, each reading
// probeReads keys and writing probeWrites of them.
func (fx *probeFixture) batch(rng *rand.Rand, id int64, prev protocol.Digest) *protocol.Batch {
	b := &protocol.Batch{Cluster: 0, ID: id, PrevDigest: prev, Timestamp: 1_700_000_000_000_000_000 + id,
		CD: protocol.NewCDVector(1), LCE: -1, MerkleRoot: fx.tree.Root()}
	for t := 0; t < probeBatchTxns; t++ {
		keys := fx.keySet(rng, probeReads)
		txn := protocol.Transaction{ID: protocol.MakeTxnID(7, uint32(id)*probeBatchTxns+uint32(t)), Partitions: []int32{0}}
		for _, k := range keys {
			txn.Reads = append(txn.Reads, protocol.ReadEntry{Key: k, Version: 0})
		}
		for _, k := range keys[:probeWrites] {
			txn.Writes = append(txn.Writes, protocol.WriteOp{Key: k, Value: fx.values[k]})
		}
		b.Local = append(b.Local, txn)
	}
	return b
}

func (fx *probeFixture) cert(msg []byte, sigs int) cryptoutil.Certificate {
	c := cryptoutil.Certificate{Cluster: 0}
	for r := 0; r < sigs; r++ {
		id := cryptoutil.NodeID{Cluster: 0, Replica: int32(r)}
		c.Signatures = append(c.Signatures, cryptoutil.SignCertificate(fx.pairs[r], id, msg))
	}
	return c
}

// runProbes runs every stand-alone probe. work is a scratch directory.
func runProbes(sc Scale, work string) (probeOut, error) {
	out := probeOut{}
	fx := newProbeFixture(sc)
	probeMerkle(fx, sc, out)
	probeCrypto(fx, sc, out)
	probeProtocol(fx, sc, out)
	if err := probeWAL(fx, sc, work, out); err != nil {
		return nil, err
	}
	for _, engine := range []string{"sharded", "lsm"} {
		if err := probeStore(fx, sc, engine, out); err != nil {
			return nil, err
		}
	}
	probeTransport(sc, out)
	if err := probeBFT(fx, sc, out); err != nil {
		return nil, err
	}
	return out, nil
}

func probeMerkle(fx *probeFixture, sc Scale, out probeOut) {
	rng := rand.New(rand.NewSource(probeSeed))

	updates := make(map[string]merkle.Digest, fx.leaves)
	for k, v := range fx.values {
		updates[k] = merkle.HashValue(v)
	}
	out["merkle.build_ms"] = timeEach(3, func(int) { merkle.New().Apply(updates) }) / 1e3

	// One bulk apply of a 64x3-write batch onto the fixture tree. The tree
	// is persistent, so every iteration starts from the same version.
	n := iterations(200, sc)
	sets := make([][]merkle.Update, n)
	for i := range sets {
		for _, k := range fx.keySet(rng, probeBatchTxns*probeWrites) {
			sets[i] = append(sets[i], merkle.Update{KeyHash: merkle.HashKey([]byte(k)), ValHash: merkle.HashValue([]byte(k))})
		}
	}
	h0 := merkle.HashOps()
	out["merkle.apply_bulk_us"] = timeEach(n, func(i int) { fx.tree.ApplyBulk(sets[i]) })
	out["merkle.apply_hashes_per_update"] = float64(merkle.HashOps()-h0) / float64(n*probeBatchTxns*probeWrites)

	// A 5-key multi-proof: build, encode, verify.
	n = iterations(2000, sc)
	keySets := make([][][]byte, n)
	answers := make([][]merkle.KeyAnswer, n)
	proofs := make([]merkle.MultiProof, n)
	for i := range keySets {
		for _, k := range fx.keySet(rng, probeROKeys) {
			keySets[i] = append(keySets[i], []byte(k))
			answers[i] = append(answers[i], merkle.KeyAnswer{Key: []byte(k), Value: fx.values[k], Found: true})
		}
	}
	out["merkle.prove_multi_us"] = timeEach(n, func(i int) { proofs[i], _ = fx.tree.ProveMulti(keySets[i]) })
	bytes := 0
	for i := range proofs {
		bytes += len(protocol.EncodeMultiProof(&proofs[i]))
	}
	out["merkle.multiproof_bytes"] = float64(bytes) / float64(n)
	out["protocol.encode_multiproof_us"] = timeEach(n, func(i int) { protocol.EncodeMultiProof(&proofs[i]) })
	root, failed := fx.tree.Root(), 0
	h0 = merkle.HashOps()
	out["merkle.verify_multi_us"] = timeEach(n, func(i int) {
		if merkle.VerifyMulti(root, answers[i], proofs[i]) != nil {
			failed++
		}
	})
	out["merkle.verify_hashes_per_ro"] = float64(merkle.HashOps()-h0) / float64(n)
	if failed > 0 {
		panic(fmt.Sprintf("probe: %d honest multi-proofs failed verification", failed))
	}
}

func probeCrypto(fx *probeFixture, sc Scale, out probeOut) {
	msg := cryptoutil.Hash([]byte("probe message"))
	n := iterations(1000, sc)
	var sig []byte
	out["cryptoutil.sign_us"] = timeEach(n, func(int) { sig = fx.pairs[0].Sign(msg[:]) })
	out["cryptoutil.verify_us"] = timeEach(n, func(int) { cryptoutil.Verify(fx.pairs[0].Public, msg[:], sig) })
	full := fx.cert(msg[:], 2*faultsF+1)
	out["cryptoutil.verify_cert_us"] = timeEach(n, func(int) {
		cryptoutil.VerifyCertificate(fx.ring, full, msg[:], 2*faultsF+1)
	})
	out["cryptoutil.verify_cert_f1_us"] = timeEach(n, func(int) {
		cryptoutil.VerifyCertificate(fx.ring, full, msg[:], faultsF+1)
	})
}

func probeProtocol(fx *probeFixture, sc Scale, out probeOut) {
	rng := rand.New(rand.NewSource(probeSeed + 1))
	b := fx.batch(rng, 1, protocol.Digest{})
	n := iterations(300, sc)
	// A fresh memo each call: a sealed batch computes its digest once.
	out["protocol.seal_digest_us"] = timeEach(n, func(int) {
		c := b.MutableCopy()
		c.Seal()
		c.Digest()
	})
	b.Seal()
	d := b.Digest()
	cb := protocol.CertifiedBatch{Batch: b, Cert: fx.cert(d[:], 2*faultsF+1)}
	var buf []byte
	out["protocol.encode_certified_us"] = timeEach(n, func(int) { buf = protocol.EncodeCertifiedBatch(&cb) })
	out["protocol.certified_batch_bytes"] = float64(len(buf))
	out["protocol.decode_certified_us"] = timeEach(n, func(int) {
		if _, err := protocol.DecodeCertifiedBatch(buf); err != nil {
			panic("probe: certified batch does not round-trip: " + err.Error())
		}
	})
}

func probeWAL(fx *probeFixture, sc Scale, work string, out probeOut) error {
	rng := rand.New(rand.NewSource(probeSeed + 2))
	b := fx.batch(rng, 1, protocol.Digest{}).Seal()
	d := b.Digest()
	payload := protocol.EncodeCertifiedBatch(&protocol.CertifiedBatch{Batch: b, Cert: fx.cert(d[:], 2*faultsF+1)})

	if err := os.MkdirAll(work, 0o755); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	dir, err := os.MkdirTemp(work, "walprobe-")
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	defer os.RemoveAll(dir)

	appendRun := func(sub string, syncEvery, n int) (float64, error) {
		l, err := wal.Open(wal.Options{Dir: filepath.Join(dir, sub), SyncEvery: syncEvery}, nil)
		if err != nil {
			return 0, fmt.Errorf("wal probe: open: %w", err)
		}
		var appendErr error
		us := timeEach(n, func(i int) {
			if err := l.Append(int64(i+1), payload); err != nil {
				appendErr = err
			}
		})
		if err := l.Close(); err != nil && appendErr == nil {
			appendErr = err
		}
		if appendErr != nil {
			return 0, fmt.Errorf("wal probe: append: %w", appendErr)
		}
		return us, nil
	}
	records := iterations(300, sc)
	if out["wal.append_us"], err = appendRun("nosync", wal.SyncNever, records); err != nil {
		return err
	}
	if out["wal.append_fsync_us"], err = appendRun("fsync", 1, iterations(100, sc)); err != nil {
		return err
	}
	replayed := 0
	t0 := time.Now()
	l, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "nosync"), SyncEvery: wal.SyncNever},
		func(int64, []byte) bool { replayed++; return true })
	if err != nil {
		return fmt.Errorf("wal probe: reopen: %w", err)
	}
	took := time.Since(t0)
	if err := l.Close(); err != nil {
		return fmt.Errorf("wal probe: close: %w", err)
	}
	if replayed != records {
		return fmt.Errorf("wal probe: replayed %d of %d records", replayed, records)
	}
	out["wal.replay_ms_per_1k"] = took.Seconds() * 1e3 * 1000 / float64(records)
	return nil
}

func probeStore(fx *probeFixture, sc Scale, engine string, out probeOut) error {
	rng := rand.New(rand.NewSource(probeSeed + 3))
	eng, err := store.NewEngine(engine, 0)
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	if c, ok := eng.(interface{ Close() }); ok {
		defer c.Close()
	}
	eng.Load(fx.values)
	name := func(m string) string { return "store." + engine + "." + m }

	n := iterations(200, sc)
	sets := make([]map[string][]byte, n)
	for i := range sets {
		sets[i] = make(map[string][]byte)
		for _, k := range fx.keySet(rng, probeBatchTxns*probeWrites) {
			sets[i][k] = fx.values[k]
		}
	}
	out[name("apply_all_us")] = timeEach(n, func(i int) { eng.ApplyAll(int64(i+1), sets[i]) })
	tip := int64(n)

	reads := iterations(5000, sc)
	roKeys := make([][]string, reads)
	txnKeys := make([][]string, reads)
	for i := range roKeys {
		roKeys[i] = fx.keySet(rng, probeROKeys)
		txnKeys[i] = fx.keySet(rng, probeReads+probeWrites)
	}
	out[name("multiget_us")] = timeEach(reads, func(i int) { eng.MultiGetAsOf(roKeys[i], tip) })
	out[name("last_writers_us")] = timeEach(reads, func(i int) { eng.LastWriters(txnKeys[i]) })
	out[name("export_ms")] = timeEach(3, func(int) { eng.ExportAsOf(tip) }) / 1e3
	return nil
}

func probeTransport(sc Scale, out probeOut) {
	a := cryptoutil.NodeID{Cluster: 0, Replica: 0}
	b := cryptoutil.NodeID{Cluster: 0, Replica: 1}
	hop := func(delay time.Duration, n int) []float64 {
		net := transport.NewNetwork()
		defer net.Stop()
		net.SetLatency(func(_, _ cryptoutil.NodeID) time.Duration { return delay })
		net.Register(a)
		inbox := net.Register(b)
		ds := make([]float64, n)
		for i := range ds {
			t0 := time.Now()
			net.Send(a, b, i)
			<-inbox
			ds[i] = float64(time.Since(t0)-delay) / 1e3
		}
		return ds
	}
	out["transport.hop_us"] = median(hop(0, iterations(5000, sc)))
	// Delivery lateness beyond an injected 500 µs delay: what the
	// simulator's timers add to every delayed link.
	out["transport.timer_overshoot_us"] = median(hop(500*time.Microsecond, iterations(400, sc)))
}

// bftCluster is four replicas on a zero-delay network with benchmark-owned
// event loops; proposals are handed to the leader's loop over a channel
// because a Replica is single-threaded.
type bftCluster struct {
	net       *transport.Network
	propose   chan *protocol.Batch
	delivered chan protocol.Digest // leader deliveries
	counts    []int                // deliveries per replica
	mu        sync.Mutex
	stop      chan struct{}
	wg        sync.WaitGroup
}

func newBFTCluster(fx *probeFixture, maxInFlight int) *bftCluster {
	n := len(fx.pairs)
	c := &bftCluster{net: transport.NewNetwork(), propose: make(chan *protocol.Batch),
		// Sized to the deepest pipeline used, so a leader never blocks on
		// reporting a delivery.
		delivered: make(chan protocol.Digest, 8),
		counts:    make([]int, n), stop: make(chan struct{})}
	for r := 0; r < n; r++ {
		r := r
		rep := bft.New(bft.Config{
			Cluster: 0, Replica: int32(r), N: n, F: faultsF,
			Keys: fx.pairs[r], Ring: fx.ring, Net: c.net, MaxInFlight: maxInFlight,
			Validate: func(*protocol.Batch) error { return nil },
			Deliver: func(cb protocol.CertifiedBatch) {
				c.mu.Lock()
				c.counts[r]++
				c.mu.Unlock()
				if r == int(bft.LeaderReplica) {
					c.delivered <- cb.Batch.Digest()
				}
			},
		})
		inbox := c.net.Register(cryptoutil.NodeID{Cluster: 0, Replica: int32(r)})
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			var proposals chan *protocol.Batch
			if r == int(bft.LeaderReplica) {
				proposals = c.propose
			}
			for {
				select {
				case env, ok := <-inbox:
					if !ok {
						return
					}
					rep.Handle(env.From, env.Payload)
				case b := <-proposals:
					if err := rep.Propose(b); err != nil {
						panic("probe: bft propose: " + err.Error())
					}
				case <-c.stop:
					return
				}
			}
		}()
	}
	return c
}

// settle waits until every replica delivered want batches.
func (c *bftCluster) settle(want int) error {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		c.mu.Lock()
		lowest := c.counts[0]
		for _, n := range c.counts {
			lowest = min(lowest, n)
		}
		c.mu.Unlock()
		if lowest >= want {
			return nil
		}
	}
	return fmt.Errorf("bft probe: replicas did not deliver %d batches", want)
}

func (c *bftCluster) close() {
	close(c.stop)
	c.wg.Wait()
	c.net.Stop()
}

func probeBFT(fx *probeFixture, sc Scale, out probeOut) error {
	rng := rand.New(rand.NewSource(probeSeed + 4))
	n := iterations(200, sc)
	mkBatches := func() []*protocol.Batch {
		bs := make([]*protocol.Batch, n)
		prev := protocol.Digest{}
		for i := range bs {
			bs[i] = fx.batch(rng, int64(i+1), prev).Seal()
			prev = bs[i].Digest()
		}
		return bs
	}

	// Depth 1: Propose -> Deliver at the leader, one batch at a time.
	c := newBFTCluster(fx, 1)
	batches := mkBatches()
	ds := make([]float64, n)
	for i, b := range batches {
		t0 := time.Now()
		c.propose <- b
		<-c.delivered
		ds[i] = float64(time.Since(t0)) / 1e3
	}
	err := c.settle(n)
	sent := c.net.Stats.Sent.Load()
	c.close()
	if err != nil {
		return err
	}
	sort.Float64s(ds)
	out["bft.commit_us"] = percentile(ds, 50)
	out["bft.msgs_per_batch"] = float64(sent) / float64(n)

	// Depth 4: the leader keeps four proposals in flight.
	const depth = 4
	c = newBFTCluster(fx, depth)
	batches = mkBatches()
	t0 := time.Now()
	next := 0
	for ; next < depth && next < n; next++ {
		c.propose <- batches[next]
	}
	for done := 0; done < n; done++ {
		<-c.delivered
		if next < n {
			c.propose <- batches[next]
			next++
		}
	}
	took := time.Since(t0)
	err = c.settle(n)
	c.close()
	if err != nil {
		return err
	}
	out["bft.batches_per_s"] = float64(n) / took.Seconds()
	return nil
}
