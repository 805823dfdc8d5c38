// Microbenchmarks of the per-operation costs that every layer's hot
// path pays: batch digests, certificate verification, Merkle apply,
// build and compaction, multi-proof construction and verification,
// sharded-store apply, snapshot reads and export, replica boot and bytes
// per key, and simulated-network delivery. Each
// reports its own cost metrics via b.ReportMetric. End-to-end numbers
// (latency, throughput, heap per workload) come from the benchmark in
// bench/ (`bash bench/run.sh`), not from here.
package bench_test

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"testing"
	"time"

	"transedge/internal/core"
	"transedge/internal/cryptoutil"
	"transedge/internal/merkle"
	"transedge/internal/protocol"
	"transedge/internal/store"
	"transedge/internal/transport"
)

// --- Hot-path microbenchmarks: the per-slot CPU work every pipelined
// consensus step pays. ---

// benchBatch builds a batch shaped like a busy leader's: n local
// write-only transactions of 3 writes each.
func benchBatch(n int) *protocol.Batch {
	b := &protocol.Batch{Cluster: 0, ID: 1, Timestamp: 1, CD: protocol.NewCDVector(2)}
	for i := 0; i < n; i++ {
		txn := protocol.Transaction{ID: protocol.MakeTxnID(1, uint32(i)), Partitions: []int32{0}}
		for w := 0; w < 3; w++ {
			txn.Writes = append(txn.Writes, protocol.WriteOp{
				Key:   fmt.Sprintf("key-%d-%d", i, w),
				Value: make([]byte, 64),
			})
		}
		b.Local = append(b.Local, txn)
	}
	return b
}

// BenchmarkBatchDigest — the cost of the four digest reads every batch
// pays across its consensus lifetime (leader sign, follower pre-prepare,
// validation, delivery): a sealed batch computes its header once and
// serves the memoized digest thereafter.
func BenchmarkBatchDigest(b *testing.B) {
	const digestReadsPerBatch = 4
	batch := benchBatch(200)
	for i := 0; i < b.N; i++ {
		sealed := batch.MutableCopy().Seal()
		for r := 0; r < digestReadsPerBatch; r++ {
			_ = sealed.Digest()
		}
	}
}

// BenchmarkVerifyCertificate — an f=3 cluster's certificate carrying all
// 10 commit signatures, verified at threshold f+1=4: verification stops
// at the threshold and fans out across the worker pool.
func BenchmarkVerifyCertificate(b *testing.B) {
	ring := cryptoutil.NewKeyRing()
	msg := []byte("benchmark-digest-benchmark-digest")
	cert := cryptoutil.Certificate{Cluster: 0}
	for i := int32(0); i < 10; i++ {
		id := cryptoutil.NodeID{Cluster: 0, Replica: i}
		kp := cryptoutil.DeriveKeyPair(id, 7)
		ring.Add(id, kp.Public)
		cert.Signatures = append(cert.Signatures, cryptoutil.SignCertificate(kp, id, msg))
	}
	const threshold = 4
	for i := 0; i < b.N; i++ {
		if err := cryptoutil.VerifyCertificate(ring, cert, msg, threshold); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMerkleApply — applying a 100-new-key batch to a 5000-key tree:
// old inserts keys one at a time (re-hashing the root path per key),
// bulk merges the sorted batch in one pass. overwrite applies 3 writes to
// existing keys of a 10 000-key tree, one transaction's writes in every
// benchmark workload. hashes/op reports the node hashes per apply.
func BenchmarkMerkleApply(b *testing.B) {
	base := merkle.New()
	for i := 0; i < 5000; i++ {
		base = base.Insert([]byte(fmt.Sprintf("base-%d", i)), merkle.HashValue([]byte("v")))
	}
	updates := make(map[string]merkle.Digest, 100)
	for i := 0; i < 100; i++ {
		updates[fmt.Sprintf("update-%d", i)] = merkle.HashValue([]byte("w"))
	}
	existing := make([]merkle.Update, 10000)
	for i := range existing {
		k := []byte(fmt.Sprintf("existing-%d", i))
		existing[i] = merkle.Update{KeyHash: merkle.HashKey(k), ValHash: merkle.HashValue(k)}
	}
	big := merkle.Build(slices.Clone(existing))
	run := func(apply func(i int)) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			start := merkle.HashOps()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				apply(i)
			}
			b.StopTimer()
			b.ReportMetric(float64(merkle.HashOps()-start)/float64(b.N), "hashes/op")
		}
	}
	b.Run("old", run(func(int) {
		t := base
		for k, vh := range updates {
			t = t.Insert([]byte(k), vh)
		}
	}))
	b.Run("bulk", run(func(int) { _ = base.Apply(updates) }))
	var ups [3]merkle.Update
	b.Run("overwrite", run(func(i int) {
		for j := range ups {
			ups[j] = merkle.Update{KeyHash: existing[(i*3+j)*7919%len(existing)].KeyHash, ValHash: merkle.Digest{0: byte(i)}}
		}
		_ = big.ApplyBulk(ups[:])
	}))
}

// --- Sharded storage microbenchmarks (shards=1 is a single-lock
// store). ---

// benchStore builds a store preloaded with `keys` keys and `versions`
// committed batches of 200-key writes each.
func benchStore(shards, keys, versions int) (*store.Store, []string) {
	s := store.NewSharded(shards)
	all := make([]string, keys)
	init := make(map[string][]byte, keys)
	for i := range all {
		all[i] = fmt.Sprintf("bench-key-%06d", i)
		init[all[i]] = make([]byte, 64)
	}
	s.Load(init)
	val := make([]byte, 64)
	for b := 1; b <= versions; b++ {
		writes := make(map[string][]byte, 200)
		for i := 0; i < 200; i++ {
			writes[all[(b*200+i)%keys]] = val
		}
		s.ApplyAll(int64(b), writes)
	}
	return s, all
}

// BenchmarkStoreApplyAll — writing one 200-key batch: grouped per-shard
// locking (one acquisition per shard) vs a single global lock.
func BenchmarkStoreApplyAll(b *testing.B) {
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, all := benchStore(shards, 5000, 20)
			val := make([]byte, 64)
			writes := make(map[string][]byte, 200)
			for i := 0; i < 200; i++ {
				writes[all[i*7%len(all)]] = val
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ApplyAll(int64(100+i), writes)
			}
		})
	}
}

// BenchmarkStoreMultiGetAsOf — a read-only transaction's 16-key snapshot
// fan-out under concurrent readers, the off-loop executors' hot call.
func BenchmarkStoreMultiGetAsOf(b *testing.B) {
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, all := benchStore(shards, 5000, 20)
			asOf := s.StableBatch()
			b.RunParallel(func(pb *testing.PB) {
				probe := make([]string, 16)
				i := 0
				for pb.Next() {
					for j := range probe {
						probe[j] = all[(i*31+j*257)%len(all)]
					}
					i++
					if got := s.MultiGetAsOf(probe, asOf); !got[0].Found {
						// b.Fatal must not run on a RunParallel worker.
						b.Error("preloaded key missing")
						return
					}
				}
			})
		})
	}
}

// BenchmarkStoreExportAsOf — the whole-keyspace snapshot that checkpoint
// derivation, checkpoint persistence and state transfer each take:
// 10 000 keys × 256 B over the default 16 shards, a few hundred of them
// overwritten since the snapshot so the export also reads history.
func BenchmarkStoreExportAsOf(b *testing.B) {
	s := store.New()
	init := make(map[string][]byte, 10000)
	for i := 0; i < 10000; i++ {
		init[fmt.Sprintf("export-key-%06d", i)] = make([]byte, 256)
	}
	s.Load(init)
	writes := make(map[string][]byte, 300)
	for i := 0; i < 300; i++ {
		writes[fmt.Sprintf("export-key-%06d", i*31)] = make([]byte, 256)
	}
	s.ApplyAll(1, writes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.ExportAsOf(0)) != len(init) {
			b.Fatal("export lost keys")
		}
	}
}

// --- Multi-proof microbenchmarks: one pruned-subtree proof per request
// vs N independent proofs, at 1/10/100 keys. proofbytes/op and hashes/op
// quantify the wire and verify-CPU savings per request. ---

// benchMultiTree builds a 10k-key tree plus a query of n keys (about one
// in eight absent, as in the RO workload's partition misses).
func benchMultiTree(n int) (*merkle.Tree, [][]byte, []merkle.KeyAnswer) {
	tr := merkle.New()
	vals := make(map[string][]byte, 10000)
	var pool [][]byte
	for i := 0; i < 10000; i++ {
		k := []byte(fmt.Sprintf("mp-key-%06d", i))
		v := []byte(fmt.Sprintf("mp-val-%d", i))
		tr = tr.Insert(k, merkle.HashValue(v))
		vals[string(k)] = v
		pool = append(pool, k)
	}
	keys := make([][]byte, 0, n)
	answers := make([]merkle.KeyAnswer, 0, n)
	for i := 0; i < n; i++ {
		var k []byte
		if i%8 == 7 {
			k = []byte(fmt.Sprintf("mp-absent-%06d", i))
		} else {
			k = pool[(i*977)%len(pool)]
		}
		keys = append(keys, k)
		if v, ok := vals[string(k)]; ok {
			answers = append(answers, merkle.KeyAnswer{Key: k, Value: v, Found: true})
		} else {
			answers = append(answers, merkle.KeyAnswer{Key: k, Found: false})
		}
	}
	return tr, keys, answers
}

func BenchmarkMultiProve(b *testing.B) {
	for _, n := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			tr, keys, _ := benchMultiTree(n)
			mp, err := tr.ProveMulti(keys)
			if err != nil {
				b.Fatal(err)
			}
			multiBytes := len(protocol.EncodeMultiProof(&mp))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.ProveMulti(keys); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(multiBytes), "proofbytes/op")
		})
	}
}

func BenchmarkVerifyMulti(b *testing.B) {
	for _, n := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			tr, keys, answers := benchMultiTree(n)
			root := tr.Root()
			mp, err := tr.ProveMulti(keys)
			if err != nil {
				b.Fatal(err)
			}
			// Hash count of verifying the N independent proofs instead.
			var singleHashes uint64
			for _, a := range answers {
				var p merkle.Proof
				var ap merkle.AbsenceProof
				found := a.Found
				if found {
					p, _, err = tr.Prove(a.Key)
				} else {
					ap, err = tr.ProveAbsent(a.Key)
				}
				if err != nil {
					b.Fatal(err)
				}
				hs := merkle.HashOps()
				if found {
					err = merkle.VerifyProof(root, a.Key, a.Value, p)
				} else {
					err = merkle.VerifyAbsence(root, a.Key, ap)
				}
				if err != nil {
					b.Fatal(err)
				}
				singleHashes += merkle.HashOps() - hs
			}
			start := merkle.HashOps()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := merkle.VerifyMulti(root, answers, mp); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(merkle.HashOps()-start)/float64(b.N), "hashes/op")
			b.ReportMetric(float64(singleHashes), "singlehashes/op")
		})
	}
}

// BenchmarkMerkleBuild — the whole-keyspace build every replica pays at
// genesis, at a cold restart and at a checkpoint install: 10 000 hashed
// bindings in arrival (not key-hash) order through merkle.Build. The
// input is copied outside the timer because Build reorders it in place.
func BenchmarkMerkleBuild(b *testing.B) {
	src := make([]merkle.Update, 10000)
	for i := range src {
		k := []byte(fmt.Sprintf("build-key-%06d", i))
		src[i] = merkle.Update{KeyHash: merkle.HashKey(k), ValHash: merkle.HashValue(k)}
	}
	ups := make([]merkle.Update, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(ups, src)
		b.StartTimer()
		if merkle.Build(ups).Len() != len(src) {
			b.Fatal("build lost keys")
		}
	}
}

// BenchmarkSystemBoot — time to ready of the benchmark's deployment
// shape: 3 clusters x 4 replicas over 20 000 keys x 256 B, from
// core.NewSystem (genesis certification, twelve stores and Merkle trees)
// to the last event loop started. Stop is outside the timer.
func BenchmarkSystemBoot(b *testing.B) {
	data := make(map[string][]byte, 20000)
	for i := 0; i < 20000; i++ {
		data[fmt.Sprintf("boot-key-%06d", i)] = make([]byte, 256)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := core.NewSystem(core.SystemConfig{Clusters: 3, F: 1, Seed: 1, InitialData: data})
		sys.Start()
		b.StopTimer()
		sys.Stop()
		b.StartTimer()
	}
}

// BenchmarkMerkleCompact — the event-loop pause a compaction adds at a
// stable checkpoint: copying a 10 000-key lineage's 128 retained versions,
// each three overwrites past the one before, into a fresh arena.
func BenchmarkMerkleCompact(b *testing.B) {
	const keys, versions = 10000, 128
	ups := make([]merkle.Update, keys)
	for i := range ups {
		k := []byte(fmt.Sprintf("compact-key-%06d", i))
		ups[i] = merkle.Update{KeyHash: merkle.HashKey(k), ValHash: merkle.HashValue(k)}
	}
	lineage := []*merkle.Tree{merkle.Build(slices.Clone(ups))}
	for v := 1; v < versions; v++ {
		var batch [3]merkle.Update
		for j := range batch {
			batch[j] = merkle.Update{KeyHash: ups[(v*3+j)*7919%keys].KeyHash, ValHash: merkle.Digest{0: byte(v), 1: byte(j)}}
		}
		lineage = append(lineage, lineage[v-1].ApplyBulk(batch[:]))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merkle.Compact(lineage)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/compaction")
}

// BenchmarkReplicaBytesPerKey — what one key costs one replica in memory,
// the number a node or store layout change moves: the live heap a booted
// system of rw-local's shape (2 clusters x 4 replicas over 20 000 keys x
// 256 B) holds beyond its InitialData, over the 80 000 key-replicas (each
// key lives on the 4 replicas of its cluster). Values stay shared with
// InitialData until first overwritten, so B/key-replica counts the Merkle
// trie, the store and the per-replica fixed costs spread over the keys.
// scan-B/key-replica is the part of it the collector must scan for
// pointers on every cycle (runtime/metrics /gc/scan/heap:bytes).
func BenchmarkReplicaBytesPerKey(b *testing.B) {
	const keys, replicasPerKey = 20000, 4
	data := make(map[string][]byte, keys)
	for i := 0; i < keys; i++ {
		data[fmt.Sprintf("bpk-key-%06d", i)] = make([]byte, 256)
	}
	sample := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	liveHeap := func() (live, scan float64) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		metrics.Read(sample)
		return float64(ms.HeapAlloc), float64(sample[0].Value.Uint64())
	}
	var grown, scanned float64
	for i := 0; i < b.N; i++ {
		live, scan := liveHeap()
		sys := core.NewSystem(core.SystemConfig{Clusters: 2, F: 1, Seed: 1, InitialData: data})
		sys.Start()
		liveAfter, scanAfter := liveHeap()
		grown += liveAfter - live
		scanned += scanAfter - scan
		sys.Stop()
	}
	b.ReportMetric(grown/float64(b.N)/(keys*replicasPerKey), "B/key-replica")
	b.ReportMetric(scanned/float64(b.N)/(keys*replicasPerKey), "scan-B/key-replica")
}

// BenchmarkTransportDelivery — what the simulated network charges one
// message: each sender sends to its own receiver and waits for the
// delivery before sending again, so ns/op is delay plus lateness plus
// cost (all of it cost at delay=0, divided by the senders when several
// overlap), allocs/op is what a message allocates on its way, and
// lateness-us is the median delivery time beyond the injected delay.
func BenchmarkTransportDelivery(b *testing.B) {
	for _, delay := range []time.Duration{0, 100 * time.Microsecond, 500 * time.Microsecond} {
		for _, senders := range []int{1, 8} {
			b.Run(fmt.Sprintf("delay=%v/senders=%d", delay, senders), func(b *testing.B) {
				net := transport.NewNetwork()
				defer net.Stop()
				net.SetLatency(func(_, _ cryptoutil.NodeID) time.Duration { return delay })
				inboxes := make([]<-chan transport.Envelope, senders)
				for s := range inboxes {
					inboxes[s] = net.Register(cryptoutil.NodeID{Cluster: 1, Replica: int32(s)})
				}
				late := make([]time.Duration, b.N)
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for s := 0; s < senders; s++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						from, to := cryptoutil.NodeID{Replica: int32(s)}, cryptoutil.NodeID{Cluster: 1, Replica: int32(s)}
						for i := s; i < b.N; i += senders {
							net.Send(from, to, nil)
							e := <-inboxes[s]
							late[i] = time.Since(e.SentAt) - delay
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				slices.Sort(late)
				b.ReportMetric(float64(late[b.N/2])/1e3, "lateness-us")
			})
		}
	}
}
