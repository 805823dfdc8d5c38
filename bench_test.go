// Benchmarks reproducing every table and figure of the paper's
// evaluation (Sec. 5). Each benchmark runs the corresponding experiment
// at a CI-friendly scale and reports the headline metrics via
// b.ReportMetric; cmd/transedge-bench prints the full row-by-row tables
// (and -scale paper restores the published parameters).
//
// Absolute numbers differ from the paper (simulated network, scaled
// latencies); the reported shape metrics — who wins, by what factor,
// and how trends move across the sweeps — are the reproduction targets
// recorded in EXPERIMENTS.md.
package bench_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"transedge/internal/core"
	"transedge/internal/cryptoutil"
	"transedge/internal/harness"
	"transedge/internal/merkle"
	"transedge/internal/protocol"
	"transedge/internal/store"
	"transedge/internal/transport"
)

// benchScale trims the Quick scale further so the whole suite finishes in
// a couple of minutes under `go test -bench=.`.
var benchScale = harness.Scale{
	Keys:        2000,
	Duration:    250 * time.Millisecond,
	LatencyUnit: 50 * time.Microsecond,
	ROWorkers:   4,
	RWWorkers:   4,
	BatchSizes:  []int{900, 2500},
	ScanSizes:   []int{250, 1000, 2000},
	LatenciesMS: []int{0, 20, 70, 150},
}

// pick returns the first point matching series and x ("" matches any).
func pick(points []harness.Point, series, x string) *harness.Point {
	for i := range points {
		if points[i].Series == series && (x == "" || points[i].X == x) {
			return &points[i]
		}
	}
	return nil
}

// BenchmarkFig4ReadOnlyLatencyVs2PCBFT — the headline result: snapshot
// read-only latency vs the coordination-based baseline, 1–5 clusters.
// The paper reports 9–24x; the speedup at 2 and 5 clusters is reported
// as speedup2x_x and speedup5c_x.
func BenchmarkFig4ReadOnlyLatencyVs2PCBFT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.Fig4(benchScale)
		te2 := pick(pts, "TransEdge", "clusters=2")
		bl2 := pick(pts, "2PC/BFT", "clusters=2")
		te5 := pick(pts, "TransEdge", "clusters=5")
		bl5 := pick(pts, "2PC/BFT", "clusters=5")
		if te2 == nil || bl2 == nil || te5 == nil || bl5 == nil {
			b.Fatal("missing series")
		}
		b.ReportMetric(te5.LatencyMS, "te_ms_5c")
		b.ReportMetric(bl5.LatencyMS, "2pcbft_ms_5c")
		b.ReportMetric(bl2.LatencyMS/te2.LatencyMS, "speedup2c_x")
		b.ReportMetric(bl5.LatencyMS/te5.LatencyMS, "speedup5c_x")
	}
}

// BenchmarkFig5ReadOnlyRounds — round-1 latency plus the effective cost
// of repair rounds, against Augustus.
func BenchmarkFig5ReadOnlyRounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.Fig5(benchScale)
		te := pick(pts, "TransEdge", "clusters=5")
		aug := pick(pts, "Augustus", "clusters=5")
		if te == nil || aug == nil {
			b.Fatal("missing series")
		}
		b.ReportMetric(te.Round1MS, "round1_ms_5c")
		b.ReportMetric(te.Round2EffMS, "round2eff_ms_5c")
		b.ReportMetric(te.Round2Pct, "round2_pct_5c")
		b.ReportMetric(aug.LatencyMS, "augustus_ms_5c")
	}
}

// BenchmarkFig6ReadOnlyThroughput — closed-loop read-only throughput vs
// Augustus across accessed-cluster counts.
func BenchmarkFig6ReadOnlyThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.Fig6(benchScale)
		te := pick(pts, "TransEdge", "clusters=5")
		aug := pick(pts, "Augustus", "clusters=5")
		if te == nil || aug == nil {
			b.Fatal("missing series")
		}
		b.ReportMetric(te.ThroughputTPS, "te_tps_5c")
		b.ReportMetric(aug.ThroughputTPS, "augustus_tps_5c")
		b.ReportMetric(te.ThroughputTPS/aug.ThroughputTPS, "ratio_x")
	}
}

// BenchmarkFig7LongRunningReadOnly — scan latency growth with scan size,
// vs Augustus whose shared locks also stall writers.
func BenchmarkFig7LongRunningReadOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.Fig7(benchScale)
		teS := pick(pts, "TransEdge", "readops=250")
		teL := pick(pts, "TransEdge", "readops=2000")
		augL := pick(pts, "Augustus", "readops=2000")
		if teS == nil || teL == nil || augL == nil {
			b.Fatal("missing series")
		}
		b.ReportMetric(teS.LatencyMS, "te_ms_250")
		b.ReportMetric(teL.LatencyMS, "te_ms_2000")
		b.ReportMetric(augL.LatencyMS, "augustus_ms_2000")
	}
}

// BenchmarkFig8ReadOnlyLatencySweep — read-only throughput as
// inter-cluster latency rises (0–150 paper-ms).
func BenchmarkFig8ReadOnlyLatencySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.Fig8(benchScale)
		at0 := pick(pts, "TransEdge", "latency=0ms")
		at150 := pick(pts, "TransEdge", "latency=150ms")
		if at0 == nil || at150 == nil {
			b.Fatal("missing series")
		}
		b.ReportMetric(at0.ThroughputTPS, "tps_0ms")
		b.ReportMetric(at150.ThroughputTPS, "tps_150ms")
	}
}

// BenchmarkFig9LocalThroughput — write-only vs local read-write
// throughput across batch sizes, on TransEdge and 2PC/BFT.
func BenchmarkFig9LocalThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.Fig9(benchScale)
		wo := pick(pts, "Write-only-RW TransEdge", "batch=2500")
		lrw := pick(pts, "Local-RW TransEdge", "batch=2500")
		bl := pick(pts, "Local-RW 2PC/BFT", "batch=2500")
		if wo == nil || lrw == nil || bl == nil {
			b.Fatal("missing series")
		}
		b.ReportMetric(wo.ThroughputTPS, "writeonly_tps")
		b.ReportMetric(lrw.ThroughputTPS, "localrw_tps")
		b.ReportMetric(bl.ThroughputTPS, "2pcbft_tps")
	}
}

// BenchmarkFig10DistributedLatencySkew — distributed read-write latency
// across the R/W skew.
func BenchmarkFig10DistributedLatencySkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.Fig10and11(benchScale)
		readHeavy := pick(pts, "batch=2500", "R=5,W=1")
		writeHeavy := pick(pts, "batch=2500", "R=1,W=5")
		if readHeavy == nil || writeHeavy == nil {
			b.Fatal("missing series")
		}
		b.ReportMetric(readHeavy.LatencyMS, "lat_ms_R5W1")
		b.ReportMetric(writeHeavy.LatencyMS, "lat_ms_R1W5")
	}
}

// BenchmarkFig11DistributedThroughputSkew — the same sweep's throughput.
func BenchmarkFig11DistributedThroughputSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.Fig10and11(benchScale)
		readHeavy := pick(pts, "batch=2500", "R=5,W=1")
		writeHeavy := pick(pts, "batch=2500", "R=1,W=5")
		if readHeavy == nil || writeHeavy == nil {
			b.Fatal("missing series")
		}
		b.ReportMetric(readHeavy.ThroughputTPS, "tps_R5W1")
		b.ReportMetric(writeHeavy.ThroughputTPS, "tps_R1W5")
	}
}

// BenchmarkFig12DistributedLatencySweep — distributed read-write
// throughput under injected wide-area latency.
func BenchmarkFig12DistributedLatencySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.Fig12(benchScale)
		at0 := pick(pts, "batch=2500", "latency=0ms")
		at150 := pick(pts, "batch=2500", "latency=150ms")
		if at0 == nil || at150 == nil {
			b.Fatal("missing series")
		}
		b.ReportMetric(at0.ThroughputTPS, "tps_0ms")
		b.ReportMetric(at150.ThroughputTPS, "tps_150ms")
		b.ReportMetric(at0.ThroughputTPS/at150.ThroughputTPS, "drop_x")
	}
}

// BenchmarkFig13AbortRate — read-write abort percentage under latency.
func BenchmarkFig13AbortRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.Fig13(benchScale)
		at0 := pick(pts, "latency=0ms", "")
		at70 := pick(pts, "latency=70ms", "")
		if at0 == nil || at70 == nil {
			b.Fatal("missing series")
		}
		b.ReportMetric(at0.AbortPct, "abort_pct_0ms")
		b.ReportMetric(at70.AbortPct, "abort_pct_70ms")
	}
}

// BenchmarkFig14MixedWorkload — throughput across the local/distributed
// transaction mix.
func BenchmarkFig14MixedWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.Fig14(benchScale)
		allLocal := pick(pts, "batch=2500", "LRWT=100%")
		allDist := pick(pts, "batch=2500", "LRWT=0%")
		if allLocal == nil || allDist == nil {
			b.Fatal("missing series")
		}
		b.ReportMetric(allLocal.ThroughputTPS, "tps_local100")
		b.ReportMetric(allDist.ThroughputTPS, "tps_dist100")
		b.ReportMetric(allLocal.ThroughputTPS/allDist.ThroughputTPS, "ratio_x")
	}
}

// BenchmarkFig15FaultToleranceSweep — cost of f=1 vs f=3 clusters.
func BenchmarkFig15FaultToleranceSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.Fig15(benchScale)
		f1 := pick(pts, "f=1", "batch=900")
		f3 := pick(pts, "f=3", "batch=900")
		if f1 == nil || f3 == nil {
			b.Fatal("missing series")
		}
		b.ReportMetric(f1.LatencyMS, "lat_ms_f1")
		b.ReportMetric(f3.LatencyMS, "lat_ms_f3")
		b.ReportMetric(f1.ThroughputTPS, "tps_f1")
		b.ReportMetric(f3.ThroughputTPS, "tps_f3")
	}
}

// --- Hot-path microbenchmarks (standalone regression numbers for the
// per-slot CPU work every pipelined consensus step pays; the hotpath
// harness experiment measures their end-to-end effect). ---

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
// validation, delivery): recompute re-derives the header each time (the
// pre-memoization behavior), memoized computes once per sealed batch.
func BenchmarkBatchDigest(b *testing.B) {
	const digestReadsPerBatch = 4
	batch := benchBatch(200)
	b.Run("recompute", func(b *testing.B) {
		protocol.SetDigestMemo(false)
		defer protocol.SetDigestMemo(true)
		sealed := batch.MutableCopy().Seal()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < digestReadsPerBatch; r++ {
				_ = sealed.Digest()
			}
		}
	})
	b.Run("memoized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sealed := batch.MutableCopy().Seal()
			for r := 0; r < digestReadsPerBatch; r++ {
				_ = sealed.Digest()
			}
		}
	})
}

// BenchmarkVerifyCertificate — an f=3 cluster's certificate carrying all
// 10 commit signatures, verified at threshold f+1=4: legacy checks every
// signature serially, fast stops at the threshold and fans out across
// the worker pool.
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
	b.Run("legacy", func(b *testing.B) {
		cryptoutil.SetFastVerify(false)
		defer cryptoutil.SetFastVerify(true)
		for i := 0; i < b.N; i++ {
			if err := cryptoutil.VerifyCertificate(ring, cert, msg, threshold); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := cryptoutil.VerifyCertificate(ring, cert, msg, threshold); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMerkleApply — applying a 100-key batch to a 5000-key tree:
// old inserts keys one at a time (re-hashing the root path per key),
// bulk merges the sorted batch in one pass. hashes/op reports the node
// hashes per apply, the quantity the optimization shrinks.
func BenchmarkMerkleApply(b *testing.B) {
	base := merkle.New()
	for i := 0; i < 5000; i++ {
		base = base.Insert([]byte(fmt.Sprintf("base-%d", i)), merkle.HashValue([]byte("v")))
	}
	updates := make(map[string]merkle.Digest, 100)
	for i := 0; i < 100; i++ {
		updates[fmt.Sprintf("update-%d", i)] = merkle.HashValue([]byte("w"))
	}
	run := func(apply func()) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			start := merkle.HashOps()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				apply()
			}
			b.StopTimer()
			b.ReportMetric(float64(merkle.HashOps()-start)/float64(b.N), "hashes/op")
		}
	}
	b.Run("old", run(func() {
		t := base
		for k, vh := range updates {
			t = t.Insert([]byte(k), vh)
		}
	}))
	b.Run("bulk", run(func() { _ = base.Apply(updates) }))
}

// --- Sharded storage microbenchmarks (the readscale experiment
// measures their end-to-end effect; shards=1 restores a single-lock
// store, the seed's behavior). ---

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

// BenchmarkReadScale — the readscale experiment (sharded store +
// off-loop read executors vs the single-shard, single-executor
// baseline) at a read-heavy mix; also keeps the experiment exercised by
// the CI bench smoke so BENCH_readscale.json cannot silently rot.
func BenchmarkReadScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.ReadScale(benchScale)
		base := pick(pts, "shards=1", "ro=90%")
		sharded := pick(pts, "shards=16", "ro=90%")
		if base == nil || sharded == nil {
			b.Fatal("missing series")
		}
		b.ReportMetric(base.ThroughputTPS, "ro_tps_1shard")
		b.ReportMetric(sharded.ThroughputTPS, "ro_tps_16shard")
		if base.ThroughputTPS > 0 {
			b.ReportMetric(sharded.ThroughputTPS/base.ThroughputTPS, "scale_x")
		}
	}
}

// BenchmarkRecovery — the crash/recovery experiment: commit throughput
// with all replicas up, with a follower crashed, and after its restart,
// plus the restarted replica's state-transfer catch-up time. Run by the
// CI bench smoke so BENCH_recovery.json cannot silently rot.
func BenchmarkRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.Recovery(benchScale)
		base := pick(pts, "TransEdge", "baseline")
		down := pick(pts, "TransEdge", "follower-down")
		rec := pick(pts, "TransEdge", "recovered")
		catch := pick(pts, "TransEdge", "catchup")
		if base == nil || down == nil || rec == nil || catch == nil {
			b.Fatal("missing series")
		}
		if catch.LatencyMS < 0 {
			b.Fatal("restarted replica never caught up")
		}
		b.ReportMetric(base.ThroughputTPS, "tps_baseline")
		b.ReportMetric(down.ThroughputTPS, "tps_follower_down")
		b.ReportMetric(rec.ThroughputTPS, "tps_recovered")
		b.ReportMetric(catch.LatencyMS, "catchup_ms")
		b.ReportMetric(float64(base.LogLen), "log_window")
		b.ReportMetric(base.HeapMB, "heap_mb")
	}
}

// BenchmarkViewChange — the leader-failover experiment: commit
// throughput before the leader is killed, through the view-change dip,
// and under the new leader, plus the failover latency itself. Run by the
// CI bench smoke so BENCH_viewchange.json cannot silently rot.
func BenchmarkViewChange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.ViewChange(benchScale)
		base := pick(pts, "TransEdge", "baseline")
		down := pick(pts, "TransEdge", "leader-down")
		rec := pick(pts, "TransEdge", "recovered")
		fail := pick(pts, "TransEdge", "failover")
		if base == nil || down == nil || rec == nil || fail == nil {
			b.Fatal("missing series")
		}
		if fail.LatencyMS < 0 {
			b.Fatal("cluster never failed over to a new leader")
		}
		b.ReportMetric(base.ThroughputTPS, "tps_baseline")
		b.ReportMetric(down.ThroughputTPS, "tps_leader_down")
		b.ReportMetric(rec.ThroughputTPS, "tps_recovered")
		b.ReportMetric(fail.LatencyMS, "failover_ms")
	}
}

// BenchmarkDurability — the durability experiment: commit throughput
// with the group-commit WAL fsyncing, with fsync disabled, and with
// durability off entirely, plus the cold-restart latency of a whole
// cluster rebuilt from its checkpoints and WAL suffix. Run by the CI
// bench smoke so BENCH_durability.json cannot silently rot.
func BenchmarkDurability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.Durability(benchScale)
		on := pick(pts, "TransEdge", "fsync-on")
		off := pick(pts, "TransEdge", "fsync-off")
		none := pick(pts, "TransEdge", "no-wal")
		cold := pick(pts, "TransEdge", "cold-restart")
		if on == nil || off == nil || none == nil || cold == nil {
			b.Fatal("missing series")
		}
		if cold.LatencyMS < 0 {
			b.Fatal("cold restart failed to recover or verify reads")
		}
		b.ReportMetric(on.ThroughputTPS, "tps_fsync_on")
		b.ReportMetric(off.ThroughputTPS, "tps_fsync_off")
		b.ReportMetric(none.ThroughputTPS, "tps_no_wal")
		b.ReportMetric(cold.LatencyMS, "cold_restart_ms")
	}
}

// BenchmarkEngines — the engines experiment: both storage backends
// (sharded in-memory MVCC vs LSM memtable+runs) under the write-heavy
// pipeline workload and the 90%-read-only readscale workload. The
// reproduction target is that the sharded default is unregressed and
// the LSM backend stays in the same ballpark on both shapes.
func BenchmarkEngines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.Engines(benchScale)
		for _, series := range []string{"sharded", "lsm"} {
			wr := pick(pts, series, "pipeline")
			ro := pick(pts, series, "readscale-ro90")
			if wr == nil || ro == nil {
				b.Fatalf("missing %s rows", series)
			}
			if wr.ThroughputTPS == 0 || ro.ThroughputTPS == 0 {
				b.Fatalf("engine %s committed nothing", series)
			}
			b.ReportMetric(wr.ThroughputTPS, "tps_write_"+series)
			b.ReportMetric(ro.ThroughputTPS, "tps_ro_"+series)
			b.ReportMetric(ro.HeapMB, "heapmb_ro_"+series)
		}
	}
}

// BenchmarkTable1ReadOnlyInterference — read-write aborts caused by
// read-only transactions: ~0 for TransEdge, growing with cluster count
// for Augustus.
func BenchmarkTable1ReadOnlyInterference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.Table1(benchScale)
		te := pick(pts, "TransEdge", "clusters=5")
		aug := pick(pts, "Augustus", "clusters=5")
		if te == nil || aug == nil {
			b.Fatal("missing series")
		}
		b.ReportMetric(te.AbortPct, "te_ro_abort_pct")
		b.ReportMetric(aug.AbortPct, "augustus_ro_abort_pct")
	}
}

// --- Multi-proof microbenchmarks: one pruned-subtree proof per request
// vs N independent proofs, at 1/10/100 keys. proofbytes/op and hashes/op
// quantify the wire and verify-CPU savings the clientscale experiment
// sees end to end. ---

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

// singleProofCost returns the canonical bytes of the N independent
// proofs replaced by one multi-proof over keys.
func singleProofCost(tr *merkle.Tree, keys [][]byte) int {
	total := 0
	for _, k := range keys {
		if p, _, err := tr.Prove(k); err == nil {
			total += len(protocol.EncodeProof(&p))
		} else if ap, err := tr.ProveAbsent(k); err == nil {
			total += len(protocol.EncodeAbsenceProof(&ap))
		}
	}
	return total
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
			singleBytes := singleProofCost(tr, keys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.ProveMulti(keys); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(multiBytes), "proofbytes/op")
			b.ReportMetric(float64(singleBytes), "singlebytes/op")
			b.ReportMetric(float64(singleBytes)/float64(multiBytes), "shrink_x")
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

// BenchmarkClientScale — open-loop session clients driving verified
// reads: throughput and p99 at the largest fleet, with the multi-proof
// and root-cache savings reported against the toggled-off series.
func BenchmarkClientScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.ClientScale(benchScale)
		x := fmt.Sprintf("clients=%d", benchScale.ROWorkers*16)
		fast := pick(pts, "fastpath", x)
		noMulti := pick(pts, "no-multiproof", x)
		noCache := pick(pts, "no-rootcache", x)
		if fast == nil || noMulti == nil || noCache == nil {
			b.Fatal("missing series")
		}
		b.ReportMetric(fast.ThroughputTPS, "ro_tps")
		b.ReportMetric(fast.P99MS, "p99_ms")
		b.ReportMetric(fast.P999MS, "p999_ms")
		b.ReportMetric(fast.ProofBytesPerReq, "proofbytes_req")
		b.ReportMetric(noMulti.ProofBytesPerReq, "proofbytes_req_nomulti")
		b.ReportMetric(float64(fast.CertVerifications), "certverifies")
		b.ReportMetric(float64(noCache.CertVerifications), "certverifies_nocache")
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
