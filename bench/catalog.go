package main

// The metric catalogue: the vocabulary later issues use for claims.
// BENCHMARK.json lists the same names (a test keeps the two in step); the
// contract fixes that file's keys, so what it cannot hold — each metric's
// layer, source, exactness and the end-to-end metric it is expected to
// move — lives here and in README.md.

// e2eMetric is an end-to-end metric: reported by every workload in an
// untraced run, with the bound by which it may worsen before a change
// counts as a regression.
type e2eMetric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

var e2eCatalog = []e2eMetric{
	// Median of the run's set-ups: build the deployment, load the keyspace
	// as genesis, open connections, warm up.
	{"setup_s", "s", "lower", 0.25},
	// Paced phase, primary class: median latency from scheduled arrival to
	// verified/acknowledged reply, as the tenth percentile over the phase's
	// seconds of each second's median (see pacedP50).
	{"p50_ms", "ms", "lower", 0.25},
	// HeapAlloc after a forced GC at the end of the run, deployment live.
	{"heap_mb", "MB", "lower", 0.25},
}

// Sources of a per-layer metric.
const (
	srcTraced = "T" // counters and spans of the traced pass
	srcProbe  = "P" // stand-alone probe on fixed inputs
)

// layerMetric is a per-layer metric: reported by a --trace 1 run. The
// layer is the name's prefix up to the first dot.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
	Source string
	// Exact marks pure counts that must repeat bit-for-bit across runs,
	// so later issues may claim on them as counts.
	Exact bool
	// Moves names the end-to-end metric and workload this metric is
	// expected to move (written before measuring; see README.md).
	Moves string
}

const (
	movesRO       = "p50_ms, class.ro_tps on ro-snapshot"
	movesRORounds = "class.ro_tail_ms on mixed-2pc"
	movesRW       = "class.rw_tps, p50_ms on rw-local"
	movesWAL      = "class.rw_tps, p50_ms on durable-failover"
	moves2PC      = "class.rw_tps, class.dist_p50_ms on mixed-2pc"
	movesFailover = "class.fault_tail_ms on durable-failover"
	movesAll      = "class.*_tps everywhere; class.*_tail_ms on the small-delay workloads"
	movesNone     = "none: above 10 % of a workload's p50 the run measures the simulator or generator"
	movesDiag     = "diagnostic"
)

var layerCatalog = []layerMetric{
	// class: the issue's per-class end-to-end numbers. The contract makes
	// every workload report every end-to-end metric, so the bounded set is
	// generic (p50_ms is the primary class's) and the per-class split is
	// reported here, from the untraced reference stretch of the traced run.
	// Saturated throughput is here too, and not among the bounded metrics:
	// on the shared host it spread by 19-32 % between runs of one binary,
	// past the largest bound the contract allows.
	{"class.ro_p50_ms", "ms", "lower", srcTraced, false, movesDiag},
	{"class.ro_tail_ms", "ms", "lower", srcTraced, false, movesDiag},
	{"class.ro_tps", "1/s", "higher", srcTraced, false, movesDiag},
	{"class.rw_p50_ms", "ms", "lower", srcTraced, false, movesDiag},
	{"class.rw_tail_ms", "ms", "lower", srcTraced, false, movesDiag},
	{"class.rw_tps", "1/s", "higher", srcTraced, false, movesDiag},
	{"class.dist_p50_ms", "ms", "lower", srcTraced, false, movesDiag},
	{"class.fault_tail_ms", "ms", "lower", srcTraced, false, movesDiag},
	{"class.failed_pct", "%", "lower", srcTraced, false, movesDiag},

	{"transport.msgs_per_op", "count", "lower", srcTraced, false, movesAll},
	{"transport.client_msgs_per_ro", "count", "lower", srcTraced, false, movesRO},
	{"transport.bft_msgs_per_batch", "count", "lower", srcTraced, false, movesRW},
	{"transport.twopc_msgs_per_dist", "count", "lower", srcTraced, false, moves2PC},
	{"transport.dropped", "count", "lower", srcTraced, false, movesDiag},
	{"transport.hop_us", "us", "lower", srcProbe, false, movesAll},
	{"transport.timer_overshoot_us", "us", "lower", srcProbe, false, movesNone},

	{"bft.commit_us", "us", "lower", srcProbe, false, movesRW},
	{"bft.batches_per_s", "1/s", "higher", srcProbe, false, movesRW},
	{"bft.msgs_per_batch", "count", "lower", srcProbe, true, movesRW},
	{"bft.view_changes", "count", "lower", srcTraced, false, movesFailover},
	{"bft.leader_suspects", "count", "lower", srcTraced, false, movesFailover},
	{"bft.failover_ms", "ms", "lower", srcTraced, false, movesFailover},

	{"core.batches_per_s", "1/s", "higher", srcTraced, false, movesRW},
	{"core.txns_per_batch", "count", "higher", srcTraced, false, "class.rw_tps up on rw-local/durable-failover; p50_ms may rise"},
	{"core.abort_ratio", "ratio", "lower", srcTraced, false, moves2PC},
	{"core.dist_abort_ratio", "ratio", "lower", srcTraced, false, moves2PC},
	{"core.admission_aborts", "count", "lower", srcTraced, false, moves2PC},
	{"core.pipeline_stalls_per_batch", "count", "lower", srcTraced, false, movesRW},
	{"core.pipeline_rollbacks", "count", "lower", srcTraced, false, movesDiag},
	{"core.ro_second_round_ratio", "ratio", "lower", srcTraced, false, movesRORounds},
	{"core.ro_parked_expired", "count", "lower", srcTraced, false, movesRORounds},
	{"core.checkpoints_stable", "count", "higher", srcTraced, false, movesDiag},
	{"core.log_len_max", "count", "lower", srcTraced, false, "heap_mb"},
	{"core.state_transfers", "count", "lower", srcTraced, false, movesFailover},
	{"core.catchup_ms", "ms", "lower", srcTraced, false, movesFailover},
	{"core.cold_restart_ms", "ms", "lower", srcTraced, false, movesDiag},
	{"core.wal_errors", "count", "lower", srcTraced, false, movesDiag},

	{"client.ro_call_us", "us", "lower", srcTraced, false, movesRO},
	{"client.read_call_us", "us", "lower", srcTraced, false, movesRW},
	{"client.commit_call_us", "us", "lower", srcTraced, false, movesRW},
	{"client.commit_dist_call_us", "us", "lower", srcTraced, false, moves2PC},
	{"client.ro_round2_ratio", "ratio", "lower", srcTraced, false, movesRORounds},
	{"client.ro_rounds_max", "count", "lower", srcTraced, false, movesRORounds},
	{"client.cert_verifs_per_ro", "count", "lower", srcTraced, false, movesRO},
	{"client.proof_bytes_per_ro", "B", "lower", srcTraced, false, movesRO},
	{"client.op_retries", "count", "lower", srcTraced, false, movesFailover},

	{"merkle.apply_bulk_us", "us", "lower", srcProbe, false, movesRW},
	{"merkle.apply_hashes_per_update", "count", "lower", srcProbe, true, movesRW},
	{"merkle.prove_multi_us", "us", "lower", srcProbe, false, movesRO},
	{"merkle.verify_multi_us", "us", "lower", srcProbe, false, movesRO},
	{"merkle.verify_hashes_per_ro", "count", "lower", srcProbe, true, movesRO},
	{"merkle.multiproof_bytes", "B", "lower", srcProbe, true, movesRO},
	{"merkle.build_ms", "ms", "lower", srcProbe, false, "setup_s"},
	{"merkle.hashes_per_op", "count", "lower", srcTraced, false, movesAll},

	{"cryptoutil.sign_us", "us", "lower", srcProbe, false, movesRW},
	{"cryptoutil.verify_us", "us", "lower", srcProbe, false, movesRW},
	{"cryptoutil.verify_cert_us", "us", "lower", srcProbe, false, movesRW},
	{"cryptoutil.verify_cert_f1_us", "us", "lower", srcProbe, false, movesRO},

	{"protocol.seal_digest_us", "us", "lower", srcProbe, false, movesRW},
	{"protocol.encode_certified_us", "us", "lower", srcProbe, false, movesWAL},
	{"protocol.decode_certified_us", "us", "lower", srcProbe, false, movesDiag},
	{"protocol.certified_batch_bytes", "B", "lower", srcProbe, true, movesWAL},
	{"protocol.encode_multiproof_us", "us", "lower", srcProbe, false, movesRO},

	{"wal.append_us", "us", "lower", srcProbe, false, movesWAL},
	{"wal.append_fsync_us", "us", "lower", srcProbe, false, movesWAL},
	{"wal.replay_ms_per_1k", "ms", "lower", srcProbe, false, movesDiag},
	{"wal.syncs_per_batch", "count", "lower", srcTraced, false, movesWAL},
	{"wal.bytes_per_txn", "B", "lower", srcTraced, false, movesWAL},

	{"store.sharded.apply_all_us", "us", "lower", srcProbe, false, movesRW},
	{"store.sharded.multiget_us", "us", "lower", srcProbe, false, movesRO},
	{"store.sharded.last_writers_us", "us", "lower", srcProbe, false, movesRW},
	{"store.sharded.export_ms", "ms", "lower", srcProbe, false, movesFailover},
	{"store.lsm.apply_all_us", "us", "lower", srcProbe, false, movesRW},
	{"store.lsm.multiget_us", "us", "lower", srcProbe, false, movesRO},
	{"store.lsm.last_writers_us", "us", "lower", srcProbe, false, movesRW},
	{"store.lsm.export_ms", "ms", "lower", srcProbe, false, movesFailover},

	{"workload.offered_tps", "1/s", "higher", srcTraced, false, movesDiag},
	{"workload.lateness_p99_ms", "ms", "lower", srcTraced, false, movesNone},
	{"workload.inflight_max", "count", "lower", srcTraced, false, movesDiag},
	{"workload.gen_us_per_op", "us", "lower", srcTraced, false, movesNone},
	{"workload.op_self_us", "us", "lower", srcTraced, false, movesNone},

	{"runtime.cpu_ms_per_op", "ms", "lower", srcTraced, false, movesAll},
	{"runtime.alloc_kb_per_op", "KB", "lower", srcTraced, false, movesAll},
	{"runtime.gc_pause_ms", "ms", "lower", srcTraced, false, movesAll},
	{"runtime.goroutines_max", "count", "lower", srcTraced, false, movesDiag},

	// budget: probe time per unit x unit counts of the traced pass, as a
	// share of the process CPU spent from boot to the end of the last
	// phase. A model, not a measurement: what it cannot attribute is what
	// in-program stage clocks (ROADMAP) must later split.
	{"budget.merkle_pct", "%", "lower", srcTraced, false, movesDiag},
	{"budget.cryptoutil_pct", "%", "lower", srcTraced, false, movesDiag},
	{"budget.protocol_pct", "%", "lower", srcTraced, false, movesDiag},
	{"budget.wal_pct", "%", "lower", srcTraced, false, movesDiag},
	{"budget.store_pct", "%", "lower", srcTraced, false, movesDiag},
	{"budget.unattributed_pct", "%", "lower", srcTraced, false, movesDiag},
	{"trace.overhead_pct", "%", "lower", srcTraced, false, movesDiag},
}
