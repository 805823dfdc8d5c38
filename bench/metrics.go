package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// latencies returns the sorted latencies (ms) of the committed samples a
// filter keeps.
func latencies(p *phaseResult, keep func(sample) bool) []float64 {
	if p == nil {
		return nil
	}
	var ds []time.Duration
	for _, s := range p.samples {
		if s.out == outCommitted && keep(s) {
			ds = append(ds, s.latency())
		}
	}
	return sortedMillis(ds)
}

func isClass(cs ...Class) func(sample) bool {
	return func(s sample) bool {
		for _, c := range cs {
			if s.class == c {
				return true
			}
		}
		return false
	}
}

// perSecondMedian is the throughput of a saturated phase: the phase is cut
// into whole seconds, each second's rate is taken from the commits that
// landed in it (their count less one, over the time from the first to the
// last), and the median rate is reported, so that one slow second (a
// collection, a checkpoint, a busy neighbour on the host) does not decide
// the number. It also returns how many operations committed in the phase.
func perSecondMedian(p *phaseResult, keep func(sample) bool) (float64, int) {
	if p == nil {
		return 0, 0
	}
	seconds := max(int(p.seconds()), 1)
	type window struct {
		n           int
		first, last time.Time
	}
	windows := make([]window, seconds)
	total := 0
	for _, s := range p.samples {
		if s.out != outCommitted || !keep(s) || s.done.After(p.end) {
			continue
		}
		total++
		i := int(s.done.Sub(p.start) / time.Second)
		if i < 0 || i >= seconds {
			continue
		}
		w := &windows[i]
		if w.n == 0 || s.done.Before(w.first) {
			w.first = s.done
		}
		if w.n == 0 || s.done.After(w.last) {
			w.last = s.done
		}
		w.n++
	}
	rates := make([]float64, seconds)
	for i, w := range windows {
		if span := w.last.Sub(w.first).Seconds(); w.n > 1 && span > 0 {
			rates[i] = float64(w.n-1) / span
		}
	}
	return median(rates), total
}

// quietShare is the share of a paced phase's seconds that pacedP50 trusts.
const quietShare = 10

// pacedP50 is the median latency of a paced phase on an undisturbed host.
// The phase is cut into whole seconds, each second gives the median latency
// (ms) of the operations scheduled in it, and the tenth percentile of the
// seconds' medians is reported: the level of the quietest tenth of the
// phase. The benchmark's machine is a few cores of a shared host whose
// other tenants only ever slow a second down, for seconds to minutes at a
// time; under such one-sided noise the median over the seconds moved by
// 17-37 % between runs of one binary, the tenth percentile by 2-9 %. On a
// quiet host the two differ by 1-3 %. What the program itself does
// only now and then (a checkpoint, a collection) is in the tails, which
// the traced run reports as class.*_tail_ms. It also returns how many
// committed operations the phase holds.
func pacedP50(p *phaseResult, keep func(sample) bool) (float64, int) {
	if p == nil {
		return 0, 0
	}
	seconds := max(int(p.seconds()), 1)
	windows := make([][]time.Duration, seconds)
	total := 0
	for _, s := range p.samples {
		if s.out != outCommitted || !keep(s) {
			continue
		}
		total++
		if i := int(s.sched.Sub(p.start) / time.Second); i >= 0 && i < seconds {
			windows[i] = append(windows[i], s.latency())
		}
	}
	var medians []float64
	for _, w := range windows {
		if len(w) > 0 {
			medians = append(medians, percentile(sortedMillis(w), 50))
		}
	}
	return quantile(medians, quietShare), total
}

// endToEnd boils an untraced run down to the bounded metrics.
func (d *runData) endToEnd() map[string]metricValue {
	m := make(map[string]metricValue)
	primary := isClass(d.spec.Primary)

	setups := make([]float64, len(d.setups))
	for i, s := range d.setups {
		setups[i] = s.Seconds()
	}
	m["setup_s"] = metricValue{median(setups), "s", len(setups)}

	p50, n := pacedP50(d.phase(phasePaced), primary)
	m["p50_ms"] = metricValue{p50, "ms", n}
	m["heap_mb"] = metricValue{d.heapMB, "MB", 0}
	return m
}

// failoverGaps returns, per injected crash, the longest stretch without a
// commit acknowledgement from cluster 0 between the crash and the
// restart of the crashed replica.
func failoverGaps(p *phaseResult) []float64 {
	if p == nil {
		return nil
	}
	var acks []time.Time
	for _, s := range p.samples {
		if s.out == outCommitted && s.cluster == 0 {
			acks = append(acks, s.done)
		}
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].Before(acks[j]) })
	var gaps []float64
	for _, c := range p.crashes {
		last, longest := c.at, time.Duration(0)
		for _, a := range acks {
			if a.Before(c.at) {
				continue
			}
			if a.After(c.restartAt) {
				break
			}
			longest = max(longest, a.Sub(last))
			last = a
		}
		longest = max(longest, c.restartAt.Sub(last))
		gaps = append(gaps, float64(longest)/float64(time.Millisecond))
	}
	return gaps
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer boils a traced run down to the per-layer metrics: the probes'
// numbers, the counters and spans of the traced pass, and the budget that
// combines the two.
func (d *runData) perLayer(probes probeOut) map[string]metricValue {
	v := make(map[string]float64)
	n := make(map[string]int)
	for name, val := range probes {
		v[name] = val
	}

	// --- counts of operations over the deployment's life.
	var ops, roOK, rwAttempted, rwAborted, distAttempted, distAborted, round2 float64
	var failed, attempted, committed float64
	roundsMax := 0
	for _, p := range d.everyPhase() {
		attempted += float64(p.issued)
		failed += float64(p.unanswered)
		for _, s := range p.samples {
			ops++
			switch s.out {
			case outFailed:
				failed++
			case outCommitted:
				committed++
			}
			switch s.class {
			case classRO:
				if s.out == outCommitted {
					roOK++
					if s.rounds > 1 {
						round2++
					}
					roundsMax = max(roundsMax, s.rounds)
				}
			case classDist:
				distAttempted++
				if s.out == outAborted {
					distAborted++
				}
				fallthrough
			case classLocal:
				rwAttempted++
				if s.out == outAborted {
					rwAborted++
				}
			}
		}
	}
	life := d.phases[len(d.phases)-1].end.Sub(d.warm.start).Seconds()
	batches := float64(d.nodes.BatchesCommitted)
	replicas := float64(d.spec.Clusters * (3*faultsF + 1))
	// Every replica applies every transaction of its cluster, so summed
	// node counters count each one replicas-per-cluster times.
	txnsApplied := float64(d.nodes.LocalCommitted + d.nodes.DistCommitted)

	// --- class: per-class end-to-end numbers, untraced reference stretch.
	ref, sat := d.phase(phasePacedRef), d.phase(phaseSat)
	set := func(name string, val float64, samples int) { v[name], n[name] = val, samples }
	// A tail is the highest rung of the percentile ladder with at least
	// ten samples beyond it; which rung it was is noted with the run.
	d.tails = nil
	tail := func(name string, sorted []float64) {
		p := tailPercentile(len(sorted))
		set(name, percentile(sorted, p), len(sorted))
		if len(sorted) > 0 {
			d.tails = append(d.tails, fmt.Sprintf("%s=p%g", name, p))
		}
	}
	ro := latencies(ref, isClass(classRO))
	set("class.ro_p50_ms", percentile(ro, 50), len(ro))
	tail("class.ro_tail_ms", ro)
	rw := latencies(ref, isClass(classLocal))
	set("class.rw_p50_ms", percentile(rw, 50), len(rw))
	tail("class.rw_tail_ms", rw)
	dist := latencies(ref, isClass(classDist))
	set("class.dist_p50_ms", percentile(dist, 50), len(dist))
	fault := latencies(d.phase(phaseFault), isClass(classLocal))
	tail("class.fault_tail_ms", fault)
	tps, cnt := perSecondMedian(sat, isClass(classRO))
	set("class.ro_tps", tps, cnt)
	tps, cnt = perSecondMedian(sat, isClass(classLocal, classDist))
	set("class.rw_tps", tps, cnt)
	v["class.failed_pct"] = 100 * ratio(failed, attempted)

	// --- transport.
	v["transport.msgs_per_op"] = ratio(float64(d.sent), ops)
	v["transport.client_msgs_per_ro"] = ratio(float64(d.roRequests), roOK)
	v["transport.bft_msgs_per_batch"] = ratio(float64(d.bftMsgs), batches/float64(3*faultsF+1))
	v["transport.twopc_msgs_per_dist"] = ratio(float64(d.twoPCMsgs), distAttempted)
	v["transport.dropped"] = float64(d.dropped)

	// --- bft.
	v["bft.view_changes"] = float64(d.viewsMax)
	v["bft.leader_suspects"] = float64(d.nodes.LeaderSuspects)
	gaps := failoverGaps(d.phase(phaseFault))
	set("bft.failover_ms", median(gaps), len(gaps))

	// --- core.
	v["core.batches_per_s"] = ratio(batches/float64(3*faultsF+1), life)
	v["core.txns_per_batch"] = ratio(txnsApplied, batches)
	v["core.abort_ratio"] = ratio(rwAborted, rwAttempted)
	v["core.dist_abort_ratio"] = ratio(distAborted, distAttempted)
	v["core.admission_aborts"] = float64(d.nodes.AdmissionAborts)
	v["core.pipeline_stalls_per_batch"] = ratio(float64(d.nodes.PipelineStalls), batches/float64(3*faultsF+1))
	v["core.pipeline_rollbacks"] = float64(d.nodes.PipelineRollbacks)
	v["core.ro_second_round_ratio"] = ratio(float64(d.nodes.ROSecondRound), float64(d.nodes.ROServed))
	v["core.ro_parked_expired"] = float64(d.nodes.ROParkedExpired)
	v["core.checkpoints_stable"] = float64(d.nodes.CheckpointsStable) / replicas
	v["core.log_len_max"] = float64(d.logLenMax)
	v["core.state_transfers"] = float64(d.nodes.StateTransfers)
	var catchups []float64
	if f := d.phase(phaseFault); f != nil {
		for _, c := range f.crashes {
			if c.caughtUp {
				catchups = append(catchups, float64(c.catchup)/float64(time.Millisecond))
			}
		}
	}
	set("core.catchup_ms", median(catchups), len(catchups))
	v["core.cold_restart_ms"] = float64(d.restartTook) / float64(time.Millisecond)
	v["core.wal_errors"] = float64(d.nodes.WALErrors)

	// --- client: spans around the benchmark's calls into internal/client.
	call := func(name, span, class string) {
		ds := spanDurations(d.spans, span, class)
		set(name, median(ds), len(ds))
	}
	call("client.ro_call_us", spanRO, "")
	call("client.read_call_us", spanRead, "")
	call("client.commit_call_us", spanCommit, classLocal.String())
	call("client.commit_dist_call_us", spanCommit, classDist.String())
	v["client.ro_round2_ratio"] = ratio(round2, roOK)
	v["client.ro_rounds_max"] = float64(roundsMax)
	v["client.cert_verifs_per_ro"] = ratio(float64(d.certVerifs), roOK)
	v["client.proof_bytes_per_ro"] = ratio(float64(d.proofBytes), roOK)
	v["client.op_retries"] = float64(d.retries)

	v["merkle.hashes_per_op"] = ratio(float64(d.hashOps), ops)
	v["wal.syncs_per_batch"] = ratio(float64(d.walSyncs), float64(d.nodes.WALAppended))
	v["wal.bytes_per_txn"] = ratio(float64(d.walBytes), txnsApplied)

	// --- workload: the generator itself, over the traced run's phases.
	var offered, pacedSecs, genOps float64
	var genTime time.Duration
	var late []time.Duration
	inflight := int64(0)
	for _, p := range d.phases {
		if p.phase.PacedRate > 0 {
			offered += float64(p.offered)
			pacedSecs += p.seconds()
		}
		late = append(late, p.lateness...)
		inflight = max(inflight, p.inflightMax)
		genTime += p.genTime
		genOps += float64(p.issued)
	}
	v["workload.offered_tps"] = ratio(offered, pacedSecs)
	lateMs := sortedMillis(late)
	tail("workload.lateness_p99_ms", lateMs)
	v["workload.inflight_max"] = float64(inflight)
	v["workload.gen_us_per_op"] = ratio(float64(genTime)/1e3, genOps)
	self := selfTimes(d.spans)
	var rootSelf []float64
	for _, s := range d.spans {
		if s.Parent == 0 {
			rootSelf = append(rootSelf, float64(self[s.ID])/1e3)
		}
	}
	set("workload.op_self_us", median(rootSelf), len(rootSelf))

	// --- runtime: process cost from boot to the end of the last phase.
	v["runtime.cpu_ms_per_op"] = ratio(d.cpu.Seconds()*1e3, committed)
	v["runtime.alloc_kb_per_op"] = ratio(float64(d.allocBytes)/1024, committed)
	v["runtime.gc_pause_ms"] = float64(d.gcPause) / float64(time.Millisecond)
	v["runtime.goroutines_max"] = float64(d.goroutinesMax)

	// --- budget: probe cost per unit x units of the traced pass, over the
	// process CPU. The unit counts are what the exported counters allow:
	//   merkle     every hash the process did, at the bulk apply's cost per
	//              hash (walking and allocation included)
	//   cryptoutil per batch and replica 2 signatures and 1+2(n-1) single
	//              verifications, plus the clients' f+1 certificate checks
	//   protocol   one seal+digest per batch (the in-process batch is
	//              shared, so its memo is computed once) and one certified
	//              encoding per WAL append, scaled by bytes
	//   wal        appends scaled by bytes, plus the fsyncs
	//   store      per-write apply, per-read-request multi-get, per-txn
	//              last-writers
	cpuUs := d.cpu.Seconds() * 1e6
	usPerHash := ratio(probes["merkle.apply_bulk_us"],
		probes["merkle.apply_hashes_per_update"]*probeBatchTxns*probeWrites)
	perReplicaBatch := 2*probes["cryptoutil.sign_us"] + float64(1+2*(3*faultsF))*probes["cryptoutil.verify_us"]
	walScale := ratio(ratio(float64(d.walBytes), float64(d.nodes.WALAppended)), probes["protocol.certified_batch_bytes"])
	appended := float64(d.nodes.WALAppended)
	writesPerTxn := float64(probeWrites)
	if d.spec.Pairs {
		writesPerTxn = 2
	}
	perWrite := probes["store.sharded.apply_all_us"] / (probeBatchTxns * probeWrites)
	share := func(us float64) float64 { return 100 * ratio(us, cpuUs) }
	v["budget.merkle_pct"] = share(float64(d.hashOps) * usPerHash)
	v["budget.cryptoutil_pct"] = share(batches*perReplicaBatch + float64(d.certVerifs)*probes["cryptoutil.verify_cert_f1_us"])
	v["budget.protocol_pct"] = share(batches/float64(3*faultsF+1)*probes["protocol.seal_digest_us"]/probeBatchTxns*v["core.txns_per_batch"] +
		appended*walScale*probes["protocol.encode_certified_us"])
	v["budget.wal_pct"] = share(appended*walScale*probes["wal.append_us"] +
		float64(d.walSyncs)*max(0, probes["wal.append_fsync_us"]-probes["wal.append_us"]))
	v["budget.store_pct"] = share(txnsApplied*writesPerTxn*perWrite +
		float64(d.nodes.ROServed)*probes["store.sharded.multiget_us"] +
		txnsApplied*probes["store.sharded.last_writers_us"])
	v["budget.unattributed_pct"] = 100 - v["budget.merkle_pct"] - v["budget.cryptoutil_pct"] -
		v["budget.protocol_pct"] - v["budget.wal_pct"] - v["budget.store_pct"]

	// --- tracing overhead: the traced paced stretch against the untraced
	// reference stretch that ran just before it.
	primary := isClass(d.spec.Primary)
	refP50 := percentile(latencies(ref, primary), 50)
	tracedP50 := percentile(latencies(d.phase(phasePaced), primary), 50)
	v["trace.overhead_pct"] = 100 * ratio(tracedP50-refP50, refP50)

	out := make(map[string]metricValue, len(layerCatalog))
	for _, lm := range layerCatalog {
		out[lm.Name] = metricValue{v[lm.Name], lm.Unit, n[lm.Name]}
	}
	return out
}

// flags reports when a traced run measured the generator or the simulator
// rather than the program, or ended a paced phase with a backlog.
func (d *runData) flags(m map[string]metricValue) []string {
	out := []string{"tail percentiles used: " + strings.Join(d.tails, " ")}
	p50 := percentile(latencies(d.phase(phasePacedRef), isClass(d.spec.Primary)), 50)
	if late := m["workload.lateness_p99_ms"].Value; late > 0.1*p50 {
		out = append(out, fmt.Sprintf("flag: generator lateness p99 %.3f ms exceeds 10 %% of the p50 %.3f ms", late, p50))
	}
	if over := m["transport.timer_overshoot_us"].Value / 1e3; over > 0.1*p50 {
		out = append(out, fmt.Sprintf("flag: timer overshoot %.3f ms exceeds 10 %% of the p50 %.3f ms", over, p50))
	}
	if m["workload.inflight_max"].Value >= pacedWindow {
		out = append(out, "flag: a paced phase filled its in-flight window (growing backlog)")
	}
	return out
}
