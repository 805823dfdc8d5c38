package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"transedge/internal/bft"
	"transedge/internal/client"
	"transedge/internal/core"
	"transedge/internal/merkle"
	"transedge/internal/protocol"
	"transedge/internal/transport"
)

// msgCounts classifies network traffic by payload type. It is installed as
// the network's transport.FilterFunc in traced runs and never drops
// anything. Replies travel on per-request channels, not through the
// network, so only requests and inter-replica messages are seen.
type msgCounts struct {
	roRequests atomic.Int64 // RORequest
	bft        atomic.Int64 // PrePrepare + Prepare + Commit
	twoPC      atomic.Int64 // CoordinatorPrepare + PreparedVote + CommitDecision
}

func (m *msgCounts) filter(e transport.Envelope) bool {
	switch e.Payload.(type) {
	case *protocol.RORequest:
		m.roRequests.Add(1)
	case *bft.PrePrepare, *bft.Prepare, *bft.Commit:
		m.bft.Add(1)
	case *protocol.CoordinatorPrepare, *protocol.PreparedVote, *protocol.CommitDecision:
		m.twoPC.Add(1)
	}
	return true
}

// env is one deployment under test plus the generators' connections to it.
type env struct {
	spec   *Spec
	seed   int64
	traced bool

	l     *layout
	ranks map[int]*zipf

	sys     *core.System
	dataDir string
	conns   []*conn
	msgs    *msgCounts // nil unless traced

	// execOp runs one operation (exec, except in the scheduler's unit
	// test); window bounds each generator's concurrent paced requests.
	execOp func(cn *conn, op *opInput, tr *tracer, id uint64) (Outcome, int, error)
	window int

	// retired sums the metrics of replicas that were crashed: RestartReplica
	// replaces the Node, and its counters would otherwise be lost.
	retired      []core.Metrics
	retiredSyncs int64
	// retries counts transfer attempts repeated after a client timeout.
	retries atomic.Int64
	// down is the replica of cluster 0 the crash schedule currently holds
	// down (-1 = none).
	down atomic.Int32

	// Process counters sampled when the deployment started, so the run
	// can report what the measured window cost.
	hashOpsAtBoot uint64
	cpuAtBoot     time.Duration
	allocAtBoot   uint64
	gcPauseAtBoot uint64
}

func (e *env) replicas() int { return 3*faultsF + 1 }

func (e *env) systemConfig() core.SystemConfig {
	return core.SystemConfig{
		Clusters:             e.spec.Clusters,
		F:                    faultsF,
		Seed:                 uint64(e.seed),
		BatchInterval:        time.Millisecond,
		IntraLatency:         e.spec.Intra,
		InterLatency:         e.spec.Inter,
		CheckpointInterval:   e.spec.CheckpointInterval,
		StateTransferTimeout: e.spec.StateTransferTimeout,
		ViewTimeout:          e.spec.ViewTimeout,
		DataDir:              e.dataDir,
		InitialData:          e.l.initialData(),
	}
}

// newClient builds a client of the current system. Read-set reads go to
// the lowest-numbered replica the crash schedule has not taken down (the
// client's default target is replica 0): any replica serves them from
// committed state, and a read sent to a dead one would burn a sub-timeout
// per key. The benchmark plays the membership service here so that only
// the commit path, which the failover is about, sees the crash.
func (e *env) newClient(id uint32) *client.Client {
	return client.New(client.Config{
		ID: id, Net: e.sys.Net, Ring: e.sys.Ring, Part: e.sys.Part,
		Clusters: e.spec.Clusters, Timeout: e.spec.ClientTimeout, Seed: e.seed,
		MeasureProofBytes: e.traced,
		ReadTarget: func(c int32) client.NodeID {
			target := client.NodeID{Cluster: c}
			if c == 0 && e.down.Load() == 0 {
				target.Replica = 1
			}
			return target
		},
	})
}

// setUp builds and starts the deployment (which loads the keyspace as its
// genesis batch), opens one connection per generator and runs the warm-up.
// The whole of it is what setup_s times.
func setUp(spec *Spec, sc Scale, seed int64, traced bool, work string) (*env, *phaseResult, time.Duration, error) {
	t0 := time.Now()
	e := &env{spec: spec, seed: seed, traced: traced, window: pacedWindow}
	e.execOp = e.exec
	e.down.Store(-1)
	e.l = newLayout(sc.Keys, spec.Clusters, spec.Pairs)
	e.ranks = zipfTables(spec, e.l)
	if spec.Durable {
		if err := os.MkdirAll(work, 0o755); err != nil {
			return nil, nil, 0, fmt.Errorf("scratch dir: %w", err)
		}
		dir, err := os.MkdirTemp(work, "data-")
		if err != nil {
			return nil, nil, 0, fmt.Errorf("data dir: %w", err)
		}
		e.dataDir = dir
	}
	e.boot()
	warm := e.warmUp(sc.WarmOps, spec.Phases[0].PacedMix)
	return e, warm, time.Since(t0), nil
}

// boot builds a System from the env's configuration (on a cold restart:
// over the same DataDir) and opens fresh connections to it.
func (e *env) boot() {
	e.sys = core.NewSystem(e.systemConfig())
	if e.traced {
		e.msgs = &msgCounts{}
		e.sys.Net.SetFilter(e.msgs.filter)
	}
	e.sys.Start()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.hashOpsAtBoot, e.cpuAtBoot = merkle.HashOps(), cpuTime()
	e.allocAtBoot, e.gcPauseAtBoot = ms.TotalAlloc, ms.PauseTotalNs
	gens := runtime.GOMAXPROCS(0)
	e.conns = make([]*conn, gens)
	for g := range e.conns {
		base := uint32(1+g) * 10000
		cn := &conn{mk: func(id uint32) *client.Client { return e.newClient(base + id) }}
		cn.sess = e.newClient(base).NewSession()
		e.conns[g] = cn
	}
}

// close stops the deployment and removes its data directory.
func (e *env) close() {
	e.sys.Stop()
	if e.dataDir != "" {
		os.RemoveAll(e.dataDir)
	}
}

func (e *env) node(c, r int) *core.Node {
	return e.sys.Node(core.NodeID{Cluster: int32(c), Replica: int32(r)})
}

// runFaults executes the crash schedule of a fault phase: cluster 0's
// current leader is crashed and, restartAfter later, restarted; the time
// the restarted replica needs to get back within one batch of its leader
// is recorded.
func (e *env) runFaults(start time.Time, dur time.Duration) []crashRecord {
	at := func(frac float64) time.Time { return start.Add(time.Duration(frac * float64(dur))) }
	var out []crashRecord
	for i, frac := range crashAt {
		time.Sleep(time.Until(at(frac)))
		victim := e.sys.Leader(0)
		node := e.sys.Node(victim)
		rec := crashRecord{at: time.Now()}
		var syncs int64
		if w := node.WAL(); w != nil {
			syncs = w.SyncCount()
		}
		e.down.Store(victim.Replica)
		e.sys.StopReplica(victim) // returns once the event loop has exited
		e.retired = append(e.retired, node.Metrics)
		e.retiredSyncs += syncs

		time.Sleep(time.Until(at(frac + restartAfter)))
		rec.restartAt = time.Now()
		back := e.sys.RestartReplica(victim)
		e.down.Store(-1)
		// Catch-up must finish before the next crash: with two of four
		// replicas behind, the cluster has no quorum.
		deadline := at(1)
		if i+1 < len(crashAt) {
			deadline = at(crashAt[i+1])
		}
		for time.Now().Before(deadline) {
			if back.Tip() >= e.sys.Node(e.sys.Leader(0)).Tip()-1 {
				rec.catchup, rec.caughtUp = time.Since(rec.restartAt), true
				break
			}
			time.Sleep(time.Millisecond)
		}
		out = append(out, rec)
	}
	return out
}

// quiesce waits until no replica's tip has moved for a while: every
// acknowledged transaction, and every 2PC decision still travelling
// between clusters, has then been applied everywhere that is up.
func (e *env) quiesce() {
	still := 50*time.Millisecond + 6*e.spec.Inter
	tips := func() []int64 {
		var out []int64
		for c := 0; c < e.spec.Clusters; c++ {
			for r := 0; r < e.replicas(); r++ {
				out = append(out, e.node(c, r).Tip())
			}
		}
		return out
	}
	last, since := tips(), time.Now()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		cur := tips()
		for i := range cur {
			if cur[i] != last[i] {
				last, since = cur, time.Now()
				break
			}
		}
		if time.Since(since) >= still {
			return
		}
	}
}

// auditChunk is how many keys one verified audit read fetches.
const auditChunk = 2000

// readAll fetches the whole keyspace through verified snapshot reads
// served by each cluster's current leader.
func (e *env) readAll() (map[string][]byte, error) {
	cfg := client.Config{
		ID: 9, Net: e.sys.Net, Ring: e.sys.Ring, Part: e.sys.Part,
		Clusters: e.spec.Clusters, Timeout: 10 * time.Second,
		ROTarget: func(c int32) client.NodeID { return e.sys.Leader(c) },
	}
	c := client.New(cfg)
	out := make(map[string][]byte, len(e.l.keys))
	for lo := 0; lo < len(e.l.keys); lo += auditChunk {
		hi := min(lo+auditChunk, len(e.l.keys))
		res, err := c.ReadOnly(e.l.keys[lo:hi])
		if err != nil {
			return nil, fmt.Errorf("audit read of keys %d..%d: %w", lo, hi, err)
		}
		for k, v := range res.Values {
			out[k] = v
		}
	}
	return out, nil
}

// audit is the end-of-run oracle: at quiescence the keyspace, read through
// verified reads, must still hold every key and the initial total.
func (e *env) audit() (map[string][]byte, error) {
	e.quiesce()
	state, err := e.readAll()
	if err != nil {
		return nil, err
	}
	return state, checkTotal(e.l.keys, state)
}

// checkTotal verifies that state holds a balance for every key and that
// the balances sum to what the keyspace was loaded with.
func checkTotal(keys []string, state map[string][]byte) error {
	if len(state) != len(keys) {
		return fmt.Errorf("audit read %d keys, want %d", len(state), len(keys))
	}
	var sum int64
	for _, k := range keys {
		b, err := decodeBalance(state[k])
		if err != nil {
			return fmt.Errorf("audit: key %s: %v", k, err)
		}
		sum += b
	}
	if want := int64(len(keys)) * initialBalance; sum != want {
		return fmt.Errorf("audit: keyspace sums to %d, want %d", sum, want)
	}
	return nil
}

// coldRestart follows a graceful stop of every replica (collect): it
// builds a new System on the same DataDir and waits until a verified read
// returns the pre-stop state. It returns how long the new System took to
// start (disk recovery runs synchronously inside Start).
func (e *env) coldRestart(before map[string][]byte) (time.Duration, error) {
	t0 := time.Now()
	e.boot()
	took := time.Since(t0)
	var lastErr error
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		after, err := e.readAll()
		if err != nil {
			lastErr = err
			continue
		}
		lastErr = nil
		for k, want := range before {
			if !bytes.Equal(after[k], want) {
				lastErr = fmt.Errorf("cold restart: key %s differs from its pre-stop value", k)
				break
			}
		}
		if lastErr == nil {
			return took, nil
		}
	}
	return took, lastErr
}

// retireAll folds the stopped system's counters into the retired set.
func (e *env) retireAll() {
	for c := 0; c < e.spec.Clusters; c++ {
		for r := 0; r < e.replicas(); r++ {
			e.retired = append(e.retired, e.node(c, r).Metrics)
		}
	}
}

// walBytes sums the WAL segment files under the data directory.
func (e *env) walBytes() int64 {
	var total int64
	filepath.Walk(e.dataDir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(path) == ".wal" {
			total += info.Size()
		}
		return nil
	})
	return total
}
