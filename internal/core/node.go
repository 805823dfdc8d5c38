// Package core implements the TransEdge protocol (paper Secs. 3 and 4):
// the per-cluster batch pipeline with the four-segment SMR log, OCC
// conflict detection (Def. 3.1), Two-Phase Commit layered over BFT
// consensus, prepare groups with the ordering constraint (Def. 4.1),
// Conflict-Dependency vectors (Algorithm 1), Last-Committed-Epoch numbers,
// and the server side of the snapshot read-only transaction protocol.
//
// Every replica runs a Node with a single event-loop goroutine; all
// protocol state is confined to that goroutine, so the package needs no
// locks beyond the thread-safe substrates (store, network).
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"transedge/internal/bft"
	"transedge/internal/cryptoutil"
	"transedge/internal/merkle"
	"transedge/internal/protocol"
	"transedge/internal/store"
	"transedge/internal/transport"
	"transedge/internal/wal"
)

// NodeID aliases the system-wide identity.
type NodeID = cryptoutil.NodeID

// NodeConfig assembles one replica: the system's configuration narrowed
// to it, plus what only this replica has. The embedded DataDir is the
// replica's own subdirectory; the embedded InitialData is not read (the
// replica loads GenesisData).
type NodeConfig struct {
	SystemConfig

	Cluster int32
	Replica int32
	Keys    cryptoutil.KeyPair
	Ring    *cryptoutil.KeyRing
	Net     *transport.Network
	// Recovering marks a node restarted after a crash: it starts from
	// genesis state and immediately requests a state transfer instead of
	// waiting to observe that it is behind.
	Recovering bool

	// Genesis batch shared by every replica of the cluster.
	GenesisHeader protocol.BatchHeader
	GenesisCert   cryptoutil.Certificate
	// GenesisData is the cluster's share of the initial data, key-sorted
	// (genesisShare): what GenesisHeader's Merkle root certifies. The
	// replica only reads it, and drops it once loaded.
	GenesisData []store.KV

	// Store overrides the storage backend with a caller-built instance
	// (nil = a fresh sharded store, store.NewSharded). It is a test seam:
	// the caller owns an injected engine.
	Store store.Engine
}

// logEntry is one committed batch as retained by a replica: the header,
// its digest (the certified message — kept so chaining and serving never
// re-hash the header), the consensus certificate, the full batch for
// segment serving, and the Merkle version after the batch, which read-only
// snapshots at this batch prove against.
//
// The certificate is read only through Node.certificate. An entry that
// consensus delivered holds the commit signatures it counted, unverified,
// until the certificate first leaves the replica; every other entry
// (genesis, an installed checkpoint, a replayed batch) holds one that
// was verified on arrival, with certOK set.
type logEntry struct {
	batch  *protocol.Batch
	header protocol.BatchHeader
	digest protocol.Digest
	tree   *merkle.Tree

	certOnce sync.Once
	cert     cryptoutil.Certificate
	certOK   bool
}

// distTxn tracks one distributed transaction at this node, in both the
// coordinator and participant roles.
type distTxn struct {
	rec          protocol.PrepareRecord
	prepareBatch int64 // batch holding our prepare record; -1 until written
	decision     protocol.Decision
	votes        []protocol.PreparedVote // evidence for the decision

	// Coordinator-only state.
	isCoord      bool
	votesByPart  map[int32]*protocol.PreparedVote
	replyTo      chan protocol.CommitReply
	decisionSent bool
}

// group is a prepare group (Def. 4.1): the distributed transactions whose
// prepare records share one batch. Groups commit in prepare-batch order.
type group struct {
	prepareBatch int64
	ids          []protocol.TxnID
}

// specSlot is the one batch proposed but not yet delivered: on the
// leader its proposal between Propose and delivery, on a follower the
// batch it validated and voted for. Consensus validates a slot only
// after delivering its predecessor, so the slot always chains off the
// delivered tip. It keeps the post-batch Merkle version, which delivery
// installs instead of re-deriving it, and the batch, which rollback
// undoes if the slot never reaches the log.
type specSlot struct {
	batch  *protocol.Batch
	digest protocol.Digest // memoized header digest, for delivery matching
	tree   *merkle.Tree
}

// parkedRO is a second-round read-only request waiting for a dependency
// batch to commit.
type parkedRO struct {
	req      protocol.RORequest
	deadline time.Time
}

// Node is one replica of one cluster.
type Node struct {
	cfg  NodeConfig
	self NodeID

	// peers lists the other replicas of this cluster, for broadcasts.
	peers []NodeID

	st store.Engine
	// log is the retained window of committed batches: everything below
	// the latest stable checkpoint is truncated (entry 0 starts as
	// genesis; after a state transfer the base is the installed
	// checkpoint).
	log windowedLog

	consensus *bft.Replica

	// preparedReads/preparedWrites hold the footprints reserved by
	// prepared-but-undecided distributed transactions (rule 3 of
	// Def. 3.1), maintained identically by every replica from delivered
	// batches.
	preparedReads  keyRefs
	preparedWrites keyRefs
	// groups is the prepared-batches structure of Fig. 2, oldest first.
	groups []*group
	// distTxns indexes distributed-transaction state by ID.
	distTxns map[protocol.TxnID]*distTxn
	// pendingDecisions buffers decisions that arrived before our own
	// prepare batch was written.
	pendingDecisions map[protocol.TxnID]*protocol.CommitDecision

	// certCache memoizes batch-header certificate verifications keyed by
	// header digest: all transactions of one prepare group share the same
	// proof header, so this collapses O(txns) signature checks per batch
	// into O(groups). At most certCacheLimit entries.
	certCache map[protocol.Digest]struct{}

	// Leader-only pipeline state.
	pendingLocal    []protocol.Transaction
	pendingPrepared []protocol.PrepareRecord
	pendingEvidence map[protocol.TxnID]*protocol.PrepareProof
	pendingReads    keyRefs // reads reserved by the in-progress and in-flight batches
	pendingWrites   keyRefs // writes reserved by the in-progress and in-flight batches
	waiters         map[protocol.TxnID]chan protocol.CommitReply
	lastFlush       time.Time

	// spec is the one batch in flight, nil when there is none. The
	// leader builds no batch while it is set: the paper's leader "writes
	// a batch only if the previous batch is already written". Delivery
	// retires it; a new view's frontier keeps or rolls it back.
	spec *specSlot

	parked []parkedRO

	// readers is the off-loop pool serving read requests; only the event
	// loop submits to it.
	readers *readExecutor

	// Checkpoint state (DESIGN.md §6). chk is the newest checkpoint this
	// replica has derived and voted for; stable is the newest checkpoint
	// with a 2f+1 quorum, which bounds the log window and serves state
	// transfers. chkVotes buffers votes for checkpoints we have not
	// reached yet.
	chk      *checkpointState
	stable   *checkpointState
	chkVotes map[int64]map[int32]*protocol.Checkpoint

	// State-transfer client state: whether a sync is in flight, its
	// retry deadline, the peer rotation cursor, and which distinct peers
	// have ever responded — a recovering replica keeps rotating until
	// f+1 distinct peers answered, so no single (possibly byzantine or
	// equally-amnesiac) responder can talk it into staying at genesis.
	syncing      bool
	syncDeadline time.Time
	syncPeer     int32
	syncHeard    map[int32]bool
	// replaying is set only around state-transfer suffix replay, gating
	// checkpoint derivation for batches this replica did not deliver
	// live (peers are past them; no quorum could form).
	replaying bool

	// Durability layer (DESIGN.md §8), active only with a DataDir. wal is
	// the group-commit log certified batches append to before delivery
	// applies them; walReplay gates re-appending while the cold-restart
	// path replays the suffix out of the very same log. A WAL that errors
	// (disk full, injected crash) is closed and dropped — the replica
	// degrades to in-memory operation (counted in Metrics.WALErrors)
	// rather than halting consensus.
	wal       *wal.Log
	walReplay bool
	// walHandle mirrors wal for the WAL() accessor: crash-injection tests
	// grab the handle while the loop runs, so the pointer is published
	// atomically.
	walHandle atomic.Pointer[wal.Log]
	// persistedChk is the newest checkpoint ID written to disk; persists
	// are skipped at or below it.
	persistedChk int64
	// The persister (DESIGN.md §8): persisting marks the one goroutine
	// writing a checkpoint file, persistNext is the newest stable
	// checkpoint waiting for it to finish, and persistDone carries its
	// result back to the loop (buffered, so the persister can always exit).
	persisting  bool
	persistNext *protocol.DurableCheckpoint
	persistDone chan persistResult
	// hookPersist is a test hook, nil outside tests and set before Start:
	// it runs on the persister once the file image is encoded, before it
	// is written.
	hookPersist func(id int64)

	// Leader-progress watchdog (DESIGN.md §7). progressDeadline is when
	// the current leader is suspected if no delivery lands first (zero =
	// disarmed); suspects counts consecutive expiries, backing the timeout
	// off exponentially; forwarded marks that this follower relayed client
	// or 2PC traffic to the leader and therefore expects progress even
	// though it holds no local pending work.
	progressDeadline time.Time
	suspects         int
	forwarded        bool

	// tip mirrors the newest committed batch ID atomically so tests and
	// the benchmark can watch catch-up progress while the loop runs.
	tip atomic.Int64
	// stableID mirrors the newest stable checkpoint's batch ID (-1 until
	// one forms) for the same reason: fault tests poll it live.
	stableID atomic.Int64

	// Incremental store-prune pass state (see pruneStoreStep): the shard
	// cursor of the in-progress pass, that pass's keep-from boundary, and
	// the boundary every shard has already been pruned to.
	pruneCursor   int
	pruneBoundary int64
	prunedThrough int64

	inbox    <-chan transport.Envelope
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	// Metrics consumed by tests and the benchmark.
	Metrics Metrics
}

// Metrics counts node-level protocol events. The event loop writes all
// fields except ROServed and CertsAssembled, which read executors update
// atomically too; read totals after Stop (which drains the executors) for
// exact values.
type Metrics struct {
	BatchesCommitted int64
	LocalCommitted   int64
	DistCommitted    int64
	DistAborted      int64
	AdmissionAborts  int64
	ROServed         int64
	ROSecondRound    int64
	ROParkedExpired  int64
	// PipelineStalls counts batch-build attempts, with work pending,
	// refused because the one batch was still in flight.
	PipelineStalls int64
	// PipelineRollbacks counts in-flight batches rolled back because
	// they never reached the log (Propose failure, log divergence, or a
	// new view's frontier that dropped them).
	PipelineRollbacks int64
	// CheckpointsStable counts stable checkpoints established (2f+1
	// checkpoint quorums observed).
	CheckpointsStable int64
	// LogTruncated counts log entries dropped below stable checkpoints.
	LogTruncated int64
	// StateTransfers counts checkpoint installs from peers (full
	// snapshot replacements, not suffix-only replays).
	StateTransfers int64
	// SuffixReplayed counts certified batches applied from state-transfer
	// suffixes instead of live consensus.
	SuffixReplayed int64
	// LeaderSuspects counts progress-timer expiries (view-change votes
	// cast by this replica).
	LeaderSuspects int64
	// ViewChanges counts new views this replica entered.
	ViewChanges int64
	// WALAppended counts certified batches appended to the write-ahead
	// log before delivery.
	WALAppended int64
	// WALReplayed counts batches replayed from the local WAL during a
	// cold restart (disk recovery, not peer transfer).
	WALReplayed int64
	// WALErrors counts WAL append/sync failures; on the first one the log
	// is dropped and the replica degrades to in-memory operation.
	WALErrors int64
	// ColdRestarts counts successful recoveries from the local data dir
	// (checkpoint install and/or WAL suffix replay before joining).
	ColdRestarts int64
	// CheckpointsPersisted counts stable checkpoints written to disk.
	CheckpointsPersisted int64
	// CertsAssembled counts f+1 certificates assembled from delivered
	// commit signatures, each verifying peer signatures until f+1 hold:
	// once per log entry whose certificate left the replica. Read
	// executors update it atomically.
	CertsAssembled int64
	// HeaderCertHits and HeaderCertMisses count verifyHeaderCert calls
	// answered from its memo and calls that checked the certificate.
	HeaderCertHits   int64
	HeaderCertMisses int64
}

// NewNode builds (but does not start) a replica, building its genesis
// tree from cfg.GenesisData.
func NewNode(cfg NodeConfig) *Node {
	return newNode(cfg, newTreeFor(cfg.GenesisData))
}

// newNode is NewNode given a Merkle tree of cfg.GenesisData that no other
// replica holds: it becomes the replica's own.
func newNode(cfg NodeConfig, tree *merkle.Tree) *Node {
	cfg.SystemConfig = cfg.withDefaults()
	engine := cfg.Store
	if engine == nil {
		engine = store.NewSharded(store.DefaultShards)
	}
	n := &Node{
		cfg:              cfg,
		self:             NodeID{Cluster: cfg.Cluster, Replica: cfg.Replica},
		st:               engine,
		readers:          newReadExecutor(0, 0),
		preparedReads:    make(keyRefs),
		preparedWrites:   make(keyRefs),
		distTxns:         make(map[protocol.TxnID]*distTxn),
		pendingDecisions: make(map[protocol.TxnID]*protocol.CommitDecision),
		certCache:        make(map[protocol.Digest]struct{}),
		pendingEvidence:  make(map[protocol.TxnID]*protocol.PrepareProof),
		pendingReads:     make(keyRefs),
		pendingWrites:    make(keyRefs),
		waiters:          make(map[protocol.TxnID]chan protocol.CommitReply),
		chkVotes:         make(map[int64]map[int32]*protocol.Checkpoint),
		persistDone:      make(chan persistResult, 1),
		syncHeard:        make(map[int32]bool),
		stop:             make(chan struct{}),
		done:             make(chan struct{}),
	}
	n.stableID.Store(-1)
	for r := int32(0); int(r) < cfg.replicas(); r++ {
		if r != cfg.Replica {
			n.peers = append(n.peers, NodeID{Cluster: cfg.Cluster, Replica: r})
		}
	}

	// Install genesis: initial data load as batch 0, already key-sorted.
	// The store and the tree now hold the share; a restart derives it
	// again from the system's InitialData (System.RestartReplica).
	n.st.ImportAsOf(store.GenesisBatch, cfg.GenesisData)
	n.cfg.GenesisData = nil
	genesisDigest := cfg.GenesisHeader.Digest()
	n.log.init(0, &logEntry{
		batch:  &protocol.Batch{Cluster: cfg.Cluster, ID: 0, CD: cfg.GenesisHeader.CD.Clone(), LCE: cfg.GenesisHeader.LCE, MerkleRoot: cfg.GenesisHeader.MerkleRoot, Timestamp: cfg.GenesisHeader.Timestamp},
		header: cfg.GenesisHeader,
		digest: genesisDigest,
		cert:   cfg.GenesisCert,
		certOK: true,
		tree:   tree,
	})
	n.consensus = bft.New(bft.Config{
		Cluster:       cfg.Cluster,
		Replica:       cfg.Replica,
		N:             cfg.replicas(),
		F:             cfg.F,
		Keys:          cfg.Keys,
		Ring:          cfg.Ring,
		Net:           cfg.Net,
		GenesisDigest: genesisDigest,
		GenesisHeader: cfg.GenesisHeader,
		GenesisCert:   cfg.GenesisCert,
		Validate:      n.validateBatch,
		Deliver:       n.onDeliver,
		Rebase:        n.rebaseOnView,
	})
	return n
}

// Self returns this node's identity.
func (n *Node) Self() NodeID { return n.self }

// IsLeader reports whether this node leads its cluster in its current
// view.
func (n *Node) IsLeader() bool { return n.consensus.IsLeader() }

// CurrentView returns this node's consensus view, safe to read while the
// event loop runs (tests and the benchmark watch failover progress).
func (n *Node) CurrentView() uint64 { return n.consensus.CurrentView() }

// Start registers the node with the network and launches its event loop.
// With a DataDir it first recovers whatever local disk holds — the
// persisted stable checkpoint plus the WAL suffix — before any live
// message is processed (the event loop is not running yet, so recovery
// touches loop-confined state safely).
func (n *Node) Start() {
	n.inbox = n.cfg.Net.Register(n.self)
	n.lastFlush = time.Now()
	n.openDurability()
	if n.cfg.Recovering {
		// A restarted replica asks a peer for the latest stable
		// checkpoint before (not instead of) processing live traffic —
		// anything within the live window still applies. Disk recovery
		// already advanced us past everything local; the peer sync only
		// fills what local disk lacks (the unsynced tail, or batches
		// committed while we were down).
		n.startStateSync()
	}
	go n.run()
}

// Stop terminates the event loop and waits for it to exit. Safe to call
// more than once.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stop) })
	<-n.done
}

func (n *Node) run() {
	defer close(n.done)
	// Close the WAL after the loop exits: the final sync makes everything
	// delivered before Stop durable (a graceful shutdown; crashes are
	// simulated with the wal crash hooks, which drop the unsynced tail).
	defer n.closeWAL()
	// Finish checkpoint persists, the running one and the one queued
	// behind it, before the WAL and the engine they read go away, and
	// before done closes: a RestartReplica on the same DataDir must find
	// no writer of the old incarnation left.
	defer n.flushPersister()
	// Drain the read executors before done closes (LIFO), so metrics and
	// store state are quiescent once Stop returns.
	defer n.readers.stop()
	ticker := time.NewTicker(n.cfg.BatchInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case r := <-n.persistDone:
			n.onPersisted(r)
		case env, ok := <-n.inbox:
			if !ok {
				return
			}
			n.dispatch(env)
		case <-ticker.C:
			n.onTick()
		}
	}
}

func (n *Node) dispatch(env transport.Envelope) {
	if n.consensus.Handle(env.From, env.Payload) {
		return
	}
	switch m := env.Payload.(type) {
	case *protocol.CommitRequest:
		n.onCommitRequest(m)
	case *protocol.ReadRequest:
		n.onReadRequest(m)
	case *protocol.RORequest:
		n.onRORequest(m)
	case *protocol.CoordinatorPrepare:
		n.onCoordinatorPrepare(env.From, m)
	case *protocol.PreparedVote:
		n.onPreparedVote(env.From, m)
	case *protocol.CommitDecision:
		n.onCommitDecision(env.From, m)
	case *protocol.Checkpoint:
		n.onCheckpoint(env.From, m)
	case *protocol.StateRequest:
		n.onStateRequest(m)
	case *protocol.StateResponse:
		n.onStateResponse(env.From, m)
	}
}

func (n *Node) onTick() {
	n.walMaybeSync()
	n.expireParked()
	n.pruneStoreStep()
	n.maybeStateSync()
	n.maybeSuspectLeader()
	if n.IsLeader() {
		n.maybeBuildBatch(false)
	}
}

// lastBatchID returns the newest committed batch ID.
func (n *Node) lastBatchID() int64 { return n.log.lastID() }

// Tip returns the newest committed batch ID, safe to read while the
// event loop runs (tests and the benchmark poll it to measure catch-up).
func (n *Node) Tip() int64 { return n.tip.Load() }

// LogWindow returns the retained log window as (base, length). Owned by
// the event loop: read it only after Stop.
func (n *Node) LogWindow() (int64, int) { return n.log.baseID(), n.log.len() }

// StableCheckpoint returns the newest stable checkpoint's batch ID, or
// -1 if none formed yet. Safe to read while the event loop runs.
func (n *Node) StableCheckpoint() int64 { return n.stableID.Load() }

// leaderOf returns the presumed leader identity of a cluster: the view-0
// leader, since a remote cluster's current view is unknowable here. If
// that cluster has since changed views, whichever replica receives the
// message relays it to its actual leader (the Forwarded paths in
// leader.go), so cross-cluster 2PC survives remote failovers.
func leaderOf(cluster int32) NodeID {
	return NodeID{Cluster: cluster, Replica: bft.LeaderReplica}
}

// certCacheLimit bounds certCache; at the limit it starts over rather
// than grow.
const certCacheLimit = 4096

// verifyHeaderCert checks an f+1 certificate over a batch header of any
// cluster, memoized by header digest. Only a success is remembered: a
// failure belongs to the certificate, not the header, and remembering it
// would let one forged certificate turn away the genuine one after it.
func (n *Node) verifyHeaderCert(h *protocol.BatchHeader, cert cryptoutil.Certificate) bool {
	d := h.Digest()
	if _, ok := n.certCache[d]; ok {
		n.Metrics.HeaderCertHits++
		return true
	}
	n.Metrics.HeaderCertMisses++
	size := n.cfg.Ring.ClusterSize(h.Cluster)
	if size == 0 {
		return false
	}
	f := (size - 1) / 3
	if cryptoutil.VerifyCertificate(n.cfg.Ring, cert, d[:], f+1) != nil {
		return false
	}
	if len(n.certCache) >= certCacheLimit {
		n.certCache = make(map[protocol.Digest]struct{}, certCacheLimit)
	}
	n.certCache[d] = struct{}{}
	return true
}

// certificate returns e's f+1 certificate and whether it holds one. An
// entry consensus delivered assembles it from the delivered commit
// signatures on first use, from the loop or a read executor, exactly
// once; later calls share the result. It fails only with more than f
// faulty commit signers, and then every consumer refuses to hand the
// certificate on.
func (n *Node) certificate(e *logEntry) (cryptoutil.Certificate, bool) {
	e.certOnce.Do(func() {
		if e.certOK {
			return
		}
		e.cert, e.certOK = cryptoutil.AssembleCertificate(n.cfg.Ring, e.cert, e.digest[:], n.cfg.F+1, n.self)
		atomic.AddInt64(&n.Metrics.CertsAssembled, 1)
	})
	return e.cert, e.certOK
}

// ownedKeys filters the keys of a read/write set belonging to this
// cluster.
func (n *Node) localReads(t *protocol.Transaction) []protocol.ReadEntry {
	return t.ReadsFor(n.cfg.partitioner(), n.cfg.Cluster)
}

func (n *Node) localWrites(t *protocol.Transaction) []protocol.WriteOp {
	return t.WritesFor(n.cfg.partitioner(), n.cfg.Cluster)
}
