package core

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"transedge/internal/cryptoutil"
	"transedge/internal/merkle"
	"transedge/internal/protocol"
	"transedge/internal/store"
	"transedge/internal/transport"
)

// SystemConfig describes a whole TransEdge deployment: a set of clusters
// (one per partition), each with 3f+1 replicas, connected by a simulated
// wide-area network.
//
// Every field has one default, applied by withDefaults; the zero value is
// a working configuration.
type SystemConfig struct {
	Clusters int // number of partitions / clusters (default 1)
	F        int // byzantine faults tolerated per cluster, n = 3f+1 (default 1)
	Seed     uint64

	// BatchInterval is how often the leader flushes pending work into a
	// batch (the paper's batch-processing timer, Fig. 2 event 6; default
	// 1ms). A batch also goes out at once when 2000 transactions are
	// pending.
	BatchInterval time.Duration
	IntraLatency  time.Duration // replica-to-replica within a cluster
	InterLatency  time.Duration // cluster-to-cluster and client links
	// FreshnessWindow bounds how far a proposed batch timestamp may
	// deviate from a validating replica's clock (Sec. 4.4.2). Zero
	// disables the check.
	FreshnessWindow time.Duration
	// ROParkTimeout bounds how long a second-round read-only request may
	// wait for a dependency batch to commit (default 5s).
	ROParkTimeout time.Duration
	// CheckpointInterval is how many batches apart replicas sign
	// checkpoints (default DefaultCheckpointInterval). A 2f+1 checkpoint
	// quorum becomes a stable checkpoint, which truncates the log window,
	// Merkle versions and store versions below it and anchors state
	// transfer and crash recovery.
	CheckpointInterval int
	// StateTransferTimeout bounds a syncing replica's wait for a
	// StateResponse before it retries another peer (default 1s).
	StateTransferTimeout time.Duration
	// ViewTimeout bounds each replica's wait for leader progress on
	// pending work before it votes a PBFT view change (DESIGN.md §7).
	// Zero disables failover — the seed's fixed-leader behavior, which
	// some byzantine tests rely on (a stalling leader then means client
	// timeouts, not a new leader).
	ViewTimeout time.Duration
	// DataDir enables the durability layer (DESIGN.md §8): each replica
	// gets <DataDir>/c<cluster>-r<replica> holding its WAL and persisted
	// checkpoints, and rebuilds from it on restart before asking peers.
	// Empty (the default) keeps the seed's in-memory-only semantics. The
	// genesis timestamp is persisted at <DataDir>/genesis.ts so a rebuilt
	// System reproduces the exact genesis header the on-disk chain hangs
	// off.
	DataDir string

	// InitialData is the global initial key space; each cluster loads the
	// subset the partitioner assigns to it. The System keeps reading this
	// map: RestartReplica rebuilds a replica's genesis state from it, so it
	// must not be mutated after NewSystem (a changed share no longer
	// matches the certified genesis root).
	InitialData map[string][]byte
}

// DefaultCheckpointInterval is the checkpoint spacing when
// SystemConfig.CheckpointInterval is unset: frequent enough to bound
// steady-state memory to a modest window, rare enough that each
// checkpoint's signatures (one vote signed, 2f verified) and, with
// a DataDir, its persisted store export stay a small share of the work.
// Deriving one is an O(groups) digest on the loop: the Merkle root
// already binds every key's value and writer (DESIGN.md §6).
const DefaultCheckpointInterval = 64

// batchMaxSize is the pending-transaction count at which the leader
// builds a batch without waiting for BatchInterval (the paper's size
// trigger).
const batchMaxSize = 2000

// withDefaults returns c with every unset field at its default.
func (c *SystemConfig) withDefaults() SystemConfig {
	out := *c
	if out.Clusters <= 0 {
		out.Clusters = 1
	}
	if out.F <= 0 {
		out.F = 1
	}
	if out.BatchInterval <= 0 {
		out.BatchInterval = time.Millisecond
	}
	if out.ROParkTimeout <= 0 {
		out.ROParkTimeout = 5 * time.Second
	}
	if out.CheckpointInterval <= 0 {
		out.CheckpointInterval = DefaultCheckpointInterval
	}
	if out.StateTransferTimeout <= 0 {
		out.StateTransferTimeout = time.Second
	}
	return out
}

// replicas is the cluster size, 3F+1.
func (c *SystemConfig) replicas() int { return 3*c.F + 1 }

// partitioner maps keys to the clusters that own them.
func (c *SystemConfig) partitioner() protocol.Partitioner {
	return protocol.Partitioner{N: int32(c.Clusters)}
}

// System is a running TransEdge deployment.
type System struct {
	Cfg  SystemConfig
	Net  *transport.Network
	Ring *cryptoutil.KeyRing
	Part protocol.Partitioner

	// mu guards nodes/nodeCfgs against concurrent replica restarts (fault
	// tests and the benchmark crash and revive replicas while workers run).
	mu       sync.Mutex
	nodes    map[NodeID]*Node
	nodeCfgs map[NodeID]NodeConfig
}

// NewSystem builds all clusters, generates node identities, installs the
// trusted genesis (the initial data load, certified by every replica of
// each cluster), and wires the network. Call Start to launch event loops.
func NewSystem(cfg SystemConfig) *System {
	cfg = cfg.withDefaults()
	n := cfg.replicas()
	part := cfg.partitioner()

	ring := cryptoutil.NewKeyRing()
	keys := make(map[NodeID]cryptoutil.KeyPair)
	for c := 0; c < cfg.Clusters; c++ {
		for r := 0; r < n; r++ {
			id := NodeID{Cluster: int32(c), Replica: int32(r)}
			kp := cryptoutil.DeriveKeyPair(id, cfg.Seed)
			keys[id] = kp
			ring.Add(id, kp.Public)
		}
	}

	net := transport.NewNetwork()
	net.SetLatency(transport.ClusterLatency(cfg.IntraLatency, cfg.InterLatency))

	// One genesis per cluster, clusters side by side: the cluster's share
	// of the initial data, key-sorted once; its Merkle tree, built once,
	// and 3f private copies of it; and the batch-0 header every replica
	// signs over its root.
	genesisTime := genesisTimestamp(cfg.DataDir)
	shares := make([][]store.KV, cfg.Clusters)
	trees := make([][]*merkle.Tree, cfg.Clusters)
	headers := make([]protocol.BatchHeader, cfg.Clusters)
	certs := make([]cryptoutil.Certificate, cfg.Clusters)
	forEachParallel(cfg.Clusters, func(c int) {
		shares[c] = genesisShare(cfg.InitialData, part, int32(c))
		trees[c] = genesisTrees(shares[c], n)
		headers[c], certs[c] = genesis(int32(c), cfg.Clusters, trees[c][0].Root(), genesisTime, keys, n)
	})

	// Every replica, side by side (DESIGN.md §6, "Boot"): a replica under
	// construction writes nothing another one reads. Each takes one of its
	// cluster's trees as its own and loads its engine from the shared
	// sorted share, which it only reads.
	nodes := make([]*Node, cfg.Clusters*n)
	ncfgs := make([]NodeConfig, len(nodes))
	forEachParallel(len(nodes), func(i int) {
		c, r := i/n, i%n
		id := NodeID{Cluster: int32(c), Replica: int32(r)}
		ncfgs[i] = NodeConfig{
			SystemConfig:  cfg,
			Cluster:       id.Cluster,
			Replica:       id.Replica,
			Keys:          keys[id],
			Ring:          ring,
			Net:           net,
			GenesisHeader: headers[c],
			GenesisCert:   certs[c],
			GenesisData:   shares[c],
		}
		ncfgs[i].DataDir = nodeDataDir(cfg.DataDir, id.Cluster, id.Replica)
		ncfgs[i].InitialData = nil
		nodes[i] = newNode(ncfgs[i], trees[c][r])
		// Loaded: the share goes with shares (RestartReplica derives it
		// again).
		ncfgs[i].GenesisData = nil
	})

	sys := &System{Cfg: cfg, Net: net, Ring: ring, Part: part,
		nodes: make(map[NodeID]*Node, len(nodes)), nodeCfgs: make(map[NodeID]NodeConfig, len(nodes))}
	for i, node := range nodes {
		sys.nodes[node.self] = node
		sys.nodeCfgs[node.self] = ncfgs[i]
	}
	return sys
}

// forEachParallel runs fn(0) … fn(n-1) on up to GOMAXPROCS goroutines and
// returns once every call has. Whole-keyspace work at boot goes through
// it: replica construction, genesis, disk recovery.
func forEachParallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// StopReplica crashes one replica: its event loop stops and its mailbox
// is torn down, so every message sent while it is down is lost — exactly
// what a process crash implies. The rest of the cluster keeps committing
// as long as 2f+1 replicas remain.
func (s *System) StopReplica(id NodeID) {
	s.mu.Lock()
	node := s.nodes[id]
	s.mu.Unlock()
	if node == nil {
		return
	}
	node.Stop()
	s.Net.Deregister(id)
}

// RestartReplica rebuilds a crashed replica from its original
// configuration — fresh genesis state, its cluster's sorted share of
// InitialData split off again, empty mailbox — and starts it in recovery
// mode: it immediately requests a state transfer, installs the latest
// stable checkpoint, replays the suffix, and rejoins consensus.
func (s *System) RestartReplica(id NodeID) *Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	cfg, ok := s.nodeCfgs[id]
	if !ok {
		return nil
	}
	cfg.GenesisData = genesisShare(s.Cfg.InitialData, s.Part, id.Cluster)
	cfg.Recovering = true
	node := NewNode(cfg)
	s.nodes[id] = node
	node.Start()
	return node
}

// genesisShare returns the entries of data that part assigns to cluster
// c, key-sorted, each written by the genesis batch: the initial data the
// cluster's genesis root certifies, in the order ImportAsOf takes without
// sorting again.
func genesisShare(data map[string][]byte, part protocol.Partitioner, c int32) []store.KV {
	share := make([]store.KV, 0, len(data)/int(part.N))
	for k, v := range data {
		if part.Of(k) == c {
			share = append(share, store.KV{Key: k, Value: v, Writer: store.GenesisBatch})
		}
	}
	slices.SortFunc(share, func(a, b store.KV) int { return strings.Compare(a.Key, b.Key) })
	return share
}

// genesisTrees builds the Merkle tree of a genesis share once and returns
// it with n-1 copies, one per replica: every copy has the root and the
// proofs of the original and an arena of its own, so no two replicas share
// a tree.
func genesisTrees(share []store.KV, n int) []*merkle.Tree {
	trees := make([]*merkle.Tree, n)
	trees[0] = newTreeFor(share)
	for r := 1; r < n; r++ {
		trees[r] = merkle.Compact([]*merkle.Tree{trees[0]})[0]
	}
	return trees
}

// nodeDataDir derives one replica's data directory (empty in = empty
// out: durability stays off without a DataDir).
func nodeDataDir(root string, cluster, replica int32) string {
	if root == "" {
		return ""
	}
	return filepath.Join(root, fmt.Sprintf("c%d-r%d", cluster, replica))
}

// genesisTimestamp returns the genesis wall-clock. With a DataDir the
// first system start persists it at <DataDir>/genesis.ts and every later
// start reuses it: the genesis header must be bit-identical across cold
// restarts or nothing persisted (which chains off that header's digest)
// would verify.
func genesisTimestamp(dataDir string) int64 {
	now := time.Now().UnixNano()
	if dataDir == "" {
		return now
	}
	path := filepath.Join(dataDir, "genesis.ts")
	if raw, err := os.ReadFile(path); err == nil {
		if ts, err := strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64); err == nil {
			return ts
		}
	}
	if err := os.MkdirAll(dataDir, 0o755); err == nil {
		os.WriteFile(path, []byte(strconv.FormatInt(now, 10)), 0o644)
	}
	return now
}

// genesis builds the certified genesis batch of one cluster: batch 0
// holding the initial data's Merkle root, an empty-dependency CD vector,
// and LCE -1, signed by every replica (trusted setup, like the paper's
// permissioned cluster formation in Sec. 6.1).
func genesis(cluster int32, clusters int, root merkle.Digest, ts int64,
	keys map[NodeID]cryptoutil.KeyPair, n int) (protocol.BatchHeader, cryptoutil.Certificate) {

	cd := protocol.NewCDVector(clusters)
	cd[cluster] = 0
	b := &protocol.Batch{
		Cluster:    cluster,
		ID:         0,
		Timestamp:  ts,
		CD:         cd,
		LCE:        -1,
		MerkleRoot: root,
	}
	header := b.Header()
	d := header.Digest()
	cert := cryptoutil.Certificate{Cluster: cluster}
	for r := 0; r < n; r++ {
		id := NodeID{Cluster: cluster, Replica: int32(r)}
		cert.Signatures = append(cert.Signatures, cryptoutil.SignCertificate(keys[id], id, d[:]))
	}
	return header, cert
}

// Start launches every replica: each one's disk recovery (a checkpoint
// decode, verification and Merkle rebuild plus the WAL replay, with a
// DataDir) and then its event loop, replicas side by side. A recovering
// replica touches only its own state; a peer whose loop already runs
// reaches it through its mailbox alone, which Node.Start registers
// before anything else.
func (s *System) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	nodes := slices.Collect(maps.Values(s.nodes))
	forEachParallel(len(nodes), func(i int) { nodes[i].Start() })
}

// Stop shuts down all replicas and the network.
func (s *System) Stop() {
	s.mu.Lock()
	nodes := make([]*Node, 0, len(s.nodes))
	for _, node := range s.nodes {
		nodes = append(nodes, node)
	}
	s.mu.Unlock()
	for _, node := range nodes {
		node.Stop()
	}
	s.Net.Stop()
}

// Node returns a replica by identity (nil if absent); used by tests and
// the benchmark to read metrics.
func (s *System) Node(id NodeID) *Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodes[id]
}

// Leader returns the current leader identity of a cluster: the leader of
// the highest view any of its live replicas runs in (replicas disagree
// only transiently, mid view change). With failover disabled this is
// always the view-0 leader.
func (s *System) Leader(cluster int32) NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.Cfg.replicas()
	var view uint64
	for r := 0; r < n; r++ {
		if node := s.nodes[NodeID{Cluster: cluster, Replica: int32(r)}]; node != nil {
			if v := node.CurrentView(); v > view {
				view = v
			}
		}
	}
	return NodeID{Cluster: cluster, Replica: int32(view % uint64(n))}
}

// ReplicasPerCluster returns the cluster size.
func (s *System) ReplicasPerCluster() int { return s.Cfg.replicas() }

// newTreeFor builds the Merkle tree of a genesis share in one bulk pass
// (initial loads are the largest tree builds in the system). Every leaf
// binds its value to the genesis batch, the writer the store records for
// the load.
func newTreeFor(share []store.KV) *merkle.Tree {
	ups := make([]merkle.Update, len(share))
	var leaf []byte
	for i, e := range share {
		leaf = protocol.LeafValue(leaf[:0], store.GenesisBatch, e.Value)
		ups[i] = merkle.Update{KeyHash: merkle.HashKey([]byte(e.Key)), ValHash: merkle.HashValue(leaf)}
	}
	return merkle.Build(ups)
}

// NodeMetrics sums one metric across all replicas via the accessor. Node
// metrics are owned by each event loop; call this after Stop (or treat
// results as approximate while the system runs).
func (s *System) NodeMetrics(f func(*Metrics) int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, node := range s.nodes {
		total += f(&node.Metrics)
	}
	return total
}

// String describes the deployment.
func (s *System) String() string {
	return fmt.Sprintf("transedge: %d clusters x %d replicas (f=%d)",
		s.Cfg.Clusters, s.ReplicasPerCluster(), s.Cfg.F)
}
