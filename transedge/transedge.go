// Package transedge is the public API of the TransEdge reproduction: a
// byzantine fault-tolerant, partitioned transactional store for edge
// environments with efficient verified snapshot read-only transactions
// (EDBT 2023, arXiv:2302.08019).
//
// A System hosts one cluster of 3f+1 replicas per data partition inside
// the current process, connected by a simulated wide-area network with
// configurable latencies. Clients issue:
//
//   - read-write transactions (optimistic concurrency, committed through
//     PBFT-style consensus within clusters and Two-Phase Commit across
//     them), and
//   - snapshot read-only transactions that contact a single —
//     possibly malicious — node per partition and verify everything:
//     Merkle membership proofs against an f+1-certified root, plus
//     cross-partition consistency via CD vectors and LCE numbers.
//
// Quickstart:
//
//	sys, err := transedge.Start(transedge.Options{
//		Clusters:    3,
//		F:           1,
//		InitialData: map[string][]byte{"alice": []byte("100")},
//	})
//	defer sys.Stop()
//
//	c := sys.NewClient()
//	txn := c.Begin()
//	v, _ := txn.Read("alice")
//	txn.Write("alice", []byte("90"))
//	if err := txn.Commit(); err != nil { ... }
//
//	snap, _ := c.ReadOnly([]string{"alice", "bob"})
package transedge

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"transedge/internal/client"
	"transedge/internal/core"
	"transedge/internal/store"
)

// Options configures a deployment.
type Options struct {
	// Clusters is the number of data partitions; each gets its own
	// cluster of replicas. Must be >= 1.
	Clusters int
	// F is the number of byzantine replicas tolerated per cluster; each
	// cluster runs 3F+1 replicas. Must be >= 1.
	F int
	// Seed makes node identities and client behavior reproducible.
	Seed uint64

	// BatchInterval is the leader's batch flush period (default 1ms).
	BatchInterval time.Duration
	// BatchMaxSize triggers an immediate batch at this many pending
	// transactions (default 2000).
	BatchMaxSize int
	// PipelineDepth is how many batches a cluster leader may keep in
	// flight between proposal and consensus delivery (default 4). Depth 1
	// restores the stop-and-wait pipeline, where consensus latency caps
	// commit throughput.
	PipelineDepth int
	// StoreShards is each replica's versioned-store shard count, rounded
	// up to a power of two (default 16). One shard restores a global
	// store lock; more shards let concurrent snapshot reads scale.
	StoreShards int
	// Engine selects each replica's storage backend by registry name:
	// "sharded" (the default in-memory MVCC store) or "lsm" (the
	// log-structured engine with memtable, immutable runs, and
	// background compaction). Unknown names fail Start with an error
	// listing the valid backends.
	Engine string
	// ReadExecutors sizes each replica's pool serving read-only
	// transactions off the consensus loop (default: GOMAXPROCS).
	ReadExecutors int
	// CheckpointInterval is how many batches apart replicas establish
	// stable checkpoints (PBFT-style 2f+1 checkpoint quorums). Stable
	// checkpoints bound each replica's in-memory log window and let a
	// crashed or lagging replica rejoin via state transfer. Default 64;
	// negative disables checkpointing (unbounded log, no recovery).
	CheckpointInterval int
	// StateTransferTimeout bounds how long a recovering replica waits
	// for a peer's state response before asking the next peer
	// (default 1s).
	StateTransferTimeout time.Duration
	// ViewTimeout bounds how long each replica waits for leader progress
	// on pending work before voting a PBFT view change, electing the next
	// replica (round-robin) as leader. Zero disables leader failover: a
	// crashed leader then stalls its cluster until restarted.
	ViewTimeout time.Duration
	// DataDir enables durability: each replica write-ahead-logs certified
	// batches and persists stable checkpoints under its own subdirectory,
	// and a restarted deployment (same Options, same DataDir) rebuilds
	// committed state from disk before falling back to peers. Empty (the
	// default) keeps everything in memory — a power cycle of 2f+1
	// replicas then loses the database.
	DataDir string
	// WALSyncEvery is the group-commit width: one fsync covers up to this
	// many committed batches (default 8; wal.SyncNever, -1, disables
	// fsync for benchmarking).
	WALSyncEvery int
	// WALSyncInterval bounds how long a partial commit group may stay
	// unsynced (default 2ms).
	WALSyncInterval time.Duration

	// IntraClusterLatency and InterClusterLatency shape the simulated
	// network (defaults: zero).
	IntraClusterLatency time.Duration
	InterClusterLatency time.Duration

	// FreshnessWindow, when positive, makes replicas reject batches whose
	// leader timestamp deviates further than this from their clocks,
	// bounding stale-snapshot attacks (paper Sec. 4.4.2).
	FreshnessWindow time.Duration

	// InitialData is loaded as the certified genesis state, spread over
	// the partitions by key hash.
	InitialData map[string][]byte

	// ClientTimeout bounds every client RPC (default 10s).
	ClientTimeout time.Duration
	// MaxStaleness, when positive, makes clients reject read-only
	// snapshots older than this bound.
	MaxStaleness time.Duration
}

// System is a running deployment.
type System struct {
	sys      *core.System
	opts     Options
	clientID atomic.Uint32
}

// Validation errors.
var (
	ErrBadOptions = errors.New("transedge: invalid options")
)

// Start builds and launches a deployment.
func Start(opts Options) (*System, error) {
	if opts.Clusters < 1 {
		return nil, fmt.Errorf("%w: Clusters must be >= 1", ErrBadOptions)
	}
	if opts.F < 1 {
		return nil, fmt.Errorf("%w: F must be >= 1", ErrBadOptions)
	}
	if opts.Engine != "" {
		// Build-and-discard validates the name here, where it can be an
		// error, instead of panicking deep inside node construction.
		probe, err := store.NewEngine(opts.Engine, 1)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadOptions, err)
		}
		if c, ok := probe.(interface{ Close() }); ok {
			c.Close()
		}
	}
	sys := core.NewSystem(core.SystemConfig{
		Clusters:             opts.Clusters,
		F:                    opts.F,
		Seed:                 opts.Seed,
		BatchInterval:        opts.BatchInterval,
		BatchMaxSize:         opts.BatchMaxSize,
		PipelineDepth:        opts.PipelineDepth,
		StoreShards:          opts.StoreShards,
		Engine:               opts.Engine,
		ReadExecutors:        opts.ReadExecutors,
		CheckpointInterval:   opts.CheckpointInterval,
		StateTransferTimeout: opts.StateTransferTimeout,
		ViewTimeout:          opts.ViewTimeout,
		DataDir:              opts.DataDir,
		WALSyncEvery:         opts.WALSyncEvery,
		WALSyncInterval:      opts.WALSyncInterval,
		IntraLatency:         opts.IntraClusterLatency,
		InterLatency:         opts.InterClusterLatency,
		FreshnessWindow:      opts.FreshnessWindow,
		InitialData:          opts.InitialData,
	})
	sys.Start()
	return &System{sys: sys, opts: opts}, nil
}

// Stop shuts every replica and the network down.
func (s *System) Stop() { s.sys.Stop() }

// Replicas returns the number of replicas per cluster (3F+1).
func (s *System) Replicas() int { return s.sys.ReplicasPerCluster() }

// DurabilityStats summarizes the durability layer's activity summed over
// all replicas: cold restarts recovered from the local data dir, batches
// appended to and replayed from the WAL, and stable checkpoints written
// to disk. All zeros when DataDir is unset.
func (s *System) DurabilityStats() (coldRestarts, walAppended, walReplayed, checkpoints int64) {
	coldRestarts = s.sys.NodeMetrics(func(m *core.Metrics) int64 { return m.ColdRestarts })
	walAppended = s.sys.NodeMetrics(func(m *core.Metrics) int64 { return m.WALAppended })
	walReplayed = s.sys.NodeMetrics(func(m *core.Metrics) int64 { return m.WALReplayed })
	checkpoints = s.sys.NodeMetrics(func(m *core.Metrics) int64 { return m.CheckpointsPersisted })
	return
}

// Clusters returns the number of partitions.
func (s *System) Clusters() int { return s.sys.Cfg.Clusters }

// PartitionOf returns the partition that owns a key.
func (s *System) PartitionOf(key string) int32 { return s.sys.Part.Of(key) }

// String describes the deployment.
func (s *System) String() string { return s.sys.String() }

// Client issues transactions against a System. Clients are safe for
// sequential use; create one per goroutine.
type Client struct {
	*client.Client
}

// NewClient creates a client with a fresh identity.
func (s *System) NewClient() *Client {
	id := s.clientID.Add(1)
	return &Client{Client: client.New(client.Config{
		ID:           id,
		Net:          s.sys.Net,
		Ring:         s.sys.Ring,
		Part:         s.sys.Part,
		Clusters:     s.sys.Cfg.Clusters,
		Timeout:      s.opts.ClientTimeout,
		MaxStaleness: s.opts.MaxStaleness,
		Seed:         int64(s.opts.Seed),
	})}
}

// Txn is a read-write transaction handle.
type Txn = client.Txn

// Snapshot is a verified read-only transaction result.
type Snapshot = client.ROResult

// Session wraps a client with session guarantees: monotonic reads (no
// verified snapshot ever goes backwards) and read-your-writes (a session
// read observes every transaction the session committed, including
// distributed ones). Obtain one with Client.NewSession; see DESIGN.md §10
// for how the floors and the coordinator-closure mechanism work.
type Session = client.Session

// Errors surfaced by transactions, re-exported for callers.
var (
	// ErrAborted means conflict detection rejected the transaction;
	// retry with fresh reads.
	ErrAborted = client.ErrAborted
	// ErrTimeout means a request exceeded ClientTimeout.
	ErrTimeout = client.ErrTimeout
	// ErrVerification means a response failed cryptographic checks — a
	// byzantine node was caught.
	ErrVerification = client.ErrVerification
	// ErrStale means a snapshot was older than MaxStaleness.
	ErrStale = client.ErrStale
)
