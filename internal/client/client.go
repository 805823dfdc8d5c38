// Package client implements the TransEdge client protocol: the
// transaction object of Sec. 2 ("Interface"), the commit path of
// Sec. 3.3.1, and the verified snapshot read-only transaction protocol of
// Sec. 4 (Algorithm 2), including the second round that repairs
// unsatisfied cross-partition dependencies.
//
// The client trusts no single node. Every read-only answer is checked
// against a Merkle membership proof and an f+1-signature batch
// certificate, so a byzantine replica can neither forge values nor lie
// about the dependency metadata (CD vector, LCE) attached to them.
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"transedge/internal/cryptoutil"
	"transedge/internal/protocol"
	"transedge/internal/transport"
)

// NodeID aliases the system-wide identity.
type NodeID = cryptoutil.NodeID

// Errors surfaced by the client.
var (
	ErrTimeout      = errors.New("client: request timed out")
	ErrAborted      = errors.New("client: transaction aborted")
	ErrVerification = errors.New("client: response failed verification")
	ErrStale        = errors.New("client: response older than the staleness bound")
	ErrInconsistent = errors.New("client: read-only snapshot inconsistent after second round")
	ErrServer       = errors.New("client: server error")
)

// Config assembles a client.
type Config struct {
	ID       uint32
	Net      *transport.Network
	Ring     *cryptoutil.KeyRing
	Part     protocol.Partitioner
	Clusters int
	// Timeout bounds each RPC (default 10s).
	Timeout time.Duration
	// MaxStaleness, when positive, makes read-only transactions reject
	// batches older than this bound (freshness, Sec. 4.4.2).
	MaxStaleness time.Duration
	// ReadTarget picks the replica serving read-set reads for a cluster
	// (default: the leader). Reads may go to any replica.
	ReadTarget func(cluster int32) NodeID
	// ROTarget picks the single node per partition answering read-only
	// transactions (default: the leader).
	ROTarget func(cluster int32) NodeID
	// Seed drives the coordinator choice for distributed commits.
	Seed int64
	// MeasureProofBytes makes the client canonically encode every verified
	// proof and account its size (see ProofStats). Off by default: the
	// encoding pass exists only for measurement.
	MeasureProofBytes bool
}

// Client issues transactions against a TransEdge deployment.
type Client struct {
	cfg  Config
	self NodeID
	seq  atomic.Uint32
	// rngMu guards rng: transactions of one Client may commit concurrently.
	rngMu sync.Mutex
	rng   *rand.Rand

	// certSeen memoizes batch-header digests whose certificates already
	// verified: read-only transactions under load repeatedly fetch the
	// same head batch per partition, and each certificate check costs
	// threshold Ed25519 verifications. Certificate validity for a given
	// header digest never changes, so a hit skips the whole check (the
	// freshness bound is still enforced per reply).
	certMu   sync.Mutex
	certSeen map[cryptoutil.Digest]struct{}

	// certChecks counts full certificate verifications (threshold Ed25519
	// checks actually performed, cache hits excluded).
	certChecks atomic.Int64
	// proofReqs/proofBytes account verified read-only replies and their
	// canonical proof encoding sizes when MeasureProofBytes is set.
	proofReqs  atomic.Int64
	proofBytes atomic.Int64

	// prefMu/pref remember, per cluster, the replica that last answered a
	// commit: after a leader failover the view-0 replica may be dead, and
	// starting each commit's contact rotation from the last responsive
	// replica skips the dead ones without the client ever tracking views.
	prefMu sync.Mutex
	pref   map[int32]int32
}

// certCacheLimit bounds certSeen; long-lived clients reset rather than
// grow without bound.
const certCacheLimit = 4096

// certVerified reports whether the header digest's certificate was
// already verified by this client.
func (c *Client) certVerified(d cryptoutil.Digest) bool {
	c.certMu.Lock()
	defer c.certMu.Unlock()
	_, ok := c.certSeen[d]
	return ok
}

// rememberCert records a verified certificate's header digest.
func (c *Client) rememberCert(d cryptoutil.Digest) {
	c.certMu.Lock()
	defer c.certMu.Unlock()
	if len(c.certSeen) >= certCacheLimit {
		c.certSeen = make(map[cryptoutil.Digest]struct{}, certCacheLimit)
	}
	c.certSeen[d] = struct{}{}
}

// CertVerifications reports how many full certificate verifications this
// client has performed (root-cache hits excluded).
func (c *Client) CertVerifications() int64 { return c.certChecks.Load() }

// ProofStats reports the verified read-only replies counted and their
// total canonical proof bytes. Both stay zero unless MeasureProofBytes.
func (c *Client) ProofStats() (requests, bytes int64) {
	return c.proofReqs.Load(), c.proofBytes.Load()
}

// New creates a client. The client registers no mailbox: replies arrive on
// per-request channels.
func New(cfg Config) *Client {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.ReadTarget == nil {
		cfg.ReadTarget = func(c int32) NodeID { return NodeID{Cluster: c, Replica: 0} }
	}
	if cfg.ROTarget == nil {
		cfg.ROTarget = func(c int32) NodeID { return NodeID{Cluster: c, Replica: 0} }
	}
	return &Client{
		cfg:      cfg,
		self:     NodeID{Cluster: transport.ClientCluster, Replica: int32(cfg.ID)},
		rng:      rand.New(rand.NewSource(cfg.Seed ^ int64(cfg.ID))),
		certSeen: make(map[cryptoutil.Digest]struct{}),
		pref:     make(map[int32]int32),
	}
}

// preferred returns the rotation start replica for a cluster.
func (c *Client) preferred(cluster int32) int32 {
	c.prefMu.Lock()
	defer c.prefMu.Unlock()
	return c.pref[cluster]
}

// remember records the replica whose contact produced an answer.
func (c *Client) remember(cluster, replica int32) {
	c.prefMu.Lock()
	c.pref[cluster] = replica
	c.prefMu.Unlock()
}

// threshold returns the certificate threshold (f+1) for a cluster.
func (c *Client) threshold(cluster int32) int {
	n := c.cfg.Ring.ClusterSize(cluster)
	return (n-1)/3 + 1
}

// Txn is a client-side transaction object: reads record observed versions
// for OCC validation; writes are buffered until commit (Sec. 2).
type Txn struct {
	c        *Client
	id       protocol.TxnID
	reads    []protocol.ReadEntry
	writes   []protocol.WriteOp
	buffered map[string][]byte // read-your-own-writes
	done     bool
	// onCommit observes a successful commit: the coordinator cluster, the
	// batch it committed in there, and whether the transaction spanned
	// multiple partitions. Sessions hook it to advance their floors.
	onCommit func(coord int32, batch int64, distributed bool)
}

// Begin opens a transaction.
func (c *Client) Begin() *Txn {
	return &Txn{
		c:        c,
		id:       protocol.MakeTxnID(c.cfg.ID, c.seq.Add(1)),
		buffered: make(map[string][]byte),
	}
}

// ID returns the transaction's identity.
func (t *Txn) ID() protocol.TxnID { return t.id }

// Read fetches a key's committed value and records it in the read set.
// Buffered writes of this transaction are read back directly.
func (t *Txn) Read(key string) ([]byte, error) {
	if v, ok := t.buffered[key]; ok {
		return v, nil
	}
	cluster := t.c.cfg.Part.Of(key)
	// Rotate away from an unresponsive target: any replica serves reads
	// from committed state, so a crashed ReadTarget only costs one
	// sub-timeout before the next replica answers.
	attempts := t.c.cfg.Ring.ClusterSize(cluster)
	if attempts <= 0 {
		attempts = 1
	}
	per := t.c.cfg.Timeout / time.Duration(attempts)
	if per <= 0 {
		per = t.c.cfg.Timeout
	}
	base := t.c.cfg.ReadTarget(cluster)
	replyTo := make(chan protocol.ReadReply, attempts)
	for a := 0; a < attempts; a++ {
		to := NodeID{Cluster: cluster, Replica: (base.Replica + int32(a)) % int32(attempts)}
		t.c.cfg.Net.Send(t.c.self, to, &protocol.ReadRequest{Key: key, ReplyTo: replyTo})
		select {
		case r := <-replyTo:
			version := int64(-1)
			var value []byte
			if r.Found {
				version = r.Version
				value = r.Value
			}
			t.reads = append(t.reads, protocol.ReadEntry{Key: key, Version: version})
			return value, nil
		case <-time.After(per):
		}
	}
	return nil, fmt.Errorf("%w: read %q", ErrTimeout, key)
}

// Write buffers a write; nothing reaches the system until Commit.
func (t *Txn) Write(key string, value []byte) {
	t.writes = append(t.writes, protocol.WriteOp{Key: key, Value: value})
	t.buffered[key] = value
}

// Commit submits the transaction. The coordinator cluster is chosen among
// the accessed partitions (Sec. 3.3.1). Returns ErrAborted (with the
// conflict reason wrapped) when conflict detection rejects it.
func (t *Txn) Commit() error {
	if t.done {
		return errors.New("client: transaction already finished")
	}
	t.done = true
	if len(t.reads) == 0 && len(t.writes) == 0 {
		return nil
	}
	txn := protocol.Transaction{
		ID:         t.id,
		Reads:      t.reads,
		Writes:     t.writes,
		Partitions: t.c.cfg.Part.PartitionsOf(t.reads, t.writes),
	}
	t.c.rngMu.Lock()
	coord := txn.Partitions[t.c.rng.Intn(len(txn.Partitions))]
	t.c.rngMu.Unlock()
	// Contact rotation: a silent contact (crashed replica, or a deposed
	// leader that dropped the request) costs one sub-timeout, then the
	// next replica is tried with the SAME transaction and reply channel —
	// replicas forward to their current leader and the leader dedups
	// resubmissions, so retries can never double-commit. The rotation
	// starts at the replica that last answered for this cluster.
	attempts := t.c.cfg.Ring.ClusterSize(coord)
	if attempts <= 0 {
		attempts = 1
	}
	per := t.c.cfg.Timeout / time.Duration(attempts)
	if per <= 0 {
		per = t.c.cfg.Timeout
	}
	start := t.c.preferred(coord)
	replyTo := make(chan protocol.CommitReply, attempts)
	for a := 0; a < attempts; a++ {
		target := NodeID{Cluster: coord, Replica: (start + int32(a)) % int32(attempts)}
		t.c.cfg.Net.Send(t.c.self, target, &protocol.CommitRequest{Txn: txn, ReplyTo: replyTo})
		select {
		case r := <-replyTo:
			t.c.remember(coord, target.Replica)
			if r.Status != protocol.StatusCommitted {
				return fmt.Errorf("%w: %s", ErrAborted, r.Reason)
			}
			if t.onCommit != nil {
				t.onCommit(coord, r.CommitBatch, len(txn.Partitions) > 1)
			}
			return nil
		case <-time.After(per):
		}
	}
	return fmt.Errorf("%w: commit %v", ErrTimeout, t.id)
}
