package core

import (
	"sync/atomic"
	"time"

	"transedge/internal/cryptoutil"
	"transedge/internal/merkle"
	"transedge/internal/protocol"
)

// Server side of the snapshot read-only transaction protocol (Sec. 4).
//
// Commit-freedom: a single node serves the whole per-partition answer —
// values, Merkle membership proofs, the certified batch header carrying
// the Merkle root, the CD vector and the LCE — with no coordination.
//
// Non-interference: serving never touches the transaction pipeline; it
// reads immutable log entries and persistent tree versions, so concurrent
// read-write transactions are never blocked or aborted by readers.
//
// Off-loop serving: the event loop only RESOLVES a request — which batch
// snapshot answers it (LCE binary search, prune clamping, parking) — and
// captures that batch's immutable state (header, certificate, Merkle tree
// version). The per-key fan-out against the sharded store and the proof
// construction run on the read-executor pool, so read CPU scales with
// cores and adds no latency to consensus. Safety argument: DESIGN.md §5.

// onReadRequest serves a single-key committed read for a read-write
// transaction's read set. Any replica can answer. The read goes straight
// to an executor: it touches only the sharded store (whose newest
// versions are never pruned), so nothing needs resolving on-loop.
func (n *Node) onReadRequest(m *protocol.ReadRequest) {
	task := func() {
		v, writer, ok := n.st.Get(m.Key)
		reply := protocol.ReadReply{Key: m.Key, Found: ok}
		if ok {
			reply.Value = v
			reply.Version = writer
		}
		select {
		case m.ReplyTo <- reply:
		default:
		}
	}
	if !n.readers.trySubmit(-1, task) {
		task()
	}
}

// onRORequest serves one round of a snapshot read-only transaction.
// Round one (AsOfLCE < 0) answers from the newest committed batch. Round
// two asks for the state whose LCE covers an unsatisfied dependency; if
// that batch has not committed here yet, the request parks until it does
// (the dependency's group is guaranteed to commit — its 2PC decision is
// already final). A session floor (MinBatch) parks the same way: the
// client only pins batches it has evidence exist, so an honest cluster
// commits the floor and unparks the request.
func (n *Node) onRORequest(m *protocol.RORequest) {
	target, ok := n.resolveROTarget(m)
	if !ok {
		n.parked = append(n.parked, parkedRO{
			req:      *m,
			deadline: time.Now().Add(n.cfg.ROParkTimeout),
		})
		return
	}
	n.serveRO(m, target)
}

// resolveROTarget picks the batch snapshot answering m, or reports that
// the request must park (the dependency or session floor has not
// committed here yet). Serving a newer batch than asked is always safe:
// LCE is monotone over the log, so a newer snapshot still satisfies the
// dependency, and a newer batch trivially satisfies a session floor.
func (n *Node) resolveROTarget(m *protocol.RORequest) (int64, bool) {
	target := n.lastBatchID()
	second := false
	if m.AsOfLCE >= 0 {
		target = n.log.searchLCE(m.AsOfLCE)
		if target < 0 {
			return 0, false
		}
		second = true
	}
	if target < m.MinBatch {
		if n.lastBatchID() < m.MinBatch {
			return 0, false
		}
		target = m.MinBatch
	}
	if base := n.log.baseID(); target < base {
		// The exact snapshot was truncated; the window base is newer, so
		// its LCE still covers the requested dependency.
		target = base
	}
	if second {
		n.Metrics.ROSecondRound++
	}
	return target, true
}

// roSnapshot is everything an executor needs to answer from one batch's
// snapshot: the certified header and the Merkle tree version are captured
// on the event loop, after which they are immutable — the tree is a
// persistent structure, and the snapshot holds copies of the log entry's
// fields, which a later compaction does not touch — so executors read
// them without synchronization. Store versions at batchID are pinned
// against pruning by the executor's target tracking.
type roSnapshot struct {
	batchID int64
	header  protocol.BatchHeader
	cert    cryptoutil.Certificate
	tree    *merkle.Tree
}

// serveRO resolves a read-only request's snapshot on the event loop and
// hands the key fan-out to the read-executor pool (inline when the pool
// is saturated, preserving liveness at the seed's behavior).
func (n *Node) serveRO(m *protocol.RORequest, batchID int64) {
	if n.cfg.ROByzantine[n.self].ServeStaleBatch {
		// Byzantine: an old-but-consistent snapshot. Clients bound this
		// with the freshness timestamp (Sec. 4.4.2).
		batchID = 0
	}
	if base := n.log.baseID(); batchID < base {
		batchID = base
	}
	entry := n.log.get(batchID)
	snap := roSnapshot{batchID: batchID, header: entry.header, cert: entry.cert, tree: entry.tree}
	req := *m
	task := func() { n.serveROSnapshot(&req, snap) }
	if !n.readers.trySubmit(batchID, task) {
		task()
	}
}

// serveROSnapshot answers a read-only request from a resolved snapshot.
// It runs on a read executor (or inline on the loop when the pool is
// full) and touches only executor-safe state: the immutable snapshot, the
// sharded store at a batch <= StableBatch, the node's immutable config,
// and atomic metrics.
func (n *Node) serveROSnapshot(m *protocol.RORequest, snap roSnapshot) {
	reply := protocol.ROReply{
		Cluster: n.cfg.Cluster,
		Header:  snap.header,
		Cert:    snap.cert,
	}
	bad := n.cfg.ROByzantine[n.self]
	part := n.cfg.partitioner()
	// One sharded pass for every local key's value, then one proof for all
	// keys. local and vals share m.Keys' ascending order, so a cursor maps
	// results back without a per-request allocation.
	local := make([]int, 0, len(m.Keys))
	localKeys := make([]string, 0, len(m.Keys))
	for i, k := range m.Keys {
		if part.Of(k) == n.cfg.Cluster {
			local = append(local, i)
			localKeys = append(localKeys, k)
		}
	}
	vals := n.st.MultiGetAsOf(localKeys, snap.batchID)
	reply.Values = make([]protocol.ROValue, 0, len(m.Keys))
	next := 0
	for i, k := range m.Keys {
		if next == len(local) || local[next] != i {
			reply.Values = append(reply.Values, protocol.ROValue{Key: k})
			continue
		}
		v := vals[next]
		next++
		if !v.Found {
			reply.Values = append(reply.Values, protocol.ROValue{Key: k})
			continue
		}
		value := v.Value
		if bad.CorruptValues {
			value = append(append([]byte(nil), value...), 0xff)
		}
		reply.Values = append(reply.Values, protocol.ROValue{Key: k, Value: value, Found: true})
	}
	if len(m.Keys) > 0 {
		// One pruned-subtree proof covers every key — membership and
		// absence alike — so shared path prefixes ship and re-hash once
		// per request instead of once per key. Non-local keys (absent
		// from this partition's tree) are co-proved absent for free. A
		// zero-key request (a session closure contact) needs no proof.
		keys := make([][]byte, len(m.Keys))
		for i, k := range m.Keys {
			keys[i] = []byte(k)
		}
		if mp, err := snap.tree.ProveMulti(keys); err == nil {
			if bad.CorruptProofs && len(mp.Nodes) > 0 {
				mp.Nodes = mp.Nodes[:len(mp.Nodes)-1]
			}
			reply.Multi = &mp
		} else {
			// Unreachable today (ProveMulti only errors on zero keys,
			// guarded above), but a reply with values and no proof would
			// only fail client verification with a confusing proof error —
			// surface an explicit server error instead.
			reply = protocol.ROReply{Cluster: n.cfg.Cluster, Err: "multi-proof: " + err.Error()}
		}
	}
	if bad.DuplicateOmitKey && len(reply.Values) >= 2 {
		// Byzantine: answer the first key twice and omit the last, which
		// a client enforcing exactly-once key coverage rejects before it
		// checks the proof.
		reply.Values[len(reply.Values)-1] = reply.Values[0]
	}
	atomic.AddInt64(&n.Metrics.ROServed, 1)
	select {
	case m.ReplyTo <- reply:
	default:
	}
}

// serveParked retries parked requests (second-round dependency waits and
// session-floor waits) after each delivery.
func (n *Node) serveParked() {
	if len(n.parked) == 0 {
		return
	}
	remaining := n.parked[:0]
	for _, p := range n.parked {
		target, ok := n.resolveROTarget(&p.req)
		if !ok {
			remaining = append(remaining, p)
			continue
		}
		req := p.req
		n.serveRO(&req, target)
	}
	n.parked = remaining
}

// expireParked times out parked requests whose dependency never arrived
// (e.g. the remote cluster stalled); the client surfaces the error.
func (n *Node) expireParked() {
	if len(n.parked) == 0 {
		return
	}
	now := time.Now()
	remaining := n.parked[:0]
	for _, p := range n.parked {
		if now.After(p.deadline) {
			n.Metrics.ROParkedExpired++
			select {
			case p.req.ReplyTo <- protocol.ROReply{Cluster: n.cfg.Cluster, Err: "read-only dependency wait timed out"}:
			default:
			}
			continue
		}
		remaining = append(remaining, p)
	}
	n.parked = remaining
}
