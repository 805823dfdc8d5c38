package protocol

import (
	"transedge/internal/cryptoutil"
	"transedge/internal/merkle"
)

// This file defines the transport payloads exchanged between clients,
// leaders, and clusters. Intra-cluster consensus messages live in
// internal/bft; everything cross-cluster or client-facing is here.

// ---- Client to cluster ----

// CommitRequest submits a finished transaction object for commitment
// (paper Sec. 3.2/3.3.1). The chosen cluster acts as 2PC coordinator if
// the transaction is distributed.
type CommitRequest struct {
	Txn     Transaction
	ReplyTo chan CommitReply
}

// CommitReply reports the terminal status of a submitted transaction.
type CommitReply struct {
	TxnID  TxnID
	Status TxnStatus
	// Reason carries a human-readable abort cause for diagnostics.
	Reason string
	// CommitBatch is the batch where the transaction committed at the
	// replying cluster (meaningful for StatusCommitted).
	CommitBatch int64
}

// ReadRequest reads one key outside the read-only snapshot protocol; the
// reply feeds a read-write transaction's read set. Served by any replica
// from committed state.
type ReadRequest struct {
	Key     string
	ReplyTo chan ReadReply
}

// ReadReply returns the committed value and its version (the writer
// batch), which the client records in its read set for OCC validation.
type ReadReply struct {
	Key     string
	Value   []byte
	Version int64
	Found   bool
}

// RORequest is the snapshot read-only transaction request (commit-rot,
// Sec. 4). Round one leaves AsOfLCE < 0; a second round asks a partition
// for the state whose LCE is at least the unsatisfied dependency.
type RORequest struct {
	Keys    []string
	AsOfLCE int64
	// MinBatch, when positive, is a session floor: the served snapshot
	// must be at least this batch (monotonic reads / read-your-writes).
	// The server parks the request until the floor commits locally; the
	// client has evidence the batch exists (its own commit reply or a
	// previously verified read), so an honest cluster always serves it.
	MinBatch int64
	ReplyTo  chan ROReply
}

// ROValue is one key's answer in a read-only reply: the value and the
// batch that wrote it, or Found false when the key does not exist in the
// snapshot. The reply's multi-proof proves both cases; a found key's leaf
// binds LeafValue(Writer, Value).
type ROValue struct {
	Key    string
	Value  []byte
	Writer int64
	Found  bool
}

// ROReply carries everything the client needs to verify the answer with
// no further coordination: data + proof, the Merkle root with its f+1
// certificate, and the CD vector / LCE of the batch served.
type ROReply struct {
	Cluster int32
	Values  []ROValue
	// Multi co-proves every value (membership and absence) in one
	// pruned-subtree proof against the header's Merkle root. It is nil
	// only on a reply to a zero-key request (a session closure contact).
	Multi  *merkle.MultiProof
	Header BatchHeader
	Cert   cryptoutil.Certificate
	Err    string
}

// ---- Cluster to cluster (2PC over consensus, Sec. 3.3) ----

// CoordinatorPrepare is step 3 of Fig. 3: after the coordinator cluster
// writes the transaction into the prepared segment of its own log, its
// leader forwards the prepare to every participant leader with proof of
// SMR-log inclusion.
type CoordinatorPrepare struct {
	TxnID        TxnID
	CoordCluster int32
	Proof        PrepareProof
	// Forwarded marks a copy relayed by a follower to its current leader
	// after a view change; relays of relays are dropped to bound hops.
	Forwarded bool
}

// PreparedVote is step 5 of Fig. 3: a participant reports its 2PC vote
// together with proof that the prepare record was written to its SMR log.
// The proof's header carries the CD vector of the prepare batch — the
// piggybacked dependency report of Sec. 4.3.3(c) — and its ID is the
// prepare-batch number used in CD vectors.
type PreparedVote struct {
	TxnID       TxnID
	FromCluster int32
	Vote        Decision
	Proof       PrepareProof
	// Forwarded marks a follower-to-leader relay; see CoordinatorPrepare.
	Forwarded bool
}

// CommitDecision is step 7 of Fig. 3: the coordinator distributes the
// outcome along with the full set of prepared votes whose proofs justify
// it, so participants can validate the decision without trusting the
// coordinator's leader.
type CommitDecision struct {
	TxnID        TxnID
	CoordCluster int32
	Decision     Decision
	Votes        []PreparedVote
	// Forwarded marks a follower-to-leader relay; see CoordinatorPrepare.
	Forwarded bool
}
