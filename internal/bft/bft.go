// Package bft implements the intra-cluster BFT state-machine replication
// service that TransEdge layers its batches on (the paper uses
// BFT-SMaRt [13]; this is an equivalent PBFT-style SMR substrate).
//
// Each cluster of n = 3f+1 replicas orders batches in sequence-numbered
// slots. A leader may keep up to MaxInFlight proposals outstanding
// between Propose and delivery (MaxInFlight = 1 reproduces the paper's
// "a leader writes a batch only if the previous batch is already
// written"); delivery is always in strict slot order, so the application
// observes the same one-batch-at-a-time log either way. The flow per
// batch is:
//
//	leader        --PrePrepare(batch)-->  all replicas
//	each replica  --Prepare(digest)--->   all replicas   (after validating)
//	each replica  --Commit(digest,sig)->  all replicas   (after 2f+1 Prepares)
//	deliver when 2f+1 valid Commits are held
//
// The Commit message carries the replica's signature over the batch-header
// digest; any 2f+1 commit quorum therefore contains at least f+1 honest
// signatures, which the deliverer assembles into the batch certificate
// that read-only clients later verify. Replicas validate batch *content*
// (conflict rules, Merkle root recomputation) through an application
// callback before voting, so a malicious leader cannot get an inconsistent
// batch certified — the safety property the paper relies on in Sec. 3.2.
//
// Leader replacement follows PBFT's view-change protocol (the paper
// inherits this behavior from BFT-SMaRt): views number the leadership
// epochs, the leader of view v is replica v mod n, and when the enclosing
// node's progress timer suspects the leader it calls SuspectLeader to
// vote the cluster into the next view. The vote carries the replica's
// certified tip and its prepared-but-undelivered frontier; 2f+1 votes
// form a NewView certificate from which every replica independently
// recomputes the slots that must be re-proposed — see viewchange.go and
// DESIGN.md §7 for the machinery and the safety argument.
//
// The Replica type is passive: it owns no goroutine and no timer. The
// enclosing node's event loop feeds it messages via Handle and drives
// suspicion from its own tick, keeping each replica single-threaded and
// deterministic.
package bft

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"transedge/internal/cryptoutil"
	"transedge/internal/protocol"
	"transedge/internal/transport"
)

// NodeID aliases the system-wide node identity.
type NodeID = cryptoutil.NodeID

// Behavior configures fault injection for byzantine testing.
type Behavior struct {
	// Silent drops all outbound consensus messages (crash/byzantine-mute).
	Silent bool
	// Equivocate makes a byzantine leader send a different batch to every
	// replica.
	Equivocate bool
	// CorruptCertSig makes the replica emit garbage certificate
	// signatures in its Commit messages.
	CorruptCertSig bool
	// TamperBatch makes a byzantine leader flip a committed decision in
	// the proposed batch after computing honest segments elsewhere; used
	// to show content validation rejects it.
	TamperBatch func(*protocol.Batch)
}

// Config assembles a replica of one cluster's SMR service.
type Config struct {
	Cluster  int32
	Replica  int32
	N        int // cluster size, 3f+1
	F        int // tolerated byzantine faults
	Keys     cryptoutil.KeyPair
	Ring     *cryptoutil.KeyRing
	Net      *transport.Network
	Behavior Behavior
	// GenesisDigest chains the first proposed batch to the trusted
	// genesis batch (the initial data load).
	GenesisDigest protocol.Digest
	// GenesisHeader and GenesisCert seed the certified tip carried in
	// view-change votes before anything has been delivered. Optional when
	// view changes are never triggered (pure unit-test configs).
	GenesisHeader protocol.BatchHeader
	GenesisCert   cryptoutil.Certificate

	// Rebase, when set, is invoked after a new view is installed, before
	// the re-proposed frontier enters consensus: the enclosing node drops
	// or re-bases its speculative pipeline onto the frontier batches and
	// re-routes client traffic to the new leader.
	Rebase func(view uint64, frontier []*protocol.Batch)

	// MaxInFlight bounds how many proposals the leader may have between
	// Propose and delivery. Values <= 1 give the classic stop-and-wait
	// pipeline; larger values let the leader chain speculative batches
	// while predecessors are still in consensus.
	MaxInFlight int

	// Validate inspects a proposed batch before the replica votes for it.
	// It runs exactly once per batch ID, in log order, but ahead of
	// delivery: slot k+1 is validated as soon as slot k has been
	// validated, so the consensus phases of pipelined slots overlap.
	// Returning an error withholds the replica's Prepare vote.
	Validate func(*protocol.Batch) error
	// Deliver receives certified batches in strict log order.
	Deliver func(protocol.CertifiedBatch)
}

// Message types exchanged within a cluster.

// PrePrepare is the leader's proposal of the next batch in its view.
type PrePrepare struct {
	View      uint64
	Batch     *protocol.Batch
	LeaderSig []byte // leader's signature over the batch digest
}

// Prepare is a replica's vote that it accepts the proposal. Sig signs
// protocol.PrepareSigDigest(cluster, View, ID, Digest) and is verified on
// receipt, so any 2f+1 counted prepares are a transferable prepare
// certificate — the evidence view-change votes carry.
type Prepare struct {
	View   uint64
	ID     int64
	Digest protocol.Digest
	Sig    []byte
}

// Commit is a replica's second-phase vote; CertSig is its certificate
// signature over the batch-header digest. CertSig deliberately does NOT
// cover View: a slot re-proposed with identical content after a view
// change assembles its delivery certificate from commit votes cast in
// any view, which is what lets delivery straddle a failover.
type Commit struct {
	View    uint64 // informational: the sender's view when it committed
	ID      int64
	Digest  protocol.Digest
	CertSig []byte
}

// prepVote is one replica's verified prepare for a slot: the digest it
// voted for, the view it voted in, and its signature over
// PrepareSigDigest — kept so a view-change vote can relay it.
type prepVote struct {
	view   uint64
	digest protocol.Digest
	sig    []byte
}

// instance tracks one batch's consensus progress.
type instance struct {
	id        int64
	view      uint64 // view this replica validated (or adopted) the slot in
	batch     *protocol.Batch
	digest    protocol.Digest
	validated bool // Validate ran and passed; Prepare sent
	committed bool // Commit sent
	delivered bool
	prepares  map[int32]prepVote // replica -> newest-view verified prepare
	commits   map[int32][]byte   // replica -> valid cert sig (digest-matched)
	// pendingCommits buffers commit votes that arrived before this
	// replica validated the proposal (message interleaving makes this
	// common: peers only need 2f+1 prepares, not ours).
	pendingCommits map[int32]*Commit
}

// Replica is one cluster member's consensus engine.
type Replica struct {
	cfg          Config
	self         NodeID
	peers        []NodeID
	nextDeliver  int64 // next batch ID to deliver
	nextValidate int64 // next batch ID to validate (runs ahead of delivery)
	nextPropose  int64 // next slot the leader may propose into
	instances    map[int64]*instance
	// pendingPrePrepare buffers proposals that arrived before their turn.
	pendingPrePrepare map[int64]*PrePrepare
	lastDigest        protocol.Digest // digest of last delivered batch
	// lastValidated chains speculative validation: the digest of the
	// newest validated slot, which the next slot's PrevDigest must match.
	lastValidated protocol.Digest

	// View-change state (viewchange.go). view is the current view; while
	// viewActive is false the replica has voted the leader out (or holds a
	// NewView it cannot install yet) and accepts no new proposals.
	view       uint64
	viewActive bool
	// votedFor is the highest view this replica has cast a ViewChange
	// vote for; it never votes the same or a lower view twice.
	votedFor uint64
	// vcVotes holds at most one verified ViewChange vote per replica (its
	// newest), keyed by target view then voter.
	vcVotes map[uint64]map[int32]*protocol.ViewChange
	// lastHeader/lastCert are the certified tip carried in view-change
	// votes: the newest delivered batch header and an f+1 certificate
	// over its digest (genesis until the first delivery).
	lastHeader protocol.BatchHeader
	lastCert   cryptoutil.Certificate
	// pendingNewView is a verified NewView this replica cannot install
	// yet because its delivery point trails the certificate's global tip;
	// retried after every delivery and after state transfer.
	pendingNewView *protocol.NewView
	// currentView mirrors view for cross-thread readers.
	currentView atomic.Uint64
	viewChanges atomic.Int64

	// verify checks a peer's proposal or vote signature (cryptoutil.Verify;
	// a field so a test can count which signers a replica spends it on).
	verify func(pub ed25519.PublicKey, msg, sig []byte) bool

	// Equivocation evidence: leader proposals seen per ID.
	proposedDigest map[int64]protocol.Digest
	// highestSeen is the largest sequence number observed in any
	// consensus message (including ones dropped for being beyond the
	// buffering window) — the signal the enclosing node uses to detect
	// that it has fallen behind and must state-transfer.
	highestSeen int64
	// Fault counters are atomic so tests and monitoring can read them
	// while the event loop runs.
	equivocations atomic.Int64
	rejected      atomic.Int64
	droppedAhead  atomic.Int64
}

// New creates a replica engine. Batch IDs start at 1 (batch 0 is the
// implicit genesis data load).
func New(cfg Config) *Replica {
	if cfg.MaxInFlight < 1 {
		cfg.MaxInFlight = 1
	}
	r := &Replica{
		cfg:               cfg,
		self:              NodeID{Cluster: cfg.Cluster, Replica: cfg.Replica},
		verify:            cryptoutil.Verify,
		nextDeliver:       1,
		nextValidate:      1,
		nextPropose:       1,
		instances:         make(map[int64]*instance),
		pendingPrePrepare: make(map[int64]*PrePrepare),
		proposedDigest:    make(map[int64]protocol.Digest),
		lastDigest:        cfg.GenesisDigest,
		lastValidated:     cfg.GenesisDigest,
		viewActive:        true,
		vcVotes:           make(map[uint64]map[int32]*protocol.ViewChange),
		lastHeader:        cfg.GenesisHeader,
		lastCert:          cfg.GenesisCert,
	}
	for i := 0; i < cfg.N; i++ {
		r.peers = append(r.peers, NodeID{Cluster: cfg.Cluster, Replica: int32(i)})
	}
	return r
}

// LeaderReplica is the leader index of view 0 within each cluster (the
// round-robin rotation starts here; see leaderAt).
const LeaderReplica int32 = 0

// leaderAt returns the leader replica index for a view: round-robin over
// the cluster, view 0 led by replica 0.
func (r *Replica) leaderAt(view uint64) int32 {
	return int32(view % uint64(r.cfg.N))
}

// IsLeader reports whether this replica leads its cluster in the current
// view.
func (r *Replica) IsLeader() bool { return r.cfg.Replica == r.leaderAt(r.view) }

// CanPropose reports whether this replica may propose right now: it must
// lead the current view, the view must be active (no view change in
// progress), and no NewView may be pending installation.
func (r *Replica) CanPropose() bool {
	return r.IsLeader() && r.viewActive && r.pendingNewView == nil
}

// LeaderID returns the node identity of the current view's leader, for
// routing client and 2PC traffic.
func (r *Replica) LeaderID() NodeID {
	return NodeID{Cluster: r.cfg.Cluster, Replica: r.leaderAt(r.view)}
}

// CurrentView returns the replica's view. Safe to read from any
// goroutine (tests and monitoring poll it while the event loop runs).
func (r *Replica) CurrentView() uint64 { return r.currentView.Load() }

// ViewActive reports whether the current view is operational (false
// while a view change is in progress).
func (r *Replica) ViewActive() bool { return r.viewActive }

// ViewChanges returns how many new views this replica has installed.
func (r *Replica) ViewChanges() int { return int(r.viewChanges.Load()) }

// PendingWork reports whether the consensus layer has undelivered state
// that only leader progress (or a view change) can resolve — the signal
// the enclosing node's progress timer arms on.
func (r *Replica) PendingWork() bool {
	return !r.viewActive || len(r.instances) > 0 || len(r.pendingPrePrepare) > 0
}

// NextID returns the ID the next proposed batch must carry.
func (r *Replica) NextID() int64 { return r.nextPropose }

// InFlight returns how many proposals are between Propose and delivery.
func (r *Replica) InFlight() int { return int(r.nextPropose - r.nextDeliver) }

// LastDigest returns the digest of the last delivered batch (zero digest
// before any delivery), for chaining PrevDigest.
func (r *Replica) LastDigest() protocol.Digest { return r.lastDigest }

// Equivocations returns how many conflicting leader proposals this replica
// has detected.
func (r *Replica) Equivocations() int { return int(r.equivocations.Load()) }

// Rejected returns how many proposals failed content validation here.
func (r *Replica) Rejected() int { return int(r.rejected.Load()) }

// DroppedAhead returns how many consensus messages were dropped for
// carrying sequence numbers beyond the buffering window.
func (r *Replica) DroppedAhead() int { return int(r.droppedAhead.Load()) }

// HighestSeen returns the largest sequence number observed in any
// consensus message, including dropped ones.
func (r *Replica) HighestSeen() int64 { return r.highestSeen }

// maxAhead is how far beyond nextDeliver a message's sequence number may
// run before it is dropped instead of buffered. An honest leader never
// proposes past its own nextDeliver + MaxInFlight; the extra window
// absorbs the skew between our delivery point and the quorum's (the
// transport itself reorders nothing within a cluster: links of equal
// latency deliver in send order, DESIGN §12). Anything further means we
// lost messages for good — buffering cannot help, only state transfer
// can — so the buffers stay bounded at O(maxAhead) instances.
func (r *Replica) maxAhead() int64 {
	return 2*int64(r.cfg.MaxInFlight) + 2
}

// observe tracks the highest sequence number seen and reports whether
// the message is within the buffering window. Out-of-window messages
// are counted and dropped by the callers. The recorded high-water mark
// is clamped a couple of windows ahead of nextDeliver: sequence numbers
// in Prepare/Commit messages are unauthenticated, so one forged huge ID
// must not pin Lagging() true forever — the clamp keeps the signal
// (beyond the window ⇒ sync) while letting it heal as delivery (or a
// settle after a futile sync) advances.
func (r *Replica) observe(id int64) bool {
	ahead := r.maxAhead()
	if capped := min(id, r.nextDeliver+2*ahead); capped > r.highestSeen {
		r.highestSeen = capped
	}
	if id >= r.nextDeliver+ahead {
		r.droppedAhead.Add(1)
		return false
	}
	return true
}

// SettleHighestSeen lowers the observed high-water mark to tip. The
// enclosing node calls it after a state-transfer round that found
// nothing newer than tip: whatever raised the mark beyond it (a forged
// sequence number, or traffic already superseded) is not fetchable, so
// leaving it high would re-trigger sync forever. Genuine new traffic
// raises the mark again immediately.
func (r *Replica) SettleHighestSeen(tip int64) {
	if tip < r.highestSeen {
		r.highestSeen = tip
	}
}

// Lagging reports whether this replica has observed consensus traffic so
// far beyond its delivery point that it has started dropping messages —
// the condition under which only a state transfer can restore liveness.
func (r *Replica) Lagging() bool {
	return r.highestSeen >= r.nextDeliver+r.maxAhead()
}

// Reset re-bases the engine after a state transfer: the log prefix up to
// base (with the given batch digest, header, and consensus certificate)
// is installed out of band, so consensus resumes at base+1 with all
// per-slot state below (and any stale buffered state) discarded. The
// enclosing node guarantees base is a certified log position; header and
// cert become the certified tip carried in view-change votes.
func (r *Replica) Reset(base int64, digest protocol.Digest, header protocol.BatchHeader, cert cryptoutil.Certificate) {
	r.nextDeliver = base + 1
	r.nextValidate = base + 1
	r.nextPropose = base + 1
	r.lastDigest = digest
	r.lastValidated = digest
	r.lastHeader = header
	r.lastCert = cert
	r.instances = make(map[int64]*instance)
	r.pendingPrePrepare = make(map[int64]*PrePrepare)
	r.proposedDigest = make(map[int64]protocol.Digest)
	// Observations from before the reset describe slots the transfer
	// already covered (or forged numbers); discard them with the rest of
	// the stale state so Lagging() reflects post-reset traffic only.
	r.highestSeen = base
	// A NewView that was waiting for this replica to catch up may be
	// installable now that the transfer advanced the delivery point.
	if nv := r.pendingNewView; nv != nil {
		r.adoptNewView(nv)
	}
}

// TruncateBelow discards per-slot bookkeeping for slots below base (the
// cluster's stable checkpoint): equivocation evidence in proposedDigest
// and any stale buffered proposals or instances. Without this the
// evidence map grows for the life of the replica — slots that were
// proposed but never delivered (an equivocating leader's leftovers) were
// never cleaned up.
func (r *Replica) TruncateBelow(base int64) {
	for id := range r.proposedDigest {
		if id < base {
			delete(r.proposedDigest, id)
		}
	}
	for id := range r.pendingPrePrepare {
		if id < base {
			delete(r.pendingPrePrepare, id)
		}
	}
	for id := range r.instances {
		if id < base {
			delete(r.instances, id)
		}
	}
}

// Errors.
var (
	ErrNotLeader    = errors.New("bft: propose called on non-leader")
	ErrViewChanging = errors.New("bft: view change in progress")
	ErrBadBatchID   = errors.New("bft: proposed batch has wrong ID")
	ErrPipelineFull = errors.New("bft: MaxInFlight proposals already outstanding")
)

// Propose starts consensus on the next free slot. Only the current
// view's leader calls this; up to MaxInFlight proposals may be
// outstanding at once, and the batch must carry the next sequence number
// (NextID).
func (r *Replica) Propose(b *protocol.Batch) error {
	if !r.IsLeader() {
		return ErrNotLeader
	}
	if !r.CanPropose() {
		return ErrViewChanging
	}
	if b.ID != r.nextPropose {
		return fmt.Errorf("%w: got %d, want %d", ErrBadBatchID, b.ID, r.nextPropose)
	}
	if b.ID >= r.nextDeliver+int64(r.cfg.MaxInFlight) {
		return fmt.Errorf("%w: %d in flight", ErrPipelineFull, r.InFlight())
	}
	r.nextPropose = b.ID + 1
	if r.cfg.Behavior.TamperBatch != nil {
		// Mutating a proposal must never happen behind a sealed batch's
		// cached digest: the caller (the leader's core) may hold the
		// original in its speculative chain. Tampering therefore works on
		// a memo-detached copy; the injected function must copy any
		// segment slice it mutates (see DESIGN.md, "Digest memoization").
		b = b.MutableCopy()
		r.cfg.Behavior.TamperBatch(b)
	}
	if r.cfg.Behavior.Equivocate {
		// Byzantine leader: different content per replica.
		for i, peer := range r.peers {
			forged := b.MutableCopy()
			forged.Timestamp = b.Timestamp + int64(i)
			forged.Seal()
			d := forged.Digest()
			r.send(peer, &PrePrepare{View: r.view, Batch: forged, LeaderSig: r.cfg.Keys.Sign(d[:])})
		}
		return nil
	}
	// Seal before broadcast: the digest computed here for the leader's
	// signature is the one every replica (and the leader's own validation
	// and delivery steps) will reuse.
	b.Seal()
	d := b.Digest()
	pp := &PrePrepare{View: r.view, Batch: b, LeaderSig: r.cfg.Keys.Sign(d[:])}
	r.broadcast(pp)
	return nil
}

func (r *Replica) send(to NodeID, msg any) {
	if r.cfg.Behavior.Silent {
		return
	}
	r.cfg.Net.Send(r.self, to, msg)
}

func (r *Replica) broadcast(msg any) {
	if r.cfg.Behavior.Silent {
		return
	}
	// One envelope build and one network-lock acquisition for the whole
	// fan-out, instead of per peer.
	r.cfg.Net.Broadcast(r.self, r.peers, msg)
}

// Handle processes one consensus message. It returns true if the message
// was a consensus message (consumed), false if the payload is not for this
// layer.
func (r *Replica) Handle(from NodeID, payload any) bool {
	switch m := payload.(type) {
	case *PrePrepare:
		r.onPrePrepare(from, m)
	case *Prepare:
		r.onPrepare(from, m)
	case *Commit:
		r.onCommit(from, m)
	case *protocol.ViewChange:
		r.onViewChange(from, m)
	case *protocol.NewView:
		r.onNewView(from, m)
	default:
		return false
	}
	return true
}

func (r *Replica) inst(id int64) *instance {
	in, ok := r.instances[id]
	if !ok {
		in = &instance{
			id:             id,
			prepares:       make(map[int32]prepVote),
			commits:        make(map[int32][]byte),
			pendingCommits: make(map[int32]*Commit),
		}
		r.instances[id] = in
	}
	return in
}

func (r *Replica) onPrePrepare(from NodeID, m *PrePrepare) {
	if from.Cluster != r.cfg.Cluster || from.Replica != r.leaderAt(m.View) {
		return // only the view's leader proposes
	}
	if m.View != r.view || !r.viewActive {
		// Stale-view proposals are dead; future-view proposals mean we
		// missed a NewView — the Lagging/state-transfer path (which also
		// carries the cluster's view) catches us up.
		return
	}
	b := m.Batch
	if b == nil || b.Cluster != r.cfg.Cluster || b.ID < r.nextDeliver {
		return
	}
	if !r.observe(b.ID) {
		return // beyond the buffering window; state transfer catches us up
	}
	d := b.Digest()
	// The leader's own proposal loops back through the broadcast; it signed
	// that one itself, a moment ago.
	if from != r.self && !r.verify(r.cfg.Ring.PublicKey(from), d[:], m.LeaderSig) {
		return // forged proposal
	}
	if prev, ok := r.proposedDigest[b.ID]; ok && prev != d {
		// Leader equivocation: conflicting proposals for the same slot.
		r.equivocations.Add(1)
		return
	}
	r.proposedDigest[b.ID] = d

	if b.ID > r.nextValidate {
		r.pendingPrePrepare[b.ID] = m
		return
	}
	r.startInstance(m)
}

// startInstance validates the proposal for the next slot of the
// validation chain and votes. Validation runs ahead of delivery: the slot
// must chain off the newest validated proposal, not the newest delivered
// one, so a pipelining leader's slots all enter their Prepare phase
// without waiting for predecessors to commit.
func (r *Replica) startInstance(m *PrePrepare) {
	b := m.Batch
	in := r.inst(b.ID)
	if in.validated || in.delivered || b.ID != r.nextValidate {
		return
	}
	if b.PrevDigest != r.lastValidated {
		r.rejected.Add(1)
		return // does not extend our (speculative) log
	}
	if r.cfg.Validate != nil {
		if err := r.cfg.Validate(b); err != nil {
			r.rejected.Add(1)
			return // withhold vote; malicious content dies here
		}
	}
	in.batch = b
	in.digest = b.Digest()
	in.view = r.view
	in.validated = true
	r.lastValidated = in.digest
	r.nextValidate = b.ID + 1
	r.broadcastPrepare(in)
	r.replayPendingCommits(in)
	r.maybeCommit(in)
	r.maybeDeliver(in)
	// A buffered proposal for the next slot can be validated right away.
	if pp, ok := r.pendingPrePrepare[r.nextValidate]; ok {
		delete(r.pendingPrePrepare, r.nextValidate)
		r.startInstance(pp)
	}
}

// replayPendingCommits re-checks commit votes that arrived before this
// replica validated the proposal. Pipelined slots make these bursts
// common — peers race whole consensus phases ahead — so the buffered
// votes' certificate signatures are verified concurrently (they are
// independent Ed25519 checks) before the results are applied serially.
func (r *Replica) replayPendingCommits(in *instance) {
	if len(in.pendingCommits) == 0 {
		return
	}
	reps := make([]int32, 0, len(in.pendingCommits))
	checks := make([]cryptoutil.SigCheck, 0, len(in.pendingCommits))
	for rep, c := range in.pendingCommits {
		delete(in.pendingCommits, rep)
		pub, ok := r.vetCommit(in, NodeID{Cluster: r.cfg.Cluster, Replica: rep}, c)
		if !ok {
			continue
		}
		reps = append(reps, rep)
		checks = append(checks, cryptoutil.SigCheck{Pub: pub, Msg: c.Digest[:], Sig: c.CertSig})
	}
	for i, ok := range cryptoutil.VerifyEach(checks) {
		if ok {
			in.commits[reps[i]] = checks[i].Sig
		}
	}
}

// vetCommit runs the cheap acceptance checks shared by the direct and
// buffered-replay commit paths — digest match and signer lookup —
// returning the key for the (expensive) signature verification each path
// schedules its own way.
func (r *Replica) vetCommit(in *instance, from NodeID, m *Commit) (ed25519.PublicKey, bool) {
	if m.Digest != in.digest {
		return nil, false
	}
	pub := r.cfg.Ring.PublicKey(from)
	if pub == nil {
		return nil, false
	}
	return pub, true
}

// broadcastPrepare signs and sends this replica's prepare for the
// instance in its adopted view, and counts it here: the copy the
// broadcast loops back is then a duplicate, dropped before its signature
// is verified. A silent replica counts nothing it did not send.
func (r *Replica) broadcastPrepare(in *instance) {
	psd := protocol.PrepareSigDigest(r.cfg.Cluster, in.view, in.id, in.digest)
	sig := r.cfg.Keys.Sign(psd[:])
	if !r.cfg.Behavior.Silent {
		in.prepares[r.cfg.Replica] = prepVote{view: in.view, digest: in.digest, sig: sig}
	}
	r.broadcast(&Prepare{View: in.view, ID: in.id, Digest: in.digest, Sig: sig})
}

func (r *Replica) onPrepare(from NodeID, m *Prepare) {
	if from.Cluster != r.cfg.Cluster || m.ID < r.nextDeliver {
		return
	}
	if !r.observe(m.ID) {
		return
	}
	in := r.inst(m.ID)
	if prev, ok := in.prepares[from.Replica]; ok && prev.view >= m.View {
		return // keep each replica's newest-view prepare only
	}
	if in.committed && m.View <= in.view {
		// Our commit for this view is out: it took 2f+1 verified prepares
		// for (in.view, in.digest), which is all a view-change vote relays,
		// and one more — or one from an older view — decides nothing.
		return
	}
	// Verify eagerly against the prepare's own claimed (view, id, digest):
	// commit quorums are counted from these votes, and the safety of the
	// view-change frontier (DESIGN §7) rests on every counted prepare
	// being a relayable signature. A byzantine replica that attached
	// garbage here must not count toward prepared-ness.
	psd := protocol.PrepareSigDigest(r.cfg.Cluster, m.View, m.ID, m.Digest)
	pub := r.cfg.Ring.PublicKey(from)
	if pub == nil || !r.verify(pub, psd[:], m.Sig) {
		return
	}
	in.prepares[from.Replica] = prepVote{view: m.View, digest: m.Digest, sig: m.Sig}
	r.maybeCommit(in)
	r.maybeDeliver(in) // our own commit vote may be the one that completes the quorum
}

// maybeCommit sends the Commit vote once 2f+1 matching Prepares are held
// for the digest this replica validated, in the view it validated it.
// The per-view match is what makes "prepared" transferable: any replica
// holding a commit quorum member's evidence holds 2f+1 signatures over
// one (view, id, digest) triple.
func (r *Replica) maybeCommit(in *instance) {
	if !in.validated || in.committed {
		return
	}
	quorum := 2*r.cfg.F + 1
	matching := 0
	for _, pv := range in.prepares {
		if pv.digest == in.digest && pv.view == in.view {
			matching++
		}
	}
	if matching < quorum {
		return
	}
	in.committed = true
	sig := r.cfg.Keys.Sign(in.digest[:])
	if r.cfg.Behavior.CorruptCertSig {
		sig = make([]byte, len(sig)) // zeroed garbage, kept out of our own certificates too
	} else if !r.cfg.Behavior.Silent {
		in.commits[r.cfg.Replica] = sig // counted here, as in broadcastPrepare
	}
	r.broadcast(&Commit{View: in.view, ID: in.id, Digest: in.digest, CertSig: sig})
}

func (r *Replica) onCommit(from NodeID, m *Commit) {
	if from.Cluster != r.cfg.Cluster || m.ID < r.nextDeliver {
		return
	}
	if !r.observe(m.ID) {
		return
	}
	in := r.inst(m.ID)
	if _, dup := in.commits[from.Replica]; dup {
		return
	}
	if !in.validated {
		// Cannot check the digest yet; hold until validation.
		if _, dup := in.pendingCommits[from.Replica]; !dup {
			in.pendingCommits[from.Replica] = m
		}
		return
	}
	r.acceptCommit(in, from, m)
	r.maybeDeliver(in)
}

// acceptCommit records a commit vote after digest and signature checks.
// Only votes whose certificate signature actually verifies are counted —
// corrupt signatures must never reach the assembled certificate.
func (r *Replica) acceptCommit(in *instance, from NodeID, m *Commit) {
	pub, ok := r.vetCommit(in, from, m)
	if !ok || !r.verify(pub, m.Digest[:], m.CertSig) {
		return
	}
	in.commits[from.Replica] = m.CertSig
}

// maybeDeliver delivers the instance once it holds a 2f+1 commit quorum,
// assembling the f+1-signature certificate from the verified commit
// signatures. Delivery is strictly in ID order.
func (r *Replica) maybeDeliver(in *instance) {
	if in.delivered || !in.validated || in.id != r.nextDeliver {
		return
	}
	quorum := 2*r.cfg.F + 1
	if len(in.commits) < quorum {
		return
	}
	in.delivered = true

	// Deterministic certificate: lowest replica indices first.
	replicas := make([]int32, 0, len(in.commits))
	for rep := range in.commits {
		replicas = append(replicas, rep)
	}
	sort.Slice(replicas, func(i, j int) bool { return replicas[i] < replicas[j] })
	cert := cryptoutil.Certificate{Cluster: r.cfg.Cluster}
	for _, rep := range replicas[:r.cfg.F+1] {
		cert.Signatures = append(cert.Signatures, cryptoutil.Signature{
			Signer: NodeID{Cluster: r.cfg.Cluster, Replica: rep},
			Sig:    in.commits[rep],
		})
	}

	r.lastDigest = in.digest
	r.lastHeader = in.batch.Header()
	r.lastCert = cert
	r.nextDeliver = in.id + 1
	delete(r.instances, in.id)
	delete(r.proposedDigest, in.id)

	if r.cfg.Deliver != nil {
		r.cfg.Deliver(protocol.CertifiedBatch{Batch: in.batch, Cert: cert})
	}

	// A pipelined successor may already hold its commit quorum; deliver it
	// now that it is next in line.
	if next, ok := r.instances[r.nextDeliver]; ok {
		r.maybeDeliver(next)
	}

	// A NewView that was waiting on our delivery point may be installable
	// now (it clears pendingNewView before touching instances, so the
	// recursion above cannot re-enter it).
	if nv := r.pendingNewView; nv != nil {
		r.adoptNewView(nv)
	}
}
