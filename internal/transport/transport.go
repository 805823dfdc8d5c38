// Package transport provides the simulated network substrate for the
// TransEdge reproduction.
//
// The paper evaluates on five geo-distributed clusters and injects
// 0–500 ms of additional inter-cluster latency (Figs. 8, 12, 13). This
// package reproduces that environment in-process: every node owns an
// unbounded mailbox, and a pluggable latency function delays delivery
// between nodes. A filter stages byzantine faults: it drops envelopes
// (silent nodes, partitioned links) and can send forged ones in their
// place.
//
// Delayed envelopes wait in one deadline-ordered queue per Network, and
// one goroutine delivers them when they fall due (DESIGN.md §12): links
// of equal latency are FIFO in send order, and the delay a link adds is
// the one it was configured with, on a busy machine and an idle one.
//
// A production deployment would place a TCP/gRPC implementation behind the
// same Send/mailbox interface; the protocol layers above never assume
// in-process delivery.
package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"transedge/internal/cryptoutil"
)

// NodeID aliases the system-wide node identity. Clients are addressed with
// Cluster == ClientCluster.
type NodeID = cryptoutil.NodeID

// ClientCluster is the pseudo-cluster index used to address clients.
const ClientCluster int32 = -1

// Envelope is one delivered message.
type Envelope struct {
	From    NodeID
	To      NodeID
	SentAt  time.Time
	Payload any
}

// LatencyFunc returns the one-way delivery delay from one node to another.
type LatencyFunc func(from, to NodeID) time.Duration

// FilterFunc inspects an envelope before delivery; returning false drops
// it. Used to simulate silent byzantine nodes and network partitions, and
// to stage forged messages: a filter drops a node's envelope and Sends a
// forged payload under the same sender, which passes through the filter
// again. It runs inside Send and Broadcast, on the sender's goroutine,
// before the envelope is queued. Every destination of a Broadcast shares
// its payload, so a filter must not mutate a broadcast payload.
type FilterFunc func(Envelope) bool

// ClusterLatency builds the latency model used throughout the evaluation:
// a small uniform intra-cluster delay and a larger inter-cluster delay.
// Client links use the inter-cluster delay (clients are remote).
func ClusterLatency(intra, inter time.Duration) LatencyFunc {
	return func(from, to NodeID) time.Duration {
		if from.Cluster == to.Cluster && from.Cluster != ClientCluster {
			return intra
		}
		return inter
	}
}

// Stats counts network traffic; tests use it to validate the message
// complexity claims (e.g., read-only transactions touch one node per
// partition).
type Stats struct {
	Sent      atomic.Int64
	Delivered atomic.Int64
	Dropped   atomic.Int64
}

// mailbox is an unbounded FIFO queue pumped into a channel, so senders
// never block and protocol logic cannot deadlock on full buffers.
//
// The queue is two slices: pushes append to tail, pops walk head. When
// head is exhausted the slices swap, reusing both backing arrays: O(1)
// amortized, and a popped envelope's payload is not kept reachable.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	head    []Envelope // pop side: head[headPos:] is the front of the queue
	headPos int
	tail    []Envelope // push side
	out     chan Envelope
	closed  bool
	pumping bool // the pump holds a popped envelope it has not yet sent on out
}

func newMailbox() *mailbox {
	m := &mailbox{out: make(chan Envelope, 64)}
	m.cond = sync.NewCond(&m.mu)
	go m.pump()
	return m
}

// push queues e and reports whether the mailbox took it; a closed mailbox
// discards. With nothing queued and nothing in the pump's hands, every
// earlier envelope is already in out, so e may follow them there directly
// and skip the handoff through the pump.
func (m *mailbox) push(e Envelope) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	if m.empty() && !m.pumping {
		select {
		case m.out <- e:
			return true
		default:
		}
	}
	m.tail = append(m.tail, e)
	m.cond.Signal()
	return true
}

// empty reports whether the queue holds no envelopes; callers hold mu.
func (m *mailbox) empty() bool {
	return m.headPos == len(m.head) && len(m.tail) == 0
}

// take blocks until an envelope is queued and pops it into the pump's
// hands; false means the mailbox was closed.
func (m *mailbox) take() (Envelope, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pumping = false
	for m.empty() && !m.closed {
		m.cond.Wait()
	}
	if m.empty() {
		return Envelope{}, false
	}
	if m.headPos == len(m.head) {
		m.head, m.tail = m.tail, m.head[:0]
		m.headPos = 0
	}
	e := m.head[m.headPos]
	m.head[m.headPos] = Envelope{} // release the payload reference now
	m.headPos++
	m.pumping = true
	return e, true
}

func (m *mailbox) pump() {
	for {
		e, ok := m.take()
		if !ok {
			close(m.out)
			return
		}
		m.out <- e
	}
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	// Drop whatever is still queued: a closed mailbox models a crashed
	// (or stopped) node, whose undelivered messages are lost.
	m.head, m.tail, m.headPos = nil, nil, 0
	m.cond.Signal()
	m.mu.Unlock()
	// Drain the delivery channel so the pump exits even when the owning
	// event loop already stopped reading (the crash/deregister path);
	// out is closed by the pump once the queue is empty, ending this
	// goroutine too.
	go func() {
		for range m.out {
		}
	}()
}

// deliver hands env to its mailbox and counts the outcome: a mailbox
// closed by Deregister or Stop while env was in flight discards it.
func (s *Stats) deliver(box *mailbox, env Envelope) {
	if box.push(env) {
		s.Delivered.Add(1)
	} else {
		s.Dropped.Add(1)
	}
}

// pending is one delayed envelope. Its mailbox was resolved when it was
// sent, so a node registered again while the envelope is in flight never
// receives what was addressed to its crashed incarnation.
type pending struct {
	at  time.Duration // deadline, measured from scheduler.epoch
	seq uint64        // send order; breaks deadline ties
	box *mailbox
	env Envelope
}

func (p *pending) before(q *pending) bool {
	return p.at < q.at || (p.at == q.at && p.seq < q.seq)
}

// scheduler delivers a Network's delayed envelopes in deadline order, ties
// in send order, from one goroutine that the first delayed send starts.
// Deadlines are stamped under mu from a monotonic clock, so nothing is
// ever queued behind a later deadline that was already delivered.
type scheduler struct {
	stats *Stats
	epoch time.Time
	wake  chan struct{} // cap 1: the earliest deadline moved, the timerfd fired, or stop
	done  chan struct{} // closed when run returns

	mu      sync.Mutex
	queue   []pending // binary min-heap under before
	seq     uint64
	running bool
	stopped bool
}

func (s *scheduler) poke() {
	select {
	case s.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// schedule queues env for delivery lat from now and reports false once the
// scheduler has stopped.
func (s *scheduler) schedule(env Envelope, box *mailbox, lat time.Duration) bool {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return false
	}
	s.seq++
	earliest := s.insert(pending{at: time.Since(s.epoch) + lat, seq: s.seq, box: box, env: env}) == 0
	if !s.running {
		s.running = true
		go s.run()
	}
	s.mu.Unlock()
	if earliest {
		s.poke() // run sleeps towards a later deadline, or none
	}
	return true
}

// insert adds p to the heap and returns the index it settles at; callers
// hold mu.
func (s *scheduler) insert(p pending) int {
	q := append(s.queue, p)
	i := len(q) - 1
	for ; i > 0 && p.before(&q[(i-1)/2]); i = (i - 1) / 2 {
		q[i] = q[(i-1)/2]
	}
	q[i] = p
	s.queue = q
	return i
}

// pop removes the earliest envelope; callers hold mu and a non-empty queue.
func (s *scheduler) pop() pending {
	q := s.queue
	top, n := q[0], len(q)-1
	p := q[n] // sinks from the root to its place among the remaining n
	q[n] = pending{}
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&p) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = p
	}
	s.queue = q[:n]
	return top
}

// run sleeps to the earliest deadline, then pushes everything due into the
// mailboxes in one pass. Two timers cover the sleep, each accurate where
// the other is not. Running Ps check Go timers at every scheduling point,
// but an idle P blocks in the network poller, which rounds a
// sub-millisecond timer up to a millisecond. The poller returns at once
// when a descriptor turns readable, which is how a timerfd expires, but
// busy Ps rarely poll.
func (s *scheduler) run() {
	defer close(s.done)
	fd := newTimerfd(s.poke)
	defer fd.close()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		s.mu.Lock()
		for len(s.queue) > 0 && s.queue[0].at <= time.Since(s.epoch) {
			p := s.pop()
			s.stats.deliver(p.box, p.env)
		}
		stopped, idle := s.stopped, len(s.queue) == 0
		var wait time.Duration
		if !idle {
			wait = s.queue[0].at - time.Since(s.epoch)
		}
		s.mu.Unlock()
		if stopped {
			return
		}
		if idle {
			<-s.wake // blocked on neither timer, so neither wakes the process for nothing
			continue
		}
		timer.Reset(wait)
		fd.arm(wait)
		select {
		case <-timer.C:
		case <-s.wake:
		}
	}
}

// stop drops what is still queued and waits for run to exit: no delayed
// envelope is delivered after it returns.
func (s *scheduler) stop() {
	s.mu.Lock()
	s.stopped = true
	s.stats.Dropped.Add(int64(len(s.queue)))
	s.queue = nil
	running := s.running
	s.mu.Unlock()
	if running {
		s.poke()
		<-s.done
	}
}

// Network routes envelopes between registered nodes with configurable
// latency and fault injection. All methods are safe for concurrent use.
type Network struct {
	mu      sync.RWMutex
	boxes   map[NodeID]*mailbox
	latency LatencyFunc
	filter  FilterFunc
	stopped bool
	sched   scheduler

	// Stats is exported for tests and the benchmark.
	Stats Stats
}

// NewNetwork creates a network with zero latency and no fault filter.
func NewNetwork() *Network {
	n := &Network{
		boxes:   make(map[NodeID]*mailbox),
		latency: func(NodeID, NodeID) time.Duration { return 0 },
	}
	n.sched = scheduler{stats: &n.Stats, epoch: time.Now(), wake: make(chan struct{}, 1), done: make(chan struct{})}
	return n
}

// SetLatency installs the latency model. Safe to call while running.
func (n *Network) SetLatency(f LatencyFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if f == nil {
		f = func(NodeID, NodeID) time.Duration { return 0 }
	}
	n.latency = f
}

// SetFilter installs a drop-and-forge filter. Pass nil to clear.
func (n *Network) SetFilter(f FilterFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.filter = f
}

// Register creates the mailbox for id and returns its delivery channel.
// Registering the same id twice returns the existing channel.
func (n *Network) Register(id NodeID) <-chan Envelope {
	n.mu.Lock()
	defer n.mu.Unlock()
	if b, ok := n.boxes[id]; ok {
		return b.out
	}
	b := newMailbox()
	n.boxes[id] = b
	return b.out
}

// Deregister tears a node's mailbox down, simulating a crash: queued and
// in-flight envelopes addressed to it are dropped, and a subsequent
// Register(id) starts from an empty mailbox — exactly the message loss a
// real process crash implies, which is what forces a restarted replica
// through the state-transfer path instead of replaying a conveniently
// preserved queue. The old delivery channel is closed once drained.
func (n *Network) Deregister(id NodeID) {
	n.mu.Lock()
	box := n.boxes[id]
	delete(n.boxes, id)
	n.mu.Unlock()
	if box != nil {
		box.close()
	}
}

// Send delivers payload from one node to another, subject to the latency
// model and drop filter. Sends to unregistered nodes are counted as drops.
func (n *Network) Send(from, to NodeID, payload any) {
	n.mu.RLock()
	if n.stopped {
		n.mu.RUnlock()
		return
	}
	box := n.boxes[to]
	lat := n.latency(from, to)
	filter := n.filter
	n.mu.RUnlock()

	env := Envelope{From: from, To: to, SentAt: time.Now(), Payload: payload}
	n.dispatch(env, box, lat, filter)
}

// Broadcast sends payload from one node to every listed destination. The
// network lock is taken and the envelope built once; only the To field
// varies per destination.
func (n *Network) Broadcast(from NodeID, tos []NodeID, payload any) {
	if len(tos) == 0 {
		return
	}
	n.mu.RLock()
	if n.stopped {
		n.mu.RUnlock()
		return
	}
	boxes := make([]*mailbox, len(tos))
	lats := make([]time.Duration, len(tos))
	for i, to := range tos {
		boxes[i] = n.boxes[to]
		lats[i] = n.latency(from, to)
	}
	filter := n.filter
	n.mu.RUnlock()

	env := Envelope{From: from, SentAt: time.Now(), Payload: payload}
	for i, to := range tos {
		env.To = to
		n.dispatch(env, boxes[i], lats[i], filter)
	}
}

// dispatch applies stats, the drop filter, and the latency model to one
// resolved envelope.
func (n *Network) dispatch(env Envelope, box *mailbox, lat time.Duration, filter FilterFunc) {
	n.Stats.Sent.Add(1)
	if box == nil || (filter != nil && !filter(env)) {
		n.Stats.Dropped.Add(1)
		return
	}
	if lat <= 0 {
		n.Stats.deliver(box, env)
	} else if !n.sched.schedule(env, box, lat) {
		n.Stats.Dropped.Add(1) // sent while Stop was running
	}
}

// Stop shuts the network down: pending deliveries are cancelled and all
// mailboxes are drained and closed.
func (n *Network) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	boxes := make([]*mailbox, 0, len(n.boxes))
	for _, b := range n.boxes {
		boxes = append(boxes, b)
	}
	n.mu.Unlock()

	n.sched.stop()
	for _, b := range boxes {
		b.close()
	}
}
