package transport

import (
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestQueueOrder drives the heap directly: whatever order deadlines are
// inserted in, pop yields them by deadline, ties by send sequence.
func TestQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s scheduler
	const count = 10000
	for i := 0; i < count; i++ {
		s.seq++
		s.insert(pending{at: time.Duration(rng.Intn(count / 10)), seq: s.seq})
	}
	prev := s.pop()
	for i := 1; i < count; i++ {
		p := s.pop()
		if p.before(&prev) {
			t.Fatalf("pop %d: (%v, %d) after (%v, %d)", i, p.at, p.seq, prev.at, prev.seq)
		}
		prev = p
	}
	if len(s.queue) != 0 {
		t.Fatalf("%d entries left after popping all", len(s.queue))
	}
}

// stamped is a payload whose sender records when Send returned, which
// bounds the deadline the scheduler stamped from above (SentAt bounds it
// from below).
type stamped struct {
	n        int
	returned atomic.Int64 // nanoseconds since the test's start
}

// TestDeliveryOrder: eight senders over links of two latencies, 10 000
// envelopes. Each link is FIFO, and across links delivery follows the
// deadlines: an envelope is never delivered after one whose deadline was
// certainly later.
func TestDeliveryOrder(t *testing.T) {
	const senders, perSender = 8, 1250
	lat := func(from, _ NodeID) time.Duration {
		if from.Replica%2 == 0 {
			return 200 * time.Microsecond
		}
		return time.Millisecond
	}
	n := NewNetwork()
	defer n.Stop()
	n.SetLatency(lat)
	to := id(0, 0)
	in := n.Register(to)
	start := time.Now()

	var wg sync.WaitGroup
	for s := int32(0); s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				p := &stamped{n: i}
				n.Send(id(1, s), to, p)
				p.returned.Store(int64(time.Since(start)))
			}
		}()
	}
	got := make([]Envelope, 0, senders*perSender)
	for len(got) < cap(got) {
		select {
		case e := <-in:
			got = append(got, e)
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d envelopes delivered", len(got), cap(got))
		}
	}
	wg.Wait()

	next := make(map[NodeID]int)
	var latestEarliest time.Duration // over everything delivered so far
	for i, e := range got {
		p := e.Payload.(*stamped)
		if p.n != next[e.From] {
			t.Fatalf("delivery %d: link %v delivered %d, want %d", i, e.From, p.n, next[e.From])
		}
		next[e.From]++
		d := lat(e.From, to)
		earliest := e.SentAt.Sub(start) + d
		latest := time.Duration(p.returned.Load()) + d
		if latest < latestEarliest {
			t.Fatalf("delivery %d: deadline at most %v delivered after a deadline of at least %v", i, latest, latestEarliest)
		}
		latestEarliest = max(latestEarliest, earliest)
	}
}

// TestEarlierDeadlineWakesScheduler: a short-delay envelope sent while the
// scheduler sleeps on a long one is delivered at its own deadline.
func TestEarlierDeadlineWakesScheduler(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	slow, fast := id(0, 1), id(0, 2)
	n.SetLatency(func(_, to NodeID) time.Duration {
		if to == slow {
			return 50 * time.Millisecond
		}
		return 100 * time.Microsecond
	})
	slowIn, fastIn := n.Register(slow), n.Register(fast)
	start := time.Now()
	n.Send(id(0, 0), slow, "slow")
	time.Sleep(time.Millisecond)
	n.Send(id(0, 0), fast, "fast")
	select {
	case <-fastIn:
		if d := time.Since(start); d > 25*time.Millisecond {
			t.Fatalf("100µs envelope delivered after %v: it waited for the scheduler's 50ms sleep", d)
		}
	case <-slowIn:
		t.Fatal("50ms envelope delivered before the 100µs one")
	}
	<-slowIn
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("50ms envelope delivered after %v", d)
	}
}

// medianLateness sends count envelopes one at a time over an otherwise
// idle network and returns the median delivery time beyond delay.
func medianLateness(delay time.Duration, count int) time.Duration {
	n := NewNetwork()
	defer n.Stop()
	n.SetLatency(func(NodeID, NodeID) time.Duration { return delay })
	in := n.Register(id(0, 1))
	late := make([]time.Duration, count)
	for i := range late {
		start := time.Now()
		n.Send(id(0, 0), id(0, 1), i)
		<-in
		late[i] = time.Since(start) - delay
	}
	slices.Sort(late)
	return late[count/2]
}

// TestIdleLatenessBound: on an idle network a sub-millisecond delay is
// delivered within 250µs of its deadline (a Go timer alone is about a
// millisecond late). The bound is on the wake-up mechanism, not on the
// machine, so a round disturbed by other processes is run again.
func TestIdleLatenessBound(t *testing.T) {
	fd := newTimerfd(func() {})
	if fd == nil {
		t.Skip("no timerfd on this platform: idle delivery falls back to the Go timer's millisecond granularity")
	}
	fd.close()
	for _, delay := range []time.Duration{100 * time.Microsecond, 500 * time.Microsecond} {
		var best time.Duration
		for round := 0; round < 5; round++ {
			if m := medianLateness(delay, 200); round == 0 || m < best {
				best = m
			}
			if best < 250*time.Microsecond {
				break
			}
		}
		t.Logf("delay %v: median lateness %v", delay, best)
		if best >= 250*time.Microsecond {
			t.Errorf("delay %v: median lateness %v in the best of 5 rounds, want < 250µs", delay, best)
		}
	}
}

// openFDs counts this process's descriptors, or returns -1 where /proc
// does not list them.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestStopDropsPendingAndReleasesEverything: Stop with 1 000 envelopes in
// the queue returns without waiting for their deadlines, delivers none of
// them, and leaves neither a goroutine nor a descriptor behind.
func TestStopDropsPendingAndReleasesEverything(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	// The first timerfd makes the runtime open its poller's descriptors,
	// which stay; do that before counting descriptors.
	medianLateness(time.Microsecond, 1)
	fds := openFDs()

	n := NewNetwork()
	n.SetLatency(func(NodeID, NodeID) time.Duration { return time.Second })
	in := n.Register(id(0, 1))
	const pendingCount = 1000
	for i := 0; i < pendingCount; i++ {
		n.Send(id(0, 0), id(0, 1), i)
	}
	start := time.Now()
	n.Stop()
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("Stop took %v with deliveries pending a second out", d)
	}
	for e := range in {
		t.Fatalf("envelope %v delivered after Stop", e.Payload)
	}
	if s, d, x := n.Stats.Sent.Load(), n.Stats.Delivered.Load(), n.Stats.Dropped.Load(); s != pendingCount || d != 0 || x != pendingCount {
		t.Fatalf("sent %d delivered %d dropped %d, want %d 0 %d", s, d, x, pendingCount, pendingCount)
	}
	n.Send(id(0, 0), id(0, 1), "after stop") // must not restart anything
	for wait := time.Duration(0); runtime.NumGoroutine() > goroutines; wait += time.Millisecond {
		if wait > 2*time.Second {
			t.Fatalf("%d goroutines after Stop, %d before NewNetwork", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond) // mailbox pumps exit on their own
	}
	if got := openFDs(); got != fds {
		t.Fatalf("%d descriptors open after Stop, %d before NewNetwork", got, fds)
	}
}

// TestCrashDropsInFlightAndCountsThem: envelopes in flight to a node that
// crashes are dropped, also when the node is registered again before they
// fall due, and every envelope sent is counted exactly once, as delivered
// or as dropped.
func TestCrashDropsInFlightAndCountsThem(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	a, b, c := id(0, 0), id(0, 1), id(0, 2)
	// The in-flight envelopes travel from c on a link they cannot outlive
	// before the crash, however slowly the 100 sends run; "new" travels
	// from a on a longer one, so it falls due after all of them.
	const oldLatency, newLatency = 200 * time.Millisecond, 250 * time.Millisecond
	n.SetLatency(func(from, _ NodeID) time.Duration {
		if from == c {
			return oldLatency
		}
		return newLatency
	})
	n.Register(b)
	const inFlight = 100
	for i := 0; i < inFlight; i++ {
		n.Send(c, b, "old")
	}
	n.Deregister(b)
	fresh := n.Register(b)
	n.Send(a, b, "new")

	select {
	case e := <-fresh:
		if e.Payload != "new" {
			t.Fatalf("new incarnation received %q, addressed to the old one", e.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("new incarnation received nothing")
	}
	// "new" was sent last on the longer link, so everything before it
	// has been handled.
	select {
	case e := <-fresh:
		t.Fatalf("new incarnation received a second envelope, %q", e.Payload)
	default:
	}
	// The receiver can run before the scheduler has counted the delivery.
	stats := func() (int64, int64, int64) {
		return n.Stats.Sent.Load(), n.Stats.Delivered.Load(), n.Stats.Dropped.Load()
	}
	for wait := time.Duration(0); wait < time.Second; wait += time.Millisecond {
		if s, d, x := stats(); s == d+x {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if s, d, x := stats(); s != inFlight+1 || d != 1 || x != inFlight {
		t.Fatalf("sent %d delivered %d dropped %d, want %d 1 %d", s, d, x, inFlight+1, inFlight)
	}
}

// TestMailboxFastPathKeepsOrder plays the pump by hand to hold the
// mailbox in the one state where a direct send would overtake: the queue
// is empty and out has room, but the pump has popped an envelope it has
// not sent yet.
func TestMailboxFastPathKeepsOrder(t *testing.T) {
	m := &mailbox{out: make(chan Envelope, 1)}
	m.cond = sync.NewCond(&m.mu)
	m.push(Envelope{Payload: 0}) // direct
	m.push(Envelope{Payload: 1}) // out is full: queued
	held, _ := m.take()
	<-m.out // the reader takes 0; out has room again
	m.push(Envelope{Payload: 2})
	if len(m.out) != 0 {
		t.Fatal("push sent directly while the pump held an earlier envelope")
	}
	m.out <- held
	if e := <-m.out; e.Payload != 1 {
		t.Fatalf("received %v, want 1", e.Payload)
	}
	next, _ := m.take()
	if next.Payload != 2 {
		t.Fatalf("pump popped %v, want 2", next.Payload)
	}
}
