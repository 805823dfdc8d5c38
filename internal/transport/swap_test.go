package transport

import (
	"sync"
	"testing"
	"time"
)

// TestSwapUnderLoad hammers SetLatency/SetFilter/Stop against concurrent
// senders with delayed deliveries in flight. Run under -race it pins the
// dispatch/Stop ordering: a send that races Stop is either queued before
// the scheduler stops, and dropped by it, or refused and counted as
// dropped, and mid-run filter/latency swaps must never tear.
func TestSwapUnderLoad(t *testing.T) {
	for round := 0; round < 8; round++ {
		n := NewNetwork()
		a := NodeID{Cluster: 0, Replica: 0}
		b := NodeID{Cluster: 0, Replica: 1}
		n.Register(a)
		inbox := n.Register(b)

		// Consume deliveries so mailbox pumps never back up.
		var drained sync.WaitGroup
		drained.Add(1)
		go func() {
			defer drained.Done()
			for range inbox {
			}
		}()

		var senders sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 4; g++ {
			senders.Add(1)
			go func() {
				defer senders.Done()
				for {
					select {
					case <-stop:
						return
					default:
						n.Send(a, b, "ping")
						n.Broadcast(a, []NodeID{b}, "pong")
					}
				}
			}()
		}
		// Swap the latency model and filter while sends are in flight.
		for i := 0; i < 50; i++ {
			if i%2 == 0 {
				n.SetLatency(func(NodeID, NodeID) time.Duration { return 50 * time.Microsecond })
				n.SetFilter(func(e Envelope) bool { return e.To == b })
			} else {
				n.SetLatency(nil)
				n.SetFilter(nil)
			}
		}
		// Stop while senders still run: nothing may enter the scheduler's
		// queue once Stop has emptied it.
		n.Stop()
		close(stop)
		senders.Wait()
		n.Deregister(b)
		drained.Wait()

		sent := n.Stats.Sent.Load()
		if got := n.Stats.Delivered.Load() + n.Stats.Dropped.Load(); got != sent {
			t.Fatalf("accounting: delivered+dropped %d, sent %d", got, sent)
		}
	}
}
