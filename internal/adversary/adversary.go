// Package adversary stages faulty replicas for tests, in the network
// where honest replicas meet them: the serving code has no attack knobs.
// An attack is a value (Attack), so a table of test rows can name one per
// faulty replica, and Stage installs them all as one transport filter.
//
// Only _test.go files import this package. It does not import
// internal/bft, whose own tests import it; consensus message types
// therefore come in as type parameters (Rewrite) or as their parts
// (Repropose).
//
// Usage:
//
//	adversary.Stage(net, map[adversary.NodeID]adversary.Attack{
//		{Cluster: 0, Replica: 3}: adversary.Drop,
//		{Cluster: 0, Replica: 2}: adversary.Rewrite(func(_ adversary.NodeID, c *bft.Commit) { c.CertSig = nil }),
//	})
package adversary

import (
	"sync"
	"testing"

	"transedge/internal/cryptoutil"
	"transedge/internal/protocol"
	"transedge/internal/transport"
)

// NodeID identifies a replica, as everywhere else in the system.
type NodeID = cryptoutil.NodeID

// Attack is a faulty replica's wire behaviour: given a message it sends
// and the destination, it returns what goes out in its place — msg
// itself, a forgery under the replica's identity, or nil for nothing.
type Attack func(to NodeID, msg any) any

// Stage puts faulty replicas in net: a filter passes every message a
// listed replica sends through its attack, drops the original and sends
// any forgery in its place, under the same sender. The filter knows its
// own forgeries by pointer and lets them through. Stage replaces any
// filter net had.
func Stage(net *transport.Network, faulty map[NodeID]Attack) {
	var mu sync.Mutex
	forged := make(map[any]bool)
	net.SetFilter(func(e transport.Envelope) bool {
		a := faulty[e.From]
		if a == nil {
			return true
		}
		mu.Lock()
		own := forged[e.Payload]
		delete(forged, e.Payload)
		mu.Unlock()
		if own {
			return true
		}
		msg := a(e.To, e.Payload)
		if msg == e.Payload {
			return true
		}
		if msg != nil {
			mu.Lock()
			forged[msg] = true
			mu.Unlock()
			net.Send(e.From, e.To, msg)
		}
		return false
	})
}

// Drop sends nothing.
func Drop(NodeID, any) any { return nil }

// Rewrite forges every *T message: edit changes a copy, which goes out
// in the original's place. The original is never mutated, because
// Broadcast hands one payload to every destination. Other messages pass.
// edit must copy any slice it changes.
func Rewrite[T any](edit func(to NodeID, m *T)) Attack {
	return func(to NodeID, msg any) any {
		m, ok := msg.(*T)
		if !ok {
			return msg
		}
		c := *m
		edit(to, &c)
		return &c
	}
}

// Repropose is an equivocating leader's proposal: edit changes a
// MutableCopy of batch, which is sealed and signed with key as the
// leader's prepare in view. It returns the new batch and its signature.
// batch itself is never mutated: it sits sealed behind its cached digest
// in the leader's own instance. edit must copy any segment slice it
// changes.
func Repropose(key cryptoutil.KeyPair, view uint64, batch *protocol.Batch, edit func(*protocol.Batch)) (*protocol.Batch, []byte) {
	b := batch.MutableCopy()
	edit(b)
	b.Seal()
	psd := protocol.PrepareSigDigest(b.Cluster, view, b.ID, b.Digest())
	return b, key.Sign(psd[:])
}

// RewriteROReplies makes target lie on the read-only path. For each
// read-only request addressed to it, a network filter swaps the reply
// channel for a fresh one, and a goroutine forwards the honest reply,
// rewritten, to the channel the client awaits; error replies pass
// unchanged. The swap is invisible to both ends: the filter runs on the
// sender's goroutine before dispatch, and the client waits on its own
// copy of the channel. The goroutines end with tb. RewriteROReplies
// replaces any filter net had.
func RewriteROReplies(tb testing.TB, net *transport.Network, target NodeID, rewrite func(protocol.ROReply) protocol.ROReply) {
	done := make(chan struct{})
	tb.Cleanup(func() { close(done) })
	net.SetFilter(func(e transport.Envelope) bool {
		req, ok := e.Payload.(*protocol.RORequest)
		if !ok || e.To != target {
			return true
		}
		to, honest := req.ReplyTo, make(chan protocol.ROReply, 1)
		req.ReplyTo = honest
		go func() {
			select {
			case r := <-honest:
				if r.Err == "" {
					r = rewrite(r)
				}
				select {
				case to <- r:
				default:
				}
			case <-done:
			}
		}()
		return true
	})
}
