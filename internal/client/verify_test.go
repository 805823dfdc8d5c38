package client

import (
	"errors"
	"testing"
	"time"

	"transedge/internal/core"
	"transedge/internal/protocol"
)

// TestVerifyROAcceptsOnlyMultiProofReplies feeds verifyRO a reply
// captured from a live cluster. The cluster holds a single key, so its
// Merkle root is that key's leaf hash and an empty per-key membership
// proof would fold to it: the reply with its multi-proof cleared must
// still be rejected, because any reply answering a key must carry a
// multi-proof. The same reply reduced to a zero-key contact answer (the
// certified header alone, as a session closure contact receives)
// verifies with no proof.
func TestVerifyROAcceptsOnlyMultiProofReplies(t *testing.T) {
	const key = "only-key"
	sys := core.NewSystem(core.SystemConfig{
		Clusters: 1, F: 1, Seed: 21, BatchInterval: time.Millisecond,
		InitialData: map[string][]byte{key: []byte("only-value")},
	})
	sys.Start()
	t.Cleanup(sys.Stop)
	c := New(Config{ID: 1, Net: sys.Net, Ring: sys.Ring, Part: sys.Part, Clusters: 1})

	keys := []string{key}
	var r protocol.ROReply
	select {
	case r = <-c.sendRO(0, keys, -1, 0):
	case <-time.After(10 * time.Second):
		t.Fatal("no read-only reply")
	}
	if r.Multi == nil || len(r.Values) != 1 || !r.Values[0].Found {
		t.Fatalf("unexpected captured reply: %+v", r)
	}
	if _, err := c.verifyRO(0, keys, &r, 0); err != nil {
		t.Fatalf("captured reply rejected: %v", err)
	}

	perKey := r
	perKey.Multi = nil
	if _, err := c.verifyRO(0, keys, &perKey, 0); !errors.Is(err, ErrVerification) {
		t.Fatalf("reply without a multi-proof: err = %v, want ErrVerification", err)
	}

	contact := r
	contact.Values, contact.Multi = nil, nil
	if _, err := c.verifyRO(0, nil, &contact, 0); err != nil {
		t.Fatalf("zero-key contact reply rejected: %v", err)
	}
}
