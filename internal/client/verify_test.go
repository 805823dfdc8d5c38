package client

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"transedge/internal/core"
	"transedge/internal/cryptoutil"
	"transedge/internal/merkle"
	"transedge/internal/protocol"
	"transedge/internal/store"
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

// fuzzData is FuzzVerifyRO's key space, and fuzzKeys its request: every
// preloaded key but "other", which the capture writes to, plus one key
// that was never loaded.
var (
	fuzzData = map[string][]byte{
		"fz-a": []byte("alpha"), "fz-b": []byte("bravo"), "fz-c": []byte("charlie"),
		"other": []byte("untouched"),
	}
	fuzzKeys = []string{"fz-a", "fz-b", "fz-c", "fz-absent"}
)

// captureReplies returns two honest replies to fuzzKeys from a live
// one-cluster system: one from genesis, one from a later batch. A write
// to a key outside the request separates them, so both answer with the
// preloaded values under different headers and roots.
func captureReplies(f *testing.F) ([2]protocol.ROReply, *cryptoutil.KeyRing) {
	sys := core.NewSystem(core.SystemConfig{Clusters: 1, F: 1, Seed: 31, InitialData: fuzzData})
	sys.Start()
	defer sys.Stop()
	c := New(Config{ID: 1, Net: sys.Net, Ring: sys.Ring, Part: sys.Part, Clusters: 1})
	capture := func() protocol.ROReply {
		select {
		case r := <-c.sendRO(0, fuzzKeys, -1, 0):
			return r
		case <-time.After(10 * time.Second):
			f.Fatal("no read-only reply")
		}
		return protocol.ROReply{}
	}
	var out [2]protocol.ROReply
	out[0] = capture()
	txn := c.Begin()
	txn.Write("other", []byte("moved"))
	if err := txn.Commit(); err != nil {
		f.Fatal(err)
	}
	out[1] = capture()
	if out[0].Header.ID >= out[1].Header.ID {
		f.Fatalf("captures at batches %d and %d, want increasing", out[0].Header.ID, out[1].Header.ID)
	}
	return out, sys.Ring
}

// cloneReply deep-copies every part of r a mutation may edit.
func cloneReply(r protocol.ROReply) protocol.ROReply {
	r.Values = slices.Clone(r.Values)
	for i := range r.Values {
		r.Values[i].Value = bytes.Clone(r.Values[i].Value)
	}
	if r.Multi != nil {
		r.Multi = &merkle.MultiProof{Nodes: slices.Clone(r.Multi.Nodes)}
	}
	r.Header.CD = r.Header.CD.Clone()
	r.Cert.Signatures = slices.Clone(r.Cert.Signatures)
	for i := range r.Cert.Signatures {
		r.Cert.Signatures[i].Sig = bytes.Clone(r.Cert.Signatures[i].Sig)
	}
	return r
}

// mutateReply applies one edit to r: op picks what to edit, a and b where
// and how. Indices wrap modulo the slice length, and count from the end
// where an attack names the last element. other is the second capture,
// for splicing.
func mutateReply(r, other *protocol.ROReply, op, a, b byte) {
	at := func(x byte, n int) int { return int(x) % n }
	vals, sigs := r.Values, r.Cert.Signatures
	var nodes []merkle.MultiNode
	if r.Multi != nil {
		nodes = r.Multi.Nodes
	}
	switch op % 16 {
	case 0: // flip a bit of a value, or of its writer batch
		if len(vals) > 0 {
			v := &vals[at(a, len(vals))]
			if b >= 128 {
				v.Writer ^= 1 << (b % 64)
			} else if len(v.Value) == 0 {
				v.Value = []byte{b}
			} else {
				v.Value[at(b, len(v.Value))] ^= 1
			}
		}
	case 1: // claim presence for absence, or the reverse
		if len(vals) > 0 {
			vals[at(a, len(vals))].Found = !vals[at(a, len(vals))].Found
		}
	case 2: // rename an answer to another requested key or an unrequested one
		if len(vals) > 0 {
			names := append(slices.Clone(fuzzKeys), "other", "fz-unrequested")
			vals[at(a, len(vals))].Key = names[at(b, len(names))]
		}
	case 3: // copy one answer over another, the target counted from the end
		if len(vals) > 0 {
			vals[len(vals)-1-at(b, len(vals))] = vals[at(a, len(vals))]
		}
	case 4: // swap two answers
		if len(vals) > 0 {
			i, j := at(a, len(vals)), at(b, len(vals))
			vals[i], vals[j] = vals[j], vals[i]
		}
	case 5: // drop an answer, or repeat it at the end
		if len(vals) > 0 {
			i := at(a, len(vals))
			if b%2 == 0 {
				r.Values = slices.Delete(vals, i, i+1)
			} else {
				r.Values = append(vals, vals[i])
			}
		}
	case 6: // drop a proof node, counted from the end
		if len(nodes) > 0 {
			i := len(nodes) - 1 - at(a, len(nodes))
			r.Multi.Nodes = slices.Delete(nodes, i, i+1)
		}
	case 7: // flip a bit of a proof node; b picks the field and the byte
		if len(nodes) > 0 {
			n := &nodes[at(a, len(nodes))]
			switch pos := int(b/5) % 32; b % 5 {
			case 0:
				n.Kind ^= 1 << (pos % 8)
			case 1:
				n.Bit ^= 1 << (pos % 16)
			case 2:
				n.Sibling[pos] ^= 1
			case 3:
				n.KeyHash[pos] ^= 1
			case 4:
				n.ValHash[pos] ^= 1
			}
		}
	case 8: // repeat a proof node, or strip the proof
		if b%2 == 1 {
			r.Multi = nil
		} else if len(nodes) > 0 {
			i := at(a, len(nodes))
			r.Multi.Nodes = slices.Insert(nodes, i, nodes[i])
		}
	case 9:
		r.Header.ID += int64(int8(b))
	case 10:
		r.Header.LCE += int64(int8(b))
	case 11: // shift a CD entry, or grow the vector
		if b == 0 || len(r.Header.CD) == 0 {
			r.Header.CD = append(r.Header.CD, int64(a))
		} else {
			r.Header.CD[at(a, len(r.Header.CD))] += int64(int8(b))
		}
	case 12: // flip a root bit, or shift the timestamp or the cluster
		switch a % 3 {
		case 0:
			r.Header.MerkleRoot[at(b, 32)] ^= 1
		case 1:
			r.Header.Timestamp += int64(int8(b))
		case 2:
			r.Header.Cluster += int32(int8(b))
		}
	case 13: // flip a signature bit, or drop a signature
		if len(sigs) > 0 {
			i := at(a, len(sigs))
			if b == 0 || len(sigs[i].Sig) == 0 {
				r.Cert.Signatures = slices.Delete(sigs, i, i+1)
			} else {
				sigs[i].Sig[at(b, len(sigs[i].Sig))] ^= 1
			}
		}
	case 14: // reassign a signature to another signer, possibly a repeat or an outsider
		if len(sigs) > 0 {
			s := &sigs[at(a, len(sigs))]
			s.Signer.Replica = int32(b % 5)
			if b >= 128 {
				s.Signer.Cluster++
			}
		}
	case 15: // splice the other capture's header and certificate, or its answers and proof
		if b%2 == 0 {
			r.Header, r.Cert = other.Header, other.Cert
		} else {
			r.Values, r.Multi = other.Values, other.Multi
		}
	}
}

// FuzzVerifyRO checks verifyRO against a byzantine server that may edit
// any part of an honest reply: values and their writers, Found flags,
// answer keys and their order and repeats, proof nodes, header fields,
// certificate signatures and signers, and the session floor the client
// demands. The oracle: verifyRO rejects, or it returns exactly the
// preloaded values, written by the genesis batch, under a header the
// cluster certified, at a batch at or above the floor. A reply that
// verified must verify again, to the same result, when re-served
// unchanged, to a fresh client and to the one that cached its certificate.
// Each input runs on a fresh client, so no certificate memo carries over.
func FuzzVerifyRO(f *testing.F) {
	captured, ring := captureReplies(f)
	certified := map[protocol.Digest]bool{}
	for _, r := range captured {
		certified[r.Header.Digest()] = true
	}
	newClient := func() *Client { return New(Config{ID: 1, Ring: ring, Clusters: 1}) }
	f.Add(uint8(1), int8(0), []byte{})
	f.Add(uint8(0), int8(1), []byte{})
	f.Add(uint8(1), int8(0), []byte{15, 0, 1})
	f.Fuzz(func(t *testing.T, base uint8, floor int8, ops []byte) {
		r, other := cloneReply(captured[base%2]), cloneReply(captured[1-base%2])
		for i := 0; i+2 < len(ops); i += 3 {
			mutateReply(&r, &other, ops[i], ops[i+1], ops[i+2])
		}
		served := cloneReply(r)
		c := newClient()
		got, err := c.verifyRO(0, fuzzKeys, &r, int64(floor))
		if err != nil {
			return
		}
		if got.header.ID < int64(floor) {
			t.Fatalf("accepted batch %d below the floor %d", got.header.ID, floor)
		}
		if !certified[got.header.Digest()] {
			t.Fatalf("accepted a header the cluster never certified: %+v", got.header)
		}
		if len(got.values) != len(fuzzKeys) {
			t.Fatalf("accepted %d answers for %d keys", len(got.values), len(fuzzKeys))
		}
		answered := map[string]bool{}
		for _, v := range got.values {
			want, present := fuzzData[v.Key]
			if !slices.Contains(fuzzKeys, v.Key) || answered[v.Key] {
				t.Fatalf("accepted an unrequested or repeated answer for %q", v.Key)
			}
			answered[v.Key] = true
			if v.Found != present || (present && (!bytes.Equal(v.Value, want) || v.Writer != store.GenesisBatch)) {
				t.Fatalf("accepted %q = %q by batch %d (found %v), want %q by genesis (found %v)",
					v.Key, v.Value, v.Writer, v.Found, want, present)
			}
		}
		for _, again := range []*Client{c, newClient()} {
			re := cloneReply(served)
			got2, err := again.verifyRO(0, fuzzKeys, &re, int64(floor))
			if err != nil {
				t.Fatalf("verified reply rejected when re-served: %v", err)
			}
			if !reflect.DeepEqual(got, got2) {
				t.Fatalf("re-served reply verified to %+v, first time %+v", got2, got)
			}
		}
	})
}
